"""Seeded deterministic event scheduler — the runtime's beating heart.

The async runtime never touches wall-clock or an OS event loop in tests:
every future action is an entry in one virtual-time heap, and the order
two co-temporal events run in is decided by a *seeded* tie-break drawn
when the event is scheduled.  Two consequences, both load-bearing:

* **Reproducibility** — the same ``seed`` replays the exact event order,
  byte for byte, which is what the determinism suite pins down.
* **Schedule exploration** — different seeds permute the order of
  concurrent events (message deliveries, timers, actor turns), so the
  differential suite can sweep seeds and assert committed outcomes are
  *schedule-invariant*, not just reproducible.

The clock only moves forward: an event scheduled "in the past" (delay
``<= 0``) runs at the current instant, ordered by its tie-break among
everything else due now.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Set, Tuple

from repro.common.errors import ValidationError
from repro.common.rng import SeedLike, make_generator


class DeterministicScheduler:
    """A virtual-time event loop with seeded co-temporal tie-breaking."""

    def __init__(self, seed: SeedLike = 0) -> None:
        self.seed = seed
        self._rng = make_generator(f"runtime-schedule-{seed!r}")
        self.now = 0.0
        #: (due_time, tie_break, seq, callback)
        self._heap: List[Tuple[float, float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._cancelled: Set[int] = set()
        #: events executed so far (monotone; handy for progress asserts)
        self.executed = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_later(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        order_bias: float = 0.0,
    ) -> int:
        """Run ``callback`` after ``delay`` virtual seconds.

        ``order_bias`` shifts where the event sorts among events due at
        the *same* instant without changing its due time — the transport
        uses it for reorder jitter, which by contract perturbs ordering,
        never the clock.  Returns a handle for :meth:`cancel`.
        """
        if delay != delay:  # NaN guard: a NaN due time corrupts the heap
            raise ValidationError("event delay must not be NaN")
        due = self.now + max(delay, 0.0)
        handle = next(self._seq)
        # The tie-break is drawn at scheduling time, so RNG consumption
        # depends only on the scheduling sequence — never on whether
        # observability or any other read-only instrumentation is on.
        tie = float(self._rng.random()) + order_bias
        heapq.heappush(self._heap, (due, tie, handle, callback))
        return handle

    def call_at(
        self,
        when: float,
        callback: Callable[[], None],
        *,
        order_bias: float = 0.0,
    ) -> int:
        return self.call_later(when - self.now, callback, order_bias=order_bias)

    def cancel(self, handle: int) -> None:
        """Best-effort cancellation; a fired handle is silently ignored."""
        self._cancelled.add(handle)

    def clear(self) -> None:
        """Drop every pending event (the clock stays where it is)."""
        self._heap.clear()
        self._cancelled.clear()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        return len(self._heap) - len(
            self._cancelled.intersection(h for _, _, h, _ in self._heap)
        )

    def step(self) -> bool:
        """Run the next due event; returns False when the heap is empty."""
        while self._heap:
            due, _tie, handle, callback = heapq.heappop(self._heap)
            if handle in self._cancelled:
                self._cancelled.discard(handle)
                continue
            self.now = max(self.now, due)
            self.executed += 1
            callback()
            return True
        return False

    def run(
        self,
        until: Optional[Callable[[], bool]] = None,
        max_events: int = 10_000_000,
    ) -> int:
        """Drain the heap (optionally stopping once ``until()`` is true).

        ``max_events`` is a runaway-loop backstop, far above anything a
        real scenario schedules; hitting it raises instead of spinning.
        """
        ran = 0
        while self._heap:
            if until is not None and until():
                break
            if ran >= max_events:
                raise ValidationError(
                    f"scheduler exceeded {max_events} events; "
                    "likely a self-rescheduling loop"
                )
            if self.step():
                ran += 1
        return ran
