"""Benchmark-side tracing: spans around the public functions of each layer.

Nothing here touches ``src/``.  :class:`SpanRecorder` replaces a module
function or a class method with a wrapper that records one span per
call — name, start, end, parent span, and whether the call raised —
and restores the original on :meth:`SpanRecorder.uninstall`.  Spans
stay in memory; :func:`write_spans` writes them once at the end of a
run.  Every call runs on the benchmark's single thread, so spans nest
strictly and a span's self time is its duration minus its direct
children's durations.

The wrapped names are the layers of ``repro``:

======================  ==================================================
layer                   wrapped entry points
======================  ==================================================
``cryptosim``           ``schnorr.verify``/``sign``, ``symmetric.decrypt``/
                        ``encrypt``
``ledger``              ``pow.solve``, ``Mempool.submit``,
                        ``Miner.verify_block``/``commit_block``/``build_body``
``protocol``            ``Participant.seal``, ``DecloudAllocator.__call__``,
                        ``SettlementProcessor.settle_block``
``core``                ``DecloudAuction.run`` and the four phase functions
                        as :mod:`repro.core.auction` looks them up
``store``               ``WriteAheadLog.append``, ``NodeStore.recover``
``runtime``             ``Runtime.run`` (which also gets a
                        :class:`~repro.obs.profile.PipelineProfiler`)
======================  ==================================================
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: one span: [name, parent index (-1 = top level), start, end, failed]
Span = List[Any]


class SpanRecorder:
    """Install wrappers, keep spans in memory, derive self times."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: per span name: numbers the wrappers read off arguments/results
        self.counters: Dict[str, float] = {}
        #: every Runtime whose run() was called while installed, and the
        #: reports of those runs that returned
        self.runtimes: List[Any] = []
        self.reports: List[Any] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Optional[Callable[[tuple], Any]] = None,
        after: Optional[Callable[[tuple, Any, Any], None]] = None,
    ) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``before(args)`` runs ahead of the call and its return value is
        handed to ``after(args, result, token)`` once the call returned.
        """
        original = owner.__dict__[attr]
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0, False])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                spans[index][4] = True
                raise
            finally:
                spans[index][3] = clock()
                stack.pop()
            if after is not None:
                after(args, result, token)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def install(self) -> "SpanRecorder":
        """Wrap every layer entry point listed in the module docstring."""
        from repro.core import auction as auction_mod
        from repro.core.auction import DecloudAuction
        from repro.cryptosim import schnorr, symmetric
        from repro.ledger import pow as pow_mod
        from repro.ledger.mempool import Mempool
        from repro.ledger.miner import Miner
        from repro.obs.profile import PipelineProfiler
        from repro.protocol.allocator import DecloudAllocator
        from repro.protocol.exposure import Participant
        from repro.protocol.settlement import SettlementProcessor
        from repro.runtime import Runtime
        from repro.store import NodeStore, WriteAheadLog

        wrap = self.wrap
        wrap(schnorr, "verify", "cryptosim.schnorr.verify")
        wrap(schnorr, "sign", "cryptosim.schnorr.sign")
        wrap(symmetric, "decrypt", "cryptosim.symmetric.decrypt")
        wrap(symmetric, "encrypt", "cryptosim.symmetric.encrypt")
        wrap(pow_mod, "solve", "ledger.pow.solve")
        wrap(Mempool, "submit", "ledger.Mempool.submit")
        wrap(Miner, "verify_block", "ledger.Miner.verify_block")
        wrap(Miner, "commit_block", "ledger.Miner.commit_block")
        wrap(Miner, "build_body", "ledger.Miner.build_body")
        wrap(Participant, "seal", "protocol.Participant.seal")
        wrap(DecloudAllocator, "__call__", "protocol.DecloudAllocator.call")
        wrap(
            SettlementProcessor,
            "settle_block",
            "protocol.SettlementProcessor.settle_block",
        )
        wrap(DecloudAuction, "run", "core.DecloudAuction.run")
        for phase in (
            "build_clusters",
            "allocate_cluster",
            "build_mini_auctions",
            "clear_mini_auction",
        ):
            wrap(auction_mod, phase, f"core.{phase}")

        def wal_size(args):
            return args[0].backend.size()

        def wal_bytes(args, _result, size_before):
            self.count("store.wal_bytes", args[0].backend.size() - size_before)

        wrap(
            WriteAheadLog,
            "append",
            "store.WriteAheadLog.append",
            before=wal_size,
            after=wal_bytes,
        )

        def replayed(_args, state, _token):
            self.count("store.replayed_records", state.replayed_records)

        wrap(NodeStore, "recover", "store.NodeStore.recover", after=replayed)

        def attach_profiler(args):
            # The profiler is passive (it never schedules an event), so
            # attaching one leaves outcomes unchanged.
            runtime = args[0]
            if runtime.profiler is None:
                runtime.profiler = PipelineProfiler()
                runtime.transport.attach_profiler(runtime.profiler)
            # Kept by instance: a crashed run raises before returning a
            # report, but its clock and transport counters survive.
            self.runtimes.append(runtime)

        def keep_report(_args, report, _token):
            self.reports.append(report)

        wrap(
            Runtime,
            "run",
            "runtime.Runtime.run",
            before=attach_profiler,
            after=keep_report,
        )
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``self_s``, ``wall_s``, ``failed``."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _failed in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, _parent, start, end, failed) in enumerate(
            self.spans
        ):
            row = out.setdefault(
                name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "failed": 0}
            )
            row["calls"] += 1
            row["wall_s"] += end - start
            row["self_s"] += (end - start) - child_time[index]
            row["failed"] += int(failed)
        return out

    def covered_s(self) -> float:
        """Wall time covered by top-level spans."""
        return sum(end - start for _n, p, start, end, _f in self.spans if p < 0)

    def call_wall_s(self, name: str) -> List[float]:
        return [end - start for n, _p, start, end, _f in self.spans if n == name]


def write_spans(path, recorders: List[SpanRecorder]) -> None:
    """Write every recorded span once, one list per traced repetition."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "fields": ["name", "parent", "start", "end", "failed"],
                "repetitions": [recorder.spans for recorder in recorders],
            },
            handle,
        )
