"""Smoke check: every workload at a tiny size, untraced and traced.

Run from the repository root::

    python3 perfbench/smoke.py

Asserts that every metric named in ``BENCHMARK.json`` is emitted with
its unit, that every end-to-end value is a positive number, that every
output check passes, and that the traced run writes its spans.  Exits
non-zero on the first problem.
"""

from __future__ import annotations

import math
import sys

from run import ROOT, prepare_process


class SmokeFailure(Exception):
    pass


def expect(condition: bool, *context) -> None:
    if not condition:
        raise SmokeFailure(" ".join(str(c) for c in context))


def check_run(harness, workload: str, trace: bool) -> None:
    spans_dir = ROOT / "perfbench" / "out" / "smoke"
    report = harness.run(
        workload, seed=1, seconds=0, trace=trace, size="tiny",
        spans_dir=spans_dir,
    )
    result = report["result"]
    where = f"{workload} trace={int(trace)}"
    expect(
        set(result) == {"correct", "attempted", "failed", "metrics"},
        where, "result keys", sorted(result),
    )
    expect(result["correct"] and result["failed"] == 0, where, "checks failed")
    expect(result["attempted"] >= 1, where, "nothing attempted")
    specs = harness.load_catalogue()["per_layer" if trace else "end_to_end"]
    expect(
        set(result["metrics"]) == {s["name"] for s in specs},
        where, "metric names differ from BENCHMARK.json",
    )
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        expect(metric["unit"] == spec["unit"], where, spec["name"], "unit")
        value = metric["value"]
        expect(
            isinstance(value, (int, float)) and math.isfinite(value),
            where, spec["name"], value,
        )
        # end-to-end metrics are ratios of medians: never zero
        expect(trace or value > 0, where, spec["name"], value)
    if trace:
        expect(
            (spans_dir / f"spans-{workload}-1.json").is_file(),
            where, "no spans written",
        )
    print(f"ok  {where}: {result['attempted']} repetitions")


def main() -> int:
    if not prepare_process():
        return 2
    import harness
    from scenarios import SCENARIOS

    try:
        for workload in SCENARIOS:
            for trace in (False, True):
                check_run(harness, workload, trace)
    except SmokeFailure as failure:
        print(f"FAIL {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
