"""Measurement loop, output checks and metric derivation.

One run = set the workload up several times (median reported as
``setup_s``), then repeat the timed step until ``seconds`` have
passed.  Every repetition's outputs are checked; a repetition that
fails a check or raises counts as failed and is never dropped.

* ``trace=False``: every repetition is untraced and the end-to-end
  metrics are medians over repetitions.
* ``trace=True``: untraced and traced repetitions alternate.  The
  per-layer metrics are medians over the traced ones; tracing overhead
  is the traced over the untraced median wall time.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from scenarios import DEFAULT_SEED, SCENARIOS, Outcome
from tracing import SpanRecorder, write_spans

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: setups per run: at least SETUP_MIN_REPEATS, more while they take
#: under SETUP_BUDGET_S in total, so cheap setups get a steady median
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_BUDGET_S = 1.0

STALL_CAUSES = ("seal_wait", "mine", "propose", "verify_quorum", "commit")
TRANSPORT_COUNTERS = ("sent", "delivered", "dropped", "deferred")
#: span name -> the stats reported for it (besides what is derived below)
SPAN_STATS = {
    "cryptosim.schnorr.verify": ("calls", "self_s"),
    "cryptosim.schnorr.sign": ("calls", "self_s"),
    "cryptosim.symmetric.decrypt": ("calls", "self_s"),
    "cryptosim.symmetric.encrypt": ("calls", "self_s"),
    "ledger.pow.solve": ("calls", "self_s"),
    "ledger.Mempool.submit": ("calls", "self_s", "failed"),
    "ledger.Miner.verify_block": ("calls", "self_s"),
    "ledger.Miner.commit_block": ("calls", "self_s"),
    "ledger.Miner.build_body": ("calls", "self_s"),
    "protocol.Participant.seal": ("calls", "self_s"),
    "protocol.DecloudAllocator.call": ("calls", "self_s"),
    "protocol.SettlementProcessor.settle_block": ("calls", "self_s"),
    "core.DecloudAuction.run": ("calls", "self_s"),
    "core.build_clusters": ("self_s",),
    "core.allocate_cluster": ("self_s",),
    "core.build_mini_auctions": ("self_s",),
    "core.clear_mini_auction": ("self_s",),
    "store.WriteAheadLog.append": ("calls", "self_s"),
    "store.NodeStore.recover": ("calls", "self_s"),
    "runtime.Runtime.run": ("self_s",),
}


def load_catalogue() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Self-description
# ----------------------------------------------------------------------
def git_sha() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over ``src/`` — identifies the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint_machine() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
@dataclass
class Repetition:
    wall_s: float
    outcome: Optional[Outcome]
    recorder: Optional[SpanRecorder]


def _golden(workload: str, seed: int, size: str) -> Optional[Dict[str, Any]]:
    if seed != DEFAULT_SEED or size != "full":
        return None
    with open(HERE / "golden.json", encoding="utf-8") as handle:
        return json.load(handle)[workload]


def _repeat(scenario, inputs, traced: bool) -> Repetition:
    recorder = SpanRecorder() if traced else None
    wall = 0.0
    try:
        job = scenario.prepare(inputs)
        if recorder is not None:
            recorder.install()
        start = time.perf_counter()
        try:
            raw = scenario.execute(inputs, job)
        finally:
            wall = time.perf_counter() - start
            if recorder is not None:
                recorder.uninstall()
        outcome = scenario.finish(inputs, job, raw)
    except Exception:  # noqa: BLE001 - counted as a failed repetition
        traceback.print_exc(file=sys.stderr)
        outcome = None
    return Repetition(wall, outcome, recorder)


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    spans_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """One benchmark run; returns ``{"result": ..., "info": ...}``."""
    scenario = SCENARIOS[workload]()
    setup_walls: List[float] = []
    while len(setup_walls) < SETUP_MIN_REPEATS or (
        len(setup_walls) < SETUP_MAX_REPEATS
        and sum(setup_walls) < SETUP_BUDGET_S
    ):
        start = time.perf_counter()
        inputs = scenario.setup(seed, size)
        setup_walls.append(time.perf_counter() - start)

    golden = _golden(workload, seed, size)
    reps: List[Repetition] = []
    failed = 0
    modes = (False, True) if trace else (False,)
    start = time.perf_counter()
    # Start another round only while at least half of it fits, so the
    # measured time stays close to ``seconds``.
    while not reps or (
        time.perf_counter() - start + reps[-1].wall_s * len(modes) / 2
        < seconds
    ):
        for traced in modes:
            rep = _repeat(scenario, inputs, traced)
            reps.append(rep)
            problems = _check(rep, reps[0], golden)
            if problems:
                failed += 1
                for problem in problems:
                    print(f"check failed: {problem}", file=sys.stderr)

    catalogue = load_catalogue()
    good = [r for r in reps if r.outcome is not None]
    if trace:
        values = _layer_metrics(good)
        if spans_dir is not None:
            spans_dir.mkdir(parents=True, exist_ok=True)
            write_spans(
                spans_dir / f"spans-{workload}-{seed}.json",
                [r.recorder for r in good if r.recorder is not None],
            )
        specs = catalogue["per_layer"]
    else:
        values = _end_to_end(good, setup_walls)
        specs = catalogue["end_to_end"]
    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in specs
    }
    extra = sorted(set(values) - set(metrics))
    if extra:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {extra}")
    first = good[0].outcome if good else None
    info = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": int(trace),
        "repetitions": len(reps),
        "repetition_walls": [r.wall_s for r in reps],
        "setup_s_samples": setup_walls,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "machine": fingerprint_machine(),
        "better": {spec["name"]: spec["better"] for spec in specs},
        "fingerprint": first.fingerprint if first else None,
    }
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }
    return {"result": result, "info": info}


def _check(rep: Repetition, first: Repetition, golden) -> List[str]:
    if rep.outcome is None:
        return ["the timed step raised"]
    problems = list(rep.outcome.failures)
    if first.outcome is not None and (
        rep.outcome.fingerprint != first.outcome.fingerprint
    ):
        problems.append("outputs differ between repetitions of one input")
    if golden is not None and rep.outcome.fingerprint != golden:
        problems.append(
            f"outputs {rep.outcome.fingerprint} differ from golden {golden}"
        )
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _end_to_end(reps: List[Repetition], setup_walls: List[float]):
    if not reps:
        raise RuntimeError("no repetition completed; nothing to report")
    return {
        "setup_s": _median(setup_walls),
        "bids_per_s": _median([r.outcome.bids / r.wall_s for r in reps]),
        "blocks_per_s": _median([r.outcome.blocks / r.wall_s for r in reps]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def _layer_values(rep: Repetition) -> Dict[str, float]:
    recorder = rep.recorder
    outcome = rep.outcome
    totals = recorder.totals()
    values: Dict[str, float] = {}
    for name, stats in SPAN_STATS.items():
        row = totals.get(name, {})
        for stat in stats:
            values[f"{name}.{stat}"] = float(row.get(stat, 0))
    bids = max(outcome.bids, 1)
    blocks = max(outcome.blocks, 1)
    values["cryptosim.schnorr.verify.per_tx"] = (
        values["cryptosim.schnorr.verify.calls"] / bids
    )
    values["core.candidates.pairs_admitted_ratio"] = outcome.facts.get(
        "pairs_admitted_ratio", 0.0
    )
    values["store.WriteAheadLog.append.bytes"] = recorder.counters.get(
        "store.wal_bytes", 0.0
    )
    values["store.NodeStore.recover.replayed_records"] = recorder.counters.get(
        "store.replayed_records", 0.0
    )
    values["store.recovery_s"] = totals.get("store.NodeStore.recover", {}).get(
        "wall_s", 0.0
    )
    values["ledger.admit_ms_p50"] = 1000.0 * _median(
        recorder.call_wall_s("ledger.Mempool.submit")
    )

    runtimes = recorder.runtimes
    for key in TRANSPORT_COUNTERS:
        total = sum(getattr(rt.transport, key) for rt in runtimes)
        values[f"runtime.transport.{key}_per_block"] = total / blocks
    stalls: Dict[str, float] = {}
    for rt in runtimes:
        for cause, seconds in rt.profiler.cause_totals().items():
            stalls[cause] = stalls.get(cause, 0.0) + seconds
    for cause in STALL_CAUSES:
        values[f"runtime.stall.{cause}_vs"] = stalls.get(cause, 0.0)
    virtual_s = sum(rt.scheduler.now for rt in runtimes)
    values["runtime.virtual_rounds_per_s"] = (
        outcome.blocks / virtual_s if virtual_s else 0.0
    )
    values["runtime.virtual_commit_s_p50"] = _median(
        [
            rnd.finished_at - rnd.seal_opened_at
            for report in recorder.reports
            for rnd in report.rounds
            if rnd.committed
        ]
    )

    facts = outcome.facts
    if "rounds_failed" in facts:
        failed = facts["rounds_failed"]
        attempted = outcome.blocks + failed
    else:
        failed = values["ledger.Mempool.submit.failed"]
        attempted = values["ledger.Mempool.submit.calls"]
    values["protocol.failed_ratio"] = failed / attempted if attempted else 0.0
    for key in ("crashes", "replayed_rounds", "resumed_rounds"):
        values[f"sim.durable.{key}"] = float(facts.get(key, 0))
    values["obs.monitors.alerts"] = float(facts.get("monitor_alerts", 0))

    unattributed = max(rep.wall_s - recorder.covered_s(), 0.0)
    values["welfare"] = outcome.welfare
    values["unattributed_s"] = unattributed
    values["unattributed_share"] = unattributed / rep.wall_s
    return values


def _layer_metrics(reps: List[Repetition]) -> Dict[str, float]:
    traced = [r for r in reps if r.recorder is not None]
    untraced = [r for r in reps if r.recorder is None]
    if not traced or not untraced:
        raise RuntimeError("no traced/untraced repetition pair completed")
    per_rep = [_layer_values(r) for r in traced]
    values = {
        name: _median([row[name] for row in per_rep]) for name in per_rep[0]
    }
    values["trace.overhead_ratio"] = _median(
        [r.wall_s for r in traced]
    ) / _median([r.wall_s for r in untraced])
    return values
