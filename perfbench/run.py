"""DeCloud node benchmark: one workload, one seed, one measured run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sustained --seed 11 --seconds 15 --trace 0

Workloads: ``sustained``, ``node_block``, ``clear_large``,
``crash_recover`` (see ``perfbench/README.md``).  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` reports the
per-layer metrics from a run that alternates traced and untraced
repetitions and writes its spans to ``perfbench/out/``.

The next-to-last stdout line describes the run (git sha, source digest,
machine fingerprint, metric directions, output fingerprint); the last
line is the result::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

Exits 2 without a result when the program under test (``src/repro``)
is not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: one process, one thread: no process pool, and BLAS kept single-threaded
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


#: The market generators fill resource dicts in string-hash order, which
#: reaches the bids' JSON (so their sealed bytes) and the order of float
#: sums.  A seed gives the same inputs only under a fixed hash seed.
HASH_SEED = "0"


def prepare_process() -> bool:
    """Pin the hash seed and threads, put ``src/`` on the path.

    Re-executes the interpreter in place when the hash seed differs;
    returns False when the program under test is missing.
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure ({ROOT / 'src' / 'repro'} "
            "is missing)",
            file=sys.stderr,
        )
        return False
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, sys.orig_argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    return True


def main() -> int:
    if not prepare_process():
        return 2
    import harness
    from scenarios import DEFAULT_SEED, SCENARIOS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=harness.load_catalogue()["run_seconds"],
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    report = harness.run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        spans_dir=ROOT / "perfbench" / "out" if args.trace else None,
    )
    print(json.dumps({"info": report["info"]}, sort_keys=True))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
