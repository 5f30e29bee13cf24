"""A finished run is freed by reference counting alone.

Benchmarks and long simulations repeat runs back to back; any reference
cycle in a run's object graph keeps the whole graph (stores with their
WAL bytes, miners, transactions) alive until a generation-2 collection.
"""

import gc

from repro.faults.crash import CrashPoint
from repro.ledger.miner import Miner
from repro.ledger.signatures import VerifiedSignatures
from repro.ledger.transaction import SealedBidTransaction
from repro.runtime import Runtime
from repro.sim.chaos import ChaosSpec, run_durable_scenario
from repro.store import NodeStore

WATCHED = (Runtime, NodeStore, Miner, SealedBidTransaction, VerifiedSignatures)


def _cyclic_garbage(run):
    """Types of ``WATCHED`` objects only the cyclic collector frees."""
    gc.collect()
    flags = gc.get_debug()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = sorted(
            {type(obj).__name__ for obj in gc.garbage if isinstance(obj, WATCHED)}
        )
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.enable()
    return found


SPEC = ChaosSpec(
    num_clients=4,
    num_providers=2,
    num_miners=3,
    rounds=2,
    seed=5,
    withholding_clients=1,
)


def test_durable_runtime_scenario_leaves_no_cycles():
    reference = run_durable_scenario(SPEC, drop_rate=0.1, engine="runtime")
    crash = CrashPoint(at_append=reference.append_count // 2, mode="torn")

    def run():
        result = run_durable_scenario(
            SPEC, drop_rate=0.1, crash_point=crash, engine="runtime"
        )
        assert result.crashes == 1
        assert result.state_digest == reference.state_digest

    assert _cyclic_garbage(run) == []
