"""The four benchmark workloads, driven through public ``repro`` entry points.

Each scenario splits one repetition into three steps so the harness can
time (and trace) exactly the node's work:

* ``prepare(inputs)`` — untimed: fresh per-repetition objects;
* ``execute(inputs, job)`` — timed: the work a DeCloud node does;
* ``finish(inputs, job, raw)`` — untimed: output checks and counts.

``setup(seed, size)`` builds the inputs once per run from the workload
seed (markets, keys, presigned bids, the uninterrupted reference run);
the program only ever receives those generated inputs.  ``size`` is
``"full"`` for measurement and ``"tiny"`` for the smoke check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.core.auction import DecloudAuction
from repro.core.audit import audit_outcome
from repro.core.candidates import NetworkZoneGenerator
from repro.core.config import AuctionConfig
from repro.faults.crash import CrashPoint
from repro.ledger.chain import Blockchain
from repro.ledger.mempool import Mempool
from repro.ledger.miner import Miner
from repro.protocol.allocator import DecloudAllocator
from repro.protocol.exposure import Participant
from repro.protocol.settlement import SettlementProcessor, TokenLedger
from repro.runtime import Runtime
from repro.sim.chaos import ChaosSpec, run_durable_scenario
from repro.sim.sustained import SustainedSpec, build_round_inputs
from repro.store import NodeStore, WriteAheadLog
from repro.workloads.generators import generate_market, generate_zone_market

#: workload seed the golden values in ``golden.json`` belong to (the
#: ``BENCH_SPEC`` seed of ``benchmarks/test_bench_runtime.py``)
DEFAULT_SEED = 11


@dataclass
class Outcome:
    """What one timed repetition produced."""

    #: bids driven to a final outcome (settled, matched, reduced or excluded)
    bids: int
    #: blocks committed (``clear_large``: blocks cleared)
    blocks: int
    welfare: float
    #: exact outputs: equal across repetitions, and equal to the golden
    #: values for the default seed
    fingerprint: Dict[str, Any]
    #: workload facts the per-layer metrics read (counts, ratios)
    facts: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)


class Sustained:
    """Pipelined ``Runtime`` with the ``BENCH_SPEC`` shape, journaled."""

    name = "sustained"
    sizes = {"full": {"rounds": 8}, "tiny": {"rounds": 2}}

    def setup(self, seed: int, size: str):
        spec = SustainedSpec(
            num_clients=6,
            num_providers=3,
            num_miners=3,
            seed=seed,
            difficulty_bits=4,
            mean_interarrival=0.18,
            **self.sizes[size],
        )
        # Participants keep seal counters, so every repetition needs fresh
        # ones: setup builds the first repetition's, prepare the others'.
        return {"spec": spec, "fresh_rounds": [self._round_inputs(spec)]}

    @staticmethod
    def _round_inputs(spec):
        seal_seed = f"sustained-{spec.seed}".encode("ascii")
        ids = [f"cli-{i}" for i in range(spec.num_clients)] + [
            f"prov-{j}" for j in range(spec.num_providers)
        ]
        participants = {
            pid: Participant(
                participant_id=pid, deterministic=True, seal_seed=seal_seed
            )
            for pid in ids
        }
        return build_round_inputs(spec, participants)

    def prepare(self, inputs):
        spec = inputs["spec"]
        fresh = inputs["fresh_rounds"]
        rounds = fresh.pop() if fresh else self._round_inputs(spec)
        miners = [
            Miner(
                miner_id=f"m{i}",
                allocate=DecloudAllocator(spec.config),
                difficulty_bits=spec.difficulty_bits,
            )
            for i in range(spec.num_miners)
        ]
        return {"rounds": rounds, "miners": miners, "store": NodeStore.in_memory()}

    def execute(self, inputs, job):
        runtime = Runtime(
            job["miners"],
            schedule_seed=f"sustained-sched-{inputs['spec'].seed}",
            pipeline=True,
            store=job["store"],
        )
        return runtime.run(job["rounds"])

    def finish(self, inputs, job, report) -> Outcome:
        spec = inputs["spec"]
        committed = report.committed
        tips = {miner.chain.tip_hash for miner in job["miners"]}
        failures = []
        if len(committed) != spec.rounds:
            failures.append(
                f"{len(committed)} of {spec.rounds} rounds committed: "
                + "; ".join(r.error for r in report.aborted)
            )
        if len(tips) != 1:
            failures.append(f"miners disagree on the tip: {sorted(tips)}")
        welfare = sum(result.outcome.welfare for result in committed)
        return Outcome(
            bids=sum(len(r.block.preamble.transactions) for r in committed),
            blocks=len(committed),
            welfare=welfare,
            fingerprint={
                "tip_hash": job["miners"][0].chain.tip_hash,
                "welfare": welfare.hex(),
            },
            facts={"rounds_failed": spec.rounds - len(committed)},
            failures=failures,
        )


class NodeBlock:
    """One node, one large block: admit, clear, settle, cold recover."""

    name = "node_block"
    sizes = {"full": {"n_requests": 150}, "tiny": {"n_requests": 12}}
    evidence = b"perfbench-node-block"

    def setup(self, seed: int, size: str):
        requests, offers = generate_market(
            self.sizes[size]["n_requests"], seed=seed
        )
        seal_seed = f"perfbench-node-block-{seed}".encode("ascii")
        participants: Dict[str, Any] = {}
        txs = []
        for bid in list(requests) + list(offers):
            owner = getattr(bid, "client_id", None) or bid.provider_id
            if owner not in participants:
                participants[owner] = Participant(
                    participant_id=owner,
                    deterministic=True,
                    seal_seed=seal_seed,
                )
            txs.append(participants[owner].seal(bid))
        return {"requests": requests, "offers": offers, "txs": txs}

    def prepare(self, inputs):
        mempool = Mempool(max_size=len(inputs["txs"]) + 1)
        settlement = SettlementProcessor(ledger=TokenLedger())
        store = NodeStore.in_memory()
        store.attach(chain=Blockchain(), mempool=mempool, settlement=settlement)
        return {"mempool": mempool, "settlement": settlement, "store": store}

    def execute(self, inputs, job):
        mempool = job["mempool"]
        for tx in inputs["txs"]:
            mempool.submit(tx)
        outcome = DecloudAuction(AuctionConfig(engine="vectorized")).run(
            inputs["requests"], inputs["offers"], evidence=self.evidence
        )
        job["settlement"].settle_block(
            outcome.matches, auto_fund=True, block_hash="perfbench-block"
        )
        # Restart: a new handle over the journaled bytes, recovered cold.
        store = job["store"]
        restarted = NodeStore(
            wal=WriteAheadLog(store.wal.backend), snapshots=store.snapshots
        )
        return outcome, restarted.recover()

    def finish(self, inputs, job, raw) -> Outcome:
        outcome, recovered = raw
        live = job["store"].state_digest()
        failures = []
        if recovered.state_digest() != live:
            failures.append("recovered state digest differs from live state")
        return Outcome(
            bids=len(inputs["txs"]),
            blocks=1,
            welfare=outcome.welfare,
            fingerprint={
                "state_digest": live,
                "welfare": outcome.welfare.hex(),
                "matches": len(outcome.matches),
            },
            failures=failures,
        )


class ClearLarge:
    """One large zone market through the vectorized clear with candidates."""

    name = "clear_large"
    #: ~150 offers per network zone, as in ``benchmarks/test_bench_candidates``
    sizes = {
        "full": {"n_requests": 10_000, "n_zones": 66},
        "tiny": {"n_requests": 300, "n_zones": 4},
    }
    evidence = b"perfbench-clear-large"

    def setup(self, seed: int, size: str):
        requests, offers, _ = generate_zone_market(
            seed=seed, kind="network", locality="strong", **self.sizes[size]
        )
        return {"requests": requests, "offers": offers}

    def prepare(self, inputs):
        generator = NetworkZoneGenerator(verify="off")
        auction = DecloudAuction(
            AuctionConfig(engine="vectorized", candidates=generator)
        )
        return {"auction": auction, "generator": generator}

    def execute(self, inputs, job):
        return job["auction"].run(
            inputs["requests"], inputs["offers"], evidence=self.evidence
        )

    def finish(self, inputs, job, outcome) -> Outcome:
        report = audit_outcome(inputs["requests"], inputs["offers"], outcome)
        # The audit's time-shared capacity model (Const. 7) also flags
        # zone-market outcomes of the reference engine, so capacity
        # findings are not failures; every other invariant (membership,
        # feasibility, IR, strong budget balance) must hold.
        failures = [v for v in report.violations if "(Const. 7)" not in v]
        stats = job["generator"].last_stats
        return Outcome(
            bids=len(inputs["requests"]) + len(inputs["offers"]),
            blocks=1,
            welfare=outcome.welfare,
            fingerprint={
                "welfare": outcome.welfare.hex(),
                "matches": len(outcome.matches),
            },
            facts={
                "pairs_admitted_ratio": stats["pairs_admitted"]
                / max(stats["pairs_total"], 1)
            },
            failures=failures,
        )


class CrashRecover:
    """Supervised durable runtime scenario with one torn crash of node-0."""

    name = "crash_recover"
    sizes = {"full": {"rounds": 4}, "tiny": {"rounds": 2}}
    drop_rate = 0.1

    def setup(self, seed: int, size: str):
        spec = ChaosSpec(
            num_clients=6,
            num_providers=3,
            num_miners=3,
            seed=seed,
            withholding_clients=1,
            **self.sizes[size],
        )
        reference = run_durable_scenario(
            spec, drop_rate=self.drop_rate, engine="runtime"
        )
        return {"spec": spec, "reference": reference}

    def prepare(self, inputs):
        # mid-run: half of node-0's WAL appends reach the log intact
        at = inputs["reference"].append_count // 2
        return {"crash_point": CrashPoint(at_append=at, mode="torn")}

    def execute(self, inputs, job):
        return run_durable_scenario(
            inputs["spec"],
            drop_rate=self.drop_rate,
            crash_point=job["crash_point"],
            engine="runtime",
        )

    def finish(self, inputs, job, result) -> Outcome:
        spec = inputs["spec"]
        reference = inputs["reference"]
        failures = []
        if result.crashes != 1:
            failures.append(f"expected one crash, saw {result.crashes}")
        for key in ("outcomes", "tip_hash", "state_digest"):
            if getattr(result, key) != getattr(reference, key):
                failures.append(f"{key} differs from the uninterrupted run")
        if result.monitor_alerts or reference.monitor_alerts:
            failures.append(
                f"monitor alerts: {result.monitor_alerts} "
                f"(reference {reference.monitor_alerts})"
            )
        welfare = sum(
            float.fromhex(o["welfare"]) for o in result.outcomes if o
        )
        bids_per_round = spec.num_clients + spec.num_providers
        return Outcome(
            bids=result.rounds_completed * bids_per_round,
            blocks=result.rounds_completed,
            welfare=welfare,
            fingerprint={
                "tip_hash": result.tip_hash,
                "state_digest": result.state_digest,
                "welfare": welfare.hex(),
            },
            facts={
                "rounds_failed": spec.rounds - result.rounds_completed,
                "crashes": result.crashes,
                "replayed_rounds": result.replayed_rounds,
                "resumed_rounds": result.resumed_rounds,
                "monitor_alerts": result.monitor_alerts,
            },
            failures=failures,
        )


SCENARIOS = {
    cls.name: cls for cls in (Sustained, NodeBlock, ClearLarge, CrashRecover)
}
