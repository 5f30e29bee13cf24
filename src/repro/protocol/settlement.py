"""Token settlement: balances, escrow, and payout.

The agreement contract (§III-B) promises the provider its revenue once
the container ran; on a real chain this is enforced by escrowing the
client's payment when it calls ``accept`` and releasing it on completion.
This module implements that flow over an in-memory token ledger:

    accept -> escrow(payment)        funds leave the client
    completion report -> release     funds reach the provider
    provider default -> refund       funds return to the client

Balances can never go negative and the total token supply is conserved
through every operation — tested invariants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import ContractError
from repro.obs import ObservabilityLike, resolve as resolve_obs


class EscrowState(enum.Enum):
    HELD = "held"
    RELEASED = "released"
    REFUNDED = "refunded"


@dataclass
class Escrow:
    """Funds locked for one agreement."""

    escrow_id: str
    client_id: str
    provider_id: str
    amount: float
    state: EscrowState = EscrowState.HELD


@dataclass
class TokenLedger:
    """Minimal account-model token ledger with escrow support.

    With a ``journal`` attached (``repro.store.node.Journal`` duck type)
    every state transition is written ahead: the public operations log a
    typed record first, then delegate to the private ``_apply_*``
    primitives.  Recovery replays records through the same primitives,
    so the replayed ledger is bit-identical to the pre-crash one.
    """

    balances: Dict[str, float] = field(default_factory=dict)
    escrows: Dict[str, Escrow] = field(default_factory=dict)
    _escrow_counter: int = 0
    #: optional write-ahead journal; set via ``NodeStore.attach``
    journal: Optional[object] = None

    # ------------------------------------------------------------------
    # Unjournaled apply primitives (the write path *after* the journal,
    # and the replay path during recovery)
    # ------------------------------------------------------------------
    def _apply_mint(self, account: str, amount: float) -> None:
        self.balances[account] = self.balances.get(account, 0.0) + amount

    def _apply_transfer(
        self, sender: str, recipient: str, amount: float
    ) -> None:
        self.balances[sender] = self.balance(sender) - amount
        self.balances[recipient] = self.balance(recipient) + amount

    def _apply_open(
        self,
        escrow_id: str,
        client_id: str,
        provider_id: str,
        amount: float,
    ) -> None:
        if self.balance(client_id) < amount - 1e-12:
            raise ContractError(
                f"client {client_id} cannot cover escrow of {amount:.6f}"
            )
        if escrow_id in self.escrows:
            raise ContractError(f"escrow {escrow_id} already exists")
        self.balances[client_id] = self.balance(client_id) - amount
        self.escrows[escrow_id] = Escrow(
            escrow_id=escrow_id,
            client_id=client_id,
            provider_id=provider_id,
            amount=amount,
        )
        # keep the id counter ahead of every id ever materialized, so
        # replayed and freshly-reserved ids can never collide
        prefix, _, suffix = escrow_id.rpartition("-")
        if prefix == "esc" and suffix.isdigit():
            self._escrow_counter = max(self._escrow_counter, int(suffix) + 1)

    def _apply_transition(self, escrow_id: str, to: str) -> None:
        escrow = self._held(escrow_id)
        if to == EscrowState.RELEASED.value:
            escrow.state = EscrowState.RELEASED
            self.balances[escrow.provider_id] = (
                self.balance(escrow.provider_id) + escrow.amount
            )
        elif to == EscrowState.REFUNDED.value:
            escrow.state = EscrowState.REFUNDED
            self.balances[escrow.client_id] = (
                self.balance(escrow.client_id) + escrow.amount
            )
        else:
            raise ContractError(f"unknown escrow transition {to!r}")

    def _restore_escrow(
        self,
        escrow_id: str,
        client_id: str,
        provider_id: str,
        amount: float,
        state: EscrowState,
    ) -> None:
        """Snapshot-load path: re-materialize an escrow in any state
        without touching balances (the snapshot's balances already
        reflect it)."""
        self.escrows[escrow_id] = Escrow(
            escrow_id=escrow_id,
            client_id=client_id,
            provider_id=provider_id,
            amount=amount,
            state=state,
        )
        prefix, _, suffix = escrow_id.rpartition("-")
        if prefix == "esc" and suffix.isdigit():
            self._escrow_counter = max(self._escrow_counter, int(suffix) + 1)

    def reserve_escrow_ids(self, count: int) -> List[str]:
        """The ids the next ``count`` escrow opens will be assigned.

        Pure read — the counter advances only when the opens apply — so
        a settlement intent can journal its ids before any state
        changes.
        """
        return [
            f"esc-{self._escrow_counter + i:06d}" for i in range(count)
        ]

    # ------------------------------------------------------------------
    # Basic accounting
    # ------------------------------------------------------------------
    def mint(self, account: str, amount: float) -> None:
        """Credit new tokens (the miners' emission reward in DeCloud)."""
        if amount < 0:
            raise ContractError("cannot mint a negative amount")
        if self.journal is not None:
            self.journal.log("token.mint", account=account, amount=amount)
        self._apply_mint(account, amount)

    def balance(self, account: str) -> float:
        return self.balances.get(account, 0.0)

    def total_supply(self) -> float:
        """All tokens: free balances plus funds held in escrow."""
        held = sum(
            e.amount for e in self.escrows.values() if e.state is EscrowState.HELD
        )
        return sum(self.balances.values()) + held

    def transfer(self, sender: str, recipient: str, amount: float) -> None:
        if amount < 0:
            raise ContractError("cannot transfer a negative amount")
        if self.balance(sender) < amount - 1e-12:
            raise ContractError(
                f"{sender} has {self.balance(sender):.6f}, needs {amount:.6f}"
            )
        if self.journal is not None:
            self.journal.log(
                "token.transfer",
                sender=sender,
                recipient=recipient,
                amount=amount,
            )
        self._apply_transfer(sender, recipient, amount)

    # ------------------------------------------------------------------
    # Escrow lifecycle
    # ------------------------------------------------------------------
    def open_escrow(
        self, client_id: str, provider_id: str, amount: float
    ) -> str:
        """Lock the client's payment pending service completion."""
        if amount < 0:
            raise ContractError("cannot escrow a negative amount")
        if self.balance(client_id) < amount - 1e-12:
            raise ContractError(
                f"client {client_id} cannot cover escrow of {amount:.6f}"
            )
        escrow_id = f"esc-{self._escrow_counter:06d}"
        if self.journal is not None:
            self.journal.log(
                "escrow.open",
                escrow_id=escrow_id,
                client_id=client_id,
                provider_id=provider_id,
                amount=amount,
            )
        self._apply_open(escrow_id, client_id, provider_id, amount)
        return escrow_id

    def _held(self, escrow_id: str) -> Escrow:
        escrow = self.escrows.get(escrow_id)
        if escrow is None:
            raise ContractError(f"unknown escrow {escrow_id}")
        if escrow.state is not EscrowState.HELD:
            raise ContractError(
                f"escrow {escrow_id} already {escrow.state.value}"
            )
        return escrow

    def release(self, escrow_id: str) -> None:
        """Service completed: pay the provider."""
        self._held(escrow_id)
        if self.journal is not None:
            self.journal.log(
                "escrow.transition",
                escrow_id=escrow_id,
                to=EscrowState.RELEASED.value,
            )
        self._apply_transition(escrow_id, EscrowState.RELEASED.value)

    def refund(self, escrow_id: str) -> None:
        """Provider defaulted: return funds to the client."""
        self._held(escrow_id)
        if self.journal is not None:
            self.journal.log(
                "escrow.transition",
                escrow_id=escrow_id,
                to=EscrowState.REFUNDED.value,
            )
        self._apply_transition(escrow_id, EscrowState.REFUNDED.value)

    def held_for(self, provider_id: str) -> List[Escrow]:
        return [
            e
            for e in self.escrows.values()
            if e.provider_id == provider_id and e.state is EscrowState.HELD
        ]


def apply_settlement_intent(
    ledger: TokenLedger,
    entries: List[Dict],
    auto_fund: bool,
) -> Dict[str, str]:
    """Apply one block's settlement intent through the ledger primitives.

    Shared by the live write path (after the intent record is journaled)
    and recovery replay, so both produce bit-identical ledger state.
    Returns request id -> escrow id.
    """
    escrow_ids: Dict[str, str] = {}
    for entry in entries:
        client = entry["client_id"]
        amount = entry["amount"]
        if auto_fund and ledger.balance(client) < amount:
            ledger._apply_mint(client, amount - ledger.balance(client))
        ledger._apply_open(
            entry["escrow_id"], client, entry["provider_id"], amount
        )
        escrow_ids[entry["request_id"]] = entry["escrow_id"]
    return escrow_ids


@dataclass
class SettlementProcessor:
    """Drives settlement for a block's matches through the token ledger.

    With an :class:`~repro.obs.Observability` attached, settlement
    outcomes land in the registry as
    ``settlement_escrows_total{outcome=opened|released|refunded}`` plus
    per-block counters, so a running market can answer "how much value
    settled, how much was refunded" without replaying the ledger.
    """

    ledger: TokenLedger
    obs: Optional[ObservabilityLike] = None
    #: settlements already processed, by block hash — duplicate-delivery safe
    _settled_blocks: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.obs = resolve_obs(self.obs)

    def settle_block(
        self,
        matches,
        auto_fund: bool = False,
        block_hash: str = "",
    ) -> Dict[str, str]:
        """Open one escrow per match; returns request id -> escrow id.

        With ``auto_fund`` clients are minted exactly the payment they
        owe (useful in simulations that do not model wealth).  Passing
        the ``block_hash`` makes settlement idempotent per block: gossip
        that redelivers an already-settled block returns the original
        escrow ids instead of locking the client's funds twice.
        """
        obs = self.obs
        if block_hash and block_hash in self._settled_blocks:
            if obs.enabled:
                obs.registry.inc("settlement_duplicate_blocks_total")
            return dict(self._settled_blocks[block_hash])
        matches = list(matches)
        reserved = self.ledger.reserve_escrow_ids(len(matches))
        entries = [
            {
                "escrow_id": escrow_id,
                "request_id": match.request.request_id,
                "client_id": match.request.client_id,
                "provider_id": match.offer.provider_id,
                "amount": match.payment,
            }
            for escrow_id, match in zip(reserved, matches)
        ]
        # One intent record covers the whole block: the mints and escrow
        # opens below are deliberately *not* journaled individually, so a
        # crash mid-settlement replays the block atomically (all entries
        # or none) instead of resurrecting a partial settlement.
        if self.ledger.journal is not None:
            self.ledger.journal.log(
                "settlement.block",
                block_hash=block_hash,
                auto_fund=auto_fund,
                entries=entries,
            )
        escrow_ids = apply_settlement_intent(self.ledger, entries, auto_fund)
        escrowed = sum(entry["amount"] for entry in entries)
        if block_hash:
            self._settled_blocks[block_hash] = dict(escrow_ids)
        if obs.enabled:
            obs.registry.inc("settlement_blocks_total")
            obs.registry.inc(
                "settlement_escrows_total", len(escrow_ids), outcome="opened"
            )
            obs.registry.inc("settlement_value_total", escrowed,
                             outcome="opened")
        return escrow_ids

    def complete(self, escrow_id: str) -> None:
        amount = self.ledger.escrows[escrow_id].amount \
            if escrow_id in self.ledger.escrows else 0.0
        self.ledger.release(escrow_id)
        if self.obs.enabled:
            self.obs.registry.inc(
                "settlement_escrows_total", outcome="released"
            )
            self.obs.registry.inc(
                "settlement_value_total", amount, outcome="released"
            )

    def default(self, escrow_id: str) -> None:
        amount = self.ledger.escrows[escrow_id].amount \
            if escrow_id in self.ledger.escrows else 0.0
        self.ledger.refund(escrow_id)
        if self.obs.enabled:
            self.obs.registry.inc(
                "settlement_escrows_total", outcome="refunded"
            )
            self.obs.registry.inc(
                "settlement_value_total", amount, outcome="refunded"
            )
