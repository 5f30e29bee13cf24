"""A node's set of signatures it has already verified.

A DeCloud miner checks each sealed bid's signature when the bid enters
its mempool, and again in every block that carries the bid
(``verify_block``, then ``commit_block`` → ``append``); the proposer's
body signature is likewise checked in both block steps.  Verification is
a pure function of (signed payload, public key, signature), so once a
node has seen a triple verify it need not verify it again.

The set is keyed on that exact triple.  The txid alone would not do:
``txid = sha256(signing_payload)`` covers neither ``sender_public`` nor
the signature, so a tampered signature or a swapped key under a known
txid must still miss.  Only successful verifications are recorded.

Each node owns one set: a :class:`~repro.ledger.miner.Miner` shares one
between its mempool and its chain, a standalone mempool or chain has its
own, and :meth:`repro.store.NodeStore.recover` starts a fresh one (a
cold recovery verifies every replayed signature once).  Sets are never
shared between nodes, so in an in-process simulation one miner's check
never stands in for another's.

Entries leave when their block is appended or their transaction leaves
the mempool.  What a rejected or abandoned block leaves behind is bounded
by evicting the oldest entries beyond ``pending_bound`` (the owning
mempool's ``max_size``) plus the largest block checked so far.

Signers recur in a running market: the same bidders and miners sign
block after block.  The set therefore also tracks the public keys it
verifies under, newest sighting last.  The first sighting of a key only
records it and verifies with the plain ``pow``; the second builds the
key's :func:`~repro.cryptosim.schnorr.inverse_powers` table (~11 KB),
which every later verify under that key uses.  A key that signs once
never pays for a table.  Beyond :data:`KEY_BOUND` keys the least
recently seen one is evicted with its table.  A table is a pure function
of its exact-``int`` key, so it cannot change what is accepted; like the
verified triples, tables are never shared between nodes, and a recovered
node starts with none.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.common.errors import InvalidBlockError
from repro.cryptosim import schnorr
from repro.ledger.block import Block
from repro.ledger.transaction import SealedBidTransaction

#: (signed payload digest, public key, (challenge, response))
SignatureKey = Tuple[bytes, int, Tuple[int, int]]

#: public keys one node tracks (at most ~2.8 MB of powers, 11 KB a key)
KEY_BOUND = 256


def _key(public: Any, payload: bytes, signature: Any) -> Optional[SignatureKey]:
    """The exact triple, or ``None`` when it may not be cached.

    Only plain ``int`` keys and an ``(int, int)`` tuple are cacheable:
    numbers that compare equal across types (``1.0 == 1``) would
    otherwise let a rejected input hit an accepted entry.
    """
    if (
        type(public) is int
        and type(signature) is tuple
        and len(signature) == 2
        and type(signature[0]) is int
        and type(signature[1]) is int
    ):
        return (payload, public, signature)
    return None


class VerifiedSignatures:
    """Positive signature verifications of one node."""

    def __init__(self, pending_bound: int = 0) -> None:
        self.pending_bound = pending_bound
        #: entries of the largest block checked (its txs plus the body)
        self._block_bound = 0
        self._verified: Dict[SignatureKey, None] = {}
        #: exact-int public key -> its inverse powers, ``None`` until its
        #: second sighting; least recently seen first
        self._keys: Dict[int, Optional[Tuple[int, ...]]] = {}
        #: checks answered from the verified triples
        self.hits = 0
        #: calls of ``schnorr.verify``
        self.verifies = 0
        self.tables_built = 0
        self.keys_evicted = 0

    def __len__(self) -> int:
        return len(self._verified)

    @property
    def capacity(self) -> int:
        return self.pending_bound + self._block_bound

    def check(self, public: int, payload: bytes, signature: Tuple[int, int]) -> bool:
        """``schnorr.verify(public, payload, signature)``, once per triple."""
        key = _key(public, payload, signature)
        if key is not None and key in self._verified:
            self.hits += 1
            return True
        self.verifies += 1
        if not schnorr.verify(
            public, payload, signature, powers=self._sighting(public)
        ):
            return False
        if key is not None:
            verified = self._verified
            while verified and len(verified) >= self.capacity:
                del verified[next(iter(verified))]
            verified[key] = None
        return True

    def _sighting(self, public: Any) -> Optional[Tuple[int, ...]]:
        """Record a sighting of ``public``; its powers from the second on."""
        if type(public) is not int:
            return None
        keys = self._keys
        if public in keys:
            powers = keys.pop(public)
            if powers is None:
                powers = schnorr.inverse_powers(public)
                if powers is not None:
                    self.tables_built += 1
        else:
            powers = None
            if len(keys) >= KEY_BOUND:
                del keys[next(iter(keys))]
                self.keys_evicted += 1
        keys[public] = powers
        return powers

    def check_tx(self, tx: SealedBidTransaction) -> bool:
        """Check a sealed bid's signature over its signing payload."""
        return self.check(tx.sender_public, tx.signing_payload(), tx.signature)

    def require_block(self, block: Block) -> None:
        """Raise :class:`InvalidBlockError` unless every transaction
        signature and the miner's body signature verify."""
        preamble = block.preamble
        self._block_bound = max(
            self._block_bound, len(preamble.transactions) + 1
        )
        for tx in preamble.transactions:
            if not self.check_tx(tx):
                raise InvalidBlockError(
                    f"transaction from {tx.sender_id} in block "
                    f"{preamble.height} has an invalid signature"
                )
        body = block.require_complete()
        if not self.check(
            body.miner_public,
            body.signing_payload(preamble.hash()),
            body.signature,
        ):
            raise InvalidBlockError("miner signature on block body is invalid")

    def _discard(self, public: Any, payload: bytes, signature: Any) -> None:
        key = _key(public, payload, signature)
        if key is not None:
            self._verified.pop(key, None)

    def discard_tx(self, tx: SealedBidTransaction) -> None:
        self._discard(tx.sender_public, tx.signing_payload(), tx.signature)

    def discard_block(self, block: Block) -> None:
        """Forget a block's entries once it is appended for good."""
        preamble = block.preamble
        for tx in preamble.transactions:
            self.discard_tx(tx)
        body = block.body
        if body is not None:
            self._discard(
                body.miner_public,
                body.signing_payload(preamble.hash()),
                body.signature,
            )
