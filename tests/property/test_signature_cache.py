"""Adversarial tests for the per-node verified-signature set.

A cached verification must never let through anything a fresh
``schnorr.verify`` rejects: with the honest transaction (or body)
already verified, a tampered signature or a swapped key under the same
signing payload — hence the same txid — is still rejected at mempool
admission and at block validation.  One node's check never stands in for
another's, and a cold recovery verifies every replayed signature again.
"""

import contextlib
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import InvalidBlockError, SignatureError
from repro.cryptosim import schnorr
from repro.cryptosim.schnorr import P, Q
from repro.ledger import pow as pow_mod
from repro.ledger.block import Block, BlockPreamble
from repro.ledger.forks import BlockTree
from repro.ledger.mempool import Mempool
from repro.ledger.miner import Miner, make_sealed_bid
from repro.store import NodeStore

BITS = 4


def echo_allocator(plaintexts, evidence):
    return {"senders": sorted(plaintexts)}


def rejecting_allocator(plaintexts, evidence):
    return {"never": "matches"}


def make_miner(miner_id="m0", allocate=echo_allocator, **kwargs):
    return Miner(
        miner_id=miner_id, allocate=allocate, difficulty_bits=BITS, **kwargs
    )


def sealed(sender, i=0):
    keypair = schnorr.KeyPair.generate(seed=sender.encode())
    tx, reveal = make_sealed_bid(
        sender_id=sender,
        keypair=keypair,
        plaintext=f"bid-{sender}-{i}".encode(),
        temp_key=bytes([i % 256]) * 32,
        nonce=bytes([i % 256]) * 16,
        blind=bytes([i % 256]) * 32,
    )
    return tx, reveal


HONEST_TX, HONEST_REVEAL = sealed("alice")
OTHER_KEY = schnorr.KeyPair.generate(seed=b"mallory")


def block_on(chain, txs, proposer, reveals=()):
    """A mined block extending ``chain`` with a body signed by ``proposer``."""
    preamble = BlockPreamble(
        height=chain.next_height,
        parent_hash=chain.tip_hash,
        transactions=tuple(txs),
        timestamp=float(chain.next_height),
    )
    preamble = preamble.with_nonce(pow_mod.solve(preamble.pow_payload(), BITS))
    return Block(preamble=preamble, body=proposer.build_body(preamble, reveals))


def tamper(signature, which, delta):
    challenge, response = signature
    if which == "challenge":
        return ((challenge + delta) % Q, response)
    return (challenge, (response + delta) % Q)


@contextlib.contextmanager
def counting_verifies():
    calls = []
    original = schnorr.verify

    def counted(public, message, signature):
        calls.append(public)
        return original(public, message, signature)

    schnorr.verify = counted
    try:
        yield calls
    finally:
        schnorr.verify = original


tampering = st.tuples(
    st.sampled_from(["challenge", "response"]),
    st.integers(min_value=1, max_value=Q - 1),
)
foreign_publics = st.one_of(
    st.just(OTHER_KEY.public),
    st.sampled_from([0, 1, 2, P - 1, P, P + 1, -1, 2**1280]),
    st.integers(min_value=1, max_value=P - 1),
)


class TestCachedTransactionCannotCoverForgeries:
    @given(tampering=tampering)
    @settings(max_examples=25, deadline=None)
    def test_tampered_signature_same_txid(self, tampering):
        miner = make_miner()
        miner.accept_transaction(HONEST_TX)
        forged = dataclasses.replace(
            HONEST_TX, signature=tamper(HONEST_TX.signature, *tampering)
        )
        assert forged.txid() == HONEST_TX.txid()
        with pytest.raises(SignatureError):
            miner.mempool.submit(forged)
        with pytest.raises(InvalidBlockError):
            miner.chain.validate_candidate(block_on(miner.chain, [forged], miner))

    @given(public=foreign_publics)
    @settings(max_examples=25, deadline=None)
    def test_same_payload_under_another_key(self, public):
        if public == HONEST_TX.sender_public:
            return
        miner = make_miner()
        miner.accept_transaction(HONEST_TX)
        forged = dataclasses.replace(HONEST_TX, sender_public=public)
        assert forged.txid() == HONEST_TX.txid()
        with pytest.raises(SignatureError):
            miner.mempool.submit(forged)
        with pytest.raises(InvalidBlockError):
            miner.chain.validate_candidate(block_on(miner.chain, [forged], miner))

    @given(tampering=tampering)
    @settings(max_examples=25, deadline=None)
    def test_tampered_body_signature(self, tampering):
        miner = make_miner()
        miner.accept_transaction(HONEST_TX)
        honest = block_on(miner.chain, [HONEST_TX], miner, (HONEST_REVEAL,))
        miner.chain.validate_candidate(honest)  # caches the body signature
        tree = BlockTree(difficulty_bits=BITS)
        tree.add_block(honest)
        forged = Block(
            preamble=honest.preamble,
            body=dataclasses.replace(
                honest.body, signature=tamper(honest.body.signature, *tampering)
            ),
        )
        with pytest.raises(InvalidBlockError):
            miner.chain.validate_candidate(forged)
        with pytest.raises(InvalidBlockError):
            tree.add_block(forged)

    def test_equal_but_not_int_key_is_not_a_hit(self):
        # public 1 makes any (c, r) with c = H(G^r, 1, m) "valid"; a float
        # 1.0 equals 1 but the slow path rejects it, so must the set.
        mempool = Mempool()
        payload = HONEST_TX.signing_payload()
        response = 12345
        commitment = schnorr.g_pow(response)
        challenge = schnorr._hash_to_int(
            b"chal",
            commitment.to_bytes(160, "big"),
            (1).to_bytes(160, "big"),
            payload,
        ) % Q
        assert mempool.signatures.check(1, payload, (challenge, response))
        assert not mempool.signatures.check(1.0, payload, (challenge, response))


class TestOneSetPerNode:
    def test_sets_are_per_miner_and_shared_within(self):
        a, b = make_miner("a"), make_miner("b")
        assert a.chain.signatures is a.mempool.signatures
        assert a.mempool.signatures is not b.mempool.signatures
        assert Mempool().signatures is not Mempool().signatures

    def test_admission_by_one_miner_never_spares_another(self):
        a, b = make_miner("a"), make_miner("b")
        tx2, reveal2 = sealed("bob")
        with counting_verifies() as calls:
            a.accept_transaction(HONEST_TX)
            a.accept_transaction(tx2)
            assert len(calls) == 2
            a.accept_transaction(HONEST_TX)  # cached on a
            assert len(calls) == 2
            b.accept_transaction(HONEST_TX)  # b checks for itself
            assert len(calls) == 3
            block = block_on(
                a.chain, [HONEST_TX, tx2], a, (HONEST_REVEAL, reveal2)
            )
            before = len(calls)
            b.verify_block(block)  # tx2 (unseen by b) + the body
            assert len(calls) == before + 2
            a.verify_block(block)  # only the body is new to a
            assert len(calls) == before + 3
            a.commit_block(block)
            b.commit_block(block)
            assert len(calls) == before + 3

    def test_recovery_verifies_each_replayed_signature_once(self):
        store = NodeStore.in_memory()
        miner = make_miner(store=store)
        txs = [sealed(f"s{i}", i) for i in range(5)]
        for tx, _ in txs[:3]:
            miner.accept_transaction(tx)
        preamble = miner.build_preamble()
        body = miner.build_body(preamble, tuple(r for _, r in txs[:3]))
        miner.accept_block(Block(preamble=preamble, body=body))
        for tx, _ in txs[3:]:
            miner.accept_transaction(tx)
        live = store.state_digest()
        for _ in range(2):  # every cold recovery starts from a fresh set
            with counting_verifies() as calls:
                recovered = store.recover(difficulty_bits=BITS)
            assert len(calls) == 5 + 1  # five bids, one block body
            assert recovered.state_digest() == live
            assert recovered.chain.signatures is recovered.mempool.signatures


class TestBound:
    def test_long_running_miner_set_stays_small(self):
        miner = make_miner(mempool=Mempool(max_size=8))
        signatures = miner.mempool.signatures
        for height in range(12):
            pending = [sealed(f"r{height}-{i}", height) for i in range(3)]
            for tx, _ in pending:
                miner.accept_transaction(tx)
            assert len(signatures) == 3
            preamble = miner.build_preamble()
            body = miner.build_body(preamble, tuple(r for _, r in pending))
            miner.accept_block(Block(preamble=preamble, body=body))
            assert len(signatures) == 0
        assert len(miner.chain) == 12

    def test_rejected_blocks_cannot_grow_the_set(self):
        proposer = make_miner("proposer")
        victim = make_miner(
            "victim", allocate=rejecting_allocator, mempool=Mempool(max_size=8)
        )
        signatures = victim.mempool.signatures
        for round_index in range(15):
            txs = [sealed(f"x{round_index}-{i}", i)[0] for i in range(3)]
            block = block_on(victim.chain, txs, proposer)
            with pytest.raises(InvalidBlockError):
                victim.verify_block(block)  # re-execution mismatch
            assert len(signatures) <= signatures.capacity == 8 + 3 + 1
        assert len(signatures) == signatures.capacity
