"""Adversarial tests for the per-node verified-signature set.

A cached verification must never let through anything a fresh
``schnorr.verify`` rejects: with the honest transaction (or body)
already verified, a tampered signature or a swapped key under the same
signing payload — hence the same txid — is still rejected at mempool
admission and at block validation.  One node's check never stands in for
another's, and a cold recovery verifies every replayed signature again.

The same holds for the per-node tables of public-key powers: a forgery
is rejected on a key's plain first sighting and once its table exists,
a table is only ever handed to ``verify`` with its own exact-``int`` key,
one-shot keys build none, and the tracked keys stay within their bound.
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
from repro.ledger.signatures import KEY_BOUND, VerifiedSignatures
from repro.store import NodeStore
from tests.property.test_schnorr_differential import unit_key_signature

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

    def counted(public, message, signature, powers=None):
        calls.append((public, powers))
        return original(public, message, signature, powers)

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


ALICE = schnorr.KeyPair.generate(seed=b"alice")
BOB = schnorr.KeyPair.generate(seed=b"bob")
#: distinct payloads signed by alice, so each check is a fresh sighting
ALICE_SIGNED = [
    (payload, schnorr.sign(ALICE, payload))
    for payload in (b"alice-%d" % i for i in range(3))
]


class TestKeyPowers:
    @given(
        sightings=st.integers(min_value=0, max_value=3),
        tampering=tampering,
        public=foreign_publics,
    )
    @settings(max_examples=25, deadline=None)
    def test_forgeries_rejected_before_and_after_the_table(
        self, sightings, tampering, public
    ):
        signatures = VerifiedSignatures()
        payload = HONEST_TX.signing_payload()
        honest = HONEST_TX.signature
        for signed_payload, signature in ALICE_SIGNED[:sightings]:
            assert signatures.check(ALICE.public, signed_payload, signature)
        forged = tamper(honest, *tampering)
        assert not signatures.check(ALICE.public, payload, forged)
        # the forgery was alice's key's sighting number ``sightings + 1``
        assert signatures.tables_built == (1 if sightings else 0)
        if public != ALICE.public:  # swapped key
            assert not signatures.check(public, payload, honest)
        # the same payload signed by another key, presented under alice's
        by_bob = schnorr.sign(BOB, payload)
        assert not signatures.check(ALICE.public, payload, by_bob)
        assert signatures.check(BOB.public, payload, by_bob)
        assert signatures.check(ALICE.public, payload, honest)
        assert signatures.hits == 0

    @given(
        order=st.lists(
            st.sampled_from(
                ["alice", "bob", "one", "true", "p+1", "one-float"]
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_a_table_is_only_used_with_its_own_key(self, order):
        signed = {
            "alice": [(ALICE.public, p, s) for p, s in ALICE_SIGNED],
            "bob": [
                (BOB.public, p, schnorr.sign(BOB, p))
                for p in (b"bob-0", b"bob-1")
            ],
        }
        for name, public in (
            ("one", 1),
            ("true", True),
            ("p+1", P + 1),
            ("one-float", 1.0),
        ):
            exact = int(public)
            signed[name] = [
                (public, p, unit_key_signature(exact, p, 777))
                for p in (b"unit-0", b"unit-1")
            ]
        signatures = VerifiedSignatures()
        with counting_verifies() as calls:
            for step, name in enumerate(order):
                choices = signed[name]
                public, payload, signature = choices[step % len(choices)]
                expected = schnorr.verify(public, payload, signature)
                calls.clear()
                assert signatures.check(public, payload, signature) == expected
                for called_public, powers in calls:
                    assert called_public is public
                    if type(public) is not int:
                        assert powers is None
                    elif powers is not None:
                        assert powers == schnorr.inverse_powers(public)

    def test_one_table_per_recurring_key_per_node(self):
        a, b = make_miner("a"), make_miner("b")
        senders = ["s0", "s1", "s2"]
        for round_index in range(4):
            pending = [sealed(s, round_index) for s in senders]
            for miner in (a, b):
                for tx, _ in pending:
                    miner.accept_transaction(tx)
            preamble = a.build_preamble()
            body = a.build_body(preamble, tuple(r for _, r in pending))
            block = Block(preamble=preamble, body=body)
            b.verify_block(block)
            b.commit_block(block)
            a.accept_block(block)
        for miner in (a, b):
            signatures = miner.mempool.signatures
            # three senders and miner a's key, each seen once per round
            assert signatures.tables_built == 4
            assert signatures.verifies == 4 * 4
            assert signatures.keys_evicted == 0

    def test_one_shot_keys_build_no_table(self):
        miner = make_miner(store=NodeStore.in_memory())
        for i in range(6):
            miner.accept_transaction(sealed(f"once-{i}", i)[0])
        preamble = miner.build_preamble()
        body = miner.build_body(preamble, ())
        miner.accept_block(Block(preamble=preamble, body=body))
        signatures = miner.mempool.signatures
        assert signatures.verifies == 6 + 1
        assert signatures.tables_built == 0

    def test_recovered_node_starts_without_tables(self):
        store = NodeStore.in_memory()
        miner = make_miner(store=store)
        senders = ["r0", "r1"]
        for round_index in range(3):
            pending = [sealed(s, round_index) for s in senders]
            for tx, _ in pending:
                miner.accept_transaction(tx)
            preamble = miner.build_preamble()
            body = miner.build_body(preamble, tuple(r for _, r in pending))
            miner.accept_block(Block(preamble=preamble, body=body))
        assert miner.mempool.signatures.tables_built == 3
        with counting_verifies() as calls:
            recovered = store.recover(difficulty_bits=BITS)
        signatures = recovered.mempool.signatures
        assert signatures is not miner.mempool.signatures
        # each key's first replayed signature is checked with plain pow
        plain = [public for public, powers in calls if powers is None]
        assert sorted(plain) == sorted({public for public, _ in calls})
        assert len(calls) == signatures.verifies == 3 * 3
        assert signatures.tables_built == 3

    def test_key_flood_stays_within_bound(self):
        signatures = VerifiedSignatures()
        flood = KEY_BOUND + 44
        recurring = ALICE_SIGNED[0]
        assert signatures.check(ALICE.public, *recurring)
        for public in range(2, flood + 2):
            # twice each, so every flooded key builds a table
            for challenge in (0, 1):
                assert not signatures.check(public, b"flood", (challenge, 1))
        assert signatures.tables_built == flood
        # alice was the least recently seen key and left first
        assert signatures.keys_evicted == flood + 1 - KEY_BOUND
        with counting_verifies() as calls:
            assert signatures.check(ALICE.public, *ALICE_SIGNED[1])
        assert calls == [(ALICE.public, None)]

    def test_a_sighting_refreshes_a_key(self):
        signatures = VerifiedSignatures()
        for payload, signature in ALICE_SIGNED[:2]:
            assert signatures.check(ALICE.public, payload, signature)
        assert signatures.tables_built == 1
        for public in range(2, KEY_BOUND + 1):  # KEY_BOUND - 1 other keys
            signatures.check(public, b"flood", (0, 1))
        assert signatures.keys_evicted == 0
        # alice moves to the newest end, so the next key evicts key 2
        assert signatures.check(ALICE.public, *ALICE_SIGNED[2])
        signatures.check(KEY_BOUND + 1, b"flood", (0, 1))
        assert signatures.keys_evicted == 1
        signature = schnorr.sign(ALICE, b"x")
        with counting_verifies() as calls:
            assert signatures.check(ALICE.public, b"x", signature)
        assert calls[0][1] == schnorr.inverse_powers(ALICE.public)
        assert signatures.tables_built == 1
