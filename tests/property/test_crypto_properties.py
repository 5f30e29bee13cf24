"""Property tests: cryptographic primitives."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cryptosim import commitments, schnorr, symmetric

keys = st.binary(min_size=32, max_size=32)
payloads = st.binary(min_size=0, max_size=2048)


class TestSymmetricProperties:
    @given(key=keys, plaintext=payloads)
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, key, plaintext):
        box = symmetric.encrypt(key, plaintext)
        assert symmetric.decrypt(key, box) == plaintext

    @given(key=keys, plaintext=payloads)
    @settings(max_examples=50, deadline=None)
    def test_serialization_roundtrip(self, key, plaintext):
        box = symmetric.encrypt(key, plaintext)
        parsed = symmetric.SealedBox.from_bytes(box.to_bytes())
        assert symmetric.decrypt(key, parsed) == plaintext

    @given(key=keys, plaintext=st.binary(min_size=1, max_size=512),
           flip=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_any_ciphertext_bitflip_detected(self, key, plaintext, flip):
        import pytest

        box = symmetric.encrypt(key, plaintext)
        index = flip % len(box.ciphertext)
        tampered = symmetric.SealedBox(
            nonce=box.nonce,
            ciphertext=(
                box.ciphertext[:index]
                + bytes([box.ciphertext[index] ^ 0x01])
                + box.ciphertext[index + 1 :]
            ),
            tag=box.tag,
        )
        with pytest.raises(Exception):
            symmetric.decrypt(key, tampered)


class TestSchnorrProperties:
    @given(seed=st.binary(min_size=1, max_size=16), message=payloads)
    @settings(max_examples=25, deadline=None)
    def test_sign_verify(self, seed, message):
        keypair = schnorr.KeyPair.generate(seed=seed)
        assert schnorr.verify(
            keypair.public, message, schnorr.sign(keypair, message)
        )

    @given(
        seed=st.binary(min_size=1, max_size=16),
        message=st.binary(min_size=1, max_size=64),
        other=st.binary(min_size=1, max_size=64),
    )
    @settings(max_examples=25, deadline=None)
    def test_signature_binds_message(self, seed, message, other):
        if message == other:
            return
        keypair = schnorr.KeyPair.generate(seed=seed)
        signature = schnorr.sign(keypair, message)
        assert not schnorr.verify(keypair.public, other, signature)


class TestCommitmentProperties:
    @given(value=payloads)
    @settings(max_examples=50, deadline=None)
    def test_opens(self, value):
        commitment, opening = commitments.commit(value)
        assert commitments.verify_opening(commitment, opening)

    @given(value=payloads, other=payloads)
    @settings(max_examples=50, deadline=None)
    def test_binding(self, value, other):
        if value == other:
            return
        commitment, opening = commitments.commit(value)
        forged = commitments.Opening(value=other, blind=opening.blind)
        assert not commitments.verify_opening(commitment, forged)
