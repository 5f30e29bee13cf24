"""Schnorr signatures over a fixed prime-order subgroup (pure stdlib).

Participants sign bids and miners sign blocks.  The group is the
quadratic-residue subgroup of a 1024-bit safe prime; parameters are small
relative to production standards but the scheme is a real public-key
signature: verification needs only the public
key, and any bit flip in message or signature fails verification.

Signing is deterministic (RFC-6979 style nonce derivation from the secret
key and message) so the ledger simulation stays reproducible.

Every power of ``G`` goes through a fixed-base window table built once at
import (:func:`g_pow`): the exponent's 4-bit digits index precomputed
``G^(d * 16^i)`` entries, so a power costs one modular multiplication per
nonzero digit instead of a square-and-multiply chain over every bit.

A verifier that sees one public key repeatedly can pass
:func:`inverse_powers` of that key to :func:`verify`: 64 powers
``(public^-1)^(16^i)`` turn ``public^(-challenge)`` into one bucket pass
over the challenge's 4-bit digits (Yao's method) instead of a generic
``pow``.  The table is a pure function of the key, so it changes no
result.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.common.errors import SignatureError

# Safe prime P = 2*Q + 1 with Q prime (RFC 2409 Oakley Group 2, 1024-bit);
# G = 4 is a quadratic residue and therefore generates the order-Q subgroup.
# Parameters are verified at import time below.
P = 0xFFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF
Q = (P - 1) // 2
G = 4  # 2^2 is a quadratic residue, hence generates the order-Q subgroup.

#: ``public.to_bytes(160, "big")`` overflows at and above this value
_PUBLIC_BOUND = 1 << (8 * 160)

#: bits per digit of the fixed-base table: 4-bit digits over Q's 1023
#: bits are 256 rows of 15 powers, ~0.7 MB of 1024-bit integers
_WINDOW = 4
_DIGIT_MASK = (1 << _WINDOW) - 1

#: an honest challenge is a SHA-256 digest (below ``Q``, so never
#: reduced), hence below this bound; its 4-bit digits fill 64 rows
_CHALLENGE_BOUND = 1 << 256
_CHALLENGE_DIGITS = 256 // _WINDOW


def _build_g_table() -> Tuple[Tuple[int, ...], ...]:
    """Row ``i`` holds ``G^(d * 2^(_WINDOW * i))`` for digits ``d``."""
    rows = []
    base = G
    for _ in range(-(-Q.bit_length() // _WINDOW)):
        row = [1, base]
        for _ in range(_DIGIT_MASK - 1):
            row.append(row[-1] * base % P)
        rows.append(tuple(row))
        base = row[-1] * base % P
    return tuple(rows)


# Built eagerly: a lazy build would land inside the first timed signature.
_G_TABLE = _build_g_table()


def g_pow(exponent: int) -> int:
    """``pow(G, exponent, P)`` through the fixed-base table.

    ``G`` has order ``Q``, so the exponent is reduced mod ``Q`` first
    (which also makes negative exponents well defined).
    """
    exponent %= Q
    result = 1
    for row in _G_TABLE:
        if not exponent:
            break
        digit = exponent & _DIGIT_MASK
        if digit:
            result = result * row[digit] % P
        exponent >>= _WINDOW
    return result


def _hash_to_int(*parts: bytes) -> int:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(8, "big"))
        hasher.update(part)
    return int.from_bytes(hasher.digest(), "big")


@dataclass(frozen=True)
class KeyPair:
    """A Schnorr key pair: secret exponent and public group element."""

    secret: int
    public: int

    @classmethod
    def generate(cls, seed: bytes | None = None) -> "KeyPair":
        """Generate a key pair; ``seed`` makes generation deterministic."""
        if seed is None:
            secret = secrets.randbelow(Q - 1) + 1
        else:
            secret = _hash_to_int(b"keygen", seed) % (Q - 1) + 1
        return cls(secret=secret, public=g_pow(secret))


def sign(keypair: KeyPair, message: bytes) -> Tuple[int, int]:
    """Produce a Schnorr signature ``(challenge, response)``.

    The nonce is derived deterministically from ``(secret, message)``.
    """
    secret = keypair.secret
    nonce = _hash_to_int(b"nonce", secret.to_bytes(160, "big"), message) % (Q - 1) + 1
    commitment = g_pow(nonce)
    challenge = (
        _hash_to_int(
            b"chal",
            commitment.to_bytes(160, "big"),
            keypair.public.to_bytes(160, "big"),
            message,
        )
        % Q
    )
    response = (nonce + challenge * secret) % Q
    return challenge, response


def _valid_public(public: object) -> bool:
    """``public`` serializes into the 160-byte challenge hash and has an
    inverse mod ``P`` (a multiple of ``P`` has none)."""
    return (
        isinstance(public, int) and 0 < public < _PUBLIC_BOUND and public % P != 0
    )


def inverse_powers(public: int) -> Optional[Tuple[int, ...]]:
    """The 64 powers ``(public^-1)^(16^i) mod P`` that :func:`verify`
    accepts as ``powers`` for ``public``, or ``None`` when ``verify``
    rejects every signature under ``public``.

    One modular inverse and 63 ``pow(x, 16, P)``: about one plain
    ``public^(-challenge)`` of work and 11 KB of integers.
    """
    if not _valid_public(public):
        return None
    powers = [pow(public, -1, P)]
    for _ in range(_CHALLENGE_DIGITS - 1):
        powers.append(pow(powers[-1], 1 << _WINDOW, P))
    return tuple(powers)


def _inverse_pow(powers: Sequence[int], challenge: int) -> int:
    """``public^(-challenge) mod P`` from ``inverse_powers(public)``.

    Each power whose challenge digit is ``d`` is multiplied into bucket
    ``d``; the running products of buckets 15..1 then raise each bucket
    to its digit in 30 multiplications.
    """
    buckets = [1] * (_DIGIT_MASK + 1)
    for power in powers:
        if not challenge:
            break
        digit = challenge & _DIGIT_MASK
        if digit:
            buckets[digit] = buckets[digit] * power % P
        challenge >>= _WINDOW
    result = running = 1
    for digit in range(_DIGIT_MASK, 0, -1):
        running = running * buckets[digit] % P
        result = result * running % P
    return result


def verify(
    public: int,
    message: bytes,
    signature: Tuple[int, int],
    powers: Optional[Sequence[int]] = None,
) -> bool:
    """Check a signature against ``public`` and ``message``; never raises.

    ``powers``, when given, must be ``inverse_powers(public)``; it only
    makes the check faster.
    """
    try:
        challenge, response = signature
    except (TypeError, ValueError):
        return False
    # A challenge at or above 2^256 can never equal the digest below.
    if not (
        isinstance(challenge, int)
        and isinstance(response, int)
        and 0 <= challenge < _CHALLENGE_BOUND
        and 0 <= response < Q
    ):
        return False
    if not _valid_public(public):
        return False
    # commitment' = G^response * public^(-challenge) mod P
    if powers is None:
        inverse = pow(public, -challenge, P)
    else:
        inverse = _inverse_pow(powers, challenge)
    commitment = g_pow(response) * inverse % P
    expected = (
        _hash_to_int(
            b"chal",
            commitment.to_bytes(160, "big"),
            public.to_bytes(160, "big"),
            message,
        )
        % Q
    )
    return expected == challenge


def require_valid(public: int, message: bytes, signature: Tuple[int, int]) -> None:
    """Raise :class:`SignatureError` unless the signature verifies."""
    if not verify(public, message, signature):
        raise SignatureError("signature verification failed")


def _self_check() -> None:
    # Group sanity: G must have order Q (so G^Q == 1 and G != 1).
    assert pow(G, Q, P) == 1 and G != 1, "bad Schnorr group parameters"
    # A challenge digest is never reduced mod Q, so it stays below the bound.
    assert _CHALLENGE_BOUND < Q, "challenge digests must fit below Q"


_self_check()
