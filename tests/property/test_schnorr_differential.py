"""Differential tests: the fast Schnorr arithmetic against the plain formula.

``verify`` computes ``public^(-challenge)`` with one modular inverse, or
from a key's ``inverse_powers`` table when it is given one, and takes
``G^response`` from a fixed-base table.  The reference below is the
original formula (Fermat inverse, generic ``pow``), kept here verbatim so
the paths can be compared on honest, tampered and degenerate inputs.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cryptosim import schnorr
from repro.cryptosim.schnorr import G, P, Q, _hash_to_int, _inverse_pow


def reference_verify(public, message, signature):
    """The original verification formula (may raise on degenerate keys)."""
    try:
        challenge, response = signature
    except (TypeError, ValueError):
        return False
    if not (0 <= challenge < Q and 0 <= response < Q):
        return False
    commitment = (
        pow(G, response, P) * pow(pow(public, challenge, P), P - 2, P)
    ) % P
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


EDGE_PUBLICS = [0, 1, P - 1, P, P + 1, 2 * P, 3 * P + 7, -1, -P, 2**1279, 2**1280]
KEY = schnorr.KeyPair.generate(seed=b"differential")
MESSAGE = b"differential message"
HONEST = schnorr.sign(KEY, MESSAGE)

publics = st.one_of(
    st.just(KEY.public),
    st.sampled_from(EDGE_PUBLICS),
    st.integers(min_value=-(2**1100), max_value=2**1300),
    st.integers(min_value=1, max_value=P - 1),
)
signatures = st.one_of(
    st.just(HONEST),
    st.tuples(st.just(HONEST[0]), st.integers(min_value=0, max_value=Q - 1)),
    st.tuples(st.just(0), st.integers(min_value=0, max_value=Q - 1)),
    st.tuples(
        st.integers(min_value=-2, max_value=Q + 2),
        st.integers(min_value=-2, max_value=Q + 2),
    ),
)


def _compare(public, message, signature):
    fast = schnorr.verify(public, message, signature)
    assert isinstance(fast, bool)
    powers = schnorr.inverse_powers(public)
    assert schnorr.verify(public, message, signature, powers) is fast
    if isinstance(public, int) and public % P == 0:
        # No inverse exists; the fast path rejects explicitly.
        assert fast is False
        return
    try:
        slow = reference_verify(public, message, signature)
    except (OverflowError, ValueError):
        # The reference cannot even hash such a key; the fast path
        # rejects it instead of raising.
        assert fast is False
        return
    assert fast == slow


class TestVerifyDifferential:
    @given(public=publics, signature=signatures, message=st.binary(max_size=64))
    @settings(max_examples=120, deadline=None)
    @example(public=KEY.public, signature=HONEST, message=MESSAGE)
    @example(public=P + 1, signature=(0, 5), message=MESSAGE)
    @example(public=0, signature=(0, 5), message=MESSAGE)
    @example(public=-1, signature=HONEST, message=MESSAGE)
    def test_verify_matches_reference(self, public, signature, message):
        _compare(public, message, signature)

    @given(public=st.sampled_from(EDGE_PUBLICS), response=st.integers(0, Q - 1))
    @settings(max_examples=40, deadline=None)
    def test_zero_challenge_edge_publics(self, public, response):
        _compare(public, MESSAGE, (0, response))

    def test_honest_signature_verifies_on_both(self):
        assert reference_verify(KEY.public, MESSAGE, HONEST)
        assert schnorr.verify(KEY.public, MESSAGE, HONEST)

    def test_verify_never_raises_on_junk(self):
        for public in (None, 1.5, "key", b"key", KEY.public + 0.0):
            assert schnorr.verify(public, MESSAGE, HONEST) is False
        for signature in ((1.0, 2), (True, None), [HONEST[0]], None, "xy"):
            assert schnorr.verify(KEY.public, MESSAGE, signature) is False


def unit_key_signature(public, message, response):
    """A signature that verifies under a key ``≡ ±1 (mod P)``, or ``None``.

    ``public^(-c)`` is ``±1`` for such a key, so the commitment is known
    before the challenge is hashed.
    """
    for unit in (1, P - 1):
        commitment = schnorr.g_pow(response) * unit % P
        challenge = _hash_to_int(
            b"chal",
            commitment.to_bytes(160, "big"),
            public.to_bytes(160, "big"),
            message,
        ) % Q
        if pow(public, -challenge, P) == unit:
            return challenge, response
    return None


TABLE_EDGE_PUBLICS = [1, P - 1, P + 1, 2 * P + 1, 2 * P - 1, 2**1280 - 1]
#: ``-x^2`` is a non-residue because ``-1`` is one (``P ≡ 3 mod 4``)
non_residues = st.integers(min_value=1, max_value=P - 1).map(
    lambda x: (-x * x) % P
)
table_publics = st.one_of(
    st.just(KEY.public),
    st.sampled_from(TABLE_EDGE_PUBLICS),
    non_residues,
    st.integers(min_value=P, max_value=2**1280 - 1),
    st.integers(min_value=1, max_value=P - 1),
)
challenges = st.one_of(
    st.sampled_from([0, 1, 2**256 - 1, 2**256, Q - 1]),
    st.integers(min_value=0, max_value=2**256 - 1),
    st.integers(min_value=2**256, max_value=Q - 1),
)


class TestInversePowers:
    @given(
        public=table_publics,
        challenge=challenges,
        response=st.integers(0, Q - 1),
    )
    @settings(max_examples=100, deadline=None)
    @example(public=KEY.public, challenge=HONEST[0], response=HONEST[1])
    @example(public=1, challenge=0, response=0)
    @example(public=P - 1, challenge=2**256 - 1, response=1)
    def test_table_verify_matches_reference(self, public, challenge, response):
        _compare(public, MESSAGE, (challenge, response))

    @given(
        public=table_publics,
        challenge=st.integers(min_value=0, max_value=2**256 - 1),
    )
    @settings(max_examples=100, deadline=None)
    @example(public=KEY.public, challenge=0)
    @example(public=KEY.public, challenge=2**256 - 1)
    @example(public=KEY.public, challenge=16**63)
    @example(public=P - 1, challenge=2**256 - 1)
    def test_bucket_power_matches_generic_pow(self, public, challenge):
        powers = schnorr.inverse_powers(public)
        if public % P == 0:
            assert powers is None
            return
        assert len(powers) == 64
        assert powers[5] == pow(public, -(16**5), P)
        assert _inverse_pow(powers, challenge) == pow(public, -challenge, P)

    @given(delta=st.integers(min_value=1, max_value=Q - 1))
    @settings(max_examples=30, deadline=None)
    def test_tampered_response_rejected_on_both_paths(self, delta):
        challenge, response = HONEST
        _compare(KEY.public, MESSAGE, (challenge, (response + delta) % Q))

    @given(
        seed=st.binary(min_size=1, max_size=16),
        message=st.binary(max_size=64),
    )
    @settings(max_examples=30, deadline=None)
    def test_honest_signatures_verify_with_table(self, seed, message):
        keypair = schnorr.KeyPair.generate(seed=seed)
        signature = schnorr.sign(keypair, message)
        powers = schnorr.inverse_powers(keypair.public)
        assert schnorr.verify(keypair.public, message, signature, powers)
        assert reference_verify(keypair.public, message, signature)

    @given(
        public=st.sampled_from(TABLE_EDGE_PUBLICS[:-1]),
        response=st.integers(0, Q - 1),
        message=st.binary(max_size=32),
    )
    @settings(max_examples=40, deadline=None)
    def test_unit_keys_accept_on_every_path(self, public, response, message):
        signature = unit_key_signature(public, message, response)
        if signature is None:
            return
        assert reference_verify(public, message, signature)
        assert schnorr.verify(public, message, signature)
        powers = schnorr.inverse_powers(public)
        assert schnorr.verify(public, message, signature, powers)

    def test_no_table_exactly_where_verify_rejects_every_key(self):
        for public in EDGE_PUBLICS + [None, 1.0, "key", 2**1280 - 1, True]:
            valid = (
                isinstance(public, int) and 0 < public < 2**1280 and public % P
            )
            assert (schnorr.inverse_powers(public) is not None) == bool(valid)
            if not valid:
                assert schnorr.verify(public, MESSAGE, HONEST) is False

    def test_challenge_beyond_digest_range_rejected_at_once(self):
        # Either formula rejects: the digest is below 2^256.
        for challenge in (2**256, 2**256 + HONEST[0], Q - 1):
            signature = (challenge, HONEST[1])
            assert not reference_verify(KEY.public, MESSAGE, signature)
            assert not schnorr.verify(KEY.public, MESSAGE, signature)


class TestFixedBasePower:
    @given(exponent=st.integers(min_value=0, max_value=Q - 1))
    @settings(max_examples=200, deadline=None)
    @example(exponent=0)
    @example(exponent=1)
    @example(exponent=Q - 1)
    @example(exponent=2**1022)
    @example(exponent=2**1022 + 2**511 + 1)
    def test_matches_generic_pow(self, exponent):
        assert schnorr.g_pow(exponent) == pow(G, exponent, P)

    @given(exponent=st.integers(min_value=2**1022, max_value=Q - 1))
    @settings(max_examples=50, deadline=None)
    def test_full_width_exponents(self, exponent):
        assert exponent.bit_length() == 1023
        assert schnorr.g_pow(exponent) == pow(G, exponent, P)

    @given(exponent=st.integers(min_value=-(2**1100), max_value=2**1100))
    @settings(max_examples=50, deadline=None)
    def test_reduces_mod_group_order(self, exponent):
        assert schnorr.g_pow(exponent) == pow(G, exponent % Q, P)

    def test_keygen_public_is_g_to_the_secret(self):
        keypair = schnorr.KeyPair.generate(seed=b"table")
        assert keypair.public == pow(G, keypair.secret, P)


#: (keypair seed or secret, message, signature) produced by the original
#: ``sign`` (generic ``pow``, public recomputed from the secret)
PINNED = [
    (
        b"k1",
        b"message",
        (
            3649124666503073974992703369657453409033990128103090104823423078250920838404,
            107372168087212211632906503887760461231963326054161175320995439156652759124458546495400645557674999032373644163875041904732917922450450543484667547865241,
        ),
    ),
    (
        b"vector-2",
        b"",
        (
            36207643463138444465863585937457175344290502611919061993224198526982736454428,
            3467197293269138569643937648969061064591156739587675859630369460316423688173034738970282752891945964392476103068758656922512033152783471807162449901719095,
        ),
    ),
    (
        b"miner-0",
        b"\x00" * 32,
        (
            74506501808178063993843463441161766457352264524719689392994146037278134931136,
            8107061229991213735965604402988627068948996668355162458752021846046821362705933834554652469927097312641586241618008518964742563983749733393238174236688666,
        ),
    ),
    (
        Q - 2,
        b"large secret",
        (
            17177743883747721305419916690466899770396941911238647458918950596020251871063,
            89884656743115795385419578396893726598930148024378005853222211842098590108079259684473916897932462770751090282742990251823220274099619550025396438501677908319614776568119538254367879957411287431287503712651038723856294775478968889185319921309208304570460418599629409042701116966613175780114986886490785547179,
        ),
    ),
]


class TestPinnedSignatures:
    def test_sign_reproduces_pinned_vectors(self):
        for key, message, expected in PINNED:
            if isinstance(key, bytes):
                keypair = schnorr.KeyPair.generate(seed=key)
            else:
                keypair = schnorr.KeyPair(secret=key, public=pow(G, key, P))
            assert schnorr.sign(keypair, message) == expected
            assert schnorr.verify(keypair.public, message, expected)
            assert reference_verify(keypair.public, message, expected)
