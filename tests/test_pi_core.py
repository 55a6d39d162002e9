"""Tests for divisible sequences, carries, pi-sequences and invariants."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import binomial, factorint

from gdpakit.coeff_rings import (
    GF,
    QQ,
    ZPOLY,
    ZZ,
    PreconditionError,
    UnsupportedRingError,
    Zloc,
    Zmod,
)
from gdpakit.pi_core import (
    A_invariant,
    PiSequence,
    a_invariant,
    admissible_check,
    c_binomial,
    carry,
    check_gcd_morphic,
    cyclotomic_poly,
    divisors,
    fibonacci,
    h_transform,
    mobius,
    pi_from_gcd_morphic,
    prime_power_base,
)
from references import ORACLE_CONTEXTS, DivisibleSequence, base_rep, c_binomial_by_carries


def random_never_zero_pi(rng, up_to=30, lo=1, hi=9):
    """A random custom pi-sequence over Z with nonzero entries."""
    values = {}
    for n in range(2, up_to + 1):
        v = rng.randint(lo, hi)
        values[n] = v if v != 0 else 1
    return PiSequence.custom(ZZ, values, default=1)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_divisors_mobius_prime_power():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert prime_power_base(8) == 2
    assert prime_power_base(7) == 7
    assert prime_power_base(12) is None
    assert prime_power_base(1) is None


def test_mobius_and_prime_power_base_match_factorint():
    for n in range(1, 10001):
        f = factorint(n)
        squarefree = all(e == 1 for e in f.values())
        assert mobius(n) == ((-1) ** len(f) if squarefree else 0), n
        assert prime_power_base(n) == (next(iter(f)) if len(f) == 1 else None), n


# ---------------------------------------------------------------------------
# divisible sequences / base rep / carries
# ---------------------------------------------------------------------------


def powers(base):
    """The divisible sequence (1, base, base^2, ...)."""
    return DivisibleSequence([1], rule=lambda prev: prev * base)


def test_divisible_sequence_invariants():
    DivisibleSequence([1, 2, 4, 8])
    with pytest.raises(PreconditionError):
        DivisibleSequence([2, 4])
    with pytest.raises(PreconditionError):
        DivisibleSequence([1, 2, 3])
    with pytest.raises(PreconditionError):
        DivisibleSequence([1, 2, 2])
    b = powers(3)
    assert b.terms_up_to(30) == [1, 3, 9, 27]


def test_base_rep_trivial_zero():
    # n = 0 gives the empty digit list
    assert base_rep(0, powers(2)) == []


def test_base_rep_13_binary():
    # [DERIVED] greedy digit-extraction oracle
    assert base_rep(13, powers(2)) == [1, 0, 1, 1]


def test_base_rep_10_136():
    # [DERIVED] 1+3+6 = 10, ranges d0 < 3, d1 < 2 forced
    assert base_rep(10, DivisibleSequence([1, 3, 6])) == [1, 1, 1]


def test_base_rep_reconstruction_and_ranges():
    rng = random.Random(5)
    seqs = [
        powers(2),
        powers(5),
        DivisibleSequence([1, 3, 6]),
        DivisibleSequence([1, 2, 8, 24]),
    ]
    for b in seqs:
        for n in range(0, 200):
            digits = base_rep(n, b)
            assert sum(d * b.term(i) for i, d in enumerate(digits)) == n
            for i, d in enumerate(digits):
                nxt = b.term(i + 1)
                assert d >= 0
                if nxt is not None and i < len(digits) - 1:
                    assert d < nxt // b.term(i)
                if nxt is not None and i == len(digits) - 1:
                    assert d < nxt // b.term(i)


def test_carry_values():
    # eps_2(1,1) = 1 and eps_k(n,0) = 0
    assert carry(2, 1, 1) == 1
    for k in range(1, 8):
        for n in range(10):
            assert carry(k, n, 0) == 0
    # [DERIVED] eps_3(2,2) = 1
    assert carry(3, 2, 2) == 1
    with pytest.raises(PreconditionError):
        carry(0, 1, 1)


# ---------------------------------------------------------------------------
# pi-sequences and invariants
# ---------------------------------------------------------------------------


def test_pi1_always_zero():
    for pi in [
        PiSequence.all_ones(QQ),
        PiSequence.classical(ZZ),
        PiSequence.cyclotomic_symbolic(),
        PiSequence.custom(ZZ, {1: 7, 2: 5}),
    ]:
        assert pi.ring.is_zero(pi.pi(1))


def test_classical_pi_values():
    pi = PiSequence.classical(ZZ)
    assert [pi.pi(n) for n in range(2, 13)] == [2, 3, 2, 5, 1, 7, 2, 3, 1, 11, 1]


def test_classical_a_A():
    # a(n) = n, A(n) = n! for the classical family
    pi = PiSequence.classical(ZZ)
    for n in range(1, 31):
        assert a_invariant(pi, n) == n
        assert A_invariant(pi, n) == math.factorial(n)
    assert A_invariant(pi, 0) == 1


def test_all_ones_a():
    # a(n) = 1 for all n >= 1
    pi = PiSequence.all_ones(QQ)
    for n in range(1, 20):
        assert a_invariant(pi, n) == 1


def test_cyclotomic_a_is_q_integer():
    # a(n) = [n]_q
    pi = PiSequence.cyclotomic_symbolic()
    assert a_invariant(pi, 3) == (1, 1, 1)  # 1 + q + q^2
    for n in range(1, 15):
        assert a_invariant(pi, n) == tuple([1] * n)


def test_cyclotomic_poly_values():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_c_binomial_classical_small():
    pi = PiSequence.classical(ZZ)
    assert c_binomial(pi, 4, 2) == 6
    for n in range(0, 20):
        for m in range(0, n + 1):
            assert c_binomial(pi, n, m) == int(binomial(n, m))
    assert c_binomial(pi, 7, 0) == 1 and c_binomial(pi, 7, 7) == 1
    with pytest.raises(PreconditionError):
        c_binomial(pi, 3, 4)


@pytest.mark.parametrize("ring", [ZZ, Zloc(2), GF(3)])
def test_c_binomial_memo_keeps_values_and_range_check(ring):
    # a memo hit skips the range check, so an (n, m) with m < 0 or m > n
    # must raise on a cold memo and on a warm one, and never enter it; every
    # value read from the warm memo equals that of a fresh sequence
    families = (PiSequence.classical, lambda R: PiSequence.custom(R, {2: 0, 6: 3}))
    bad = [(3, -1), (3, 4), (0, 1), (0, -1), (-1, 0), (12, 13)]
    for family in families:
        pi = family(ring)
        for n, m in bad:
            with pytest.raises(PreconditionError):
                c_binomial(pi, n, m)
        for n in range(16):
            for m in range(n + 1):
                c_binomial(pi, n, m)
        for n, m in bad:
            with pytest.raises(PreconditionError):
                c_binomial(pi, n, m)
        assert all(0 <= m <= n for n, m in pi._c_memo)
        for n in range(16):
            for m in range(n + 1):
                assert ring.eq(c_binomial(pi, n, m), c_binomial(family(ring), n, m))


def test_c_binomial_matches_the_carry_loop():
    # value and type, each pair computed cold: fresh copies of the oracle
    # contexts' pi, custom pi with zeros (where the loop stops early) and
    # the cyclotomic pi over Z[q]
    zeros = [{2: 0, 6: 0}, {3: 0, 9: 0}, {2: 2, 3: 0, 25: 0}]
    fresh = [PiSequence.from_json(ctx.pi.to_json()) for ctx in ORACLE_CONTEXTS]
    fresh += [PiSequence.custom(R, values) for R in (ZZ, Zloc(3), Zmod(6)) for values in zeros]
    cases = [(pi, 90) for pi in fresh] + [(PiSequence.cyclotomic_symbolic(), 24)]
    pairs = 0
    for pi, top in cases:
        for n in range(top + 1):
            for m in range(n + 1):
                got, want = c_binomial(pi, n, m), c_binomial_by_carries(pi, n, m)
                assert type(got) is type(want) and got == want, (pi, n, m)
                pairs += 1
    assert pairs > 100_000


def test_c_binomial_classical_over_z_is_the_binomial():
    # Kummer: over Z with classical pi, C(n, m) is the ordinary binomial
    pi = PiSequence.classical(ZZ)
    for n in range(161):
        for m in range(n + 1):
            assert c_binomial(pi, n, m) == math.comb(n, m), (n, m)


def test_c_binomial_gaussian():
    pi = PiSequence.cyclotomic_symbolic()
    assert c_binomial(pi, 2, 1) == (1, 1)  # 1 + q
    assert c_binomial(pi, 4, 2) == (1, 1, 2, 1, 1)  # Gaussian [4 choose 2]


def test_c_symmetry_random():
    rng = random.Random(1)
    for _ in range(10):
        pi = random_never_zero_pi(rng, up_to=20)
        for n in range(0, 20):
            for m in range(0, n + 1):
                assert c_binomial(pi, n, m) == c_binomial(pi, n, n - m)


def test_cocycle_and_factorial_random():
    # cocycle C(n,m) C(m,l) = C(n-l, m-l) C(n,l), factorial C*A*A = A
    rng = random.Random(2)
    for _ in range(8):
        pi = random_never_zero_pi(rng, up_to=16)
        for n in range(0, 16):
            for m in range(0, n + 1):
                assert (
                    c_binomial(pi, n, m) * A_invariant(pi, n - m) * A_invariant(pi, m)
                    == A_invariant(pi, n)
                )
                for l in range(0, m + 1):
                    lhs = c_binomial(pi, n, m) * c_binomial(pi, m, l)
                    rhs = c_binomial(pi, n - l, m - l) * c_binomial(pi, n, l)
                    assert lhs == rhs


# ---------------------------------------------------------------------------
# h-transform
# ---------------------------------------------------------------------------


def test_h_transform_identity():
    pi = PiSequence.classical(ZZ)
    assert h_transform(pi, 1) is pi


def test_h_transform_classical_a():
    # a^[h](n) = n for the classical family
    pi = PiSequence.classical(ZZ)
    for h in (2, 3, 4, 6):
        ph = h_transform(pi, h)
        for n in range(1, 21):
            assert a_invariant(ph, n) == n


def test_h_transform_cyclotomic():
    # a^[2](n) = [n]_{q^2}
    pi = PiSequence.cyclotomic_symbolic()
    p2 = h_transform(pi, 2)
    for n in range(1, 10):
        expected = [0] * (2 * n - 1)
        expected[0::2] = [1] * n
        assert a_invariant(p2, n) == tuple(expected)


def test_h_transform_law_and_composition_random():
    rng = random.Random(3)
    for _ in range(5):
        pi = random_never_zero_pi(rng, up_to=60)
        for h in (2, 3, 4):
            ph = h_transform(pi, h)
            ah = a_invariant(pi, h)
            for n in range(1, 13):
                assert a_invariant(ph, n) * ah == a_invariant(pi, h * n)
            for hp in (2, 3):
                lhs = h_transform(ph, hp)
                rhs = h_transform(pi, h * hp)
                for n in range(1, 11):
                    assert a_invariant(lhs, n) == a_invariant(rhs, n)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def test_admissible_classical():
    pi = PiSequence.classical(ZZ)
    assert admissible_check(pi, 100) == ("admissible", None)


def test_admissible_violation():
    # pi_2 = pi_3 = 2 over Z: both in (2), neither index divides
    pi = PiSequence.custom(ZZ, {2: 2, 3: 2})
    assert admissible_check(pi, 10) == ("violation", (2, 3))


def test_admissible_preserved_by_transform():
    pi = PiSequence.classical(ZZ)
    for h in range(2, 7):
        assert admissible_check(h_transform(pi, h), 60) == ("admissible", None)
    fib = pi_from_gcd_morphic(fibonacci, up_to=60)
    for h in range(2, 7):
        assert admissible_check(h_transform(fib, h), 60)[0] == "admissible"


def test_admissible_other_rings():
    assert admissible_check(PiSequence.classical(Zloc(2)), 40) == ("admissible", None)
    assert admissible_check(PiSequence.classical(GF(5)), 40) == ("admissible", None)
    assert admissible_check(PiSequence.classical(Zmod(12)), 40) == ("admissible", None)
    assert admissible_check(PiSequence.cyclotomic_symbolic(), 40) == ("admissible", None)


def generates_unit_ideal(R, a, b) -> bool:
    """Whether (a, b) = R, read off directly: nonvanishing over Q, a
    valuation-0 value over Z_(p), the gcd over Z and Z/n."""
    if R.kind == "Q":
        return a != 0 or b != 0
    if R.kind == "Zloc":
        return any(x != 0 and x.numerator % R.p for x in (a, b))
    return math.gcd(a, b, getattr(R, "n", 0)) == 1


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([ZZ, QQ, Zmod(4), Zmod(6), Zmod(12), GF(3), Zloc(2), Zloc(3)]),
    st.dictionaries(st.integers(2, 40), st.sampled_from([0, 1, -1, 2, 3, 4, 6, 9])),
    st.sampled_from([0, 1, 2, 3]),
    st.integers(2, 48),
)
def test_admissible_check_matches_unit_ideal_oracle(R, values, default, up_to):
    pi = PiSequence.custom(R, {n: R.from_int(v) for n, v in values.items()}, R.from_int(default))
    witness = next(((n, m) for n in range(2, up_to + 1) for m in range(n + 1, up_to + 1)
                    if m % n and not generates_unit_ideal(R, pi.pi(n), pi.pi(m))), None)
    expected = ("violation", witness) if witness else ("admissible", None)
    assert admissible_check(pi, up_to) == expected


def test_admissible_check_over_zq():
    # no ideal test over Z[q]: pairs holding a unit pass, two non-units raise
    assert admissible_check(PiSequence.all_ones(ZPOLY), 12) == ("admissible", None)
    nonunits_at_2_and_4 = PiSequence.custom(ZPOLY, {2: (1, 1), 4: (0, 1)})
    assert admissible_check(nonunits_at_2_and_4, 12) == ("admissible", None)
    with pytest.raises(UnsupportedRingError):
        admissible_check(PiSequence.custom(ZPOLY, {2: (0, 1), 3: (2,)}), 6)


# ---------------------------------------------------------------------------
# GCD-morphic bridge
# ---------------------------------------------------------------------------


def test_fibonomial_pi_prefix():
    # [DERIVED] Moebius product oracle over Q (OEIS A061446 prefix)
    pi = pi_from_gcd_morphic(fibonacci, up_to=30)
    assert [pi.pi(n) for n in range(2, 8)] == [1, 2, 3, 5, 4, 13]


def test_fibonacci_gcd_morphic():
    assert check_gcd_morphic(fibonacci, 30) == ("ok", None)


def test_gcd_morphic_identity_sequence():
    # a(n) = n gives back the classical pi-sequence
    pi = pi_from_gcd_morphic(lambda n: n, up_to=40)
    classical = PiSequence.classical(ZZ)
    for n in range(2, 41):
        assert pi.pi(n) == classical.pi(n)


def test_gcd_morphic_all_ones():
    # trivial cases
    pi = pi_from_gcd_morphic(lambda n: 1, up_to=20)
    for n in range(2, 21):
        assert pi.pi(n) == 1


def test_gcd_morphic_rejects():
    with pytest.raises(PreconditionError):
        pi_from_gcd_morphic(lambda n: n + 1, up_to=10)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_pi_json_round_trip():
    seqs = [
        PiSequence.classical(ZZ),
        PiSequence.all_ones(QQ),
        PiSequence.cyclotomic_symbolic(),
        PiSequence.cyclotomic_at(GF(3), 2),
        PiSequence.custom(ZZ, {2: 5, 3: 7}, default=1),
        pi_from_gcd_morphic(fibonacci, up_to=12),
    ]
    for pi in seqs:
        back = PiSequence.from_json(pi.to_json())
        for n in range(1, 13):
            assert pi.ring.eq(back.pi(n), pi.pi(n))


# pi-sequences whose families vouch that pi_n != 0 for all n >= 2, and ones
# that cannot: a zero past any scanned bound (pi_40), a zero of the family
# (classical over GF(3), cyclotomic at -1 over Q or at 2 over GF(3)), or a
# family that is not read (gcd-morphic, h-transforms)
ZERO_FREE = [
    PiSequence.all_ones(QQ),
    PiSequence.all_ones(GF(2)),
    PiSequence.classical(QQ),
    PiSequence.classical(Zloc(3)),
    PiSequence.custom(QQ, {2: 3, 5: 7}),
    PiSequence.custom(GF(5), {3: 2}, default=4),
    PiSequence.cyclotomic_at(QQ, 1),
    PiSequence.cyclotomic_at(QQ, 2),
    PiSequence.cyclotomic_at(QQ, Fraction(-1, 2)),
    PiSequence.cyclotomic_at(GF(3), 0),
]
NOT_VOUCHED = [
    PiSequence.classical(GF(3)),
    PiSequence.custom(QQ, {40: 0}),
    PiSequence.custom(GF(2), {}, default=0),
    PiSequence.cyclotomic_at(QQ, -1),
    PiSequence.cyclotomic_at(GF(3), 2),
    PiSequence.cyclotomic_at(GF(5), 1),
    pi_from_gcd_morphic(fibonacci, up_to=20),
    h_transform(PiSequence.all_ones(QQ), 2),
]


@pytest.mark.parametrize("pi", ZERO_FREE + NOT_VOUCHED, ids=repr)
def test_zero_free_is_read_from_the_family(pi):
    assert pi.is_zero_free() == (pi in ZERO_FREE)
    if pi.is_zero_free():
        assert pi.zero_degrees(120) == []

