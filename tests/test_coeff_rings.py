"""Tests for exact rings and linear algebra (SNF, kernels, cokernels)."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF as SymGF
from sympy import ZZ as SymZZ
from sympy import Matrix, factorint, isprime
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix

from gdpakit.coeff_rings import (
    GF,
    QQ,
    ZPOLY,
    ZZ,
    ExactMatrix,
    ModuleInvariants,
    PLocalRing,
    PreconditionError,
    Ring,
    UnsupportedRingError,
    Zloc,
    Zmod,
    cokernel_invariants,
    homology_invariants,
    invariants_from_factors,
    kernel_basis,
    ring_from_json,
    smith_normal_form,
    Lattice,
    quotient_generators,
    _MR_BOUND,
    _identity,
    _is_prime,
    _prime_factors,
)
from gdpakit import coeff_rings
from references import (
    _diag,
    _snf_euclid,
    apply_vector,
    integer_kernel,
    lattice_equals,
    lift_zmod,
    matmul,
    quotient_generators_two_snf,
    solve,
)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


def test_descriptor_flags():
    assert ZZ.is_pid and not ZZ.is_field
    assert QQ.is_field and QQ.is_pid
    assert Zmod(6).is_field is False
    assert Zmod(5).is_field is True
    assert Zloc(3).is_local and Zloc(3).is_pid and not Zloc(3).is_field
    assert not ZPOLY.is_pid


def test_descriptor_validation():
    with pytest.raises(PreconditionError):
        Zmod(1)
    with pytest.raises(PreconditionError):
        GF(6)
    with pytest.raises(PreconditionError):
        Zloc(9)


# ---------------------------------------------------------------------------
# primality (deterministic Miller-Rabin against sympy as the oracle)
# ---------------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.integers(0, 10**7 - 1),
    st.integers(0, 2**79 - 1).map(lambda k: 2 * k + 1),
))
def test_is_prime_matches_sympy(n):
    assert _is_prime(n) == isprime(n)


@pytest.mark.parametrize("n", [
    0, 1, 2, 4,
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37
    3215031751, 3825123056546413051, 318665857834031151167461,
    2**61 - 1,
])
def test_is_prime_fixed_cases(n):
    assert _is_prime(n) == isprime(n)


@pytest.mark.parametrize("n", [2, 3, 4, 9, 41, 43, 561, 1681, 1723, 3215031751, 2**61 - 1])
def test_ring_constructors_agree_with_oracle(n):
    prime = isprime(n)
    assert Zmod(n).is_field is prime
    if prime:
        assert GF(n).is_field and Zloc(n).p == n
    else:
        with pytest.raises(PreconditionError):
            GF(n)
        with pytest.raises(PreconditionError):
            Zloc(n)


@pytest.mark.parametrize("p", [2**89 - 1, 2**127 - 1])
def test_primality_beyond_certified_bound_is_refused(p):
    with pytest.raises(PreconditionError, match="cannot certify"):
        Zloc(p)


def test_large_prime_power_modulus_builds():
    R = Zmod(2**90)
    assert not R.is_field and R.is_local


def test_composite_beyond_certified_bound_is_decided():
    # a Miller-Rabin witness proves compositeness at any size
    n = (2**31 - 1) * (2**61 - 1)
    assert n > _MR_BOUND
    assert _is_prime(n) is False


def test_zmod_with_two_large_prime_factors_builds():
    # deciding locality must not factor n
    R = Zmod((2**31 - 1) ** 2)
    assert R.is_local and not R.is_field
    R = Zmod((2**31 - 1) * (2**61 - 1))
    assert not R.is_local and not R.is_field


@pytest.mark.parametrize("ring, local, field", [
    (Zmod(12), False, False),
    (Zmod(49), True, False),
    (GF(7), True, True),
])
def test_zmod_flags(ring, local, field):
    assert (ring.is_local, ring.is_field) == (local, field)


def test_zmod_is_local_matches_factorization():
    for n in range(2, 2000):
        assert Zmod(n).is_local == (len(factorint(n)) == 1), n


def test_factoring_two_large_primes_returns():
    # Pollard-Brent rho, not trial division to sqrt(n)
    n = (2**31 - 1) * (2**61 - 1)
    R = Zmod(n)
    assert R.in_jacobson_radical(0) is True
    assert R.in_jacobson_radical(2**31 - 1) is False
    lengths = cokernel_invariants(ExactMatrix(ZZ, [[n]])).torsion_lengths()
    assert lengths == {2**31 - 1: 1, 2**61 - 1: 1}


def test_prime_factors_match_sympy():
    for n in list(range(1, 3000)) + [43**2 * 47, 1000003**3 * 6, 2**64 + 1]:
        assert _prime_factors(n) == sorted(factorint(n)), n


def test_jacobson_radical_matches_factor_definition():
    # J(Z/n) = (rad n): a is in it iff every prime of n divides a
    # the small residues and every multiple of rad n, the only members
    for n in range(2, 2000):
        R = Zmod(n)
        primes = list(factorint(n))
        rad = math.prod(primes)
        for a in {*range(min(n, 50)), *range(0, n, rad), *range(1, n, rad)}:
            assert R.in_jacobson_radical(a) == all(a % p == 0 for p in primes), (n, a)


def test_ring_json_round_trip():
    for r in [ZZ, QQ, Zmod(8), GF(7), Zloc(5), ZPOLY]:
        assert ring_from_json(r.to_json()) == r


# ---------------------------------------------------------------------------
# canonical forms and element arithmetic
# ---------------------------------------------------------------------------


def test_canonical_idempotence():
    # normalizing a normalized element is the identity
    samples = {
        ZZ: [-3, 0, 17],
        QQ: [Fraction(-3, 7), Fraction(0)],
        Zmod(12): [5, 0, 11],
        Zloc(3): [Fraction(6, 5), Fraction(0)],
        ZPOLY: [(1, 0, -2), ()],
    }
    for ring, elts in samples.items():
        for x in elts:
            c = ring.canon(x)
            assert ring.canon(c) == c


def test_zmod_unit_and_canonical():
    r = Zmod(12)
    for x in range(12):
        u, c = r.unit_and_canonical(x)
        assert r.is_unit(u) or x == 0
        assert r.mul(u, c) == x
        assert c == math.gcd(x, 12) % 12 or x == 0


def test_plocal_elements():
    r = Zloc(3)
    assert r.is_unit(Fraction(2, 5))
    assert not r.is_unit(Fraction(3, 5))
    assert r.valuation(Fraction(18, 5)) == 2
    assert r.divides(Fraction(3), Fraction(9, 7))
    assert not r.divides(Fraction(9), Fraction(3))
    with pytest.raises(ValueError):
        r.canon(Fraction(1, 3))
    assert r.unit_and_canonical(Fraction(18, 5)) == (Fraction(2, 5), Fraction(9))


@pytest.mark.parametrize(
    "ring,elts",
    [
        (ZZ, [0, 1, -1, 6, -9]),
        (QQ, [Fraction(0, 5), Fraction(-3, 3), Fraction(1, 2), Fraction(7, 3)]),
        (Zloc(2), [Fraction(0, 5), Fraction(-3, 3), Fraction(4, 3), Fraction(6, 5)]),
    ],
)
def test_number_ring_fast_paths_match_generic(ring, elts):
    # zero/one/is_zero of Z, Q, Z_(p) agree with the Ring definitions,
    # which canonicalize 0 and 1
    for fast, generic in ((ring.zero(), Ring.zero(ring)), (ring.one(), Ring.one(ring))):
        assert fast == generic and type(fast) is type(generic)
    for a in elts:
        a = ring.canon(a)
        assert ring.is_zero(a) == (a == Ring.zero(ring))


@pytest.mark.parametrize("ring", [GF(3), Zmod(4), Zmod(6)])
def test_zmod_fast_paths_match_generic(ring):
    # zero/one/is_zero of Z/n agree with the Ring definitions
    for fast, generic in ((ring.zero(), Ring.zero(ring)), (ring.one(), Ring.one(ring))):
        assert fast == generic and type(fast) is type(generic)
    for a in range(ring.n):
        assert ring.is_zero(a) == Ring.is_zero(ring, a)


def test_matrix_zero_rows_are_distinct_and_constructor_canonicalizes():
    for ring in (ZZ, QQ, Zloc(2), GF(3)):
        m = ExactMatrix.zero(ring, 2, 2)
        m.entries[0][0] = ring.one()
        assert ring.is_zero(m.entries[1][0]) and ring.is_zero(m.entries[0][1])
    with pytest.raises(ValueError):
        ExactMatrix(Zloc(2), [[Fraction(1, 2)]])
    assert ExactMatrix(QQ, [[3]]).entries == [[Fraction(3)]]
    assert type(ExactMatrix(QQ, [[3]]).entries[0][0]) is Fraction


@pytest.mark.parametrize("ring", [ZZ, QQ, Zloc(2), GF(5)])
def test_snf_factors_hold_canonical_entries(ring):
    # U, D, V are built without a second canonicalization pass: every entry
    # must already be a canonical element of the ring
    rng = random.Random(7)
    for _ in range(10):
        ents = [[ring.from_int(rng.randint(-6, 6)) for _ in range(3)] for _ in range(3)]
        for f in smith_normal_form(ExactMatrix(ring, ents)):
            for row in f.entries:
                for x in row:
                    assert ring.canon(x) == x and type(ring.canon(x)) is type(x)


def test_intpoly_arithmetic():
    R = ZPOLY
    q = R.canon((0, 1))
    p = R.add(R.mul(q, q), R.one())  # q^2 + 1
    assert p == (1, 0, 1)
    assert R.is_unit((-1,)) and not R.is_unit((2,)) and not R.is_unit((0, 1))
    # (q^2 - 1) = (q - 1)(q + 1)
    qm1, qp1 = (-1, 1), (1, 1)
    assert R.mul(qm1, qp1) == (-1, 0, 1)
    assert R.divides(qm1, (-1, 0, 1))
    assert R.exact_div((-1, 0, 1), qm1) == qp1
    assert not R.divides((2,), (1, 1))


def test_intpoly_strings():
    R = ZPOLY
    for p in [(), (5,), (-1, 2), (1, 0, -3, 1)]:
        assert R.from_str(R.to_str(p)) == p
        assert R.from_str(str(list(p))) == p


def test_intpoly_matrix_unsupported():
    m = ExactMatrix(ZPOLY, [[(1,)]])
    with pytest.raises(UnsupportedRingError):
        smith_normal_form(m)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def test_snf_identity_and_zero():
    # identity and zero matrices
    I = ExactMatrix(ZZ, _identity(2))
    U, D, V = smith_normal_form(I)
    assert D.entries == U.entries == V.entries == I.entries
    Z = ExactMatrix.zero(ZZ, 2, 3)
    U, D, V = smith_normal_form(Z)
    assert D.entries == Z.entries and U.entries == _identity(2)


def test_snf_2448():
    # [DERIVED] 2x2 oracle: d1 = gcd of entries, d2 = |det|/d1
    m = ExactMatrix(ZZ, [[2, 4], [6, 8]])
    _, D, _ = smith_normal_form(m)
    det = abs(2 * 8 - 4 * 6)
    d1 = math.gcd(math.gcd(2, 4), math.gcd(6, 8))
    assert [D.entries[0][0], D.entries[1][1]] == [d1, det // d1] == [2, 4]


def _check_snf(ring, ents):
    m = ExactMatrix(ring, ents)
    U, D, V = smith_normal_form(m)
    assert matmul(matmul(U, m), V).entries == D.entries
    # diagonal with divisibility chain
    diag = [D.entries[i][i] for i in range(min(D.rows, D.cols))]
    for i in range(D.rows):
        for j in range(D.cols):
            if i != j:
                assert ring.is_zero(D.entries[i][j])
    for a, b in zip(diag, diag[1:]):
        if ring.is_zero(a):
            assert ring.is_zero(b)
        else:
            assert ring.divides(a, b)
    return U, D, V


def _int_det(ents):
    n = len(ents)
    if n == 0:
        return 1
    total = 0
    from itertools import permutations

    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        # compute permutation sign by counting inversions
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod *= ents[i][perm[i]]
        total += sign * prod
    return total


def test_snf_random_integer_round_trip():
    rng = random.Random(7)
    for _ in range(60):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        ents = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        U, D, V = _check_snf(ZZ, ents)
        assert _int_det(U.entries) in (1, -1)
        assert _int_det(V.entries) in (1, -1)


def test_snf_plocal_and_field():
    _check_snf(Zloc(2), [[Fraction(4), Fraction(6)], [Fraction(1, 3), Fraction(8)]])
    _check_snf(GF(5), [[1, 2, 3], [4, 0, 1]])
    _check_snf(QQ, [[Fraction(1, 2), Fraction(3)], [Fraction(2), Fraction(12)]])
    # over Z_(2) the diagonal is powers of 2
    _, D, _ = smith_normal_form(
        ExactMatrix(Zloc(2), [[Fraction(4), Fraction(6)], [Fraction(12), Fraction(10)]])
    )
    diag = [D.entries[0][0], D.entries[1][1]]
    for d in diag:
        if d != 0:
            num = d.numerator
            assert d.denominator == 1 and num & (num - 1) == 0  # power of 2


@st.composite
def _plocal_matrices(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    entry = st.builds(
        lambda c, k, d: Fraction(c * p**k, d if d % p else d + 1),
        st.integers(-40, 40), st.integers(0, 6), st.integers(1, 60),
    )
    row = st.lists(entry, min_size=cols, max_size=cols)
    return p, rows, cols, draw(st.lists(row, min_size=rows, max_size=rows))


@settings(max_examples=300, deadline=None)
@given(_plocal_matrices())
def test_snf_plocal_matches_euclidean_loop(case):
    p, rows, cols, ents = case
    m = ExactMatrix(Zloc(p), ents, rows, cols)
    U, D, V = smith_normal_form(m)
    ref = _snf_euclid(m)
    _assert_same_factors((U, D, V), ref)
    assert all(type(x) is Fraction for f in (U, D, V) for r in f.entries for x in r)
    assert matmul(matmul(U, m), V).entries == D.entries
    assert cokernel_invariants(m) == _cokernel_of_diagonal(Zloc(p), rows, _diag(ref[1]))


def _assert_same_factors(got, ref):
    """The Smith factors got equal ref entry for entry, in value and type."""
    for g, w in zip(got, ref):
        assert (g.rows, g.cols, g.entries) == (w.rows, w.cols, w.entries)
        assert [type(x) for r in g.entries for x in r] == [type(x) for r in w.entries for x in r]


def _cokernel_of_diagonal(R, rows, diag):
    """The invariants of R^rows modulo the span of diag[i] * e_i, with the
    entries of diag read in R (over Z/n, integers mod n)."""
    diag = [R.canon(d) for d in diag]
    nonzero = [d for d in diag if not R.is_zero(d)]
    return ModuleInvariants(R, rows - len(nonzero), tuple(d for d in nonzero if not R.is_unit(d)))


def _kernel_columns(D, V):
    """The columns of V at the zero diagonal entries of D: the kernel."""
    diag = [D.entries[j][j] if j < D.rows else 0 for j in range(V.cols)]
    return [[V.entries[t][j] for t in range(V.rows)] for j in range(V.cols) if diag[j] == 0]


@settings(max_examples=300, deadline=None)
@given(_plocal_matrices())
def test_integer_kernel_matches_euclidean_kernel(case):
    p, rows, cols, ents = case
    R = Zloc(p)
    ref = _kernel_columns(*_snf_euclid(ExactMatrix(R, ents, rows, cols))[1:])
    # clearing a row's denominators scales it by a unit: the kernel is the
    # same, and Z_(p) is a localization of Z, so a Z-basis of the kernel of
    # the integer rows is a Z_(p)-basis of it
    ints = []
    for row in ents:
        l = math.lcm(*[x.denominator for x in row])
        ints.append([int(x * l) for x in row])
    got = kernel_basis(ExactMatrix(ZZ, ints, rows, cols))
    dvr = integer_kernel(ints, cols, p)
    assert len(got) == len(dvr) == len(ref)
    for k in got:
        assert all(type(x) is int for x in k) and math.gcd(*k) == 1
    lattice = Lattice(R, cols, [[Fraction(x) for x in k] for k in got])
    assert lattice_equals(lattice, Lattice(R, cols, ref))
    assert lattice_equals(lattice, Lattice(R, cols, [[Fraction(x) for x in k] for k in dvr]))
    # kernel_basis reads V without U: exactly the columns smith_normal_form gives
    m = ExactMatrix(R, ents, rows, cols)
    assert kernel_basis(m) == ref == _kernel_columns(*smith_normal_form(m)[1:])
    assert all(type(x) is Fraction for v in kernel_basis(m) for x in v)


@st.composite
def _integer_matrices(draw):
    """Integer matrices of shape 0-6 x 0-7 with entries up to 2^70 in size,
    some rows and columns zero."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    bound = draw(st.sampled_from([1, 9, 2**20, 2**70]))
    entry = st.one_of(st.just(0), st.integers(-bound, bound))
    ents = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    zero_rows = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    zero_cols = draw(st.lists(st.booleans(), min_size=cols, max_size=cols))
    return rows, cols, [[0 if zero_rows[i] or zero_cols[j] else x for j, x in enumerate(row)]
                        for i, row in enumerate(ents)]


@settings(max_examples=400, deadline=None)
@given(_integer_matrices())
def test_integer_kernel_basis_matches_euclidean_v(case):
    # over Z kernel_basis builds V alone and cokernel_invariants D alone:
    # the same kernel columns and diagonal as the full Euclidean Smith form,
    # which smith_normal_form gives entry for entry
    rows, cols, ents = case
    m = ExactMatrix(ZZ, ents, rows, cols)
    got = kernel_basis(m)
    assert m.entries == ents  # m is left as it was
    ref = _snf_euclid(m)
    assert got == _kernel_columns(*ref[1:])
    assert all(type(x) is int for v in got for x in v)
    _assert_same_factors(smith_normal_form(m), ref)
    assert cokernel_invariants(m) == _cokernel_of_diagonal(ZZ, rows, _diag(ref[1]))
    assert m.entries == ents


@st.composite
def _field_matrices(draw):
    """A field among Q, GF(2), GF(3), GF(7) and a matrix over it from
    _integer_matrices, over Q with denominators 1, 2, 3 or 7."""
    R = draw(st.sampled_from([QQ, GF(2), GF(3), GF(7)]))
    rows, cols, ents = draw(_integer_matrices())
    den = st.sampled_from([1, 2, 3, 7]) if R is QQ else st.just(1)
    dens = draw(st.lists(st.lists(den, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return R, rows, cols, [[R.canon(Fraction(x, d)) for x, d in zip(r, ds)]
                           for r, ds in zip(ents, dens)]


@settings(max_examples=300, deadline=None)
@given(_field_matrices())
def test_field_smith_form_matches_euclidean_loop(case):
    R, rows, cols, ents = case
    m = ExactMatrix(R, ents, rows, cols)
    ref = _snf_euclid(m)
    _assert_same_factors(smith_normal_form(m), ref)
    assert kernel_basis(m) == _kernel_columns(*ref[1:])
    assert cokernel_invariants(m) == _cokernel_of_diagonal(R, rows, _diag(ref[1]))
    assert m.entries == ents


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([4, 6, 12]), _integer_matrices())
def test_zmod_kernel_basis_matches_lifted_euclidean_v(n, case):
    rows, cols, ents = case
    R = Zmod(n)
    m = ExactMatrix(R, ents, rows, cols)
    ref = _snf_euclid(lift_zmod(m))
    want = []
    for v in _kernel_columns(*ref[1:]):
        w = [x % n for x in v[:cols]]
        if any(w) and w not in want:
            want.append(w)
    assert kernel_basis(m) == want
    assert cokernel_invariants(m) == _cokernel_of_diagonal(R, rows, _diag(ref[1]))


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3), Zloc(2), Zmod(4), Zmod(12)],
                         ids=lambda R: R.describe())
def test_kernel_basis_builds_no_u(ring, monkeypatch):
    def refuse(m):
        raise AssertionError("smith_normal_form called")

    def euclid(A, nc, key, quo_rem, p, U=None, V=None, W=None):
        assert U is None and W is None
        return eliminate(A, nc, key, quo_rem, p, U, V, W)

    eliminate = getattr(coeff_rings, "_euclid", None)
    monkeypatch.setattr(coeff_rings, "smith_normal_form", refuse)
    monkeypatch.setattr(coeff_rings, "_euclid", euclid, raising=False)
    m = ExactMatrix(ring, [[2, 4, 6, 3], [0, 6, 2, 9]])
    kernel = kernel_basis(m)
    assert kernel
    for v in kernel:
        assert not any(ring.canon(x) for x in apply_vector(m, v))


# ---------------------------------------------------------------------------
# cokernels
# ---------------------------------------------------------------------------


def test_cokernel_trivial_cases():
    # Z/2 and a free module
    inv = cokernel_invariants(ExactMatrix(ZZ, [[2]]))
    assert inv.free_rank == 0 and inv.torsion_factors == (2,)
    inv = cokernel_invariants(ExactMatrix(ZZ, [[]], rows=1, cols=0))
    assert inv.free_rank == 1 and inv.torsion_factors == ()


def test_cokernel_diag_2_3():
    # [DERIVED] SNF oracle gives diag(1, 6); the unit is dropped
    inv = cokernel_invariants(ExactMatrix(ZZ, [[2, 0], [0, 3]]))
    assert inv.free_rank == 0 and inv.torsion_factors == (6,)


def test_cokernel_agrees_with_enumeration():
    # brute-force comparison on random square matrices with finite cokernel
    rng = random.Random(11)
    trials = 0
    while trials < 25:
        n = rng.randint(1, 3)
        ents = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        det = abs(_int_det(ents))
        if det == 0 or det > 10_000:
            continue
        trials += 1
        inv = cokernel_invariants(ExactMatrix(ZZ, ents))
        order = 1
        for t in inv.torsion_factors:
            order *= t
        assert inv.free_rank == 0
        assert order == det
        # enumerate the quotient group directly for small orders:
        # coker(A) = (Z/det)^n / (image of A mod det), since det*Z^n <= im(A)
        if det <= 60:
            cols = [[ents[i][j] for i in range(n)] for j in range(n)]
            seen = set()
            from itertools import product as iproduct

            for coeffs in iproduct(range(det), repeat=n):
                v = tuple(
                    sum(c * cols[j][i] for j, c in enumerate(coeffs)) % det
                    for i in range(n)
                )
                seen.add(v)
            assert det ** n // len(seen) == order


def test_cokernel_zmod():
    # coker([2] : Z/4 -> Z/4) = Z/2
    inv = cokernel_invariants(ExactMatrix(Zmod(4), [[2]]))
    assert inv.free_rank == 0 and inv.torsion_factors == (2,)
    # coker(0 : ... -> Z/4) = Z/4, i.e. free of rank 1 over Z/4
    inv = cokernel_invariants(ExactMatrix(Zmod(4), [[0]]))
    assert inv.free_rank == 1 and inv.torsion_factors == ()


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_kernel_trivial():
    # [1,1] over GF(2) and injective [2] over Z
    ker = kernel_basis(ExactMatrix(GF(2), [[1, 1]]))
    assert len(ker) == 1 and ker[0] == [1, 1]
    assert kernel_basis(ExactMatrix(ZZ, [[2]])) == []


def test_kernel_zmod4():
    # [DERIVED] enumerate all residues: kernel of [2] over Z/4 is {0, 2}
    ker = kernel_basis(ExactMatrix(Zmod(4), [[2]]))
    generated = {0}
    for g in ker:
        generated |= {(g[0] * t) % 4 for t in range(4)}
    assert generated == {0, 2}


def test_kernel_vectors_annihilate_and_index():
    rng = random.Random(3)
    for _ in range(40):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 5)
        ents = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        m = ExactMatrix(ZZ, ents)
        ker = kernel_basis(m)
        for v in ker:
            assert all(x == 0 for x in apply_vector(m, v))
        # saturation: rank of kernel equals nc - rank(m), and the lattice is
        # saturated (quotient by it is torsion-free): check via SNF of basis
        _, D, _ = smith_normal_form(m)
        rank = sum(
            1 for i in range(min(nr, nc)) if D.entries[i][i] != 0
        )
        assert len(ker) == nc - rank
        if ker:
            kb = ExactMatrix(ZZ, [[v[i] for v in ker] for i in range(nc)])
            _, DK, _ = smith_normal_form(kb)
            diag = [DK.entries[i][i] for i in range(min(kb.rows, kb.cols))]
            assert all(d in (0, 1) for d in diag)


# ---------------------------------------------------------------------------
# solve / homology / span
# ---------------------------------------------------------------------------


def test_solve():
    m = ExactMatrix(ZZ, [[2, 0], [0, 3]])
    assert solve(m, [4, 9]) == [2, 3]
    assert solve(m, [1, 0]) is None
    m2 = ExactMatrix(GF(5), [[2]])
    assert solve(m2, [1]) == [3]


def test_homology_exact_complex():
    # 0 -> Z --2--> Z -> (homology Z/2 at the middle if A = 0)
    A = ExactMatrix.zero(ZZ, 0, 1)
    B = ExactMatrix(ZZ, [[2]])
    h = homology_invariants(A, B)
    assert h.free_rank == 0 and h.torsion_factors == (2,)


def test_homology_zmod():
    # over Z/4: ker(2)/im(2) = {0,2}/{0,2} = 0
    A = ExactMatrix(Zmod(4), [[2]])
    B = ExactMatrix(Zmod(4), [[2]])
    h = homology_invariants(A, B)
    assert h.is_zero
    # over Z/4: ker(0)/im(4=0) = Z/4
    h = homology_invariants(ExactMatrix(Zmod(4), [[0]]), ExactMatrix(Zmod(4), [[0]]))
    assert h.free_rank == 1


@pytest.mark.parametrize("ring", [ZZ, Zloc(2), GF(3), Zmod(6)], ids=lambda R: R.describe())
def test_homology_of_a_non_complex_names_the_precondition(ring):
    # the second column of B is not in ker(A), so A*B != 0
    A = ExactMatrix(ring, [[ring.from_int(1), ring.from_int(0)]])
    B = ExactMatrix(ring, [[ring.from_int(0), ring.from_int(1)], [ring.from_int(1)] * 2])
    with pytest.raises(PreconditionError, match=r"A\*B = 0"):
        homology_invariants(A, B)


def test_invariants_normalization_and_sum():
    a = invariants_from_factors(ZZ, 0, [2, 3])
    assert a.torsion_factors == (6,)
    b = invariants_from_factors(ZZ, 1, [4, 6])
    assert b.free_rank == 1 and b.torsion_factors == (2, 12)
    s = invariants_from_factors(ZZ, 1, [*a.torsion_factors, *b.torsion_factors])
    assert s.free_rank == 1 and s.torsion_factors == (2, 6, 12)
    assert invariants_from_factors(ZZ, 0, [0, 5]).free_rank == 1
    z3 = invariants_from_factors(Zloc(3), 0, [Fraction(9), Fraction(3)])
    assert z3.torsion_factors == (Fraction(3), Fraction(9))
    assert z3.plus_class() == {3: 3}


@pytest.mark.parametrize("ring", [ZZ, GF(3), Zmod(6), Zloc(2)], ids=lambda R: R.describe())
def test_invariants_without_factors_skip_the_snf(ring, monkeypatch):
    # ring^r plus nothing is ring^r; no 0x0 Smith normal form is needed
    import gdpakit.coeff_rings as cr

    def no_snf(m):
        raise AssertionError("cokernel_invariants called")

    monkeypatch.setattr(cr, "cokernel_invariants", no_snf)
    assert invariants_from_factors(ring, 3, []) == ModuleInvariants(ring, 3, ())
    assert invariants_from_factors(ring, 0, ()).is_zero


@pytest.mark.parametrize("n", [4, 6])
def test_homology_zmod_without_rows_or_columns_matches_padding(n):
    # a zero row of A or a zero column of B changes neither ker(A) nor
    # im(B), so the complex keeps the homology of its padded form
    R = Zmod(n)
    B = ExactMatrix(R, [[2], [3]])
    padded = homology_invariants(ExactMatrix.zero(R, 1, 2), B)
    assert padded == ModuleInvariants(R, 1, ())  # (Z/n)^2 / <(2, 3)> = Z/n
    assert homology_invariants(ExactMatrix.zero(R, 0, 2), B) == padded
    A = ExactMatrix(R, [[2, 0]])
    padded = homology_invariants(A, ExactMatrix.zero(R, 2, 1))
    assert padded == ModuleInvariants(R, 1, (2,))  # ker(A) = Z/2 + Z/n
    assert homology_invariants(A, ExactMatrix.zero(R, 2, 0)) == padded
    padded = homology_invariants(ExactMatrix.zero(R, 1, 2), ExactMatrix.zero(R, 2, 1))
    assert homology_invariants(ExactMatrix.zero(R, 0, 2), ExactMatrix.zero(R, 2, 0)) == padded


def test_zmod_direct_sum_keeps_the_free_summand_of_coprime_factors():
    # Z/6/(2) + Z/6/(3) = Z/3 + Z/2 = Z/6
    R = Zmod(6)
    assert invariants_from_factors(R, 0, [2, 3]) == ModuleInvariants(R, 1, ())
    assert invariants_from_factors(Zmod(12), 0, [4, 3, 2]) == ModuleInvariants(Zmod(12), 1, (2,))


# ---------------------------------------------------------------------------
# homology over Z/n and GF(p), against brute-force enumeration of (Z/n)^a
# ---------------------------------------------------------------------------


@st.composite
def _zmod_complexes(draw):
    """n, a, the rows of A : (Z/n)^a -> (Z/n)^rows, ker(A) found by
    enumerating (Z/n)^a, and columns of B drawn from ker(A)."""
    n = draw(st.sampled_from([4, 6, 12, 2, 3, 5]))
    a = draw(st.integers(0, 3))
    row = st.lists(st.integers(0, n - 1), min_size=a, max_size=a)
    A = draw(st.lists(row, max_size=3))
    kernel = [
        v for v in product(range(n), repeat=a)
        if all(sum(x * y for x, y in zip(r, v)) % n == 0 for r in A)
    ]
    B = draw(st.lists(st.sampled_from(kernel), max_size=3))
    return n, a, A, kernel, B


def _subgroup(n, a, gens):
    """The subgroup of (Z/n)^a that gens generate, by closure under adding
    a generator."""
    span = {(0,) * a}
    frontier = list(span)
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = tuple((x + y) % n for x, y in zip(v, g))
            if w not in span:
                span.add(w)
                frontier.append(w)
    return span


@settings(max_examples=150, deadline=None)
@given(_zmod_complexes())
def test_homology_zmod_matches_enumeration(case):
    # a finite abelian group H is determined by #{h : k h = 0} for k | n;
    # for H = (Z/n)^f + sum Z/t that count is the product of gcd(k, n) over
    # the free summands and gcd(k, t) over the others
    n, a, A, kernel, B = case
    R = Zmod(n)
    H = homology_invariants(
        ExactMatrix(R, A, len(A), a),
        ExactMatrix(R, [[c[i] for c in B] for i in range(a)], a, len(B)),
    )
    image = _subgroup(n, a, B)
    summands = [n] * H.free_rank + list(H.torsion_factors)
    for k in (k for k in range(1, n + 1) if n % k == 0):
        killed = sum(tuple(k * x % n for x in v) in image for v in kernel)
        assert killed % len(image) == 0
        assert math.prod(math.gcd(k, t) for t in summands) == killed // len(image), (k, H)
    if R.is_field:
        assert H == ModuleInvariants(R, a - _gf_rank(n, A) - _gf_rank(n, B), ())


# ---------------------------------------------------------------------------
# Lattice and quotient_generators, against SNF solving and sympy ranks
# ---------------------------------------------------------------------------

LATTICE_RINGS = [GF(2), GF(3), GF(7), ZZ, Zloc(2), Zloc(3), Zmod(4), Zmod(6)]


@st.composite
def _lattice_cases(draw):
    """A ring, a dimension, generating vectors and probe vectors; over Z_(p)
    some entries have denominators 5 or 7."""
    R = draw(st.sampled_from(LATTICE_RINGS))
    dim = draw(st.integers(1, 4))
    den = st.sampled_from([1, 1, 5, 7]) if isinstance(R, PLocalRing) else st.just(1)
    entry = st.builds(lambda a, b: R.canon(Fraction(a, b)), st.integers(-6, 6), den)
    vector = st.lists(entry, min_size=dim, max_size=dim)
    vectors = draw(st.lists(vector, max_size=6))
    probes = draw(st.lists(vector, min_size=1, max_size=4))
    # combinations of the generators, so that probes inside the span occur
    for coeffs in draw(st.lists(st.lists(entry, min_size=len(vectors),
                                         max_size=len(vectors)), max_size=3)):
        w = [R.zero()] * dim
        for c, v in zip(coeffs, vectors):
            w = [R.add(x, R.mul(c, y)) for x, y in zip(w, v)]
        probes.append(w)
    return R, dim, vectors, probes


def _in_column_span(R, dim, columns, v) -> bool:
    """Whether v is a combination of the columns, by SNF solving."""
    if not columns:
        return all(R.is_zero(R.canon(x)) for x in v)
    m = ExactMatrix(R, [[c[i] for c in columns] for i in range(dim)], dim, len(columns))
    return solve(m, list(v)) is not None


def _gf_rank(p, vectors):
    if not vectors:
        return 0
    return DomainMatrix.from_list([[int(x) for x in v] for v in vectors], SymZZ).convert_to(
        SymGF(p)).rank()


@settings(max_examples=150, deadline=None)
@given(_lattice_cases())
def test_lattice_insert_reports_growth(case):
    R, dim, vectors, probes = case
    lat = Lattice(R, dim)
    for v in vectors + probes:
        before = lat.contains(v)
        assert lat.insert(v) == (not before)
        assert lat.contains(v)


@settings(max_examples=150, deadline=None)
@given(_lattice_cases())
def test_lattice_contains_matches_solve(case):
    R, dim, vectors, probes = case
    lat = Lattice(R, dim, vectors)
    basis = lat.basis()
    for v in probes + vectors:
        assert lat.contains(v) == _in_column_span(R, dim, basis, v)
        assert lat.contains(v) == _in_column_span(R, dim, vectors, v)


@settings(max_examples=100, deadline=None)
@given(_lattice_cases().filter(lambda case: case[0].is_field))
def test_lattice_rank_over_gf_matches_sympy(case):
    R, dim, vectors, probes = case
    assert Lattice(R, dim, vectors).rank == _gf_rank(R.n, vectors)
    assert Lattice(R, dim, vectors + probes).rank == _gf_rank(R.n, vectors + probes)


@settings(max_examples=150, deadline=None)
@given(_lattice_cases(), st.randoms(use_true_random=False))
def test_lattice_equals_ignores_insertion_order(case, rnd):
    R, dim, vectors, probes = case
    lat = Lattice(R, dim, vectors)
    shuffled = vectors + probes[-1:]
    rnd.shuffle(shuffled)
    other = Lattice(R, dim, shuffled)
    inside = lat.contains(probes[-1])
    assert lattice_equals(lat, other) == inside and lattice_equals(other, lat) == inside
    assert lattice_equals(lat, Lattice(R, dim, vectors[::-1]))


class _RingOpLattice(Lattice):
    """Lattice reducing with the base ring's methods (is_zero, quo_rem,
    sub, mul) entry by entry: the reference for its operator loop."""

    def insert(self, v):
        R, rows, dim = self.base, self.rows, self.dim
        v = list(v)
        grew = False
        for p in range(dim):
            if R.is_zero(v[p]):
                continue
            r = rows.get(p)
            if r is None:
                rows[p] = v
                return True
            while True:
                q, v[p] = R.quo_rem(v[p], r[p])
                if not R.is_zero(q):
                    for t in range(p + 1, dim):
                        v[t] = R.add(v[t], R.neg(R.mul(q, r[t])))
                if R.is_zero(v[p]):
                    break
                rows[p], v, r = v, r, v
                grew = True
        return grew

    def _express(self, v):
        R, rows, dim = self.base, self.rows, self.dim
        v = list(v)
        out = {}
        for p in range(dim):
            if R.is_zero(v[p]):
                continue
            r = rows.get(p)
            if r is None:
                return None
            q, rem = R.quo_rem(v[p], r[p])
            if not R.is_zero(rem):
                return None
            out[p] = q
            for t in range(p + 1, dim):
                v[t] = R.add(v[t], R.neg(R.mul(q, r[t])))
        return out


@st.composite
def _lattice_sequences(draw):
    """A ring, a dimension, vectors to insert in order and probes; integer
    entries go up to 2^70 in size, and probes include sums of the vectors."""
    R = draw(st.sampled_from([ZZ, Zmod(4), Zmod(6), Zmod(12), GF(2), GF(7), QQ, Zloc(2)]))
    dim = draw(st.integers(1, 5))
    bound = draw(st.sampled_from([6, 2**20, 2**70]))
    den = st.sampled_from([1, 3, 5]) if R in (QQ, Zloc(2)) else st.just(1)
    entry = st.one_of(st.just(0), st.builds(lambda a, b: R.canon(Fraction(a, b)),
                                            st.integers(-bound, bound), den))
    vector = st.lists(entry, min_size=dim, max_size=dim)
    vectors = draw(st.lists(vector, max_size=8))
    probes = draw(st.lists(vector, max_size=3))
    for k in range(1, len(vectors)):
        probes.append([R.add(x, y) for x, y in zip(vectors[k - 1], vectors[k])])
    return R, dim, vectors, probes


@settings(max_examples=300, deadline=None)
@given(_lattice_sequences())
def test_lattice_operator_loop_matches_ring_op_loop(case):
    R, dim, vectors, probes = case
    lat, ref = Lattice(R, dim), _RingOpLattice(R, dim)
    assert lat.rows == ref.rows
    for v in vectors:
        assert lat.insert(v) == ref.insert(v)
        assert lat.rows == ref.rows
    for v in probes + vectors:
        assert lat.contains(v) == ref.contains(v)
        assert lat.coords(v) == ref.coords(v)


@settings(max_examples=150, deadline=None)
@given(_lattice_cases())
def test_quotient_generators_complete_the_sub_lattice(case):
    # the sub-vectors are the probes that lie in span(vectors)
    R, dim, vectors, probes = case
    subs = [v for v in probes if _in_column_span(R, dim, vectors, v)]
    gens = quotient_generators(R, dim, vectors, subs)
    for g in gens:
        assert _in_column_span(R, dim, vectors, g)
    for v in vectors:
        assert _in_column_span(R, dim, gens + subs, v)
    if R.is_field:
        assert len(gens) == _gf_rank(R.n, vectors) - _gf_rank(R.n, subs)


@st.composite
def _quotient_cases(draw):
    """A ring that is not a field, a dimension, vectors, and sub-vectors
    that are combinations of them, so that the quotient takes a Smith
    form; over Z_(p) some entries have denominators 5 or 7."""
    R = draw(st.sampled_from([ZZ, Zloc(2), Zloc(3), Zmod(4), Zmod(6), Zmod(12)]))
    dim = draw(st.integers(1, 5))
    den = st.sampled_from([1, 1, 5, 7]) if isinstance(R, PLocalRing) else st.just(1)
    entry = st.builds(lambda a, b: R.canon(Fraction(a, b)), st.integers(-9, 9), den)
    vectors = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=1, max_size=6))
    subs = []
    for coeffs in draw(st.lists(st.lists(entry, min_size=len(vectors), max_size=len(vectors)),
                                min_size=1, max_size=5)):
        w = [R.zero()] * dim
        for c, v in zip(coeffs, vectors):
            w = [R.add(x, R.mul(c, y)) for x, y in zip(w, v)]
        subs.append(w)
    return R, dim, vectors, subs


@settings(max_examples=300, deadline=None)
@given(_quotient_cases())
def test_quotient_generators_match_two_smith_forms(case):
    # U^-1 is unique, so tracking it gives what the Smith form of U gave
    R, dim, vectors, subs = case
    got = quotient_generators(R, dim, vectors, subs)
    assert got == quotient_generators_two_snf(R, dim, vectors, subs)


@pytest.mark.parametrize("ring", [ZZ, Zloc(2), Zmod(6)], ids=lambda R: R.describe())
def test_quotient_generators_run_one_elimination(ring, monkeypatch):
    calls = []

    def counted(f):
        def wrapper(*args):
            calls.append(f.__name__)
            return f(*args)
        return wrapper

    monkeypatch.setattr(coeff_rings, "smith_normal_form", counted(smith_normal_form))
    if hasattr(coeff_rings, "_smith"):
        monkeypatch.setattr(coeff_rings, "_smith", counted(coeff_rings._smith))
    vectors = [[ring.canon(x) for x in v] for v in ([2, 0, 4], [0, 3, 6], [1, 1, 1])]
    subs = [[ring.canon(2 * x) for x in vectors[0]], [ring.canon(3 * x) for x in vectors[1]]]
    gens = quotient_generators(ring, 3, vectors, subs)
    assert len(calls) == 1
    assert gens and gens == quotient_generators_two_snf(ring, 3, vectors, subs)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_property_integer(rows):
    _check_snf(ZZ, rows)


# ---------------------------------------------------------------------------
# independent oracles: sympy's invariant factors and nullspaces
# ---------------------------------------------------------------------------


def _int_matrices(max_rows, max_cols, lo, hi):
    return st.tuples(st.integers(0, max_rows), st.integers(0, max_cols)).flatmap(
        lambda shape: st.tuples(
            st.just(shape[0]),
            st.just(shape[1]),
            st.lists(
                st.lists(st.integers(lo, hi), min_size=shape[1], max_size=shape[1]),
                min_size=shape[0],
                max_size=shape[0],
            ),
        )
    )


def _sympy_domain_matrix(rows, cols, ents):
    if rows and cols:
        return DomainMatrix.from_list(ents, SymZZ)
    return DomainMatrix.zeros((rows, cols), SymZZ)


@settings(max_examples=150, deadline=None)
@given(_int_matrices(5, 5, -30, 30))
def test_cokernel_invariants_match_sympy(case):
    rows, cols, ents = case
    inv = cokernel_invariants(ExactMatrix(ZZ, ents, rows, cols))
    flat = [x for r in ents for x in r]
    factors = [abs(int(f)) for f in invariant_factors(Matrix(rows, cols, flat), domain=SymZZ)]
    assert inv.free_rank == rows - sum(1 for f in factors if f)
    assert list(inv.torsion_factors) == [f for f in factors if f > 1]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), _int_matrices(5, 6, -9, 9))
def test_kernel_basis_rank_over_gf_matches_sympy(p, case):
    rows, cols, ents = case
    R = GF(p)
    m = ExactMatrix(R, ents, rows, cols)
    basis = kernel_basis(m)
    nullity = _sympy_domain_matrix(rows, cols, ents).convert_to(SymGF(p)).nullspace().shape[0]
    assert len(basis) == nullity
    for v in basis:
        assert all(x == 0 for x in apply_vector(m, v))
    span = Lattice(R, cols)
    assert all(span.insert(v) for v in basis)
