import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import factorint, multiplicity

from gdpakit.coeff_rings import (
    GF,
    QQ,
    ZPOLY,
    ZZ,
    Zloc,
    Zmod,
    ExactMatrix,
    Lattice,
    ModuleInvariants,
    PLocalRing,
    PreconditionError,
    UnsupportedRingError,
    cokernel_invariants,
    kernel_basis,
)
from gdpakit.coherence_lab import materialize_ideal, random_ideal_spec
from gdpakit.gdpa import AlgebraContext
from gdpakit.graded_modules import (
    FreeGradedModule,
    HilbertSeries,
    ModuleMap,
    PresentedModule,
    fit_matches_principal_special,
    free_resolution,
    hilbert_series,
    principal_special_module,
    rational_fit,
    syzygy_generators,
    tor,
    torsion_submodule,
    trivial_module,
)
from gdpakit import graded_modules
from gdpakit.graded_modules import (
    _degreewise_generators,
    _rank_and_delta,
    _refine_lattice,
    _relation_columns,
    _relation_goal,
    _relation_rows,
    _row_kernel_images,
    _spans_row_kernel,
    _times_row,
)
from gdpakit.coeff_rings import _identity, _smith
from gdpakit.pi_core import PiSequence, fibonacci, h_transform, pi_from_gcd_morphic
from gdpakit.resolutions_k import (
    SpecialBlock,
    h_invariant,
    l_invariant,
    make_special,
    minimal_image_generators,
    special_resolve_field,
)
from references import (
    ORACLE_CONTEXTS,
    ORACLE_RINGS,
    apply_vector,
    fresh_images,
    lattice_equals,
    matmul,
    invariants_from_torsion_counts,
    primitive_integer_vector,
    kx_invariant_factors,
    piece_torsion_counts_by_closure,
    random_field_module,
    refine_lattice_every_j,
    shifted_module,
    solve,
    syzygy_generators_every_degree,
    tor1_closed_form,
    tor_entry,
    torsion_submodule_every_j,
)


def ctx_classical(ring):
    return AlgebraContext(PiSequence.classical(ring))


def ctx_all_ones(ring):
    return AlgebraContext(PiSequence.all_ones(ring))


# ---------------------------------------------------------------------------
# graded pieces
# ---------------------------------------------------------------------------


class TestGradedPieces:
    def test_free_module_pieces(self):
        M = PresentedModule.from_columns(ctx_classical(ZZ), [0], [], [])
        for d in range(0, 10):
            assert M.piece_invariants(d) == ModuleInvariants(ZZ, 1, ())
        assert M.piece_invariants(-1).is_zero

    def test_zero_module(self):
        ctx = ctx_classical(ZZ)
        M = PresentedModule.from_columns(ctx, [0], [{0: ctx.x(0)}], [0])
        for d in range(0, 8):
            assert M.piece_invariants(d).is_zero

    @pytest.mark.parametrize(
        "ring,gens,h",
        [(ZZ, [2], 4), (Zloc(2), [Fraction(2)], 2), (GF(2), [0], 8)],
    )
    def test_principal_special_pieces(self, ring, gens, h):
        ctx = ctx_classical(ring)
        M = principal_special_module(ctx, gens, h)
        import gdpakit.coeff_rings as cr

        target = cr.cokernel_invariants(
            cr.ExactMatrix(ring, [[ring.canon(g) for g in gens]], 1, len(gens))
        )
        for d in range(0, 4 * h + 1):
            inv = M.piece_invariants(d)
            if d % h == 0:
                assert inv == target, d
            else:
                assert inv.is_zero, d

    def test_homogeneity_enforced(self):
        ctx = ctx_classical(ZZ)
        with pytest.raises(PreconditionError):
            PresentedModule.from_columns(ctx, [0], [{0: ctx.x(2)}], [1])

    @pytest.mark.parametrize("i", [1, -1])
    def test_entry_at_a_missing_generator_rejected(self, i):
        # D has one generator, index 0; -1 must not wrap to it
        ctx = ctx_classical(ZZ)
        with pytest.raises(PreconditionError, match=f"no target generator {i}"):
            PresentedModule.from_columns(ctx, [0], [{i: ctx.x(1)}], [1])

    def test_ideal_slice_matrix(self):
        # I = (2, x^[1]) inside D over Z: slice at degree d is [2*C(d,0), C(d,1)]
        ctx = ctx_classical(ZZ)
        F1 = FreeGradedModule(ctx, [0, 1])
        F0 = FreeGradedModule(ctx, [0])
        f = ModuleMap(F1, F0, [{0: ctx.x(0, 2)}, {0: ctx.x(1)}])
        m = f.slice(3)
        assert m.entries == [[2, 3]]

    def test_json_round_trip(self):
        ctx = ctx_classical(GF(3))
        M = principal_special_module(ctx, [0], 3)
        M2 = PresentedModule.from_json(ctx, M.to_json())
        for d in range(10):
            assert M.piece_invariants(d) == M2.piece_invariants(d)


# ---------------------------------------------------------------------------
# Hilbert series and rational fits
# ---------------------------------------------------------------------------


class TestHilbert:
    def test_free_rank_one_fit(self):
        M = PresentedModule.from_columns(ctx_classical(ZZ), [0], [], [])
        H = rational_fit(hilbert_series(M, 20))
        assert H.fit["period"] == 1
        assert H.fit["preperiod"] == []
        assert H.fit["block"][0] == ModuleInvariants(ZZ, 1, ())

    @pytest.mark.parametrize("h,gens", [(1, [2]), (2, [2]), (3, [3]), (4, [2]), (8, [2])])
    def test_principal_special_fit(self, h, gens):
        # the ideal must contain pi_h (here pi_h = p for h = p^s, classical)
        ctx = ctx_classical(ZZ)
        M = principal_special_module(ctx, gens, h)
        H = rational_fit(hilbert_series(M, max(20, 4 * h)))
        assert fit_matches_principal_special(H, gens, h)

    def test_finite_length_no_denominator_needed(self):
        # k concentrated in degree 0 over Q all-ones: fit has zero block
        ctx = ctx_all_ones(QQ)
        M = PresentedModule.from_columns(ctx, [0], [{0: ctx.x(1)}], [1])
        H = rational_fit(hilbert_series(M, 15))
        assert H.fit is not None
        assert all(b.is_zero for b in H.fit["block"])
        assert [d for d, _ in H.fit["preperiod"]] in ([], [0])

    def test_fit_verified_by_reexpansion(self):
        ctx = ctx_classical(GF(2))
        M = trivial_module(ctx, 16)
        H = rational_fit(hilbert_series(M, 16))
        # pieces of this horizon-limited presentation: k at 0, again above 16
        assert H.piece(0).free_rank == 1
        for d in range(1, 17):
            assert H.piece(d).is_zero

    def test_hilbert_additivity_for_kernel_sequence(self):
        # 0 -> K -> F -> im -> 0: rank additivity degreewise over GF(2)
        ctx = ctx_classical(GF(2))
        F1 = FreeGradedModule(ctx, [1])
        F0 = FreeGradedModule(ctx, [0])
        f = ModuleMap(F1, F0, [{0: ctx.x(1)}])
        gens = syzygy_generators(f, 16)
        incl = gens.as_map()
        K = PresentedModule(incl.source, syzygy_generators(incl, 16).as_map())
        for d in range(0, 17):
            k_dim = K.piece_invariants(d).free_rank
            f1_dim = F1.rank(d)
            im_rank = f1_dim - len(kernel_basis(f.slice(d)))
            assert k_dim + im_rank == f1_dim, d


def small_ring_modules():
    """300 modules with 1-2 generators in degrees 0-3 and 0-3 relations up
    to degree 5, over GF(2), GF(3), Z/4 and Z/6 with classical, all-ones
    and custom pi, zeros of pi included, each with the degrees of its
    pieces up to 8."""
    contexts = [
        AlgebraContext(pi) for R in (GF(2), GF(3), Zmod(4), Zmod(6))
        for pi in (PiSequence.classical(R), PiSequence.all_ones(R),
                   *(PiSequence.custom(R, v) for v in ({2: 0, 6: 0}, {3: 0, 9: 0}, {4: 0, 8: 0})))
    ]
    rng = random.Random(8)
    for _ in range(300):
        ctx = rng.choice(contexts)
        n = ctx.ring.n
        gdegs = sorted(rng.randint(0, 3) for _ in range(rng.randint(1, 2)))
        cols, rdegs = [], []
        for _ in range(rng.randint(0, 3)):
            rdeg = rng.randint(gdegs[0], 5)
            cols.append({i: ctx.x(rdeg - g, rng.randrange(1, n))
                         for i, g in enumerate(gdegs) if g <= rdeg and rng.random() < 0.7})
            rdegs.append(rdeg)
        yield PresentedModule.from_columns(ctx, gdegs, cols, rdegs), range(gdegs[0], 9)


def test_piece_orders_match_an_enumeration_over_small_rings():
    # an oracle that shares no linear algebra with gdpakit: |M_d| counted by
    # closure over the relation vectors (piece_torsion_counts_by_closure),
    # against piece_invariants read as n^free * prod gcd(t, n)
    rings = set()
    for M, degrees in small_ring_modules():
        n = M.context.ring.n
        for d in degrees:
            inv = M.piece_invariants(d)
            order = n ** inv.free_rank * math.prod(math.gcd(t, n) for t in inv.torsion_factors)
            assert order == piece_torsion_counts_by_closure(M, d)[n], (M.to_json(), d)
        rings.add(n)
    assert rings == {2, 3, 4, 6}


def test_piece_invariants_match_an_enumeration_over_small_rings():
    # the counts |M_d[m]| for every divisor m of n determine M_d: its free
    # rank and divisor chain, read from them, equal piece_invariants exactly
    chains = set()
    for M, degrees in small_ring_modules():
        n = M.context.ring.n
        for d in degrees:
            inv = M.piece_invariants(d)
            want = invariants_from_torsion_counts(n, piece_torsion_counts_by_closure(M, d))
            assert (inv.free_rank, inv.torsion_factors) == want, (M.to_json(), d)
            chains.add((n, len(inv.torsion_factors)))
    assert {(4, 1), (6, 1), (4, 2)} <= chains


KX_CONTEXTS = [AlgebraContext(PiSequence.all_ones(R)) for R in (GF(2), GF(3), QQ)] + [
    AlgebraContext(PiSequence.classical(QQ))]


def test_modules_over_kx_match_their_invariant_factors():
    # where pi has no zero over a field D = k[x], and the structure theorem
    # over k[x] (invariant factors by sympy, kx_invariant_factors) gives: the
    # pieces past the top presentation degree have dimension the number of
    # generators less the rank, M has torsion exactly when some factor is
    # not constant, Tor_2 = Tor_3 = 0, and the kernel of the free cover is
    # free, so the special resolution has r <= 1
    rng = random.Random(28)
    verdicts = set()
    for n in range(400):
        ctx = KX_CONTEXTS[n % len(KX_CONTEXTS)]
        M = random_field_module(ctx, rng)
        factors = kx_invariant_factors(M)
        free = M.generators.n_gens - len(factors)
        for d in range(M.max_presentation_degree() + 1, 31):
            assert M.piece_invariants(d).free_rank == free, (M.to_json(), d)
        torsion = any(f.free_symbols for f in factors)
        verdict = torsion_submodule(M, 20).verdict
        assert verdict == ("has_torsion" if torsion else "torsion_free"), M.to_json()
        verdicts.add(verdict)
        assert not [i for i, _ in tor(M, 3, 12).entries if i >= 2], M.to_json()
        assert special_resolve_field(M, 20).r <= 1, M.to_json()
    assert verdicts == {"has_torsion", "torsion_free"}


# ---------------------------------------------------------------------------
# kernels / syzygies
# ---------------------------------------------------------------------------


class TestKernels:
    def test_x1_kernel_zero_over_Z(self):
        ctx = ctx_classical(ZZ)
        f = ModuleMap(
            FreeGradedModule(ctx, [1]), FreeGradedModule(ctx, [0]), [{0: ctx.x(1)}]
        )
        gens = syzygy_generators(f, 24)
        assert gens.generators == []

    def test_x1_kernel_over_GF2(self):
        ctx = ctx_classical(GF(2))
        f = ModuleMap(
            FreeGradedModule(ctx, [1]), FreeGradedModule(ctx, [0]), [{0: ctx.x(1)}]
        )
        gens = syzygy_generators(f, 20)
        assert gens.degrees() == [2]
        col = gens.generators[0][1]
        assert col[0].degrees() == [1]  # the generator x^[1] e
        # re-span check: K_d nonzero exactly at even d, dimension 1
        for d in range(1, 21):
            vecs = fresh_images(gens.ambient, gens.generators, d)
            nonzero = [v for v in vecs if any(x != 0 for x in v)]
            import gdpakit.coeff_rings as cr

            kdim = len(cr.kernel_basis(f.slice(d)))
            assert kdim == (1 if d % 2 == 0 and d >= 2 else 0)
            assert len(nonzero) == kdim

    def test_identity_kernel_trivial(self):
        ctx = ctx_classical(Zloc(3))
        F = FreeGradedModule(ctx, [0, 2])
        f = ModuleMap(F, F, [{0: ctx.x(0)}, {1: ctx.x(0)}])
        assert syzygy_generators(f, 12).generators == []

    def test_koszul_syzygy_over_Q(self):
        # (x^[1], x^[2]) over Q all-ones: exactly one syzygy generator
        ctx = ctx_all_ones(QQ)
        f = ModuleMap(
            FreeGradedModule(ctx, [1, 2]),
            FreeGradedModule(ctx, [0]),
            [{0: ctx.x(1)}, {0: ctx.x(2)}],
        )
        # over all-ones, x^[1] x^[1] = x^[2], so the single minimal syzygy is
        # x^[1] e1 - e2 in degree 2 (the Koszul relation at 3 is redundant)
        gens = syzygy_generators(f, 12)
        assert len(gens.generators) == 1
        assert gens.degrees() == [2]

    def test_ideal_syzygies_over_Z(self):
        # I = (2, x^[1]) over Z classical: syzygy (x^[1])(2) - 2(x^[1]) = 0
        ctx = ctx_classical(ZZ)
        f = ModuleMap(
            FreeGradedModule(ctx, [0, 1]),
            FreeGradedModule(ctx, [0]),
            [{0: ctx.x(0, 2)}, {0: ctx.x(1)}],
        )
        gens = syzygy_generators(f, 16)
        assert gens.generators, "expected at least one syzygy"
        assert min(gens.degrees()) >= 1
        # every found generator really is in the kernel
        m = gens.as_map()
        for d in range(0, 17):
            comp = matmul(f.slice(d), m.slice(d))
            assert all(x == 0 for row in comp.entries for x in row)


# ---------------------------------------------------------------------------
# Tor
# ---------------------------------------------------------------------------


class TestTor:
    def test_tor0_of_D(self):
        M = PresentedModule.from_columns(ctx_classical(GF(2)), [0], [], [])
        t = tor(M, 2, 10)
        assert tor_entry(t, 0, 0, GF(2)).free_rank == 1
        assert all(i == 0 and d == 0 for (i, d) in t.entries)

    @pytest.mark.parametrize("ring", [GF(2), GF(3)])
    def test_tor1_of_trivial_module(self, ring):
        ctx = ctx_classical(ring)
        bound = 16
        M = trivial_module(ctx, bound)
        t = tor(M, 1, bound)

        expected = dict(tor1_closed_form(ctx.pi, range(1, bound + 1)))
        for d in range(1, bound + 1):
            inv = tor_entry(t, 1, d, ring)
            if d in expected:
                assert inv == expected[d], d
            else:
                assert inv.is_zero, d

    def test_tor1_of_trivial_module_over_Z(self):
        ctx = ctx_classical(ZZ)
        bound = 12
        M = trivial_module(ctx, bound)
        t = tor(M, 1, bound)
        assert tor_entry(t, 1, 1, ZZ) == ModuleInvariants(ZZ, 1, ())
        assert tor_entry(t, 1, 4, ZZ) == ModuleInvariants(ZZ, 0, (2,))
        assert tor_entry(t, 1, 9, ZZ) == ModuleInvariants(ZZ, 0, (3,))
        assert tor_entry(t, 1, 6, ZZ).is_zero
        assert tor_entry(t, 1, 12, ZZ).is_zero

    def test_induced_module_tor_vanishes(self):
        # M = D tensor V for V = Z/2 + Z (scalar relations only)
        ctx = ctx_classical(ZZ)
        M = PresentedModule.from_columns(
            ctx, [0, 1], [{0: ctx.x(0, 2)}], [0]
        )
        t = tor(M, 3, 12)
        for (i, d) in t.entries:
            assert i == 0, (i, d)

    def test_tor_over_Zmod4(self):
        ctx = AlgebraContext(PiSequence.classical(Zmod(4)))
        bound = 10
        M = trivial_module(ctx, bound)
        t = tor(M, 1, bound)
        R = Zmod(4)
        # degree 1: Z/4 (pi_1 = 0); degree 2,4,8: Z/2; odd prime powers: 0
        assert tor_entry(t, 1, 1, R) == ModuleInvariants(R, 1, ())
        for d in (2, 4, 8):
            assert tor_entry(t, 1, d, R) == ModuleInvariants(R, 0, (2,)), d
        for d in (3, 5, 6, 7, 9, 10):
            assert tor_entry(t, 1, d, R).is_zero, d

    def test_tor_of_special_annihilated_by_pi_h(self):
        # every torsion factor of Tor of M(a, h) divides a power of pi_h
        ring = Zloc(2)
        ctx = ctx_classical(ring)
        M = principal_special_module(ctx, [Fraction(2)], 2)
        t = tor(M, 2, 10)
        for inv in t.entries.values():
            for f in inv.torsion_factors:
                assert ring.valuation(f) >= 1  # power of 2 up to unit

    def test_minimal_generator_degrees(self):
        ctx = ctx_classical(GF(2))
        # second generator is redundant: e2 = x^[1] e1 enforced by relation
        M = PresentedModule.from_columns(
            ctx,
            [0, 1],
            [{0: ctx.x(1), 1: ctx.x(0)}],
            [1],
        )
        t = tor(M, 0, 6)
        assert t.entries == {(0, 0): ModuleInvariants(GF(2), 1, ())}


# ---------------------------------------------------------------------------
# torsion
# ---------------------------------------------------------------------------


class TestTorsion:
    def test_kx_case_has_certified_torsion(self):
        # D/(x^[1]) over Q all-ones is k[x]/(x): degree-0 class is torsion
        ctx = ctx_all_ones(QQ)
        M = PresentedModule.from_columns(ctx, [0], [{0: ctx.x(1)}], [1])
        rep = torsion_submodule(M, 10)
        assert rep.verdict == "has_torsion"
        assert rep.candidates[0][0] == 0

    def test_classical_plocal_modules_torsion_free(self):
        rng = random.Random(5)
        ctx = ctx_classical(Zloc(2))
        for _ in range(5):
            ngens = rng.randrange(1, 3)
            gdegs = [rng.randrange(0, 3) for _ in range(ngens)]
            cols = []
            rdegs = []
            for _ in range(rng.randrange(1, 3)):
                rdeg = max(gdegs) + rng.randrange(1, 4)
                col = {}
                for i, g in enumerate(gdegs):
                    c = rng.randrange(0, 4)
                    if c:
                        col[i] = ctx.x(rdeg - g, c)
                if col:
                    cols.append(col)
                    rdegs.append(rdeg)
            if not cols:
                continue
            M = PresentedModule.from_columns(ctx, gdegs, cols, rdegs)
            rep = torsion_submodule(M, 20)
            assert rep.verdict == "torsion_free"

    def test_free_module_torsion_free(self):
        M = PresentedModule.from_columns(ctx_classical(ZZ), [0], [], [])
        assert torsion_submodule(M, 12).verdict == "torsion_free"

    def test_trivial_module_all_torsion_over_Q(self):
        ctx = ctx_all_ones(QQ)
        M = PresentedModule.from_columns(ctx, [0], [{0: ctx.x(1)}], [1])
        rep = torsion_submodule(M, 8)
        assert rep.verdict == "has_torsion"
        assert rep.certificate is not None


def stacked_margin_lattice(M, d, margin):
    """Reference for the margin window of torsion_submodule: {v in F0_d :
    x^[j] v in im(P) for 1 <= j <= margin} + P_d, from one kernel of the
    block matrix whose j-th block row is [X_j | 0 ... P_{d+j} ... 0], X_j
    multiplication by x^[j]."""
    ctx = M.context
    R = ctx.ring
    F0 = M.generators
    basis = F0.basis(d)
    dim = len(basis)
    slices = [M.relations.slice(d + j) for j in range(1, margin + 1)]
    ncols = dim + sum(p.cols for p in slices)
    rows = []
    c0 = dim
    for j, pj in enumerate(slices, start=1):
        row_of = {i: r for r, (i, _) in enumerate(F0.basis(d + j))}
        block = [[R.zero()] * ncols for _ in row_of]
        for c, (i, s) in enumerate(basis):
            block[row_of[i]][c] = ctx.C(s + j, j)
        for r in range(pj.rows):
            block[r][c0:c0 + pj.cols] = pj.entries[r]
        rows += block
        c0 += pj.cols
    vectors = [v[:dim] for v in kernel_basis(ExactMatrix(R, rows, len(rows), ncols))]
    pd = M.relations.slice(d)
    vectors += [[pd.entries[i][j] for i in range(pd.rows)] for j in range(pd.cols)]
    return Lattice(R, dim, vectors)


def small_module(ctx, randint):
    """A module over ctx with 1-3 generators in degrees 0-2 and 1-3
    relations up to 3 degrees above the top generator, coefficients in
    [-4, 4]; randint(a, b) draws each number."""
    R = ctx.ring
    gdegs = sorted(randint(0, 2) for _ in range(randint(1, 3)))
    cols, rdegs = [], []
    for _ in range(randint(1, 3)):
        rdeg = max(gdegs) + randint(0, 3)
        col = {}
        for i, g in enumerate(gdegs):
            c = randint(-4, 4)
            if c:
                col[i] = ctx.x(rdeg - g, coeff=R.from_int(c))
        cols.append(col)
        rdegs.append(rdeg)
    return PresentedModule.from_columns(ctx, gdegs, cols, rdegs)


@st.composite
def small_modules(draw, contexts=ORACLE_CONTEXTS):
    ctx = draw(st.sampled_from(contexts))
    return small_module(ctx, lambda a, b: draw(st.integers(a, b)))


@settings(max_examples=150, deadline=None)
@given(small_modules(), st.integers(0, 3), st.integers(1, 5))
def test_margin_lattice_matches_stacked_kernel(M, offset, margin):
    # cutting from the identity one j at a time gives the same lattice as
    # the single stacked kernel it replaced, relation span included
    d = M.min_degree() + offset
    R = M.context.ring
    cuts = M.context.dplus_generator_degrees(margin)
    _, B = _refine_lattice(M, d, None, cuts, _relation_columns(M))
    cut = Lattice(R, M.generators.rank(d), [[R.canon(x) for x in b] for b in B])
    assert lattice_equals(cut, stacked_margin_lattice(M, d, margin))


# q-integers at a p-local fraction q0: C(s + j, j) and the relation slices
# have denominators prime to p, which the integer torsion step clears
FRACTIONAL_CONTEXTS = [
    AlgebraContext(PiSequence.cyclotomic_at(Zloc(p), Fraction(a, b)))
    for p, a, b in ((2, 1, 3), (3, 2, 5), (5, 4, 7), (3, -1, 7))
]


@settings(max_examples=100, deadline=None)
@given(small_modules(FRACTIONAL_CONTEXTS), st.integers(0, 3), st.integers(1, 5))
def test_margin_lattice_matches_stacked_kernel_with_denominators(M, offset, margin):
    d = M.min_degree() + offset
    R = M.context.ring
    cuts = M.context.dplus_generator_degrees(margin)
    _, B = _refine_lattice(M, d, None, cuts, _relation_columns(M))
    cut = Lattice(R, M.generators.rank(d), [[R.canon(x) for x in b] for b in B])
    assert lattice_equals(cut, stacked_margin_lattice(M, d, margin))


def recipe_13_modules(seed, count):
    """Random Z_(2) modules by the recipe of test_13 in test_acceptance.py."""
    rng = random.Random(seed)
    ctx = ctx_classical(Zloc(2))
    out = []
    while len(out) < count:
        gdegs = sorted(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
        cols, rdegs = [], []
        for _ in range(rng.randint(1, 3)):
            rdeg = max(gdegs) + rng.randint(1, 4)
            col = {}
            for i, g in enumerate(gdegs):
                c = rng.randint(0, 4)
                if c:
                    col[i] = ctx.x(rdeg - g, coeff=ctx.ring.from_int(c))
            if col:
                cols.append(col)
                rdegs.append(rdeg)
        if cols:
            out.append(PresentedModule.from_columns(ctx, gdegs, cols, rdegs))
    return out


def watch_cuts(monkeypatch):
    """Record each Lattice that graded_modules builds, as (cuts, relations):
    a relation slice's echelon basis, built while the function that
    _relation_columns returns reads degree e, as (e, its echelon rows) in
    relations, and every other Lattice, one per torsion cut, as (ring,
    vectors, echelon rows) in cuts.  A cut's vectors are those inserted
    into it, and its rows, read live, include the relation rows it sets at
    their pivots."""
    cuts, relations, reading = [], [], []

    class Watched(Lattice):
        def __init__(self, ring, dim, vectors=()):
            self.fed = []
            super().__init__(ring, dim, vectors)
            if reading:
                relations.append((reading[-1], self.rows.values()))
            else:
                cuts.append((ring, self.fed, self.rows.values()))

        def insert(self, v):
            self.fed.append(list(v))
            return super().insert(v)

    relation_columns = graded_modules._relation_columns

    def watched(M):
        echelon_rows = relation_columns(M)

        def read(e):
            reading.append(e)
            try:
                return echelon_rows(e)
            finally:
                reading.pop()

        return read

    monkeypatch.setattr(graded_modules, "Lattice", Watched)
    monkeypatch.setattr(graded_modules, "_relation_columns", watched)
    return cuts, relations


def test_torsion_integer_kernel_entries_stay_below_128_bits(monkeypatch):
    # Over Z_(2) at horizon 40 each cut of the torsion step is one echelon
    # form over Z, whose vectors and rows have entries of at most 20 bits
    # here (35 on the benchmark's modules): each row of binomials
    # C(s + j, j), up to 94 bits, is divided by its content first.  128 bits
    # leaves room for whole binomials times window entries (108 bits) and
    # flags growth in the window loop.  The cut degrees up to the cap 128
    # are the 8 powers of 2, so a degree makes at most 8 cuts (cutting at
    # every j made up to 128).  A window stops cutting once it reaches the
    # relation span, so these 8 modules make 707 cuts (1,242 when every
    # window ran every cut): the floor shows the watch is hooked, the
    # ceiling that the early exit holds.  Each degree's relation slice is
    # reduced to its echelon basis once per call, apart from the cuts.
    cuts, relations = watch_cuts(monkeypatch)
    slices = []
    for M in recipe_13_modules(40, 8):
        before = len(cuts)
        relations.clear()
        assert torsion_submodule(M, 40).verdict == "torsion_free"
        assert len(cuts) - before <= 8 * (40 - M.min_degree() + 1)
        degrees = [e for e, _ in relations]
        assert degrees and len(degrees) == len(set(degrees))
        slices += [rows for _, rows in relations]
    assert all(ring == ZZ for ring, _, _ in cuts)
    assert 500 < len(cuts) <= 900
    # the relation rows a cut sets at their pivots are the slices' rows
    assert max(abs(x).bit_length() for _, vectors, rows in cuts
               for v in (*vectors, *rows) for x in v) <= 128
    assert max(abs(x).bit_length() for rows in slices for v in rows for x in v) <= 128


# the largest entry bits of a cut, vectors and echelon rows, that
# test_torsion_cut_entries_stay_bounded_on_every_window_ring allows; its
# modules reach 6 (Z/4), 8 (Z/6), 11 (Z_(3)) and 334 (q-integers at a
# p-local fraction, whose binomial rows alone are that wide) bits
CUT_ENTRY_BITS = {"Z/4": 16, "Z/6": 20, "Z_(3)": 32, "cyclotomic_at": 512}


def test_torsion_cut_entries_stay_bounded_on_every_window_ring(monkeypatch):
    # a cut keeps the window rows as its echelon form leaves them, not read
    # again mod n or divided by their content, so the entries of the later
    # cuts must still stay small: over Z/n the lift rows n e_i reduce each
    # pivot, and over Z_(p) the rows are Z-rows of a Z_(p)-basis.  Each
    # bound is at least 10 bits and half again above what was measured
    cuts, relations = watch_cuts(monkeypatch)
    contexts = [ctx for ctx in TORSION_CONTEXTS + FRACTIONAL_CONTEXTS
                if ctx.ring in (Zmod(4), Zmod(6), Zloc(3)) or ctx.pi.family == "cyclotomic_at"]
    rng = random.Random(18)
    widest = {}
    for n in range(5 * len(contexts)):
        ctx = contexts[n % len(contexts)]
        key = "cyclotomic_at" if ctx.pi.family == "cyclotomic_at" else ctx.ring.describe()
        cuts.clear()
        relations.clear()
        torsion_submodule(small_module(ctx, rng.randint), 12)
        # a cut's rows include the relation rows it sets at their pivots
        bits = [abs(x).bit_length() for _, vectors, rows in cuts for v in (*vectors, *rows) for x in v]
        bits += [abs(x).bit_length() for _, rows in relations for v in rows for x in v]
        widest[key] = max(widest.get(key, 0), *bits, 0)
    assert set(widest) == set(CUT_ENTRY_BITS)
    assert all(widest[key] <= bound for key, bound in CUT_ENTRY_BITS.items()), widest


def test_torsion_builds_each_relation_slice_once(monkeypatch):
    # the relation span of degree d and the torsion windows read the same
    # slices, as rows over the windows' ring: one torsion_submodule call
    # builds each degree's slice, and its echelon basis, once
    _, relations = watch_cuts(monkeypatch)
    rng = random.Random(15)
    modules = recipe_13_modules(5, 4) + [
        small_module(ctx, rng.randint) for ctx in ORACLE_CONTEXTS for _ in range(3)
    ]
    for M in modules:
        relations.clear()
        torsion_submodule(M, 12)
        built = [e for e, _ in relations]
        assert built and len(built) == len(set(built))


# rings and pi of the torsion oracle: classical, all-ones and custom pi,
# custom with zeros ({2: 0, 6: 0}, {3: 0, 9: 0}) and without
CUSTOM_PI = [{2: 0, 6: 0}, {3: 0, 9: 0}, {2: 2, 4: 2, 8: 2}, {2: 6, 3: 5}]
TORSION_CONTEXTS = ORACLE_CONTEXTS + [
    AlgebraContext(PiSequence.custom(R, values)) for R in ORACLE_RINGS for values in CUSTOM_PI
]


def test_torsion_matches_the_every_j_reference():
    # cutting only at the degrees of dplus_generator_degrees, and stopping at
    # the relation span, gives the same report as cutting at every j of every
    # window; the fractional contexts have denominators prime to p
    rng = random.Random(14)
    verdicts = set()
    contexts = TORSION_CONTEXTS + FRACTIONAL_CONTEXTS
    for n in range(240):
        ctx = contexts[n % len(contexts)]
        M = small_module(ctx, rng.randint)
        h = rng.randint(3, 8)
        rep = torsion_submodule(M, h)
        assert rep == torsion_submodule_every_j(M, h)
        verdicts.add(rep.verdict)
    assert verdicts == {"torsion_free", "has_torsion", "inconclusive"}


def test_torsion_matches_the_every_j_reference_at_the_benchmark_horizon():
    # horizon 40 and cap 128 as in torsion-zloc2, on Z_(2) modules it does
    # not draw: the windows stop at the relation span, the reference does not
    for M in recipe_13_modules(7, 4):
        assert torsion_submodule(M, 40) == torsion_submodule_every_j(M, 40)


@settings(max_examples=150, deadline=None)
@given(small_modules(), st.integers(-6, 6), st.integers(0, 15))
def test_pieces_and_torsion_shift_with_the_module(M, s, horizon):
    # D acts through degree differences, so M shifted by s, at horizon + s,
    # has the same pieces and the same torsion report, degrees shifted by s;
    # the margin and the search cap read degrees relative to the lowest
    # generator degree, so they are the same on both sides
    moved = shifted_module(M, s)
    pieces = hilbert_series(M, horizon).pieces
    assert hilbert_series(moved, horizon + s).pieces == {d + s: p for d, p in pieces.items()}
    rep = torsion_submodule(M, horizon)
    got = torsion_submodule(moved, horizon + s)
    assert (got.verdict, got.margin, got.horizon) == (rep.verdict, rep.margin, horizon + s)
    assert got.candidates == [(d + s, inv) for d, inv in rep.candidates]
    # a torsion-free certificate names the horizon, and the cap if it was used
    def certificate(report, h):
        return report.certificate and report.certificate.replace(f"degree {h}", "the horizon")

    assert certificate(got, horizon + s) == certificate(rep, horizon)


def shifted_fit(fit, s):
    """A periodic fit with its preperiod degrees and block start moved by s."""
    if fit is None:
        return None
    return {**fit, "preperiod": [(d + s, v) for d, v in fit["preperiod"]],
            "block_start": fit["block_start"] + s}


@settings(max_examples=100, deadline=None)
@given(small_modules(), st.integers(-6, 6), st.integers(0, 15))
@example(make_special(ctx_classical(Zloc(2)), SpecialBlock([2], 2)), -4, 6)
def test_tor_and_k_classes_shift_with_the_module(M, s, horizon):
    # as for the pieces and the torsion report: M shifted by s, at horizon
    # + s, has the Tor table, the H and L series and their fits of M with
    # every degree moved by s, and L's default max_i and completeness
    moved = shifted_module(M, s)
    R = M.context.ring
    table = tor(moved, 2, horizon + s)
    assert table.entries == {(i, d + s): inv for (i, d), inv in tor(M, 2, horizon).entries.items()}
    if R.is_field or R.is_pid:
        H, got = h_invariant(M, horizon), h_invariant(moved, horizon + s)
        assert got.coeffs == {d + s: c for d, c in H.coeffs.items()}
        assert got.fit == shifted_fit(H.fit, s)
    if R.is_pid and not R.is_field:
        L, got = l_invariant(M, horizon), l_invariant(moved, horizon + s)
        assert (got.complete, got.max_i) == (L.complete, L.max_i)
        assert got.l0 == {d + s: v for d, v in L.l0.items()}
        assert got.l == {d + s: v for d, v in L.l.items()}
        assert got.fit == shifted_fit(L.fit, s)


def test_torsion_is_not_certified_before_a_late_zero_of_pi():
    # over Q with pi_40 = 0, D/(x^[1]) has pieces Q at 0, 40, 80, 120: x^[40]
    # e != 0, so e is not torsion, though x^[j] e = 0 for 0 < j < 40.  A
    # search that stops below 40 must not certify it, at any shift
    ctx = AlgebraContext(PiSequence.custom(QQ, {40: 0}))
    M = PresentedModule.from_columns(ctx, [0], [{0: ctx.x(1)}], [1])
    assert set(hilbert_series(M, 120).pieces) == {0, 40, 80, 120}
    assert torsion_submodule(M, 45).verdict == "torsion_free"
    rep = torsion_submodule(M, 4)
    assert rep.verdict == "inconclusive"
    for s in (30, -30):
        got = torsion_submodule(shifted_module(M, s), 4 + s)
        assert (got.verdict, got.certificate) == (rep.verdict, rep.certificate)
        assert got.candidates == [(d + s, inv) for d, inv in rep.candidates]


def test_torsion_windows_stop_at_the_relation_span(monkeypatch):
    # a degree makes one cut, one echelon Lattice, per cut degree until its
    # lattice equals the relation span, and none after, in whichever window
    # that happens
    cuts, relations = watch_cuts(monkeypatch)
    rng = random.Random(16)
    modules = [(M, 40) for M in recipe_13_modules(5, 4)] + [
        (small_module(ctx, rng.randint), 12) for ctx in ORACLE_CONTEXTS + FRACTIONAL_CONTEXTS
    ]
    for M, h in modules:
        R = M.context.ring
        dmin = M.min_degree()
        margin = max(4, M.max_presentation_degree() - dmin + 1)
        cap = max(4 * margin, 2 * (1 << (h - dmin + margin - 1).bit_length()))
        columns = _relation_columns(M)
        expected = 0
        degrees = M.context.dplus_generator_degrees(cap)
        for d in range(dmin, h + 1):
            dim = M.generators.rank(d)
            span = Lattice(R, dim, M.relations.slice_columns(d))
            window, basis = None, _identity(dim, R.one(), R.zero())
            for j in degrees:
                if lattice_equals(span, Lattice(R, dim, [[R.canon(x) for x in b] for b in basis])):
                    break
                window = _refine_lattice(M, d, window, [j], columns)
                basis = window[1]
                expected += 1
        cuts.clear()
        relations.clear()
        torsion_submodule(M, h)
        assert len(cuts) == expected
        built = [e for e, _ in relations]
        assert len(built) == len(set(built))


def window_lattice(R, dim, window):
    """The Lattice over R that a torsion window's basis spans."""
    return Lattice(R, dim, [[R.canon(x) for x in b] for b in window[1]])


@settings(max_examples=200, deadline=None)
@given(small_modules(ORACLE_CONTEXTS + FRACTIONAL_CONTEXTS), st.integers(0, 3),
       st.lists(st.integers(1, 6), max_size=3), st.integers(1, 8))
def test_one_torsion_cut_matches_the_every_j_reference(M, offset, before, j):
    # one echelon per cut gives the lattice of the reference's kernel route,
    # cut at j alone from a window that earlier cuts left (or from F0_d),
    # and a window whose basis has rank rows and the (rank, delta) of its
    # span; over Z/n the window's lattice is the preimage of its residues
    R = M.context.ring
    d = M.min_degree() + offset
    dim = M.generators.rank(d)
    columns = _relation_columns(M)
    window = _refine_lattice(M, d, None, sorted(set(before)), columns) if before else None
    start = window_lattice(R, dim, window) if window else Lattice(
        R, dim, _identity(dim, R.one(), R.zero()))
    got = _refine_lattice(M, d, window, [j], columns)
    want = refine_lattice_every_j(M, d, start, j, j, columns)
    assert lattice_equals(window_lattice(R, dim, got), want)
    assert len(got[1]) == got[0][0]
    assert got[0] == _rank_and_delta(R, got[1], dim)


def test_torsion_candidates_are_the_annihilated_slices():
    # a candidate's invariants are those of the stable lattice modulo the
    # relation span, a nonzero submodule of M_d: over Q with all-ones pi,
    # D/(x^[2]) has M_1 = Q, annihilated by every x^[j], j >= 1
    ctx = ctx_all_ones(QQ)
    M = PresentedModule.from_columns(ctx, [0], [{0: ctx.x(2)}], [2])
    rep = torsion_submodule(M, 6)
    assert rep.verdict == "has_torsion"
    assert rep.candidates == [(1, M.piece_invariants(1))] == [(1, ModuleInvariants(QQ, 1))]
    rng = random.Random(17)
    contexts = TORSION_CONTEXTS + FRACTIONAL_CONTEXTS
    found = 0
    for n in range(120):
        M = small_module(contexts[n % len(contexts)], rng.randint)
        rep = torsion_submodule(M, rng.randint(3, 8))
        assert all(not inv.is_zero for _, inv in rep.candidates)
        found += len(rep.candidates)
    assert found


@st.composite
def nested_lattices(draw):
    """(R, dim, S, L): vectors L in R^dim and vectors S, random combinations
    of them, so span(S) <= span(L); over Z_(p) with denominators prime to p."""
    R = draw(st.sampled_from(ORACLE_RINGS))
    dim = draw(st.integers(1, 4))

    def element():
        n = draw(st.integers(-6, 6))
        if isinstance(R, PLocalRing):
            return Fraction(n, draw(st.sampled_from([q for q in (1, 3, 5, 7) if q % R.p])))
        return R.from_int(n)

    L = [[element() for _ in range(dim)] for _ in range(draw(st.integers(0, 4)))]
    S = []
    for _ in range(draw(st.integers(0, 4))):
        v = [R.zero()] * dim
        for b in L:
            c = element()
            v = [R.add(x, R.mul(c, y)) for x, y in zip(v, b)]
        S.append(v)
    return R, dim, S, L


def rank_and_delta(R, dim, vectors):
    if isinstance(R, PLocalRing):
        vectors = [primitive_integer_vector(v, R.p) for v in vectors]
    return _rank_and_delta(R, vectors, dim)


@settings(max_examples=300, deadline=None)
@given(nested_lattices())
def test_rank_and_delta_decide_equality_of_nested_lattices(case):
    # the torsion windows compare lattices by (rank, delta) alone, which
    # holds for nested ones: S = T L with T square at equal rank, and
    # delta(S) = det(T) delta(L) up to a unit
    R, dim, S, L = case
    same = rank_and_delta(R, dim, S) == rank_and_delta(R, dim, L)
    assert same == lattice_equals(Lattice(R, dim, S), Lattice(R, dim, L))


@settings(max_examples=150, deadline=None)
@given(small_modules(ORACLE_CONTEXTS + FRACTIONAL_CONTEXTS), st.integers(0, 3),
       st.integers(1, 8))
def test_torsion_window_keeps_the_rank_and_delta_of_its_basis(M, offset, margin):
    # each step updates delta from the pivots of its coordinate basis, or
    # from a Smith form when the rank drops; both must give the pair of the
    # cut lattice
    R = M.context.ring
    d = M.min_degree() + offset
    dim = M.generators.rank(d)
    cuts = M.context.dplus_generator_degrees(margin)
    pair, B = _refine_lattice(M, d, None, cuts, _relation_columns(M))
    assert pair == _rank_and_delta(R, B, dim)


@settings(max_examples=150, deadline=None)
@given(small_modules(ORACLE_CONTEXTS + FRACTIONAL_CONTEXTS), st.integers(0, 8))
def test_relation_echelon_rows_give_the_goal(M, offset):
    # the cuts, the goal and a candidate's span read the echelon basis of a
    # relation slice in place of its rows: pivots strictly increasing, the
    # same lattice over the windows' ring (over Z/n, the preimage), and the
    # (rank, delta) of the rows, read from the pivots when the basis is square
    R = M.context.ring
    K = R._echelon.window
    e = M.min_degree() + offset
    dim = M.generators.rank(e)
    rows = _relation_columns(M)(e)
    raw = _relation_rows(M)(e)
    # keyed by pivot, in pivot order, so that a cut can set each row there
    assert list(rows) == [next(t for t, x in enumerate(row) if x) for row in rows.values()]
    assert all(a < b for a, b in zip(rows, list(rows)[1:]))
    assert lattice_equals(Lattice(K, dim, list(rows.values())), Lattice(K, dim, raw))
    assert _relation_goal(R, rows, dim) == _rank_and_delta(R, raw, dim)


# Z_(2), Z_(3) and Z_(5) with classical, all-ones and q-integer pi at a
# p-local fraction, whose binomials have denominators prime to p
PLOCAL_CONTEXTS = FRACTIONAL_CONTEXTS + [
    AlgebraContext(family(Zloc(p)))
    for p in (2, 3, 5)
    for family in (PiSequence.classical, PiSequence.all_ones)
]


@st.composite
def plocal_modules(draw):
    """small_module over PLOCAL_CONTEXTS with coefficients n / q, q prime to p."""
    ctx = draw(st.sampled_from(PLOCAL_CONTEXTS))
    p = ctx.ring.p
    M = small_module(ctx, lambda a, b: draw(st.integers(a, b)))
    denominators = st.sampled_from([q for q in (1, 3, 7, 10, 11) if q % p])
    cols = [{i: e.scale(Fraction(1, draw(denominators))) for i, e in col.items()}
            for col in M.relations.columns]
    return PresentedModule.from_columns(ctx, M.generators.degrees, cols,
                                        M.relations.source.degrees)


# unit multiples of relations: each ring keeps those of these that it reads
# as units (over Z only -1; over Z_(3), 3/5 is not one)
UNIT_CANDIDATES = [-1, 5, 7, Fraction(3, 5), Fraction(-5, 7)]


def ring_units(R) -> list:
    units = []
    for x in UNIT_CANDIDATES:
        try:
            u = R.canon(x)
        except ValueError:
            continue
        if R.is_unit(u):
            units.append(u)
    return units


@st.composite
def presented_twice(draw):
    """(M, N): a module over TORSION_CONTEXTS + PLOCAL_CONTEXTS, with 1-3
    generators in degrees 0-3 and 1-3 relations from the lowest generator
    degree to 3 above the top one (a relation below a generator's degree
    has no entry there), and the same module presented another way.  x^[k]
    times a relation j is added as a relation of degree at most the top
    presentation degree (so the margin stays), one relation is scaled by a
    unit, the relations are permuted, and the generators are permuted
    (generator i becomes sigma[i], so their degrees need not be sorted)."""
    ctx = draw(st.sampled_from(TORSION_CONTEXTS + PLOCAL_CONTEXTS))
    number = st.integers(-4, 4)
    gdegs = sorted(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    cols, rdegs = [], []
    for _ in range(draw(st.integers(1, 3))):
        rdegs.append(draw(st.integers(gdegs[0], gdegs[-1] + 3)))
        cols.append({i: ctx.x(rdegs[-1] - g, coeff=ctx.ring.from_int(draw(number)))
                     for i, g in enumerate(gdegs) if g <= rdegs[-1]})
    M = PresentedModule.from_columns(ctx, gdegs, cols, rdegs)
    cols = list(M.relations.columns)
    j = draw(st.integers(0, len(cols) - 1))
    k = draw(st.integers(0, M.max_presentation_degree() - rdegs[j]))
    cols.append({i: ctx.x(k).mul(e) for i, e in cols[j].items()})
    rdegs.append(rdegs[j] + k)
    j = draw(st.integers(0, len(cols) - 1))
    u = draw(st.sampled_from(ring_units(ctx.ring)))
    cols[j] = {i: e.scale(u) for i, e in cols[j].items()}
    order = draw(st.permutations(range(len(cols))))
    cols, rdegs = [cols[t] for t in order], [rdegs[t] for t in order]
    sigma = draw(st.permutations(range(M.generators.n_gens)))
    gdegs = [0] * len(sigma)
    for i, g in enumerate(M.generators.degrees):
        gdegs[sigma[i]] = g
    cols = [{sigma[i]: e for i, e in col.items()} for col in cols]
    return M, PresentedModule.from_columns(ctx, gdegs, cols, rdegs)


@settings(max_examples=300, deadline=None)
@given(presented_twice(), st.integers(0, 8))
def test_torsion_report_does_not_depend_on_the_presentation(pair, horizon):
    # the same module presented another way has the same torsion report:
    # verdict, margin, candidates (degree, invariants) and certificate.
    # Below the top generator degree a permuted module's basis leaves out
    # generators in the middle of its order, so a row that writes generator
    # i's term at column i, not at col_of[i], breaks the equality
    M, N = pair
    assert torsion_submodule(N, horizon) == torsion_submodule(M, horizon)


def assert_primitive_multiple(w, v, p):
    """w is the integer vector of primitive_integer_vector(v, p), checked by
    its definition: the positive p-unit multiple of v whose content is a
    power of p (zero when v is)."""
    assert all(type(x) is int for x in w) and len(w) == len(v)
    if not any(v):
        assert not any(w)
        return
    i = next(k for k, x in enumerate(v) if x)
    r = Fraction(w[i]) / v[i]
    assert r > 0 and r.numerator % p and r.denominator % p
    assert all(x == r * y for x, y in zip(w, v))
    g = math.gcd(*w)
    assert g == p ** multiplicity(p, g)


@settings(max_examples=200, deadline=None)
@given(plocal_modules(), st.integers(0, 6), st.integers(1, 9))
def test_integer_rows_are_the_primitive_rows_of_the_fraction_products(M, offset, j):
    # the relation slices, read with each column's coefficients cleared once
    # for every degree, and a cut's binomial row C(s + j, j), both built as
    # ints from pi's memo, are the primitive integer vectors of the
    # Fraction products that slice_columns builds (the definition, in
    # tests/references.py), row for row
    ctx = M.context
    p = ctx.ring.p
    rows = _relation_rows(M)
    for d in range(M.min_degree() + offset, M.min_degree() + offset + 4):
        columns = M.relations.slice_columns(d)
        assert rows(d) == [primitive_integer_vector(col, p) for col in columns]
        for w, v in zip(rows(d), columns):
            assert_primitive_multiple(w, v, p)
        shifts = [s for _, s in M.generators.basis(d)]
        binomials = [ctx.C(s + j, j) for s in shifts]
        assert _times_row(ctx, shifts, j) == primitive_integer_vector(binomials, p)
        assert_primitive_multiple(_times_row(ctx, shifts, j), binomials, p)


@settings(max_examples=150, deadline=None)
@given(small_modules([ctx for ctx in TORSION_CONTEXTS if ctx.ring.kind != "Zloc"]),
       st.integers(0, 6), st.integers(1, 9))
def test_window_rows_are_the_canonical_entries_off_z_p(M, offset, j):
    # over Z, Z/n, GF(p) and Q the windows keep the ring's own elements: a
    # relation row is its column of slice_columns, and a cut's binomial row
    # the binomials, entry for entry and type for type
    ctx = M.context
    R = ctx.ring
    rows = _relation_rows(M)
    for d in range(M.min_degree() + offset, M.min_degree() + offset + 4):
        want = [[R.canon(x) for x in col] for col in M.relations.slice_columns(d)]
        got = rows(d)
        assert got == want
        assert [list(map(type, r)) for r in got] == [list(map(type, r)) for r in want]
        shifts = [s for _, s in M.generators.basis(d)]
        binomials = [R.canon(ctx.C(s + j, j)) for s in shifts]
        assert _times_row(ctx, shifts, j) == binomials
        assert list(map(type, _times_row(ctx, shifts, j))) == list(map(type, binomials))


@st.composite
def window_rows(draw):
    """(R, vectors, dim): rows over the window ring of R's record, some of
    them zero, with some coordinates zero in every row."""
    R = draw(st.sampled_from([ZZ, Zloc(2), Zloc(3), GF(2), GF(3), QQ, Zmod(4), Zmod(6)]))
    K = R._echelon.window
    dim = draw(st.integers(0, 4))
    zero_rows = draw(st.sets(st.integers(0, 3)))
    vectors = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 4)) == 0:
            vectors.append([K.zero()] * dim)
            continue
        v = [K.canon(draw(st.integers(-12, 12))) for _ in range(dim)]
        if K == QQ:
            v = [x / draw(st.sampled_from([1, 2, 3])) for x in v]
        vectors.append([K.zero() if t in zero_rows else x for t, x in enumerate(v)])
    return R, vectors, dim


@settings(max_examples=300, deadline=None)
@given(window_rows())
@example((Zmod(4), [], 2))
@example((Zmod(6), [[0, 0]], 2))
@example((Zloc(2), [[0, 4], [0, 6]], 2))
@example((ZZ, [], 0))
def test_rank_and_delta_match_the_smith_diagonal(case):
    # _euclid on the vectors as rows (with the lift rows over Z/n) gives the
    # rank and delta of the D-only Smith form of the vectors as columns
    R, vectors, dim = case
    K = R._echelon.window
    diag = [x for x in _smith(ExactMatrix.from_columns(K, vectors, dim), "D") if x]
    assert _rank_and_delta(R, vectors, dim) == (len(diag), R._echelon.generator(math.prod(diag)))


def test_warm_zloc_torsion_pass_builds_almost_no_fractions(monkeypatch):
    # over Z_(2) a warm pass (pi's memo tables filled) runs on ints from the
    # presentation to the verdict: Fraction products in the relation slices
    # made 1,361 Fractions on these modules.  Python 3.12 builds products
    # through _from_coprime_ints, past __new__, so both are counted
    modules = recipe_13_modules(40, 8)
    for M in modules:
        torsion_submodule(M, 40)
    made = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    if hasattr(Fraction, "_from_coprime_ints"):
        coprime = Fraction._from_coprime_ints

        def counted_coprime(cls, *args):
            made.append(cls)
            return coprime(*args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))
    for M in modules:
        assert torsion_submodule(M, 40).verdict == "torsion_free"
    assert len(made) <= 50


@pytest.mark.parametrize("pi", [PiSequence.cyclotomic_symbolic(), PiSequence.all_ones(ZPOLY)],
                         ids=lambda pi: pi.family)
def test_torsion_over_zq_raises_the_smith_form_error(pi):
    # over Z[q] the first cut needs a Smith form, which Z[q] does not have;
    # choosing the cut degrees must not fail first on an ideal test
    ctx = AlgebraContext(pi)
    M = PresentedModule.from_columns(ctx, [0], [{0: ctx.x(2)}], [2])
    with pytest.raises(UnsupportedRingError, match=r"^smith_normal_form unsupported over Z\[q\]$"):
        torsion_submodule(M, 6)


def random_admissible_contexts(seed, count):
    """Contexts of random custom pi over ORACLE_RINGS, each with one to
    three entries in [2, 128], kept when admissible up to 128."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        R = rng.choice(ORACLE_RINGS)
        values = {rng.randint(2, 128): R.from_int(rng.choice([0, 2, 3, 4, 6, 9, -1, 5]))
                  for _ in range(rng.randint(1, 3))}
        try:
            ctx = AlgebraContext(PiSequence.custom(R, values))
            ctx.require_admissible(128)
            out.append(ctx)
        except PreconditionError:
            pass
    return out


# (context, degree bound); the q-integers at a fraction grow long, so the
# fractional contexts stop at 64
DPLUS_CONTEXTS = [(ctx, 64) for ctx in FRACTIONAL_CONTEXTS] + [
    (ctx, 128) for ctx in TORSION_CONTEXTS + random_admissible_contexts(19, 40) + [
        AlgebraContext(pi_from_gcd_morphic(fibonacci, up_to=128)),
    ] + [
        AlgebraContext(h_transform(PiSequence.classical(R), h))
        for R in (ZZ, Zloc(2), GF(3)) for h in (2, 3, 4, 6)
    ]
]


def test_cut_degrees_skip_exactly_the_unit_ideals():
    # dplus_generator_degrees skips j exactly when the C(j, a), 0 < a < j,
    # generate the unit ideal; C(j, a) is the product of the pi_k with a
    # carry, floor(j/k) - floor(a/k) - floor((j-a)/k) = 1, and only
    # pi_k != 1 count; C(j, a) = C(j, j - a), so a runs up to j/2
    for ctx, top in DPLUS_CONTEXTS:
        R = ctx.ring
        factors = [(k, ctx.pi.pi(k)) for k in range(2, top + 1) if ctx.pi.pi(k) != R.one()]
        cuts = set(ctx.dplus_generator_degrees(top))
        for j in range(1, top + 1):
            gens = []
            for a in range(1, j // 2 + 1):
                c = R.one()
                for k, pk in factors:
                    if k > j:
                        break
                    if j // k - a // k - (j - a) // k:
                        c = R.mul(c, pk)
                gens.append(c)
            assert (j not in cuts) == R.ideal_is_unit(gens), (ctx.pi, j)


def test_classical_cut_degrees():
    # gcd of C(n, k), 0 < k < n, is p when n is a power of the prime p and 1
    # otherwise; localised at 2 only the powers of 2 keep a non-unit
    powers_of_2 = [1, 2, 4, 8, 16, 32, 64, 128]
    assert ctx_classical(Zloc(2)).dplus_generator_degrees(128) == tuple(powers_of_2)
    assert ctx_classical(GF(2)).dplus_generator_degrees(128) == tuple(powers_of_2)
    assert ctx_classical(QQ).dplus_generator_degrees(128) == (1,)
    prime_powers = [n for n in range(2, 129) if len(factorint(n)) == 1]
    assert ctx_classical(ZZ).dplus_generator_degrees(128) == (1, *prime_powers)


# admissible to 24 (AlgebraContext's default check) but not at (30, 45);
# x^[60] and x^[90] are indecomposable there too, so the unit rule is wrong
LATE_VIOLATION = PiSequence.custom(GF(2), {30: 0, 45: 0})


def test_pi_not_admissible_up_to_the_bound_raises():
    ctx = AlgebraContext(LATE_VIOLATION)
    M = PresentedModule.from_columns(ctx, [0], [{0: ctx.x(1)}], [1])
    message = r"^pi-sequence not admissible: pair \(30, 45\)$"
    assert ctx.dplus_generator_degrees(44) == (1, 30)
    # the degrees are kept per bound, so a second call builds nothing
    assert ctx.dplus_generator_degrees(44) is ctx.dplus_generator_degrees(44)
    for call in (lambda: ctx.dplus_generator_degrees(45), lambda: trivial_module(ctx, 100),
                 lambda: torsion_submodule(M, 40), lambda: special_resolve_field(M, 100)):
        with pytest.raises(PreconditionError, match=message):
            call()


# ---------------------------------------------------------------------------
# the degreewise generator loop, slice by slice against SNF solving
# ---------------------------------------------------------------------------

GENERATOR_CONTEXTS = [
    AlgebraContext(family(R))
    for R in (GF(2), GF(3), GF(7), ZZ, Zloc(2), Zloc(3), Zmod(4), Zmod(6))
    for family in (PiSequence.classical, PiSequence.all_ones)
]


def _matrix_of_columns(R, dim, columns):
    return ExactMatrix(R, [[c[i] for c in columns] for i in range(dim)], dim, len(columns))


def _in_column_span(R, dim, columns, v) -> bool:
    if not columns:
        return all(R.is_zero(x) for x in v)
    return solve(_matrix_of_columns(R, dim, columns), v) is not None


def _field_rank(R, dim, columns) -> int:
    if not columns:
        return 0
    return dim - cokernel_invariants(_matrix_of_columns(R, dim, columns)).free_rank


def _columns(A):
    return [[A.entries[i][j] for i in range(A.rows)] for j in range(A.cols)]


def generator_terms(gens):
    """Each generator as its degree and the sorted terms of its column."""
    F = gens.ambient
    return [(e, sorted(F._column_terms(e, col))) for e, col in gens.generators]


def _check_degreewise(gens, bound, slice_spanners, in_slice):
    """In every degree: each generator's slice vector lies in the slice, the
    slice lies in the span of those vectors, and over a field the number of
    new generators is the slice's dimension less what lower degrees give."""
    ambient = gens.ambient
    R = ambient.context.ring
    for d in range(min(ambient.degrees), bound + 1):
        dim = ambient.rank(d)
        vectors = fresh_images(ambient, gens.generators, d)
        for v in vectors:
            assert in_slice(d, v)
        spanners = slice_spanners(d)
        for v in spanners:
            assert _in_column_span(R, dim, vectors, v)
        if R.is_field:
            lower = [g for g in gens.generators if g[0] < d]
            below = fresh_images(ambient, lower, d)
            new = sum(1 for e, _ in gens.generators if e == d)
            assert new == _field_rank(R, dim, spanners) - _field_rank(R, dim, below)


@settings(max_examples=80, deadline=None)
@given(small_modules(GENERATOR_CONTEXTS))
def test_syzygy_generators_match_kernel_slices(M):
    f = M.relations
    R = f.context.ring
    bound = M.max_presentation_degree() + 3
    _check_degreewise(
        syzygy_generators(f, bound),
        bound,
        lambda d: kernel_basis(f.slice(d)),
        lambda d, v: all(R.is_zero(x) for x in apply_vector(f.slice(d), v)),
    )


def test_syzygy_generators_match_the_every_degree_reference():
    # a one-row slice skips its degree once the syzygies found below span
    # its kernel; the reference takes the kernel and the quotient in every
    # degree.  Ideals of D (one row), and relation maps of modules with one
    # to three generators (one row or several), over every oracle ring with
    # classical, all-ones and custom pi
    rng = random.Random(17)
    target_gens = set()
    for n in range(4 * len(TORSION_CONTEXTS)):
        ctx = TORSION_CONTEXTS[n % len(TORSION_CONTEXTS)]
        ideal = materialize_ideal(random_ideal_spec(ctx, rng.randint(1, 3), rng), 24)
        M = small_module(ctx, rng.randint)
        for f, bound in ((ideal.as_map(), rng.randint(8, 24)),
                         (M.relations, M.max_presentation_degree() + rng.randint(0, 6))):
            target_gens.add(f.target.n_gens)
            got = syzygy_generators(f, bound)
            ref = syzygy_generators_every_degree(f, bound)
            assert generator_terms(got) == generator_terms(ref)
            assert got.horizon == bound
    assert target_gens == {1, 2, 3}


# all-ones pi, so that C(0, 0) = 1 and degree-0 images are the vectors themselves
ROW_KERNEL_CONTEXTS = {
    R: AlgebraContext(PiSequence.all_ones(R)) for R in (ZZ, Zloc(2), Zloc(3), QQ, GF(2), GF(3))
}


@st.composite
def row_kernel_sublattices(draw):
    """(R, r, S, K): a nonzero row r in R^m, m <= 4, a basis K of ker(r),
    and vectors S, small combinations of K, so that S spans ker(r) in many
    draws and not in many others; over Z_(p) with denominators prime to p."""
    R = draw(st.sampled_from(list(ROW_KERNEL_CONTEXTS)))
    m = draw(st.integers(1, 4))

    def element(lo, hi):
        n = draw(st.integers(lo, hi))
        if isinstance(R, PLocalRing):
            return Fraction(n, draw(st.sampled_from([q for q in (1, 3, 5, 7) if q % R.p])))
        return R.from_int(n)

    r = [element(-12, 12) for _ in range(m)]
    if not any(r):
        r[draw(st.integers(0, m - 1))] = R.one()
    K = kernel_basis(ExactMatrix(R, [r], 1, m))
    S = []
    for _ in range(draw(st.integers(0, 4))):
        v = [R.zero()] * m
        for b in K:
            c = element(-2, 3)
            v = [R.add(x, R.mul(c, y)) for x, y in zip(v, b)]
        S.append(v)
    return R, r, S, K


@settings(max_examples=400, deadline=None)
@given(row_kernel_sublattices())
def test_row_kernel_index_test_decides_equality(case):
    # the skip test reads [ker(r) : S] off S's echelon pivots, content(r)
    # and r at the column without a pivot; it holds exactly when S = ker(r)
    R, r, S, K = case
    m = len(r)
    generator = R._echelon.generator
    assert _spans_row_kernel(generator, [R.zero()] * m) is None
    content, want = _spans_row_kernel(generator, r)

    def test(sub):
        pivots = math.prod([row[p] for p, row in sub.rows.items()])
        return len(sub.rows) == m - 1 and generator(content * pivots) == want

    sub = Lattice(R, m, S)
    spans = lattice_equals(sub, Lattice(R, m, K))
    assert test(sub) == spans
    # the degree loop inserts S in order and stops at the first prefix that
    # passes: a passing prefix proves that all of S spans ker(r)
    for n in range(len(S) + 1):
        if test(Lattice(R, m, S[:n])):
            assert spans
    # the loop itself, on S as the degree-0 images of generators at degree
    # 0: it stops exactly when S spans ker(r), and otherwise returns S and
    # their lattice
    ambient = FreeGradedModule(ROW_KERNEL_CONTEXTS[R], [0] * m)
    terms = [(0, [(i, 0, 0, x) for i, x in enumerate(v)]) for v in S]
    old = _row_kernel_images(ambient, terms, 0, r)
    assert (old is None) == spans
    if old is not None:
        assert old[0] == S and lattice_equals(old[1], sub)
    # r = 0: K = R^m, and no test applies
    vectors, lattice = _row_kernel_images(ambient, terms, 0, [R.zero()] * m)
    assert vectors == S and lattice_equals(lattice, sub)


# every ring of the oracle contexts (Z/6 among them) and of the fractional ones
RECORD_RINGS = list(dict.fromkeys(ctx.ring for ctx in ORACLE_CONTEXTS + FRACTIONAL_CONTEXTS))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RECORD_RINGS), st.lists(st.integers(-40, 40), min_size=1, max_size=4),
       st.lists(st.sampled_from([1, 3, 5, 7]), min_size=4, max_size=4))
def test_elimination_record_meets_its_definitions(R, numerators, denominators):
    # the generator, row reading (clear, then primitive) and torsion
    # factorization of Ring._echelon, each against what it stands for; v is
    # a row of ints, or of Fractions with denominators prime to p (any over Q)
    elim, B = R._echelon, R._echelon.base
    fractional = R.kind in ("Zloc", "Q")
    v = [Fraction(n, q if q % getattr(R, "p", 2) else 1) if fractional else n
         for n, q in zip(numerators, denominators)]
    xs = [x for x in map(B.canon, v) if not B.is_zero(x)]
    for x in xs:
        g = elim.generator(x)
        assert B.divides(g, x) and B.divides(x, g), (x, g)
        assert elim.generator(g) == g
    # canonical: equal exactly on elements that generate the same ideal
    assert all((elim.generator(x) == elim.generator(y)) == B.associate(x, y)
               for x in xs for y in xs)
    w = elim.primitive(elim.clear(v))
    if R.kind != "Zloc":
        assert w == [R.canon(x) for x in v]
    elif any(v):
        # a unit multiple of v with integer entries whose content is a power of p
        assert all(type(x) is int for x in w)
        u = next(Fraction(a) / b for a, b in zip(w, v) if b)
        assert R.is_unit(u) and w == [u * x for x in v]
        content = math.gcd(*w)
        assert content == R.p ** multiplicity(R.p, content)
    for t in (R.canon(x) for x in v):
        if R.is_zero(t):
            continue
        if R == QQ:
            with pytest.raises(UnsupportedRingError):
                elim.factor(t)
            continue
        assert R.associate(R.canon(math.prod(p**e for p, e in elim.factor(t))), t), t


@settings(max_examples=80, deadline=None)
@given(small_modules(GENERATOR_CONTEXTS))
def test_minimal_image_generators_match_image_slices(M):
    g = M.relations
    R = g.context.ring
    bound = M.max_presentation_degree() + 3
    _check_degreewise(
        minimal_image_generators(g, bound),
        bound,
        lambda d: _columns(g.slice(d)),
        lambda d, v: _in_column_span(R, g.target.rank(d), _columns(g.slice(d)), v),
    )


@settings(max_examples=150, deadline=None)
@given(small_modules(), st.integers(0, 3))
def test_minimal_image_generators_match_full_length_loop(M, past_top):
    # the reference scans every degree up to the bound; above the top source
    # degree it can find no new generator, so stopping there changes nothing
    g = M.relations
    bound = max(g.source.degrees) + past_top
    ref = _degreewise_generators(g.target, bound, g.slice_columns)
    got = minimal_image_generators(g, bound)
    assert generator_terms(got) == generator_terms(ref)
    assert got.horizon == ref.horizon == bound


@st.composite
def free_modules_with_columns(draw):
    """A free module whose generator degrees may be unsorted, negative,
    repeated or absent, and columns (e, {i: element of degree e - g_i}) on
    it, with e at least the degree of every generator a column uses."""
    ctx = draw(st.sampled_from(ORACLE_CONTEXTS))
    degrees = draw(st.lists(st.integers(-4, 4), max_size=4))
    columns = []
    for _ in range(draw(st.integers(0, 3))):
        e = draw(st.integers(-4, 7))
        col = {}
        for i, g in enumerate(degrees):
            c = draw(st.integers(-3, 3))
            if g <= e and c:
                col[i] = ctx.x(e - g, coeff=ctx.ring.from_int(c))
        columns.append((e, col))
    return FreeGradedModule(ctx, degrees), columns


@settings(max_examples=200, deadline=None)
@given(free_modules_with_columns())
def test_images_and_rank_match_their_definitions(case):
    # in every degree below, at and above the top generator degree: rank(d)
    # counts the g <= d, and images puts x^[d - e] * column, as the algebra
    # multiplies it, at the position of each generator in basis(d)
    F, columns = case
    ctx, R = F.context, F.context.ring
    terms = [(e, F._column_terms(e, col)) for e, col in columns]
    for d in range(min(F.degrees, default=0) - 2, max(F.degrees, default=0) + 3):
        basis = F.basis(d)
        assert F.rank(d) == sum(1 for g in F.degrees if g <= d) == len(basis)
        column_of = {i: c for c, (i, _) in enumerate(basis)}
        want = []
        for e, col in columns:
            if e <= d:
                vec = [R.zero()] * len(basis)
                for i, elem in col.items():
                    vec[column_of[i]] = ctx.x(d - e).mul(elem).coeff(d - F.degrees[i])
                want.append(vec)
        assert list(F.images(terms, d)) == want


def test_row_is_the_one_entry_of_each_image():
    # maps into one target generator, at degrees -3..4: row(terms, d) is
    # the one entry of each degree-d image, value for value and type for
    # type, at every d from the lowest source degree to 6 past the top one
    rng = random.Random(35)
    seen = {"nonzero target degree": 0, "empty column": 0, "column above d": 0}
    for ctx in ORACLE_CONTEXTS * 12:
        R = ctx.ring
        g0 = rng.randint(-3, 4)
        columns, degrees = [], []
        for _ in range(rng.randint(1, 5)):
            e, c = g0 + rng.randint(0, 6), rng.randint(-4, 4)
            columns.append({0: ctx.x(e - g0, coeff=R.from_int(c))} if c else {})
            degrees.append(e)
        target = FreeGradedModule(ctx, [g0])
        f = ModuleMap(FreeGradedModule(ctx, degrees), target, columns)
        seen["nonzero target degree"] += g0 != 0
        seen["empty column"] += any(not terms for _, terms in f._terms)
        for d in range(min(degrees), max(degrees) + 7):
            seen["column above d"] += any(e > d for e in degrees)
            got = target.row(f._terms, d)
            want = [v[0] for v in target.images(f._terms, d)]
            assert got == want
            assert [type(x) for x in got] == [type(x) for x in want]
    assert all(seen.values()), seen


@settings(max_examples=100, deadline=None)
@given(small_modules())
def test_generator_terms_cache_matches_fresh_images(M):
    # the degree loop parses each generator's column once, and hands the
    # parsed terms of every generator found below d to images in degree d:
    # they give the images of those columns parsed afresh.  The loop's calls
    # run on the scan's ambient module with the loop's own list; the slices
    # of f, which the scans also build through images, are given f._terms
    f = M.relations
    bound = M.max_presentation_degree() + 3
    images = FreeGradedModule.images
    for scan, ambient in ((syzygy_generators, f.source), (minimal_image_generators, f.target)):
        asked = []

        def watched(F, generators, d):
            if F is ambient and generators is not f._terms:
                generators = list(generators)
                asked.append((generators, d))
            return images(F, generators, d)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FreeGradedModule, "images", watched)
            gens = scan(f, bound)
        F = gens.ambient
        assert F is ambient
        for terms, d in asked:
            below = [g for g in gens.generators if g[0] < d]
            assert list(images(F, terms, d)) == fresh_images(F, below, d)


# ---------------------------------------------------------------------------
# slices against multiplication in the algebra, and Tor against the Hilbert
# series (Euler characteristic)
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(small_modules(), st.integers(0, 6))
def test_slice_entries_match_algebra_multiplication(M, offset):
    # the basis vector x^[s] e_j maps to x^[s] * (column j), whose part at
    # generator i is x^[s] * entry (i, j) in degree d - g_i
    f = M.relations
    ctx = f.context
    R = ctx.ring
    d = M.min_degree() + offset
    A = f.slice(d)
    rows, cols = f.target.basis(d), f.source.basis(d)
    assert (A.rows, A.cols) == (len(rows), len(cols))
    for c, (j, s) in enumerate(cols):
        for r, (i, shift) in enumerate(rows):
            entry = f.columns[j].get(i)
            want = R.zero() if entry is None else ctx.x(s).mul(entry).coeff(shift)
            assert R.eq(A.entries[r][c], want)
    assert f.slice_columns(d) == _columns(A)
    assert fresh_images(f.target, list(zip(f.source.degrees, f.columns)), d) == _columns(A)


EULER_CONTEXTS = [
    AlgebraContext(family(R))
    for R in (GF(2), GF(3), QQ)
    for family in (PiSequence.classical, PiSequence.all_ones)
]


@settings(max_examples=90, deadline=None)
@given(small_modules(EULER_CONTEXTS))
def test_tor_euler_characteristic_matches_hilbert_series(M):
    # over a field, (1 - t) H_M(t) = sum_i (-1)^i sum_d dim Tor_i(M, k)_d t^d:
    # a free resolution's F_i has one generator of degree d per dimension of
    # (F_i tensor k)_d, and H_{D(-d)} = t^d / (1 - t).  The generators of a
    # minimal F_i have degree >= min_degree + i, so i <= horizon - min_degree
    # covers every index that can be nonzero.
    horizon = 10
    dmin = M.min_degree()
    H = hilbert_series(M, horizon)
    table = tor(M, horizon - dmin + 1, horizon)
    for d in range(dmin, horizon + 1):
        euler = sum((-1) ** i * inv.free_rank for (i, e), inv in table.entries.items() if e == d)
        assert euler == H.piece(d).free_rank - H.piece(d - 1).free_rank


# ---------------------------------------------------------------------------
# change of rings: Z against Z_(p), Q and GF(p)
# ---------------------------------------------------------------------------

# Z-modules with classical pi and with the integer pi of CUSTOM_PI
INTEGER_CONTEXTS = [ctx_classical(ZZ)] + [
    AlgebraContext(PiSequence.custom(ZZ, values)) for values in CUSTOM_PI
]
BASE_CHANGE_HORIZON = 14


def over(M, ring):
    """M with its presentation read over another ring, through to_json()."""
    obj = M.to_json()
    obj["context"]["ring"] = ring.to_json()
    return PresentedModule.from_json(AlgebraContext(PiSequence.from_json(obj["context"])), obj)


def p_primary(inv, p):
    """The p-power parts > 1 of the torsion factors of invariants over Z."""
    return sorted(p ** e for e in (multiplicity(p, t) for t in inv.torsion_factors) if e)


def invariants_by_degree(M, table):
    """(i, d) -> invariants of Tor_i for i <= 2, and ("piece", d) -> M_d."""
    R = M.context.ring
    out = {(i, d): tor_entry(table, i, d, R) for i in range(3)
           for d in range(M.min_degree(), BASE_CHANGE_HORIZON + 1)}
    out.update({("piece", d): M.piece_invariants(d) for d in range(BASE_CHANGE_HORIZON + 1)})
    return out


@settings(max_examples=120, deadline=None)
@given(small_modules(INTEGER_CONTEXTS))
def test_localization_commutes_with_tor_and_pieces(M):
    # localization is exact: over Z_(p) Tor_i and M_d keep the free rank
    # and the p-primary factors they have over Z; over Q the free rank.
    # So L0 and L over Z_(p) are the p-parts of those over Z, and L is
    # complete over Z_(p) when it is over Z (not conversely: a q-torsion
    # Tor entry at max_i vanishes over Z_(p))
    over_z = invariants_by_degree(M, tor(M, 2, BASE_CHANGE_HORIZON))
    l_over_z = l_invariant(M, 10, max_i=3)
    for ring in (Zloc(2), Zloc(3), QQ):
        N = over(M, ring)
        local = invariants_by_degree(N, tor(N, 2, BASE_CHANGE_HORIZON))
        for key, inv in over_z.items():
            got = local[key]
            assert got.free_rank == inv.free_rank, (ring.describe(), key)
            want = p_primary(inv, ring.p) if ring.kind == "Zloc" else []
            assert sorted(int(t) for t in got.torsion_factors) == want, (ring.describe(), key)
        if ring.kind == "Zloc":
            L = l_invariant(N, 10, max_i=3)
            for series in ("l0", "l"):
                p_part = {d: tuple(e for e in v if e[0] == ring.p)
                          for d, v in getattr(l_over_z, series).items()}
                want = {d: v for d, v in p_part.items() if v}
                assert getattr(L, series) == want, (ring.describe(), series)
            assert L.complete or not l_over_z.complete, ring.describe()


@settings(max_examples=300, deadline=None)
@given(small_modules(INTEGER_CONTEXTS))
def test_universal_coefficients_on_z_free_modules(M):
    # when every M_d is Z-free, a free resolution over Z reduces mod p to one
    # of M/p, so dim Tor_i over GF(p) = free rank of Tor_i over Z + the
    # p-divisible factors of Tor_i and of Tor_{i-1}
    if any(M.piece_invariants(d).torsion_factors for d in range(BASE_CHANGE_HORIZON + 1)):
        return
    over_z = tor(M, 2, BASE_CHANGE_HORIZON)
    for p in (2, 3):
        table = tor(over(M, GF(p)), 2, BASE_CHANGE_HORIZON)
        for i in range(3):
            for d in range(M.min_degree(), BASE_CHANGE_HORIZON + 1):
                # the entry of Tor_{-1} is 0
                inv, below = tor_entry(over_z, i, d, ZZ), tor_entry(over_z, i - 1, d, ZZ)
                want = inv.free_rank + len(p_primary(inv, p)) + len(p_primary(below, p))
                assert tor_entry(table, i, d, GF(p)).free_rank == want, (p, i, d)
