"""Tests for special modules, special resolutions, filtration certificates,
and the H / L class invariants."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gdpakit.coeff_rings import (
    GF,
    QQ,
    ZZ,
    Lattice,
    ModuleInvariants,
    PreconditionError,
    Zloc,
    Zmod,
    invariants_from_factors,
)
from gdpakit.gdpa import AlgebraContext
from gdpakit.graded_modules import (
    FreeGradedModule,
    ModuleMap,
    PresentedModule,
    principal_special_module,
)
from gdpakit.pi_core import PiSequence
from gdpakit.resolutions_k import (
    SpecialBlock,
    SpecialFiltrationCertificate,
    SpecialResolution,
    check_mah_relation,
    h_invariant,
    ideal_contains,
    ideal_invariants,
    ktors_demo,
    l_invariant,
    make_special,
    minimal_image_generators,
    special_resolve_field,
    verify_special_filtration,
)
from references import random_field_module, shifted_module, sp1_hand_filtration


def classical_ctx(ring):
    return AlgebraContext(PiSequence.classical(ring))


def all_ones_ctx(ring):
    return AlgebraContext(PiSequence.all_ones(ring))


class TestSpecialBlocks:
    def test_ideal_contains(self):
        assert ideal_contains(ZZ, [ZZ.from_int(4), ZZ.from_int(6)], ZZ.from_int(2))
        assert not ideal_contains(ZZ, [ZZ.from_int(4)], ZZ.from_int(2))
        assert ideal_contains(ZZ, [], ZZ.zero())
        assert not ideal_contains(ZZ, [], ZZ.from_int(3))

    @pytest.mark.parametrize("ring", [ZZ, GF(2), Zmod(6), Zloc(2)], ids=lambda R: R.describe())
    def test_ideal_without_generators_is_the_zero_ideal(self, ring):
        # k/(no generators) = k/(0) = k^1
        assert ideal_invariants(ring, []) == ideal_invariants(ring, [0])
        assert ideal_invariants(ring, []) == ModuleInvariants(ring, 1, ())
        cert = SpecialFiltrationCertificate([SpecialBlock([], 2)])
        assert list(cert.expected_pieces(ring, [3, 4])) == [
            ModuleInvariants(ring, 0, ()), ModuleInvariants(ring, 1, ())]

    def test_expected_piece_over_zmod_keeps_coprime_blocks_free(self):
        # Z/6/(2) + Z/6/(3) = Z/6
        cert = SpecialFiltrationCertificate([SpecialBlock([2], 1), SpecialBlock([3], 1)])
        assert list(cert.expected_pieces(Zmod(6), [0])) == [ModuleInvariants(Zmod(6), 1, ())]

    def test_make_special_requires_pi_h_in_ideal(self):
        ctx = classical_ctx(ZZ)
        # pi_2 = 2 is not in (3)
        with pytest.raises(PreconditionError):
            make_special(ctx, SpecialBlock([ZZ.from_int(3)], 2))
        M = make_special(ctx, SpecialBlock([ZZ.from_int(2)], 2))
        assert M.piece_invariants(2).torsion_factors == (ZZ.from_int(2),)
        assert M.piece_invariants(3).is_zero

    def test_h_one_is_cyclic_quotient(self):
        ctx = classical_ctx(ZZ)
        M = make_special(ctx, SpecialBlock([ZZ.from_int(2)], 1))
        for d in range(0, 8):
            assert M.piece_invariants(d).torsion_factors == (ZZ.from_int(2),)

    def test_shifted_block(self):
        ctx = classical_ctx(GF(2))
        M = make_special(ctx, SpecialBlock([GF(2).zero()], 2, shift=3))
        assert M.piece_invariants(3).free_rank == 1
        assert M.piece_invariants(4).is_zero
        assert M.piece_invariants(5).free_rank == 1


class TestFiltrationCertificates:
    @pytest.mark.parametrize("p", [2, 3])
    def test_sp1_hand_filtration(self, p):
        ctx = classical_ctx(GF(p))
        I, cert = sp1_hand_filtration(ctx, p)
        ok, witness = verify_special_filtration(I, cert, 4 * p)
        assert ok, f"witness degree {witness}"
        assert [b.shift for b in cert.blocks] == list(range(1, p))
        assert all(b.h == p for b in cert.blocks)

    def test_negative_control_wrong_h(self):
        ctx = classical_ctx(GF(2))
        M = make_special(ctx, SpecialBlock([GF(2).zero()], 2))
        bad = SpecialFiltrationCertificate([SpecialBlock([GF(2).zero()], 3)])
        ok, witness = verify_special_filtration(M, bad, 12)
        assert not ok
        assert witness is not None

    def test_block_ideals_computed_once_per_call(self, monkeypatch):
        # k/(ideal) is computed once per distinct ideal, and M's relation
        # slice is built at every checked degree (1..20) that has no prefix
        # slice
        import gdpakit.resolutions_k as rk

        ctx = classical_ctx(GF(3))
        I, cert = sp1_hand_filtration(ctx, 3)
        prefix = {d: I.relations.slice_columns(d) for d in range(1, 8)}
        for slices, built in ((None, list(range(1, 21))), (prefix, list(range(8, 21)))):
            ideals, sliced = [], []
            ideal_invariants_, slice_columns = rk.ideal_invariants, I.relations.slice_columns

            def counted_ideal(*args):
                ideals.append(args)
                return ideal_invariants_(*args)

            def counted_slice(d):
                sliced.append(d)
                return slice_columns(d)

            with monkeypatch.context() as m:
                m.setattr(rk, "ideal_invariants", counted_ideal)
                m.setattr(I.relations, "slice_columns", counted_slice)
                assert verify_special_filtration(I, cert, 20, slices) == (True, None)
            distinct = {tuple(GF(3).canon(g) for g in b.ideal_generators) for b in cert.blocks}
            assert len(ideals) == len(distinct) < len(cert.blocks)
            assert sorted(gens for _, gens in ideals) == sorted(distinct)
            assert sliced == built

    def test_repeated_slice_is_still_checked_against_its_own_degree(self):
        # D free on one generator at 0 over GF(2): every slice is empty on a
        # rank-1 F0_d, so each degree's piece comes from the memo of degree
        # 0.  A certificate that misses only degree 5 must fail there.
        ctx = classical_ctx(GF(2))
        M = PresentedModule.from_columns(ctx, [0], [], [])
        blocks = [SpecialBlock([GF(2).zero()], 9, shift=s) for s in range(9)]
        assert verify_special_filtration(M, SpecialFiltrationCertificate(blocks), 8) == (True, None)
        bad = SpecialFiltrationCertificate([b for b in blocks if b.shift != 5])
        assert verify_special_filtration(M, bad, 8) == (False, 5)

    def test_negative_control_wrong_shift(self):
        ctx = classical_ctx(GF(3))
        I, cert = sp1_hand_filtration(ctx, 3)
        bad = SpecialFiltrationCertificate(
            [SpecialBlock(b.ideal_generators, b.h, b.shift + 1) for b in cert.blocks]
        )
        ok, witness = verify_special_filtration(I, bad, 12)
        assert not ok


@st.composite
def certificates(draw):
    """A ring among Z, Z/6, GF(3), Z_(2), a certificate of 0-4 blocks over
    it (ideals with no generator, zero, unit or torsion generators; h 1-5,
    shifts -4..6, multiplicities 1-3), and degrees from below the first
    shift."""
    ring = draw(st.sampled_from([ZZ, Zmod(6), GF(3), Zloc(2)]))
    blocks = [
        SpecialBlock(
            [ring.from_int(c) for c in draw(st.lists(st.integers(0, 12), max_size=2))],
            draw(st.integers(1, 5)), draw(st.integers(-4, 6)), draw(st.integers(1, 3)))
        for _ in range(draw(st.integers(0, 4)))
    ]
    lo = min([b.shift for b in blocks], default=0) - draw(st.integers(0, 3))
    return ring, SpecialFiltrationCertificate(blocks), range(lo, lo + draw(st.integers(0, 20)))


@settings(max_examples=150, deadline=None)
@given(certificates())
def test_expected_pieces_match_the_per_degree_sum(drawn):
    # each degree's expected piece, summed the plain way: the direct sum of
    # one k/(ideal) per copy of every block that sits at that degree
    ring, cert, degrees = drawn
    want = []
    for e in degrees:
        free, factors = 0, []
        for b in cert.blocks:
            if e >= b.shift and (e - b.shift) % b.h == 0:
                inv = ideal_invariants(ring, b.ideal_generators)
                free += b.multiplicity * inv.free_rank
                factors += b.multiplicity * list(inv.torsion_factors)
        want.append(invariants_from_factors(ring, free, factors))
    assert list(cert.expected_pieces(ring, degrees)) == want


def _mult_vector(ctx, F0, d_from, j, vec):
    """Coordinates of x^[j] * v at degree d_from + j, v given at d_from."""
    R = ctx.ring
    src = F0.basis(d_from)
    tgt = F0.basis(d_from + j)
    col_of = {i: c for c, (i, _) in enumerate(tgt)}
    out = [R.zero()] * len(tgt)
    for c, (i, s) in enumerate(src):
        v = vec[c]
        if not R.is_zero(v):
            coeff = R.mul(v, ctx.C(s + j, j))
            if not R.is_zero(coeff):
                out[col_of[i]] = R.add(out[col_of[i]], coeff)
    return out


def _reference_resolve_adic(M, h, horizon):
    """The adic filtration computed the plain way: fresh spans and slices at
    every step, every j, and one product at a time."""
    ctx = M.context
    R = ctx.ring
    F0 = M.generators
    dmin = M.min_degree()
    degrees = range(dmin, horizon + 1)
    rel_dims = {}

    def fresh_spans():
        out = {}
        for d in degrees:
            span = Lattice(R, len(F0.basis(d)))
            pd = M.relations.slice(d)
            for j in range(pd.cols):
                span.insert([pd.entries[i][j] for i in range(pd.rows)])
            rel_dims[d] = span.rank
            out[d] = span
        return out

    s0 = fresh_spans()
    v0 = {}
    for d in degrees:
        dim = len(F0.basis(d))
        v0[d] = []
        for i in range(dim):
            e = [R.zero()] * dim
            e[i] = R.one()
            if s0[d].insert(e):
                v0[d].append(e)
    spans, vectors = [s0], [v0]

    def mdim(t, d):
        return spans[t][d].rank - rel_dims[d]

    t = 0
    while any(mdim(t, d) > 0 for d in degrees):
        t += 1
        assert t <= horizon + 1
        st_, vt = fresh_spans(), {d: [] for d in degrees}
        for d in degrees:
            for j in range(1, d - dmin + 1):
                source = vectors[t - 1][d - j] if j % h != 0 else vt[d - j]
                for vec in source:
                    w = _mult_vector(ctx, F0, d - j, j, vec)
                    if st_[d].insert(w):
                        vt[d].append(w)
        spans.append(st_)
        vectors.append(vt)
    T = t
    blocks = []
    for t in range(T):
        l = {}
        for d in degrees:
            layer = mdim(t, d) - mdim(t + 1, d) if t + 1 <= T else mdim(t, d)
            acc = layer - sum(l.get(d - q * h, 0) for q in range(1, (d - dmin) // h + 1))
            assert acc >= 0
            if acc:
                l[d] = acc
                blocks.append(SpecialBlock([R.zero()], h, shift=d, multiplicity=acc))
    return SpecialResolution(
        module=M, r=0, free_part=[], certificate=SpecialFiltrationCertificate(blocks),
        horizon=horizon, h=h,
        notes=f"adic filtration with {len(blocks)} block groups, depth {T}",
    )


# admissible custom pi-sequences with zeros (each zero set is a divisor chain)
CUSTOM_ZEROS = [{3: 0, 9: 0}, {2: 0, 6: 0}, {4: 0, 8: 0}, {2: 0, 4: 0, 8: 0, 16: 0}]


def field_pis(R):
    """Classical, every cyclotomic_at(R, q0) with q0 != 0, 1, and the custom
    pi-sequences of CUSTOM_ZEROS over the field R."""
    return ([PiSequence.classical(R)]
            + [PiSequence.cyclotomic_at(R, q0) for q0 in range(2, R.n)]
            + [PiSequence.custom(R, zeros) for zeros in CUSTOM_ZEROS])


@st.composite
def field_modules(draw):
    """Random presented modules over GF(2), GF(3), GF(5), GF(7) (the test_10
    recipe of the acceptance suite), with classical, cyclotomic_at or custom
    pi."""
    R = GF(draw(st.sampled_from([2, 3, 5, 7])))
    ctx = AlgebraContext(draw(st.sampled_from(field_pis(R))))
    gdegs = sorted(draw(st.lists(st.integers(0, 6), min_size=1, max_size=3)))
    cols, rdegs = [], []
    for _ in range(draw(st.integers(0, 3))):
        rdeg = draw(st.integers(gdegs[0], 6))
        col = {}
        for i, g in enumerate(gdegs):
            c = draw(st.integers(0, ctx.ring.n - 1))
            if g <= rdeg and c:
                col[i] = ctx.x(rdeg - g, coeff=ctx.ring.from_int(c))
        if col:
            cols.append(col)
            rdegs.append(rdeg)
    return PresentedModule.from_columns(ctx, gdegs, cols, rdegs)


@settings(max_examples=200, deadline=None)
@given(field_modules(), st.integers(8, 40))
def test_adic_resolution_matches_reference(M, horizon):
    # the resolver takes the adic path when pi has a zero h past the
    # presentation degrees less the lowest generator degree, here sought
    # within the horizon; in most draws the top degree of N, max g + h - 1,
    # lies below the horizon, where the resolver stops its filtration and
    # the reference does not
    first = max(2, M.max_presentation_degree() - M.min_degree() + 1)
    h = next((z for z in M.context.pi.zero_degrees(horizon) if z >= first), None)
    assume(h is not None)
    res = special_resolve_field(M, horizon=horizon)
    assert res.to_json() == _reference_resolve_adic(M, h, horizon).to_json()


@settings(max_examples=200, deadline=None)
@given(field_modules(), st.integers(8, 40), st.integers(-6, 6))
def test_special_resolution_shifts_with_the_module(M, horizon, s):
    # D acts through degree differences, so M shifted by s, at horizon + s,
    # gets the same h and r, and the blocks and free parts shifted by s
    try:
        res = special_resolve_field(M, horizon)
    except PreconditionError:
        with pytest.raises(PreconditionError):
            special_resolve_field(shifted_module(M, s), horizon + s)
        return
    moved = special_resolve_field(shifted_module(M, s), horizon + s)
    assert (moved.r, moved.h) == (res.r, res.h)
    assert moved.free_part == [[g + s for g in part] for part in res.free_part]
    assert moved.certificate.blocks == [
        SpecialBlock(b.ideal_generators, b.h, b.shift + s, b.multiplicity)
        for b in res.certificate.blocks]


def test_special_gfp_recipe_matches_reference_at_horizon_80():
    # the benchmark's recipe and horizon: h is a power of p up to 9, so the
    # filtration stops by degree 14 of 80
    rng = random.Random(80)
    for p in (2, 3):
        ctx = classical_ctx(GF(p))
        for _ in range(12):
            M = random_field_module(ctx, rng)
            res = special_resolve_field(M, horizon=80)
            assert max(M.generators.degrees) + res.h - 1 <= 14
            assert res.to_json() == _reference_resolve_adic(M, res.h, 80).to_json()


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("horizon", [0, 1, 8, 40])
def test_module_without_generators_resolves(p, horizon):
    M = PresentedModule.from_columns(classical_ctx(GF(p)), [], [], [])
    res = special_resolve_field(M, horizon=horizon)
    assert res.r == 0 and res.certificate.blocks == []
    assert res.to_json() == _reference_resolve_adic(M, res.h, horizon).to_json()


def test_relation_slices_built_once_and_no_span_above_the_top_of_n(monkeypatch):
    # generators at 0 and 3, a relation at 5: over GF(2) h = 8, and N's top
    # degree is 3 + 8 - 1 = 10.  The filtration spans degrees 0..10 only,
    # and its relation slices serve the check at every degree up to 40.
    import gdpakit.resolutions_k as rk

    ctx = classical_ctx(GF(2))
    M = PresentedModule.from_columns(ctx, [0, 3], [{0: ctx.x(5), 1: ctx.x(2)}], [5])
    slice_degree, sliced, spans = {}, [], []
    slice_columns = M.relations.slice_columns

    def counted_slice(d):
        cols = slice_columns(d)
        slice_degree[id(cols)] = d
        sliced.append(d)
        return cols

    def counted_span(R, dim, vectors=()):
        spans.append(slice_degree[id(vectors)])
        return Lattice(R, dim, vectors)

    monkeypatch.setattr(M.relations, "slice_columns", counted_slice)
    monkeypatch.setattr(rk, "Lattice", counted_span)
    res = special_resolve_field(M, horizon=40)
    assert res.h == 8
    assert sorted(sliced) == list(range(41))
    assert set(spans) == set(range(11))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_adic_generators_are_the_greedy_closure(p):
    # the greedy closure keeps j with h ∤ j unless C(j, g) != 0 for a kept
    # g, i.e. unless x^[j] is a multiple of x^[g]; the x^[j] it keeps
    # generate (x^[j] : h ∤ j) by construction
    for pi in field_pis(GF(p)):
        ctx = AlgebraContext(pi)
        for h in pi.zero_degrees(79):
            greedy = []
            for j in range(1, 121):
                if j % h and all(ctx.ring.is_zero(ctx.C(j, g)) for g in greedy):
                    greedy.append(j)
            assert [j for j in ctx.dplus_generator_degrees(120) if j % h] == greedy, (pi, h)


class TestSpecialResolveAdic:
    def test_principal_block_recovered(self):
        ctx = classical_ctx(GF(2))
        M = make_special(ctx, SpecialBlock([GF(2).zero()], 2))
        res = special_resolve_field(M, horizon=24)
        assert res.r == 0
        assert res.h == 2
        assert [(b.h, b.shift, b.multiplicity) for b in res.certificate.blocks] == [
            (2, 0, 1)
        ]

    def test_free_module_decomposes(self):
        # D = D^(2) tensor D_{<2} over GF(2): blocks M((0),2) at shifts 0, 1
        ctx = classical_ctx(GF(2))
        res = special_resolve_field(PresentedModule.from_columns(ctx, [0], [], []), horizon=20)
        assert res.r == 0
        assert sorted(b.shift for b in res.certificate.blocks) == [0, 1]
        assert all(b.h == 2 and b.multiplicity == 1 for b in res.certificate.blocks)

    def test_two_generator_module(self):
        ctx = classical_ctx(GF(3))
        # D[-1] + a principal special summand
        f0 = FreeGradedModule(ctx, [0, 1])
        f1 = FreeGradedModule(ctx, [1])
        rel = ModuleMap(f1, f0, [{0: ctx.x(1)}])
        M = PresentedModule(f0, rel)
        res = special_resolve_field(M, horizon=24)
        assert res.r == 0
        ok, witness = verify_special_filtration(M, res.certificate, 24)
        assert ok, f"witness degree {witness}"

    @pytest.mark.parametrize("horizon", [10, 12, 24, 25])
    def test_zero_of_pi_past_the_horizon(self, horizon):
        # over GF(5) the classical pi vanishes at 5 and 25; D/(x^[6]) has a
        # syzygy at degree 10 (C(10, 4) = 0), which the free-kernel path
        # cannot resolve, so the resolver must split at h = 25 even when the
        # horizon stops short of it
        ctx = classical_ctx(GF(5))
        f0 = FreeGradedModule(ctx, [0])
        M = PresentedModule(f0, ModuleMap(FreeGradedModule(ctx, [6]), f0, [{0: ctx.x(6)}]))
        res = special_resolve_field(M, horizon=horizon)
        assert res.r == 0 and res.h == 25
        assert res.to_json() == _reference_resolve_adic(M, 25, horizon).to_json()
        ok, witness = verify_special_filtration(M, res.certificate, horizon)
        assert ok, f"witness degree {witness}"

    def test_sp1_via_resolver(self):
        ctx = classical_ctx(GF(2))
        I, _ = sp1_hand_filtration(ctx, 2)
        res = special_resolve_field(I, horizon=20)
        assert res.r == 0
        # the resolver picks a zero of pi past the presentation degrees, so it
        # may refine M((0),2)[-1] into D^(h)-blocks for a larger 2-power h;
        # the graded pieces (dim 1 in each odd degree) must still match
        assert all(b.h == res.h and b.h % 2 == 0 for b in res.certificate.blocks)
        ok, witness = verify_special_filtration(I, res.certificate, 20)
        assert ok, f"witness degree {witness}"


class TestSpecialResolveFreeKernel:
    def test_polynomial_regime_cyclic(self):
        # all-ones over Q: D = Q[x]; D/(x) has free kernel (x) = D[-1]
        ctx = all_ones_ctx(QQ)
        f0 = FreeGradedModule(ctx, [0])
        rel = ModuleMap(FreeGradedModule(ctx, [1]), f0, [{0: ctx.x(1)}])
        M = PresentedModule(f0, rel)
        res = special_resolve_field(M, horizon=20)
        assert res.r == 1
        assert [b.shift for b in res.certificate.blocks] == [1]
        assert all(b.h == 1 for b in res.certificate.blocks)

    def test_already_free(self):
        ctx = all_ones_ctx(QQ)
        res = special_resolve_field(PresentedModule.from_columns(ctx, [0, 2], [], []), horizon=16)
        assert res.r == 0
        assert sorted(b.shift for b in res.certificate.blocks) == [0, 2]
        # a zero relation leaves the module free on its generators: D with
        # 0 e over Q (the CLI's --ideal '[0]' --h 1), and generators 0, 2
        # with 0 at degree 3 over GF(5), resolve as without it
        gf5 = all_ones_ctx(GF(5))
        for M, free in (
            (make_special(classical_ctx(QQ), SpecialBlock([QQ.zero()], 1)),
             PresentedModule.from_columns(classical_ctx(QQ), [0], [], [])),
            (PresentedModule.from_columns(gf5, [0, 2], [{}], [3]),
             PresentedModule.from_columns(gf5, [0, 2], [], [])),
        ):
            assert M.relations.source.n_gens == 1
            want = special_resolve_field(free, horizon=16).to_json()
            assert special_resolve_field(M, horizon=16).to_json() == want

    def test_requires_field(self):
        ctx = classical_ctx(ZZ)
        with pytest.raises(PreconditionError):
            special_resolve_field(PresentedModule.from_columns(ctx, [0], [], []), horizon=10)


class TestMinimalImageGenerators:
    def test_redundant_column_dropped(self):
        # over Q[x], the image of (x, x^2) is (x): one generator in degree 1
        ctx = all_ones_ctx(QQ)
        f0 = FreeGradedModule(ctx, [0])
        g = ModuleMap(
            FreeGradedModule(ctx, [1, 2]), f0, [{0: ctx.x(1)}, {0: ctx.x(2)}]
        )
        gens = minimal_image_generators(g, 12)
        assert gens.degrees() == [1]


class TestHInvariant:
    def test_free_rank_stream(self):
        ctx = classical_ctx(ZZ)
        H = h_invariant(PresentedModule.from_columns(ctx, [0], [], []), 20)
        assert all(H.coeff(d) == 1 for d in range(0, 21))
        assert H.fit is not None and H.fit["period"] == 1 and H.fit["block"] == [1]

    def test_finite_module_class_vanishes(self):
        # D/2D over Z: every piece is Z/2, rank 0, so H-class is 0 in K(Z)
        ctx = classical_ctx(ZZ)
        H = h_invariant(make_special(ctx, SpecialBlock([ZZ.from_int(2)], 1)), 20)
        assert H.coeffs == {}

    def test_veronese_period(self):
        # pi_4 = 0 over GF(2), so M((0),4) = D^(4) is legitimate there
        ctx = classical_ctx(GF(2))
        H = h_invariant(make_special(ctx, SpecialBlock([GF(2).zero()], 4)), 24)
        assert [H.coeff(d) for d in range(9)] == [1, 0, 0, 0, 1, 0, 0, 0, 1]
        assert H.fit["period"] == 4

    @pytest.mark.parametrize("gens,h,k", [([2], 2, 1), ([2], 4, 2)])
    def test_mah_relation(self, gens, h, k):
        ctx = classical_ctx(ZZ)
        assert check_mah_relation(ctx, [ZZ.from_int(g) for g in gens], h, k, 24)

    def test_mah_relation_zero_ideal(self):
        # over GF(2) the zero ideal contains pi_2 = pi_4 = 0
        ctx = classical_ctx(GF(2))
        assert check_mah_relation(ctx, [GF(2).zero()], 4, 2, 24)


class TestLInvariant:
    def test_free_module_has_zero_l(self):
        ctx = classical_ctx(Zloc(2))
        L = l_invariant(PresentedModule.from_columns(ctx, [0], [], []), horizon=8)
        assert L.is_zero()
        assert L.complete

    def test_cyclic_quotient_closed_form(self):
        # L_{D/pD} = [F_p]_+ / (1 - t)
        ring = Zloc(2)
        ctx = classical_ctx(ring)
        M = make_special(ctx, SpecialBlock([ring.from_int(2)], 1))
        L = l_invariant(M, horizon=8)
        assert L.matches_closed_form(((2, 1),), 1)

    def test_principal_special_closed_form(self):
        # L_{M((p), p)} = [F_p]_+ / (1 - t^p)
        ring = Zloc(2)
        ctx = classical_ctx(ring)
        M = make_special(ctx, SpecialBlock([ring.from_int(2)], 2))
        L = l_invariant(M, horizon=10)
        assert not L.is_zero()
        assert L.matches_closed_form(((2, 1),), 2)
        assert L.fit is not None and L.fit["period"] == 2

    def test_additive_on_torsion_ses(self):
        # 0 -> pD/p^2 D -> D/p^2 D -> D/pD -> 0, all torsion: L is additive
        ring = Zloc(3)
        ctx = classical_ctx(ring)
        L4 = l_invariant(
            make_special(ctx, SpecialBlock([ring.from_int(9)], 1)), horizon=6
        )
        L2 = l_invariant(
            make_special(ctx, SpecialBlock([ring.from_int(3)], 1)), horizon=6
        )
        for d in range(0, 7):
            doubled = {p: 2 * n for p, n in L2.l_coeff(d)}
            assert dict(L4.l_coeff(d)) == doubled

    def test_requires_z_or_local(self):
        ctx = classical_ctx(GF(2))
        with pytest.raises(PreconditionError):
            l_invariant(PresentedModule.from_columns(ctx, [0], [], []), horizon=6)


class TestKtorsDemo:
    @pytest.mark.parametrize("p", [2, 3])
    def test_torsion_class_phenomenon(self, p):
        report = ktors_demo(p, p, horizon=max(8, 2 * p + 2))
        assert report["h_class_of_D_mod_pD_is_zero"]
        assert report["l_series_nonzero"]
        assert report["l_matches_closed_form"]
        assert "ktors demo" in report["text"]

    def test_degenerate_h_one(self):
        report = ktors_demo(2, 1, horizon=6)
        assert "no torsion phenomenon" in report["note"]

    def test_h_must_be_power_of_p(self):
        with pytest.raises(PreconditionError):
            ktors_demo(2, 3)
