"""Tests for the degree-bound harness, (A2) checks, and the bivariate
counterexample."""

import math
import random
import sys

import pytest

from gdpakit import coeff_rings, graded_modules
from gdpakit.coeff_rings import GF, QQ, ZZ, PreconditionError, Zloc, Zmod
from gdpakit.coherence_lab import (
    BivariateElement,
    IdealSpec,
    a2_condition_check,
    bi_monomial,
    bivariate_counterexample,
    bivariate_xy_syzygy_generators,
    koszul_sanity,
    materialize_ideal,
    random_ideal_spec,
    run_random_bound_checks,
    t1_bound_check,
    torsion_bound_N,
)
from gdpakit.gdpa import AlgebraContext
from gdpakit.pi_core import PiSequence
from references import torsion_bound_N_every_index


def classical_ctx(ring):
    return AlgebraContext(PiSequence.classical(ring))


class TestIdealSpec:
    def test_chain_validated(self):
        ctx = classical_ctx(ZZ)
        IdealSpec(ctx, [[ZZ.from_int(4)], [ZZ.from_int(2)], [ZZ.from_int(1)]], 2)
        with pytest.raises(PreconditionError):
            IdealSpec(ctx, [[ZZ.from_int(2)], [ZZ.from_int(4)]], 1)

    def test_json(self):
        ctx = classical_ctx(ZZ)
        spec = IdealSpec(ctx, [[ZZ.from_int(6)], [ZZ.from_int(3)]], 1)
        js = spec.to_json()
        assert js["d"] == 1 and js["chain"] == [["6"], ["3"]]


class TestTorsionBoundN:
    def test_twelve_chain(self):
        ctx = classical_ctx(ZZ)
        spec = IdealSpec(ctx, [[ZZ.from_int(12)]] * 3, 2)
        assert torsion_bound_N(spec) == 12

    def test_unit_ideal(self):
        ctx = classical_ctx(ZZ)
        spec = IdealSpec(ctx, [[ZZ.from_int(1)]], 0)
        assert torsion_bound_N(spec) == 1

    def test_zero_ideal(self):
        ctx = classical_ctx(ZZ)
        spec = IdealSpec(ctx, [[ZZ.zero()], [ZZ.zero()]], 1)
        assert torsion_bound_N(spec) == 1

    def test_field_and_zmod_are_trivial(self):
        for ring in (GF(2), Zmod(4)):
            ctx = classical_ctx(ring)
            spec = IdealSpec(ctx, [[ring.from_int(2)]], 0)
            assert torsion_bound_N(spec) == 1

    def test_local_ring(self):
        ring = Zloc(2)
        ctx = classical_ctx(ring)
        spec = IdealSpec(ctx, [[ring.from_int(12)]], 0)
        # Z_(2)/12 = Z/4: exponent 4
        assert torsion_bound_N(spec) == 4

    def test_matches_the_every_index_loop(self):
        # a_i = a_d for i >= d, so the ideals a_0 .. a_d, each read once,
        # give the N of the 3d + 1 ideals a_0 .. a_3d
        specs = [spec for seed in (5, 6) for spec in boundcheck_specs(61, seed)]
        for ring in (ZZ, Zloc(2), Zloc(3)):
            ctx, rng = classical_ctx(ring), random.Random(31)
            specs += [random_ideal_spec(ctx, rng.randint(0, 5), rng) for _ in range(60)]
        Ns = [torsion_bound_N(spec) for spec in specs]
        assert Ns == [torsion_bound_N_every_index(spec) for spec in specs]
        assert len(set(Ns)) > 3


class TestT1BoundCheck:
    def test_free_principal_ideal(self):
        ctx = classical_ctx(ZZ)
        spec = IdealSpec(ctx, [[ZZ.zero()], [ZZ.from_int(1)]], 1)
        report = t1_bound_check(spec)
        assert report.computed_t1 is None
        assert report.passed

    def test_lemma_shape(self):
        # I = (2 x^[0], x^[1]): N = 2, bound (2N+3)*1 = 7
        ctx = classical_ctx(ZZ)
        spec = IdealSpec(ctx, [[ZZ.from_int(2)], [ZZ.from_int(1)]], 1)
        report = t1_bound_check(spec)
        assert report.N == 2 and report.bound == 7
        assert report.computed_t1 is not None
        assert report.passed

    def test_whole_ring(self):
        ctx = classical_ctx(ZZ)
        spec = IdealSpec(ctx, [[ZZ.from_int(1)]], 0)
        report = t1_bound_check(spec)
        assert report.computed_t1 is None and report.passed

    def test_zero_ideal(self):
        ctx = classical_ctx(ZZ)
        spec = IdealSpec(ctx, [[ZZ.zero()]], 0)
        report = t1_bound_check(spec)
        assert report.passed and report.generator_degrees == []

    def test_materialized_slices_match_chain(self):
        ctx = classical_ctx(ZZ)
        spec = IdealSpec(ctx, [[ZZ.from_int(4)], [ZZ.from_int(2)]], 1)
        gens = materialize_ideal(spec, 12)
        m = gens.as_map()
        # slice at degree 0 is 4Z, at degree 1 is 2Z
        from gdpakit.coeff_rings import cokernel_invariants

        # degree-n slice of D / I for small n
        M = __import__("gdpakit.graded_modules", fromlist=["PresentedModule"])
        quot = M.PresentedModule(m.target, m)
        assert quot.piece_invariants(0).torsion_factors == (ZZ.from_int(4),)
        assert quot.piece_invariants(1).torsion_factors == (ZZ.from_int(2),)

    def test_random_batch_passes(self):
        reports = run_random_bound_checks(seed=7, count=6, max_d=3)
        assert all(rep.passed for _, rep in reports)

    def test_integer_kernel_entries_stay_below_64_bits(self, monkeypatch):
        # The syzygies of a bound check come from integer kernels of 1 x k
        # rows (k <= 4) of binomials times chain coefficients: 30 bits at
        # most in and out here, 31 on the benchmark's specs.  64 bits leaves
        # room for the largest binomials and flags growth in the elimination.
        # The U^-1 of quotient_generators has entries of at most 7 bits
        # here, as the Smith form of U gave it; 8 bits flags growth there.
        # A degree takes a kernel only while the syzygies found below do not
        # span it: 54 kernels here, 2,138 when every degree took one.
        smith = coeff_rings._smith
        bits = {"V": [], "W": []}

        def watched(m, want):
            out = smith(m, want)
            if want == "V" and m.ring == ZZ:
                bits["V"].append(max((abs(x).bit_length() for v in (*m.entries, *out)
                                      for x in v), default=0))
            if want == "W":
                bits["W"].append(max((abs(x).bit_length() for v in out[1] for x in v),
                                     default=0))
            return out

        monkeypatch.setattr(coeff_rings, "_smith", watched)
        reports = run_random_bound_checks(seed=1, count=12)
        assert all(rep.passed for _, rep in reports)
        assert 0 < len(bits["V"]) <= 100 and len(bits["W"]) > 50
        assert max(bits["V"]) <= 64
        assert max(bits["W"]) <= 8


def boundcheck_specs(count, seed):
    """Specs as the boundcheck-zz benchmark draws them: a chain a_0,
    gcd(a_0, r_1), ... over Z with r_i uniform in [0, 60], d = 1 + a_0 % 4,
    each generator with a random sign."""
    ctx = classical_ctx(ZZ)
    rng = random.Random(seed)
    specs = []
    for a0 in rng.sample(range(61), count):
        chain = [a0]
        for _ in range(1 + a0 % 4):
            chain.append(math.gcd(chain[-1], rng.randint(0, 60)))
        specs.append(IdealSpec(ctx, [[rng.choice((1, -1)) * g] for g in chain], len(chain) - 1))
    return specs


def test_bound_check_scan_asks_every_degree(monkeypatch):
    # no stopping rule is proved, so the syzygy scan of a bound check asks
    # for the slice's row once in every degree from the lowest generator
    # degree to bound + margin, past the last new syzygy too
    degreewise = graded_modules._degreewise_generators
    scans = []

    def watched(ambient, degree_bound, candidates, row=None):
        asked = []
        scans.append((ambient.degrees, degree_bound, asked))
        return degreewise(ambient, degree_bound, candidates, lambda d: asked.append(d) or row(d))

    monkeypatch.setattr(graded_modules, "_degreewise_generators", watched)
    for spec in boundcheck_specs(8, 22):
        scans.clear()
        report = t1_bound_check(spec)
        assert report.passed and report.horizon == report.bound + 4
        [(degrees, bound, asked)] = scans
        assert list(degrees) == report.generator_degrees and bound == report.horizon
        assert asked == list(range(min(degrees), report.horizon + 1))


def test_bound_check_scan_stops_building_images_once_they_span(monkeypatch):
    # a degree whose row has one entry (m = 1) has kernel 0, which the empty
    # lattice spans, so it takes no kernel; in the others the old syzygies'
    # images are built one at a time and stop once they span the row's
    # kernel, so fewer are built than the every-degree scan builds
    kernel_basis, images = graded_modules.kernel_basis, graded_modules.FreeGradedModule.images
    widths, offered, built = [], [], []

    def watched_kernel(A):
        widths.append(A.cols)
        return kernel_basis(A)

    def watched_images(F, generators, d):
        if sys._getframe(1).f_code.co_name == "_row_kernel_images":
            generators = list(generators)
            offered.append(len(generators))
            return (built.append(d) or v for v in images(F, generators, d))
        return images(F, generators, d)

    monkeypatch.setattr(graded_modules, "kernel_basis", watched_kernel)
    monkeypatch.setattr(graded_modules.FreeGradedModule, "images", watched_images)
    for spec in boundcheck_specs(12, 5):
        assert t1_bound_check(spec).passed
    assert widths and 1 not in widths
    assert 0 < len(built) < sum(offered)


class TestA2Check:
    def test_z_six(self):
        out = a2_condition_check(ZZ, [ZZ.from_int(6)], 1)
        assert out["verdict"] == "bounded" and out["n"] == 6
        assert out["annihilator"] == "6"

    def test_field(self):
        out = a2_condition_check(GF(5), [GF(5).from_int(2)], 1)
        assert out["verdict"] == "bounded" and out["n"] == 1

    def test_zero_ideal(self):
        out = a2_condition_check(ZZ, [ZZ.zero()], 1)
        assert out["verdict"] == "bounded" and out["n"] == 1

    def test_local_transform(self):
        ring = Zloc(2)
        out = a2_condition_check(ring, [ring.from_int(8)], 2)
        assert out["verdict"] == "bounded" and out["n"] == 8


class TestBivariate:
    def test_multiplication_carries(self):
        ctx = classical_ctx(ZZ)
        x1 = bi_monomial(ctx, 1, 0)
        sq = x1.mul(x1)
        assert sq.terms == {(2, 0): ZZ.from_int(2)}
        y1 = bi_monomial(ctx, 0, 1)
        mixed = x1.mul(y1)
        assert mixed.terms == {(1, 1): ZZ.from_int(1)}

    @pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (2, 3), (3, 1)])
    def test_counterexample(self, p, r):
        report = bivariate_counterexample(p, r)
        assert report["identity_holds"]
        assert report["syzygy_not_generated_below"]
        assert (p**r, p**r) in report["generator_bidegrees"]

    def test_scope_limit(self):
        with pytest.raises(PreconditionError):
            bivariate_counterexample(2, 5)

    def test_koszul_sanity(self):
        out = koszul_sanity(box=5)
        assert out["exactly_one_koszul"]
        assert out["generator_bidegrees"] == [(1, 1)]

    def test_syzygy_generators_over_field(self):
        # over GF(2), y^[1] y^[1] = 0 already in bidegree (0,2): those early
        # syzygies generate everything above (no diagonal corner generators,
        # unlike the Z_(2) case)
        ctx = classical_ctx(GF(2))
        gens = bivariate_xy_syzygy_generators(ctx, 4)
        degs = [(a, b) for a, b, _ in gens]
        assert sorted(degs) == [(0, 2), (1, 1), (2, 0)]
