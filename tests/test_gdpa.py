import random

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from gdpakit.coeff_rings import GF, QQ, ZZ, Zloc, Zmod, PreconditionError
from gdpakit.gdpa import (
    AlgebraContext,
    GdpaElement,
    NotAGdpaError,
    StructureConstants,
    associate_scaling,
    recover_pi,
    regrade_units,
)
from gdpakit.pi_core import PiSequence, c_binomial
from references import (
    DivisibleSequence,
    base_carry_count,
    cyclic_module_invariants,
    field_multiply_by_carries,
    tor1_closed_form,
)


def random_never_zero_pi(ring, rng, up_to, choices):
    vals = {n: rng.choice(choices) for n in range(2, up_to + 1)}
    return PiSequence.custom(ring, vals, default=ring.one())


# local rings, each with some units and some non-units
LOCAL_RINGS = [
    (Zloc(2), [1, -1, 3, Fraction(5, 3)], [0, 2, 6, Fraction(4, 3)]),
    (Zloc(3), [1, -1, 2, Fraction(4, 5)], [0, 3, 6, Fraction(9, 2)]),
    (GF(5), [1, 2, 3, 4], [0]),
    (Zmod(8), [1, 3, 5, 7], [0, 2, 4, 6]),
]


@st.composite
def admissible_local_pis(draw):
    """(ring, N, pi): a custom pi over a local ring, admissible because its
    nonunit degrees form a divisibility chain b_1 | b_2 | ..., N in [4, 10]."""
    ring, units, nonunits = draw(st.sampled_from(LOCAL_RINGS))
    N = draw(st.integers(4, 10))
    chain, b = set(), draw(st.integers(2, 4))
    while b <= N:
        chain.add(b)
        b *= draw(st.integers(2, 3))
    vals = {n: ring.canon(draw(st.sampled_from(nonunits if n in chain else units)))
            for n in range(2, N + 1)}
    return ring, N, PiSequence.custom(ring, vals)


# ---------------------------------------------------------------------------
# element arithmetic
# ---------------------------------------------------------------------------


class TestElements:
    def test_x1_squared_classical_integers(self):
        ctx = AlgebraContext(PiSequence.classical(ZZ))
        p = ctx.x(1).mul(ctx.x(1))
        assert p.eq(ctx.x(2, 2))

    def test_x1_squared_vanishes_mod_2(self):
        ctx = AlgebraContext(PiSequence.classical(GF(2)))
        assert ctx.x(1).mul(ctx.x(1)).is_zero

    def test_binomial_coefficients_appear(self):
        ctx = AlgebraContext(PiSequence.classical(ZZ))
        # x^[2] * x^[3] = C(5,2) x^[5] = 10 x^[5]
        assert ctx.x(2).mul(ctx.x(3)).eq(ctx.x(5, 10))

    def test_one_is_identity(self):
        ctx = AlgebraContext(PiSequence.classical(GF(3)))
        e = GdpaElement(ctx, {0: 2, 4: 1, 7: 2})
        assert ctx.x(0).mul(e).eq(e)
        assert e.mul(ctx.x(0)).eq(e)

    def test_add_sub_scale(self):
        ctx = AlgebraContext(PiSequence.all_ones(ZZ))
        e = GdpaElement(ctx, {1: 2, 3: -1})
        f = GdpaElement(ctx, {1: -2, 2: 5})
        s = e.add(f)
        assert s.eq(GdpaElement(ctx, {2: 5, 3: -1}))
        assert s.add(f.scale(-1)).eq(e)
        assert e.scale(3).eq(GdpaElement(ctx, {1: 6, 3: -3}))

    def test_commutative_associative_random(self):
        # x^[a] x^[b] = C(a + b, b) x^[a + b], so the product is commutative
        # exactly when C(n, m) = C(n, n - m), and associative exactly when
        # C(b + c, c) C(a + b + c, b + c) = C(a + b, b) C(a + b + c, c); both
        # hold for every pi, admissible or not (two of these three are not)
        rng = random.Random(7)
        for ring in (ZZ, GF(5), Zloc(3)):
            pi = random_never_zero_pi(ring, rng, 20, [1, 2, 3])
            for a in range(8):
                for b in range(8):
                    assert c_binomial(pi, a + b, b) == c_binomial(pi, a + b, a)
                    for c in range(8):
                        left = ring.mul(c_binomial(pi, b + c, c), c_binomial(pi, a + b + c, b + c))
                        right = ring.mul(c_binomial(pi, a + b, b), c_binomial(pi, a + b + c, c))
                        assert left == right, (ring, a, b, c)

    def test_json_round_trip(self):
        ctx = AlgebraContext(PiSequence.classical(Zloc(2)))
        e = GdpaElement(ctx, {0: Fraction(1, 3), 5: -2})
        assert GdpaElement.from_json(ctx, e.to_json()).eq(e)

    def test_negative_degree_rejected(self):
        ctx = AlgebraContext(PiSequence.classical(ZZ))
        with pytest.raises(PreconditionError):
            GdpaElement(ctx, {-1: 1})

    def test_inadmissible_pi_rejected(self):
        bad = PiSequence.custom(ZZ, {2: 2, 3: 2}, default=1)
        with pytest.raises(PreconditionError):
            AlgebraContext(bad)


# ---------------------------------------------------------------------------
# carries over fields
# ---------------------------------------------------------------------------


class TestCarries:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_carry_rule_agrees_with_structure_constants(self, p):
        # the product x^[n] x^[m] vanishes iff adding n and m in base
        # (1, p, p^2, ...) carries; when it does not, the coefficient is a
        # unit (and exactly 1 when pi takes values in {0, 1}, e.g. p = 2)
        ring = GF(p)
        pi = PiSequence.classical(ring)
        ctx = AlgebraContext(pi)
        for n in range(0, 33):
            for m in range(0, 65 - n):
                lhs = ctx.x(n).mul(ctx.x(m))
                rhs = field_multiply_by_carries(ctx.x(n), ctx.x(m))
                assert lhs.degrees() == rhs.degrees(), (p, n, m)
                if not lhs.is_zero:
                    assert ring.is_unit(lhs.coeff(n + m))
                if p == 2:
                    assert lhs.eq(rhs)

    def test_normalized_pi_gives_exact_agreement(self):
        ring = GF(5)
        vals = {n: (0 if n in (5, 25) else 1) for n in range(2, 65)}
        pi = PiSequence.custom(ring, vals, default=1)
        ctx = AlgebraContext(pi)
        for n in range(0, 33):
            for m in range(0, 65 - n):
                assert ctx.x(n).mul(ctx.x(m)).eq(
                    field_multiply_by_carries(ctx.x(n), ctx.x(m))
                )

    def test_carry_count_examples(self):
        ring = GF(2)
        ctx = AlgebraContext(PiSequence.classical(ring))
        b = DivisibleSequence([1] + ctx.pi.zero_degrees(64))  # 1, 2, 4, 8, ...
        assert base_carry_count(1, 1, b) > 0
        assert base_carry_count(1, 2, b) == 0
        assert base_carry_count(3, 4, b) == 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_ones_place_carry_kills_product(self, p):
        ctx = AlgebraContext(PiSequence.classical(GF(p)))
        assert ctx.x(1).mul(ctx.x(p - 1)).is_zero
        assert ctx.x(p).mul(ctx.x(p * (p - 1))).is_zero
        assert ctx.x(1).mul(ctx.x(p - 2)).degrees() == [p - 1]

    @pytest.mark.parametrize("p", [2, 3])
    def test_tensor_factorization_up_to_unit(self, p):
        # pi_n = 0 with n = p: x^[a] x^[bn] = unit * x^[a + bn] for a < n
        ring = GF(p)
        ctx = AlgebraContext(PiSequence.classical(ring))
        for a in range(p):
            for b in range(1, 8):
                prod = ctx.x(a).mul(ctx.x(b * p))
                assert prod.degrees() == [a + b * p]
                assert ring.is_unit(prod.coeff(a + b * p))

    def test_requires_field(self):
        ctx = AlgebraContext(PiSequence.classical(ZZ))
        with pytest.raises(PreconditionError):
            field_multiply_by_carries(ctx.x(1), ctx.x(1))

    @pytest.mark.parametrize("p", [2, 3])
    def test_truncation_closure(self, p):
        # degrees < b_i form a subalgebra: products either stay below b_i
        # or vanish
        ring = GF(p)
        ctx = AlgebraContext(PiSequence.classical(ring))
        cut = p * p  # a zero of pi
        for n in range(cut):
            for m in range(cut):
                prod = ctx.x(n).mul(ctx.x(m))
                if n + m >= cut:
                    assert prod.is_zero, (n, m)

# ---------------------------------------------------------------------------
# regrading and associates
# ---------------------------------------------------------------------------


class TestRegrade:
    def test_classical_2local_h2(self):
        pi = PiSequence.classical(Zloc(2))
        units = regrade_units(pi, 2, 10)
        # u_1 = prod over k in S, k <= 2 of ... : S has no k <= 2, but the
        # product runs to h*n = 2, and k = 2 divides h, so u_1 = 1
        assert Zloc(2).eq(units[0], Fraction(1))
        for u in units:
            assert Zloc(2).is_unit(u)

    def test_classical_3local_h3(self):
        pi = PiSequence.classical(Zloc(3))
        units = regrade_units(pi, 3, 8)
        for u in units:
            assert Zloc(3).is_unit(u)

    def test_precondition_pi_h_unit(self):
        pi = PiSequence.classical(Zloc(2))
        with pytest.raises(PreconditionError):
            regrade_units(pi, 3, 5)  # pi_3 = 3 is a unit in Z_(2)

    def test_regrade_over_field(self):
        pi = PiSequence.classical(GF(2))
        units = regrade_units(pi, 2, 10)
        assert all(GF(2).is_unit(u) for u in units)

    def test_associate_signs(self):
        pi = PiSequence.classical(ZZ)
        betas = associate_scaling(pi, lambda n: (-1) ** n, 10)
        for n, b in enumerate(betas):
            expected = (-1) ** sum(k * (n // k) for k in range(2, n + 1))
            assert b == expected

    def test_associate_trivial(self):
        pi = PiSequence.classical(Zloc(5))
        betas = associate_scaling(pi, lambda n: 1, 8)
        assert all(b == 1 for b in betas)

    def test_associate_requires_units(self):
        pi = PiSequence.classical(ZZ)
        with pytest.raises(PreconditionError):
            associate_scaling(pi, lambda n: 2, 5)


# ---------------------------------------------------------------------------
# structure constants and recovery
# ---------------------------------------------------------------------------


class TestRecovery:
    @pytest.mark.parametrize("p", [2, 3])
    def test_classical_roundtrip_plocal(self, p):
        ring = Zloc(p)
        pi = PiSequence.classical(ring)
        sc = StructureConstants.from_pi(pi, 16)
        rec = recover_pi(sc)
        for n in range(2, 17):
            assert ring.associate(rec.pi(n), pi.pi(n)), n
        # exact table match, not just up to units
        for n in range(17):
            for m in range(n + 1):
                assert ring.eq(c_binomial(rec, n, m), sc.c(n, m))

    def test_custom_gf5_with_zeros(self):
        ring = GF(5)
        rng = random.Random(11)
        vals = {n: rng.randrange(1, 5) for n in range(2, 26)}
        vals[5] = 0
        vals[25] = 0
        pi = PiSequence.custom(ring, vals, default=1)
        sc = StructureConstants.from_pi(pi, 25)
        rec = recover_pi(sc)
        for n in range(26):
            for m in range(n + 1):
                assert ring.eq(c_binomial(rec, n, m), sc.c(n, m))
        assert rec.zero_degrees(25) == [5, 25]

    def test_random_custom_gf5(self):
        ring = GF(5)
        rng = random.Random(23)
        for _ in range(5):
            vals = {n: rng.randrange(0, 5) for n in range(2, 13)}
            # force the zero locus to be a divisible sequence
            zeros = sorted(n for n, v in vals.items() if v == 0)
            keep = []
            for z in zeros:
                if not keep or (z % keep[-1] == 0 and z != keep[-1]):
                    keep.append(z)
                else:
                    vals[z] = rng.randrange(1, 5)
            pi = PiSequence.custom(ring, vals, default=1)
            sc = StructureConstants.from_pi(pi, 12)
            rec = recover_pi(sc)
            for n in range(13):
                for m in range(n + 1):
                    assert ring.eq(c_binomial(rec, n, m), sc.c(n, m))

    def test_normalize_gives_canonical_associates(self):
        ring = Zloc(2)
        pi = PiSequence.custom(ring, {2: Fraction(6), 3: Fraction(5)}, default=1)
        sc = StructureConstants.from_pi(pi, 6)
        rec = recover_pi(sc, normalize=True)
        assert ring.eq(rec.pi(2), Fraction(2))  # canonical associate of 6 in Z_(2)
        assert ring.eq(rec.pi(3), Fraction(1))

    def test_rejects_non_gdpa_table(self):
        ring = Zloc(2)
        pi = PiSequence.classical(ring)
        sc = StructureConstants.from_pi(pi, 8)
        sc.table[(5, 2)] = ring.canon(7)
        sc.table[(5, 3)] = ring.canon(7)
        with pytest.raises(NotAGdpaError):
            recover_pi(sc)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_admissible_roundtrip_and_one_changed_entry(self, data):
        ring, N, pi = data.draw(admissible_local_pis())
        sc = StructureConstants.from_pi(pi, N)
        for normalize in (False, True):
            rec = recover_pi(sc, normalize=normalize)
            assert all(ring.associate(rec.pi(n), pi.pi(n)) for n in range(2, N + 1))
        # change c(n, m) = c(n, n - m) for an m other than m*, the largest
        # nonunit degree below n dividing n, which pi_n is read from
        n = data.draw(st.integers(4, N))
        m_star = max(b for b in pi.nonunit_degrees(n - 1) if n % b == 0)
        m = data.draw(st.sampled_from([m for m in range(1, n) if m not in (m_star, n - m_star)]))
        sc.table[(n, m)] = sc.table[(n, n - m)] = ring.add(sc.c(n, m), ring.one())
        with pytest.raises(NotAGdpaError):
            recover_pi(sc)

    def test_rejects_global_ring(self):
        pi = PiSequence.classical(ZZ)
        sc = StructureConstants.from_pi(pi, 6)
        with pytest.raises(PreconditionError):
            recover_pi(sc)

    def test_table_validation(self):
        ring = GF(3)
        pi = PiSequence.classical(ring)
        table = {
            (n, m): c_binomial(pi, n, m) for n in range(5) for m in range(n + 1)
        }
        table[(4, 0)] = ring.canon(2)
        with pytest.raises(NotAGdpaError):
            StructureConstants(ring, 4, table)

    def test_json_round_trip(self):
        ring = Zloc(3)
        sc = StructureConstants.from_pi(PiSequence.classical(ring), 8)
        sc2 = StructureConstants.from_json(ring, sc.to_json())
        assert all(ring.eq(sc.c(n, m), sc2.c(n, m)) for n in range(9) for m in range(n + 1))


# ---------------------------------------------------------------------------
# Tor_1 closed form
# ---------------------------------------------------------------------------


class TestTor1ClosedForm:
    def test_gf2(self):
        pieces = dict(tor1_closed_form(PiSequence.classical(GF(2)), range(1, 17)))
        assert sorted(pieces) == [1, 2, 4, 8, 16]
        assert all(inv.free_rank == 1 for inv in pieces.values())

    def test_integers(self):
        pieces = dict(tor1_closed_form(PiSequence.classical(ZZ), range(1, 13)))
        # degree 1: Z (pi_1 = 0); prime powers q: Z/p
        assert pieces[1].free_rank == 1
        assert pieces[4].torsion_factors == (2,)
        assert pieces[9].torsion_factors == (3,)
        assert pieces[11].torsion_factors == (11,)
        assert 6 not in pieces and 10 not in pieces and 12 not in pieces

    def test_cyclic_invariants(self):
        assert cyclic_module_invariants(ZZ, 1).is_zero
        assert cyclic_module_invariants(ZZ, 0).free_rank == 1
        assert cyclic_module_invariants(ZZ, -6).torsion_factors == (6,)
        assert cyclic_module_invariants(GF(7), 3).is_zero
