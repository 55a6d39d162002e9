"""Experimental harness: the N-hypothesis and (2N+3)d presentation-degree
bound for graded ideals I_n = a_n x^[n], boundedness of ideal torsion
(condition (A2)), and the bivariate non-coherence counterexample."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .coeff_rings import (
    QQ,
    ZZ,
    ExactMatrix,
    IntegersModRing,
    PreconditionError,
    Ring,
    Zloc,
    kernel_basis,
    quotient_generators,
)
from .gdpa import AlgebraContext
from .graded_modules import (
    FreeGradedModule,
    ModuleMap,
    SubmoduleGenerators,
    syzygy_generators,
)
from .pi_core import PiSequence, a_invariant, h_transform
from .resolutions_k import ideal_contains, ideal_invariants, minimal_image_generators


class UnboundedTorsionError(PreconditionError):
    """Explicit verdict: no a^[h](N) annihilates the chain torsion."""


# ---------------------------------------------------------------------------
# ideal specifications and the degree bound
# ---------------------------------------------------------------------------


@dataclass
class IdealSpec:
    """The graded ideal with I_n = a_n x^[n] for an ascending chain of
    coefficient ideals a_0 <= a_1 <= ... <= a_d (given by generators)."""

    context: AlgebraContext
    chain: list  # list of generator lists, length d + 1
    d: int

    def __post_init__(self):
        R = self.context.ring
        if len(self.chain) != self.d + 1:
            raise PreconditionError("chain must list a_0 .. a_d")
        self.chain = [[R.canon(g) for g in gens] for gens in self.chain]
        for i in range(self.d):
            for g in self.chain[i]:
                if not ideal_contains(R, self.chain[i + 1], g):
                    raise PreconditionError(
                        f"chain condition fails: a_{i} is not inside a_{i + 1}"
                    )

    def to_json(self):
        R = self.context.ring
        return {
            "d": self.d,
            "chain": [[R.to_str(g) for g in gens] for gens in self.chain],
            "pi": self.context.pi.to_json(),
        }


@dataclass
class BoundReport:
    N: int
    d: int
    bound: int
    computed_t1: int | None
    passed: bool
    horizon: int
    torsion_trivial: bool
    generator_degrees: list

    def to_json(self):
        return {
            "N": self.N,
            "d": self.d,
            "bound": self.bound,
            "computed_t1": self.computed_t1,
            "pass": self.passed,
            "horizon": self.horizon,
            "torsion_trivial": self.torsion_trivial,
            "generator_degrees": self.generator_degrees,
        }


def torsion_bound_N(spec: IdealSpec) -> int:
    """Smallest N such that a^[h](N) annihilates the torsion of k/a_i for all
    1 <= h <= 2d and 0 <= i <= 3d (the chain extended constantly by a_d).

    Over Z or Z_(p) with classical pi, a^[h](N) = N and the answer is the
    lcm of the torsion exponents.  Over Z/n or a field the relevant quotients
    k/(a_i + T(k)) are torsion-free, so N = 1.  The search stops at 4E + 16,
    E the lcm of the torsion exponents.  As a_i = a_d for i >= d, the
    invariants of a_0, ..., a_d are taken once each, and a repeated factor
    is kept once: neither E nor the annihilation test depends on how often
    a factor is listed.  h_transform returns the one transform it keeps per
    (pi, h), so a(n) of each is computed once per algebra, not once per
    spec."""
    R = spec.context.ring
    if _torsion_free_mod_t(R):
        return 1
    factors = []
    for gens in spec.chain:
        factors += ideal_invariants(R, gens).torsion_factors
    factors = list(dict.fromkeys(factors))
    if not factors:
        return 1
    # a canonical factor over Z or Z_(p) is the integer exponent it gives
    limit = 4 * math.lcm(*map(int, factors)) + 16
    pi = spec.context.pi
    transforms = [h_transform(pi, h) for h in range(1, 2 * max(spec.d, 1) + 1)]
    N = _least_annihilating_n(R, factors, transforms, limit)
    if N is None:
        raise UnboundedTorsionError(
            f"no N <= {limit} with a^[h](N) annihilating the chain torsion: "
            "unbounded verdict"
        )
    return N


def _torsion_free_mod_t(R: Ring) -> bool:
    """Whether every quotient k/(a + T(k)) is torsion-free: over a field or Z/n."""
    return R.is_field or isinstance(R, IntegersModRing)


def _least_annihilating_n(ring: Ring, factors, transforms, limit: int) -> int | None:
    """The least n <= limit with a(n) of every pi-sequence in transforms in
    the ideal of every torsion factor; None if there is none."""
    for n in range(1, limit + 1):
        values = (a_invariant(tpi, n) for tpi in transforms)
        if all(ideal_contains(ring, [f], a) for a in values for f in factors):
            return n
    return None


def materialize_ideal(spec: IdealSpec, horizon: int) -> SubmoduleGenerators:
    """Minimal generators of the submodule of D generated by g x^[n] for
    g in a_n, 0 <= n <= d (so the degree-n slice is a_n x^[n] for n <= d)."""
    ctx = spec.context
    R = ctx.ring
    ambient = FreeGradedModule(ctx, [0])
    cols = []
    for n in range(spec.d + 1):
        for g in spec.chain[n]:
            if not R.is_zero(g):
                cols.append((n, {0: ctx.x(n, coeff=g)}))
    if not cols:
        return SubmoduleGenerators(ambient, [], horizon)
    gmap = ModuleMap(
        FreeGradedModule(ctx, [n for n, _ in cols]), ambient, [c for _, c in cols]
    )
    return minimal_image_generators(gmap, horizon)


def t1_bound_check(spec: IdealSpec) -> BoundReport:
    """Theorem-shaped check: t_1(I/T(I)) <= (2N+3)d for the graded ideal I.

    Over Z (and Z_(p)) the graded slices of I are subgroups of the free
    slices of D, hence torsion-free: T(I) = 0 and I/T(I) = I.  t_1 is the
    largest degree where the syzygies of a minimal generating set need a new
    generator (None when I is free on its generators).

    The scan runs to horizon = bound + 4.  The generators map into D,
    which has one generator, so every degree-d slice is one row, and
    :func:`syzygy_generators` takes no kernel in a degree where the
    syzygies found below already span the row's kernel (index 1, see
    :func:`~gdpakit.graded_modules._spans_row_kernel`): past the last new
    syzygy each degree costs the row, one entry per generator read from the
    parsed columns (:meth:`~gdpakit.graded_modules.FreeGradedModule.row`),
    and the images of the old syzygies inserted one at a time into an
    echelon basis only until it passes the index test, which runs where
    that basis has the kernel's rank; the images after it are never built.
    It rebuilds nothing that depends only on the module, the ring or pi:
    past the top generator degree a free module's column map and rank are
    fixed, a binomial met before is one memo lookup, the ring is read once,
    and N reads the h-transforms that pi keeps."""
    ctx = spec.context
    R = ctx.ring
    N = torsion_bound_N(spec)
    bound = (2 * N + 3) * spec.d
    horizon = bound + 4
    gens = materialize_ideal(spec, horizon)
    # T(I): submodule slices of the free module D are torsion-free over a
    # domain; verified structurally rather than recomputed
    torsion_trivial = R.is_field or R.is_pid
    if not torsion_trivial:
        raise PreconditionError("t1_bound_check implemented over domains only")
    if not gens.generators:
        return BoundReport(N, spec.d, bound, None, True, horizon, True, [])
    syz = syzygy_generators(gens.as_map(), horizon)
    t1 = max(syz.degrees(), default=None)
    passed = t1 is None or t1 <= bound
    return BoundReport(
        N, spec.d, bound, t1, passed, horizon, torsion_trivial, gens.degrees()
    )


def random_ideal_spec(context: AlgebraContext, d: int, rng: random.Random) -> IdealSpec:
    """A random principal chain: raw generators uniform in [0, 60], degrees
    up to d, chain closure by accumulating gcds."""
    R = context.ring
    g = None
    chain = []
    for _ in range(d + 1):
        a = rng.randint(0, 60)
        g = a if g is None else math.gcd(g, a)
        chain.append([R.from_int(g)])
    return IdealSpec(context, chain, d)


def run_random_bound_checks(seed: int, count: int, max_d: int = 4):
    """A batch of randomized t1_bound_check runs (classical pi over Z)."""
    ctx = AlgebraContext(PiSequence.classical(ZZ))
    rng = random.Random(seed)
    reports = []
    for _ in range(count):
        d = rng.randint(1, max_d)
        spec = random_ideal_spec(ctx, d, rng)
        reports.append((spec, t1_bound_check(spec)))
    return reports


# ---------------------------------------------------------------------------
# condition (A2): bounded ideal torsion
# ---------------------------------------------------------------------------


def a2_condition_check(ring: Ring, ideal_generators, h: int, limit: int = 256) -> dict:
    """Search for n <= limit with a^[h](n) annihilating the torsion of k/a
    (classical pi).  Over Z / Z_(p) the torsion exponent comes from the SNF
    directly, so the verdict is definitive."""
    gens = [ring.canon(g) for g in ideal_generators]
    pi = PiSequence.classical(ring)
    tpi = h_transform(pi, h)
    if _torsion_free_mod_t(ring):
        return {"verdict": "bounded", "n": 1, "reason": "quotient is torsion-free mod T(k)"}
    factors = ideal_invariants(ring, gens).torsion_factors
    if not factors:
        return {"verdict": "bounded", "n": 1, "reason": "no torsion"}
    n = _least_annihilating_n(ring, factors, [tpi], limit)
    if n is not None:
        return {
            "verdict": "bounded",
            "n": n,
            "annihilator": ring.to_str(a_invariant(tpi, n)),
        }
    # over Z / Z_(p) classical, a^[h](n) realizes every exponent at some
    # factorial n, so exhausting the limit means the limit was too small
    return {"verdict": "inconclusive", "limit": limit}


# ---------------------------------------------------------------------------
# the bivariate algebra and the non-coherence counterexample
# ---------------------------------------------------------------------------


class BivariateElement:
    """Sparse bigraded element of the two-variable algebra: the tensor square
    of the univariate algebra with componentwise carry coefficients."""

    __slots__ = ("context", "terms")

    def __init__(self, context: AlgebraContext, terms: dict):
        R = context.ring
        self.context = context
        self.terms = {}
        for (a, b), c in terms.items():
            if a < 0 or b < 0:
                raise PreconditionError("bidegrees must be nonnegative")
            c = R.canon(c)
            if not R.is_zero(c):
                self.terms[(a, b)] = c

    @property
    def is_zero(self):
        return not self.terms

    def add(self, other: "BivariateElement") -> "BivariateElement":
        R = self.context.ring
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = R.add(out.get(k, R.zero()), c)
        return BivariateElement(self.context, out)

    def scale(self, c) -> "BivariateElement":
        R = self.context.ring
        return BivariateElement(
            self.context, {k: R.mul(c, v) for k, v in self.terms.items()}
        )

    def mul(self, other: "BivariateElement") -> "BivariateElement":
        ctx = self.context
        R = ctx.ring
        out: dict = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                coeff = R.mul(R.mul(c1, c2), R.mul(ctx.C(a1 + a2, a2), ctx.C(b1 + b2, b2)))
                key = (a1 + a2, b1 + b2)
                out[key] = R.add(out.get(key, R.zero()), coeff)
        return BivariateElement(ctx, out)

    def __repr__(self):
        R = self.context.ring
        if self.is_zero:
            return "0"
        return " + ".join(
            f"{R.to_str(c)}*x^[{a}]y^[{b}]" for (a, b), c in sorted(self.terms.items())
        )


def bi_monomial(context: AlgebraContext, a: int, b: int) -> BivariateElement:
    return BivariateElement(context, {(a, b): context.ring.one()})


def bivariate_xy_syzygy_generators(context: AlgebraContext, box: int):
    """Minimal generators of the syzygy module of (y^[1], x^[1]) in the
    bivariate algebra, scanned over bidegrees (a, b) with a, b <= box.

    A syzygy at (a, b) is (u, v) with u in D_(a, b-1), v in D_(a-1, b) and
    u y^[1] + v x^[1] = 0; both bigraded slices have rank <= 1, so the
    syzygies there are the kernel of the row [C(b,1), C(a,1)].  Each
    bidegree takes the three steps of
    :func:`graded_modules._degreewise_generators`: that kernel, the images
    of the generators found below, and one quotient.

    The row has a column only for a coordinate that exists: u needs b >= 1
    and v needs a >= 1.  An absent coordinate is dropped, not given a zero
    column, as a zero column would put its unit vector in the kernel, a
    syzygy with a component in a bidegree where the algebra is 0; kernel
    vectors get a zero there afterwards.

    Only generators of lower total degree give old images: x^[i] y^[j]
    times the generator at (a0, b0) lies at (a0 + i, b0 + j), so one of
    the same total a + b reaches (a, b) only if it is (a, b) itself, which
    is not yet found.  The scan runs by total, so the found generators
    with a0 <= a and b0 <= b are exactly those."""
    R, C = context.ring, context.C
    gens = []  # (a, b, (alpha, beta)) with alpha the u-, beta the v-coordinate
    for total in range(1, 2 * box + 1):
        for a in range(max(0, total - box), min(box, total) + 1):
            b = total - a
            coords = [i for i, n in enumerate((b, a)) if n >= 1]
            row = [C((b, a)[i], 1) for i in coords]
            kernel = [
                [dict(zip(coords, vec)).get(i, R.zero()) for i in (0, 1)]
                for vec in kernel_basis(ExactMatrix(R, [row], 1, len(row)))
            ]
            old = [
                [
                    R.mul(al, R.mul(C(a, a0), C(b - 1, b0 - 1))) if b0 >= 1 else R.zero(),
                    R.mul(be, R.mul(C(a - 1, a0 - 1), C(b, b0))) if a0 >= 1 else R.zero(),
                ]
                for a0, b0, (al, be) in gens
                if a0 <= a and b0 <= b
            ]
            gens += [(a, b, (u, v)) for u, v in quotient_generators(R, 2, kernel, old)]
    return gens


def bivariate_counterexample(p: int, r: int) -> dict:
    """The relation (y^[p^r - 1] x^[p^r]) y^[1] - (y^[p^r] x^[p^r - 1]) x^[1]
    vanishes exactly over Z_(p), and the bidegree-(p^r, p^r) syzygy of
    (y^[1], x^[1]) is not generated by syzygies of lower bidegree."""
    ring = Zloc(p)  # PreconditionError unless p is prime
    # p >= 2, so r <= 4 in scope; the bound on r also keeps p**r small
    if not 0 <= r <= 4 or p**r > 16:
        raise PreconditionError(f"declared scope: r >= 0 and p^r <= 16, got p = {p}, r = {r}")
    m = p**r
    ctx = AlgebraContext(PiSequence.classical(ring))
    A = bi_monomial(ctx, m, m - 1)
    B = bi_monomial(ctx, m - 1, m)
    y1 = bi_monomial(ctx, 0, 1)
    x1 = bi_monomial(ctx, 1, 0)
    lhs = A.mul(y1).add(B.mul(x1).scale(ring.from_int(-1)))
    identity_holds = lhs.is_zero
    gens = bivariate_xy_syzygy_generators(ctx, m)
    new_at_corner = [g for g in gens if (g[0], g[1]) == (m, m)]
    return {
        "p": p,
        "r": r,
        "m": m,
        "identity_holds": identity_holds,
        "syzygy_not_generated_below": bool(new_at_corner),
        "generator_bidegrees": [(a, b) for a, b, _ in gens],
        "text": (
            f"bivariate counterexample p={p}, r={r}: relation at ({m},{m}) "
            + ("holds" if identity_holds else "FAILS")
            + " and is "
            + ("not " if new_at_corner else "")
            + "independent of lower syzygies"
        ),
    }


def koszul_sanity(box: int = 6) -> dict:
    """Over Q with all-ones pi (the bivariate polynomial ring), the syzygy
    module of (y, x) is generated by the single Koszul relation at (1, 1)."""
    ctx = AlgebraContext(PiSequence.all_ones(QQ))
    gens = bivariate_xy_syzygy_generators(ctx, box)
    return {
        "generator_bidegrees": [(a, b) for a, b, _ in gens],
        "exactly_one_koszul": [(a, b) for a, b, _ in gens] == [(1, 1)],
    }
