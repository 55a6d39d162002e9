"""The algebra D(k, pi): element arithmetic, regrading, recovery.

D(k, pi) is the free k-module on basis x^[0], x^[1], ... with multiplication
x^[a] x^[b] = C(a+b, b) x^[a+b].
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff_rings import (
    PreconditionError,
    Ring,
    UnsupportedRingError,
    json_int,
)
from .pi_core import PiSequence, _first_violation, c_binomial


class NotAGdpaError(ValueError):
    """A structure-constant table does not arise from any GDPA."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class AlgebraContext:
    """A coefficient ring together with a pi-sequence: the algebra D(k, pi).

    Admissibility is verified to 24 at construction and to the bound of
    each :meth:`dplus_generator_degrees` call (or declared by family, e.g.
    the symbolic cyclotomic sequence), once per bound past the largest one
    verified, as the verdict depends on pi alone.  The non-unit degrees are
    kept per bound, as they too depend on pi alone.
    """

    def __init__(self, pi: PiSequence):
        self.ring = pi.ring
        self.pi = pi
        # the largest bound pi is known to be admissible up to: the verdict
        # depends on pi alone, so no bound up to it is checked again
        self._admissible_to = 0
        # bound -> the tuple dplus_generator_degrees returns, once verified
        self._nonunit = {}
        self.require_admissible(24)

    def require_admissible(self, up_to: int):
        """Raise PreconditionError naming the first violating pair unless pi
        is admissible up to up_to (dplus_generator_degrees checks it)."""
        self.dplus_generator_degrees(up_to)

    def C(self, n: int, m: int):
        return c_binomial(self.pi, n, m)

    def x(self, n: int, coeff=None) -> "GdpaElement":
        c = self.ring.one() if coeff is None else self.ring.canon(coeff)
        return GdpaElement(self, {n: c})

    def dplus_generator_degrees(self, up_to: int) -> tuple:
        """The degrees j <= up_to of a generating set of D_+: the j with
        pi_j not a unit, as a tuple kept per bound.  Raises
        PreconditionError when pi is not admissible up to up_to, which the
        rule needs.

        Every C(j, a), 0 < a < j, is a multiple of pi_j, as
        eps_j(j - a, a) = 1, so a non-unit pi_j keeps x^[j] out of D_+^2.
        Let pi_j be a unit and m a maximal ideal.  By admissibility
        S = {k < j : pi_k in m} is a divisibility chain.  If S is not empty,
        let K = max S: C(j, K) carries at no k in S, as K/k is an integer,
        so C(j, K) is not in m; if S is empty, C(j, 1) is not in m.  So the
        C(j, a) generate the unit ideal, and x^[j] is an R-combination of
        the products x^[a] x^[j-a] = C(j, a) x^[j]."""
        nonunit = self._nonunit.get(up_to)
        if nonunit is None:
            nonunit = tuple(self.pi.nonunit_degrees(up_to))
            if up_to > self._admissible_to and not self.pi.admissible_by_fiat:
                witness = _first_violation(self.pi, nonunit)
                if witness:
                    raise PreconditionError(f"pi-sequence not admissible: pair {witness}")
                self._admissible_to = up_to
            self._nonunit[up_to] = nonunit
        return nonunit

    def __repr__(self):
        return f"AlgebraContext({self.pi!r})"


class GdpaElement:
    """A finite formal sum of c_n * x^[n], stored sparsely (no zero terms)."""

    __slots__ = ("context", "terms")

    def __init__(self, context: AlgebraContext, terms: dict):
        R = context.ring
        self.context = context
        clean = {}
        for n, c in terms.items():
            n = int(n)
            if n < 0:
                raise PreconditionError("degrees must be nonnegative")
            c = R.canon(c)
            if not R.is_zero(c):
                clean[n] = c
        self.terms = clean

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self):
        return sorted(self.terms)

    def coeff(self, n: int):
        return self.terms.get(n, self.context.ring.zero())

    def add(self, other: "GdpaElement") -> "GdpaElement":
        self._check(other)
        R = self.context.ring
        out = dict(self.terms)
        for n, c in other.terms.items():
            out[n] = R.add(out.get(n, R.zero()), c)
        return GdpaElement(self.context, out)

    def scale(self, c) -> "GdpaElement":
        R = self.context.ring
        c = R.canon(c)
        return GdpaElement(self.context, {n: R.mul(c, v) for n, v in self.terms.items()})

    def mul(self, other: "GdpaElement") -> "GdpaElement":
        self._check(other)
        ctx = self.context
        R = ctx.ring
        out: dict[int, object] = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                coeff = R.mul(R.mul(ca, cb), ctx.C(a + b, b))
                if not R.is_zero(coeff):
                    n = a + b
                    out[n] = R.add(out.get(n, R.zero()), coeff)
        return GdpaElement(ctx, out)

    def eq(self, other: "GdpaElement") -> bool:
        self._check(other)
        R = self.context.ring
        if set(self.terms) != set(other.terms):
            return False
        return all(R.eq(self.terms[n], other.terms[n]) for n in self.terms)

    def _check(self, other):
        if other.context is not self.context:
            raise PreconditionError("context mismatch between elements")

    def to_json(self):
        R = self.context.ring
        return {"terms": [[n, R.to_str(c)] for n, c in sorted(self.terms.items())]}

    @classmethod
    def from_json(cls, context: AlgebraContext, obj) -> "GdpaElement":
        R = context.ring
        return cls(context, {json_int(n): R.from_str(str(c)) for n, c in obj["terms"]})

    def __repr__(self):
        R = self.context.ring
        if not self.terms:
            return "0"
        return " + ".join(
            f"{R.to_str(c)}*x^[{n}]" for n, c in sorted(self.terms.items())
        )


# ---------------------------------------------------------------------------
# regrading units and associate scalings: the isomorphism lemmas of GDPAs.
# D^(h), spanned by the x^[nh], is isomorphic to D(k, pi') with
# pi'_n = pi_{nh} through y^[n] -> u_n x^[nh]: the factor of
# D = D_{<h} (x) D^(h) that _special_resolve_adic's proof uses
# ---------------------------------------------------------------------------


def regrade_units(pi: PiSequence, h: int, up_to: int):
    """Units u_n = prod over k in S of pi_k^{floor(hn/k)}, S = {k : k does not
    divide h and h does not divide k}, for 1 <= n <= up_to.

    Requires pi_h in the Jacobson radical.  Verifies that each u_n is a unit
    and that y^[k] -> u_k x^[hk] intertwines the structure constants:
    C(h(n+m), hm) = u_{n+m} u_n^{-1} u_m^{-1} C'(n+m, m) with pi'_n = pi_{nh}.
    """
    R = pi.ring
    try:
        in_rad = R.in_jacobson_radical(pi.pi(h))
    except UnsupportedRingError:
        raise PreconditionError(f"no Jacobson-radical test over {R.describe()}")
    if not in_rad:
        raise PreconditionError(
            f"pi_{h} is not in the Jacobson radical of {R.describe()}"
        )
    units = {}
    for n in range(1, up_to + 1):
        acc = R.one()
        for k in range(2, h * n + 1):
            if h % k != 0 and k % h != 0:
                e = (h * n) // k
                if e:
                    acc = R.mul(acc, R.pow(pi.pi(k), e))
        if not R.is_unit(acc):
            raise PreconditionError(f"u_{n} = {R.to_str(acc)} is not a unit")
        units[n] = acc

    # intertwining check on the horizon
    prime = PiSequence(
        R, "custom", lambda n: pi.pi(n * h), meta={"derived": "regrade"}
    )
    for n in range(1, up_to + 1):
        for m in range(1, up_to + 1 - n):
            lhs = c_binomial(pi, h * (n + m), h * m)
            rhs = R.mul(
                R.mul(units[n + m], R.inv(R.mul(units[n], units[m]))),
                c_binomial(prime, n + m, m),
            )
            if not R.eq(lhs, rhs):
                raise NotAGdpaError(
                    f"regrade intertwining fails at (n, m) = ({n}, {m})",
                    witness=(n, m),
                )
    return [units[n] for n in range(1, up_to + 1)]


def associate_scaling(pi: PiSequence, alpha, up_to: int):
    """Given units alpha_n, return beta_n = prod over k >= 2 of
    alpha_k^{floor(n/k)} and verify the associate isomorphism identity
    C'(n, m) = beta_{n+m} beta_n^{-1} beta_m^{-1} C(n, m) on the horizon,
    where pi'_n = alpha_n pi_n.

    alpha is a callable n -> unit (n >= 2)."""
    R = pi.ring
    alphas = {}
    for n in range(2, 2 * up_to + 1):
        a = R.canon(alpha(n))
        if not R.is_unit(a):
            raise PreconditionError(f"alpha_{n} = {R.to_str(a)} is not a unit")
        alphas[n] = a

    def beta(n):
        acc = R.one()
        for k in range(2, n + 1):
            acc = R.mul(acc, R.pow(alphas[k], n // k))
        return acc

    betas = {n: beta(n) for n in range(0, 2 * up_to + 1)}
    prime = PiSequence(
        R,
        "custom",
        lambda n: R.mul(alphas.get(n, R.one()), pi.pi(n)) if n >= 2 else R.zero(),
        meta={"derived": "associate"},
    )
    for n in range(0, up_to + 1):
        for m in range(0, up_to + 1 - n):
            lhs = c_binomial(prime, n + m, m)
            rhs = R.mul(
                R.mul(betas[n + m], R.inv(R.mul(betas[n], betas[m]))),
                c_binomial(pi, n + m, m),
            )
            if not R.eq(lhs, rhs):
                raise NotAGdpaError(
                    f"associate scaling identity fails at ({n}, {m})", witness=(n, m)
                )
    return [betas[n] for n in range(0, up_to + 1)]


# ---------------------------------------------------------------------------
# structure constants and recovery of pi
# ---------------------------------------------------------------------------


@dataclass
class StructureConstants:
    """A table c(n, m) = coefficient in x^[n-m] x^[m] = c(n,m) x^[n], for
    0 <= m <= n <= N."""

    ring: Ring
    N: int
    table: dict

    def __post_init__(self):
        R = self.ring
        for n in range(self.N + 1):
            for m in range(n + 1):
                if (n, m) not in self.table:
                    raise PreconditionError(f"missing c({n},{m})")
                self.table[(n, m)] = R.canon(self.table[(n, m)])
        for n in range(self.N + 1):
            if not R.eq(self.table[(n, 0)], R.one()) or not R.eq(
                self.table[(n, n)], R.one()
            ):
                raise NotAGdpaError(f"c({n},0) and c({n},{n}) must be 1", witness=(n, 0))
        for n in range(self.N + 1):
            for m in range(n + 1):
                if not R.eq(self.table[(n, m)], self.table[(n, n - m)]):
                    raise NotAGdpaError(
                        f"c({n},{m}) != c({n},{n-m}) breaks commutativity",
                        witness=(n, m),
                    )

    def c(self, n: int, m: int):
        return self.table[(n, m)]

    @classmethod
    def from_pi(cls, pi: PiSequence, N: int) -> "StructureConstants":
        table = {
            (n, m): c_binomial(pi, n, m) for n in range(N + 1) for m in range(n + 1)
        }
        return cls(pi.ring, N, table)

    def to_json(self):
        R = self.ring
        return {
            "N": self.N,
            "rows": [
                [R.to_str(self.table[(n, m)]) for m in range(n + 1)]
                for n in range(self.N + 1)
            ],
        }

    @classmethod
    def from_json(cls, ring: Ring, obj) -> "StructureConstants":
        table = {}
        for n, row in enumerate(obj["rows"]):
            for m, v in enumerate(row):
                table[(n, m)] = ring.from_str(str(v))
        return cls(ring, json_int(obj["N"]), table)


def recover_pi(sc: StructureConstants, normalize: bool = False) -> PiSequence:
    """Recover a pi-sequence (up to units) from a structure-constant table
    over a local coefficient ring.

    Inductive construction: maintain the divisible sequence b of nonunit
    indices found so far; with m* the largest b-element dividing N, set
    pi_N = R(m*)^{-1} c(N, m*), where R(m*) is the carry product for C(N, m*)
    with the pi_N factor removed (R(m*) involves only known pi's and must be
    a unit).  After each step verify C(N, m) = c(N, m) for all m <= N.

    Every C(N, m) with 0 < m < N has the factor pi_N, as eps_N(N-m, m) = 1,
    and 0 < m* < N; so R(m*) is C(N, m*) of the pi's found so far with
    pi_N = 1, and the check takes C(N, m) of the same pi's with pi_N set.
    Each is :func:`c_binomial` of a fresh sequence, since a sequence
    memoizes its values and its C.

    With ``normalize`` the returned sequence has each pi_n replaced by its
    canonical associate (then C = c only up to units).
    """
    R = sc.ring
    if not R.is_local:
        raise PreconditionError("recover_pi requires a local coefficient ring")
    values: dict[int, object] = {}
    b_elements = [1]

    for N in range(2, sc.N + 1):
        m_star = max(b for b in b_elements if N % b == 0)
        rest = c_binomial(PiSequence.custom(R, values), N, m_star)
        if not R.is_unit(rest):
            raise NotAGdpaError(
                f"carry cofactor at N={N} is not a unit; table is not a GDPA "
                "(or pi-sequence is not admissible)",
                witness=(N, m_star),
            )
        pi_N = R.mul(R.inv(rest), sc.c(N, m_star))
        values[N] = pi_N
        if not R.is_unit(pi_N):
            if N % b_elements[-1] != 0:
                raise NotAGdpaError(
                    f"nonunit locus {b_elements[-1]}, {N} is not a divisible "
                    "sequence; table is not a GDPA",
                    witness=(N, b_elements[-1]),
                )
            b_elements.append(N)
        pi = PiSequence.custom(R, values)
        for m in range(N + 1):
            if not R.eq(c_binomial(pi, N, m), sc.c(N, m)):
                raise NotAGdpaError(
                    f"verification failed at C({N},{m})", witness=(N, m)
                )

    if normalize:
        values = {n: R.canonical_associate(v) for n, v in values.items()}
    out = PiSequence.custom(R, values, default=R.one())
    out.meta["recovered_up_to"] = sc.N
    return out
