"""Carries, pi-sequences and their invariants.

A pi-sequence assigns elements pi_2, pi_3, ... of a coefficient ring (always
with pi_1 = 0 by convention).  From it derive:

- a(n)   = product of pi_d over divisors d of n with d != 1,
- A(n)   = a(n) a(n-1) ... a(1),
- C(n,m) = product over k >= 2 of pi_k^{eps_k(n-m, m)}, where
  eps_k(x, y) = floor((x+y)/k) - floor(x/k) - floor(y/k) in {0, 1} is the
  ones-place carry adding x and y in base k.

C is always computed by the carry product (never by dividing A's), so it is
valid in rings with zero divisors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .coeff_rings import (
    NumberRing,
    PreconditionError,
    Ring,
    ZPOLY,
    ZZ,
    _prime_factors,
    json_int_list,
    ring_from_json,
)


# ---------------------------------------------------------------------------
# elementary number theory helpers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple:
    """Sorted positive divisors of n >= 1."""
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    """The Moebius function of n >= 1: 0 unless n is squarefree, else -1
    to the number of its primes."""
    primes = _prime_factors(n)
    if math.prod(primes) != n:
        return 0
    return -1 if len(primes) % 2 else 1


@lru_cache(maxsize=None)
def prime_power_base(n: int):
    """Return p if n = p^s with s >= 1, else None."""
    primes = _prime_factors(n) if n >= 2 else []
    return primes[0] if len(primes) == 1 else None


def carry(k: int, n: int, m: int) -> int:
    """eps_k(n, m) = floor((n+m)/k) - floor(n/k) - floor(m/k), in {0, 1}."""
    if k < 1:
        raise PreconditionError("carry requires k >= 1")
    if n < 0 or m < 0:
        raise PreconditionError("carry requires nonnegative n, m")
    e = (n + m) // k - n // k - m // k
    assert e in (0, 1)
    return e


# ---------------------------------------------------------------------------
# cyclotomic polynomials over Z[q]
# ---------------------------------------------------------------------------


_CYCLO_CACHE: dict[int, tuple] = {}


def cyclotomic_poly(n: int) -> tuple:
    """Phi_n as an element of Z[q]: (q^n - 1) / prod of Phi_d, d | n, d < n."""
    if n < 1:
        raise PreconditionError("cyclotomic index must be >= 1")
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    R = ZPOLY
    num = R.canon([-1] + [0] * (n - 1) + [1])  # q^n - 1
    den = R.one()
    for d in divisors(n)[:-1]:
        den = R.mul(den, cyclotomic_poly(d))
    phi = R.exact_div(num, den)
    _CYCLO_CACHE[n] = phi
    return phi


# ---------------------------------------------------------------------------
# pi-sequences
# ---------------------------------------------------------------------------


class PiSequence:
    """A pi-sequence in a coefficient ring, with pi_1 = 0 always.

    Families: all_ones, classical, cyclotomic (symbolic, over Z[q]),
    cyclotomic_at (evaluated at q0), gcd_morphic (derived by Moebius
    inversion from a GCD-morphic integer sequence), custom.
    """

    def __init__(self, ring: Ring, family: str, fn, *, meta=None, admissible_by_fiat=False):
        self.ring = ring
        self.family = family
        self._fn = fn
        self.meta = meta or {}
        self.admissible_by_fiat = admissible_by_fiat
        self._memo: dict[int, object] = {}
        # C(n, m) as c_binomial computes it, keyed (n, m).  Only pairs with
        # 0 <= m <= n enter, and no value is None, so a reader may take
        # .get((n, m)) is None as a miss and skip the range check.
        # c_binomial writes it; FreeGradedModule.images also reads it.
        self._c_memo: dict[tuple, object] = {}
        self._a_memo: dict[int, object] = {}

    # -- construction -----------------------------------------------------
    @classmethod
    def all_ones(cls, ring: Ring) -> "PiSequence":
        return cls(ring, "all_ones", lambda n, R=ring: R.one())

    @classmethod
    def classical(cls, ring: Ring) -> "PiSequence":
        def fn(n, R=ring):
            p = prime_power_base(n)
            return R.from_int(p) if p is not None else R.one()

        return cls(ring, "classical", fn)

    @classmethod
    def cyclotomic_symbolic(cls) -> "PiSequence":
        return cls(
            ZPOLY,
            "cyclotomic",
            lambda n: cyclotomic_poly(n),
            admissible_by_fiat=True,
        )

    @classmethod
    def cyclotomic_at(cls, ring: Ring, q0) -> "PiSequence":
        q0 = ring.canon(q0)
        return cls(
            ring,
            "cyclotomic_at",
            lambda n, R=ring: ZPOLY.evaluate(cyclotomic_poly(n), R, q0),
            meta={"q0": q0},
        )

    @classmethod
    def custom(cls, ring: Ring, values: dict, default=None) -> "PiSequence":
        if default is None:
            default = ring.one()
        default = ring.canon(default)
        vals = {int(k): ring.canon(v) for k, v in values.items()}

        def fn(n):
            return vals.get(n, default)

        return cls(ring, "custom", fn, meta={"values": vals, "default": default})

    # -- evaluation -------------------------------------------------------
    def pi(self, n: int):
        """pi_n; pi_1 = 0 by convention, pi_n undefined for n < 1."""
        if n < 1:
            raise PreconditionError("pi_n requires n >= 1")
        if n == 1:
            return self.ring.zero()
        if n not in self._memo:
            self._memo[n] = self.ring.canon(self._fn(n))
        return self._memo[n]

    def nonunit_degrees(self, up_to: int):
        """Degrees j in [1, up_to] where pi_j is not a unit.

        For admissible pi these are the degrees of a generating set of the
        augmentation ideal D_+ (see AlgebraContext.dplus_generator_degrees)."""
        return [j for j in range(1, up_to + 1) if not self.ring.is_unit(self.pi(j))]

    def zero_degrees(self, up_to: int):
        """Degrees j in [2, up_to] with pi_j = 0."""
        return [j for j in range(2, up_to + 1) if self.ring.is_zero(self.pi(j))]

    def is_zero_free(self) -> bool:
        """True only when the family proves pi_n != 0 for every n >= 2 (no
        scan up to a bound can): all-ones; classical over Z, Q or Z_(p);
        custom with a nonzero default and nonzero values; cyclotomic_at at
        q0 = 0, as Phi_n(0) = 1, or over Z, Q or Z_(p) at q0 != -1, as
        Phi_n, n >= 2, has no rational root but -1 (for n = 2)."""
        R, meta, family = self.ring, self.meta, self.family
        if family == "custom":
            return not any(R.is_zero(v) for v in [meta["default"], *meta["values"].values()])
        if family == "cyclotomic_at":
            q0 = meta["q0"]
            return R.is_zero(q0) or isinstance(R, NumberRing) and not R.eq(q0, R.from_int(-1))
        return family == "all_ones" or family == "classical" and isinstance(R, NumberRing)

    # -- serialization ----------------------------------------------------
    def to_json(self, value_horizon: int | None = None) -> dict:
        out = {"family": self.family, "ring": self.ring.to_json()}
        if self.family == "custom":
            out["values"] = {
                str(k): self.ring.to_str(v) for k, v in sorted(self.meta["values"].items())
            }
            out["default"] = self.ring.to_str(self.meta["default"])
        elif self.family == "cyclotomic_at":
            out["q0"] = self.ring.to_str(self.meta["q0"])
        elif self.family == "gcd_morphic":
            out["a"] = list(self.meta["a"])
        if value_horizon is not None:
            out["values_preview"] = {
                str(n): self.ring.to_str(self.pi(n)) for n in range(2, value_horizon + 1)
            }
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "PiSequence":
        ring = ring_from_json(obj["ring"]) if "ring" in obj else ZZ
        family = obj["family"]
        if family == "all_ones":
            return cls.all_ones(ring)
        if family == "classical":
            return cls.classical(ring)
        if family == "cyclotomic":
            return cls.cyclotomic_symbolic()
        if family == "cyclotomic_at":
            return cls.cyclotomic_at(ring, ring.from_str(str(obj["q0"])))
        if family == "gcd_morphic":
            seq = json_int_list(obj["a"])  # a(1), a(2), ...
            return pi_from_gcd_morphic(lambda n: seq[n - 1], up_to=len(seq))
        if family == "custom":
            values = {int(k): ring.from_str(str(v)) for k, v in obj.get("values", {}).items()}
            default = ring.from_str(str(obj["default"])) if "default" in obj else None
            return cls.custom(ring, values, default)
        raise ValueError(f"unknown pi family {family!r}")

    def __repr__(self):
        return f"PiSequence({self.family} over {self.ring.describe()})"


# ---------------------------------------------------------------------------
# invariants a, A, C
# ---------------------------------------------------------------------------


def a_invariant(pi: PiSequence, n: int):
    """a(n) = prod of pi_d over divisors d of n, d != 1; a(1) = 1."""
    if n < 1:
        raise PreconditionError("a(n) requires n >= 1")
    if n in pi._a_memo:
        return pi._a_memo[n]
    R = pi.ring
    acc = R.one()
    for d in divisors(n):
        if d != 1:
            acc = R.mul(acc, pi.pi(d))
    pi._a_memo[n] = acc
    return acc


def A_invariant(pi: PiSequence, n: int):
    """A(n) = a(n) a(n-1) ... a(1); A(0) = 1."""
    if n < 0:
        raise PreconditionError("A(n) requires n >= 0")
    R = pi.ring
    acc = R.one()
    for k in range(1, n + 1):
        acc = R.mul(acc, a_invariant(pi, k))
    return acc


def c_binomial(pi: PiSequence, n: int, m: int):
    """C(n, m) = prod over k in [2, n] of pi_k^{eps_k(n-m, m)} (carry product).

    eps_k(a, b) = floor((a mod k + b mod k) / k), so the carry test is
    inlined as a mod k + b mod k >= k.  pi_k is evaluated only where a carry
    occurs, in increasing k, and the loop stops once the product is zero:
    no pi_k is asked for that the product does not use."""
    # a hit needs no range check (PiSequence._c_memo)
    acc = pi._c_memo.get((n, m))
    if acc is not None:
        return acc
    if not 0 <= m <= n:
        raise PreconditionError(f"c_binomial requires 0 <= m <= n, got ({n}, {m})")
    R = pi.ring
    acc = R.one()
    a, b = n - m, m
    for k in range(2, n + 1):
        if a % k + b % k >= k:
            acc = R.mul(acc, pi.pi(k))
            if R.is_zero(acc):
                break
    pi._c_memo[(n, m)] = acc
    return acc


# ---------------------------------------------------------------------------
# h-transform
# ---------------------------------------------------------------------------


def h_transform(pi: PiSequence, h: int) -> PiSequence:
    """The h-transform: pi^[h]_n = prod over d | h with gcd(h/d, n) = 1 of pi_{dn}."""
    if h < 1:
        raise PreconditionError("h-transform requires h >= 1")
    if h == 1:
        return pi
    R = pi.ring

    def fn(n):
        acc = R.one()
        for d in divisors(h):
            if math.gcd(h // d, n) == 1:
                acc = R.mul(acc, pi.pi(d * n))
        return acc

    out = PiSequence(
        R,
        "transform",
        fn,
        meta={"base": pi, "h": h},
        admissible_by_fiat=pi.admissible_by_fiat,
    )
    return out


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def admissible_check(pi: PiSequence, up_to: int):
    """Scan pairs 2 <= n < m <= up_to with n not dividing m; return
    ("admissible", None) or ("violation", (n, m)) for the first pair whose
    values pi_n, pi_m do not generate the unit ideal.

    A pair that holds a unit generates the unit ideal, so only pairs of
    non-unit values are scanned: the verdict and the first witness do not
    change, and the check is cheap enough to run wherever admissibility is
    used.  Over a ring without an ideal test (Z[q]) a pair of non-units
    raises UnsupportedRingError."""
    witness = None if pi.admissible_by_fiat else _first_violation(pi, pi.nonunit_degrees(up_to))
    return ("admissible", None) if witness is None else ("violation", witness)


def _first_violation(pi: PiSequence, nonunit):
    """The first pair of admissible_check's scan, (n, m) or None, given
    nonunit = pi.nonunit_degrees(up_to)."""
    degs = nonunit[1:]  # pi_1 = 0 is in no pair
    for i, n in enumerate(degs):
        for m in degs[i + 1:]:
            if m % n and not pi.ring.ideal_is_unit([pi.pi(n), pi.pi(m)]):
                return (n, m)
    return None


# ---------------------------------------------------------------------------
# GCD-morphic bridge
# ---------------------------------------------------------------------------


def check_gcd_morphic(a, up_to: int):
    """Verify gcd(a(n), a(m)) = a(gcd(n, m)) for 1 <= n, m <= up_to.

    a is 1-indexed via a[n] (callable or sequence with a(0) unused).
    Returns ("ok", None) or ("violation", (n, m))."""
    def av(n):
        return a(n) if callable(a) else a[n]

    for n in range(1, up_to + 1):
        if av(n) == 0:
            return ("violation", (n, n))
    for n in range(1, up_to + 1):
        for m in range(n, up_to + 1):
            if math.gcd(abs(av(n)), abs(av(m))) != abs(av(math.gcd(n, m))):
                return ("violation", (n, m))
    return ("ok", None)


def pi_from_gcd_morphic(a, up_to: int) -> PiSequence:
    """Derive the pi-sequence of a never-zero GCD-morphic integer sequence by
    Moebius inversion: pi_n = prod over d | n of a(n/d)^{mu(d)} (an integer).

    a may be a callable n -> a(n) (1-indexed) or an indexable sequence with
    a[n] for 1 <= n <= up_to."""
    def av(n):
        return a(n) if callable(a) else a[n]

    verdict, witness = check_gcd_morphic(a, up_to)
    if verdict != "ok":
        raise PreconditionError(f"sequence is not GCD-morphic at pair {witness}")

    values = {}
    for n in range(2, up_to + 1):
        prod = Fraction(1)
        for d in divisors(n):
            mu = mobius(d)
            if mu == 1:
                prod *= av(n // d)
            elif mu == -1:
                prod /= av(n // d)
        if prod.denominator != 1:
            raise PreconditionError(
                f"Moebius product for pi_{n} is non-integral: {prod}"
            )
        values[n] = int(prod)
    out = PiSequence.custom(ZZ, values, default=1)
    out.family = "gcd_morphic"
    out.meta["a"] = [av(n) for n in range(1, up_to + 1)]
    out.meta["up_to"] = up_to
    return out


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a
