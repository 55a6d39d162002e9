"""Exact coefficient-ring arithmetic and linear algebra.

Supported rings: the integers Z, the rationals Q, residue rings Z/n, prime
fields GF(p), p-local rationals Z_(p) (fractions with denominator coprime to
p), and univariate integer polynomials Z[q] (ring arithmetic only, no matrix
algebra).

Elements are plain Python values interpreted through a :class:`Ring` object:

- Z, Z/n, GF(p): ``int`` (residues canonicalized into ``[0, n)``),
- Q, Z_(p): :class:`fractions.Fraction` (reduced; for Z_(p) the denominator is
  coprime to p),
- Z[q]: ``tuple`` of ``int`` coefficients, low degree first, no trailing zeros
  (the zero polynomial is the empty tuple).

All matrix routines (Smith normal form, kernels, cokernels, lattices) are exact
and work over the PID-like rings (Z, Z_(p), fields); Z/n is handled by lifting
to Z and reducing.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, NamedTuple


class UnsupportedRingError(ValueError):
    """A ring does not support the requested operation."""


class PreconditionError(ValueError):
    """An operation's precondition failed."""


_FRACTION_ZERO = Fraction(0)
_FRACTION_ONE = Fraction(1)


def _vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# Rings
# ---------------------------------------------------------------------------


class _Elimination(NamedTuple):
    """How the eliminations run over a ring, built once per ring by its
    class (:attr:`Ring._echelon`).  Rows hold ints or Fractions, so zero
    tests, sub and mul are Python's operators."""

    base: Ring  # the ring Lattice rows live over (Z for the lift of a composite Z/n)
    modulus: int  # p over GF(p), where row operations reduce mod p; 0 otherwise
    quotient: Callable | None  # base's quo_rem; None over Z, where divmod is inlined
    key: Callable  # the Smith pivot key
    generator: Callable  # nonzero x -> the canonical generator of the ideal (x)
    window: Ring  # the ring the torsion windows keep their rows over
    clear: Callable  # a row of ring elements -> a unit multiple of it over window
    primitive: Callable  # a row of products over window -> the one row the windows keep for it
    factor: Callable  # a torsion invariant -> its (prime, exponent) pairs


class Ring:
    """Base class for exact coefficient rings.

    Subclasses define canonical value representations and the arithmetic /
    divisibility protocol used by the linear algebra layer. Instances are
    immutable and hashable; all operations are pure functions.  Exact
    division is not in the protocol: it is Z[q]'s alone (IntPolyRing).
    """

    kind: str = "?"
    is_field = False
    is_pid = False
    is_local = False

    # -- arithmetic -------------------------------------------------------
    def canon(self, x):
        raise NotImplementedError

    def zero(self):
        return self.canon(0)

    def one(self):
        return self.canon(1)

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        r = self.one()
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def eq(self, a, b) -> bool:
        return a == b

    # -- units / divisibility --------------------------------------------
    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def inv(self, a):
        """Inverse of a unit."""
        raise NotImplementedError

    def divides(self, a, b) -> bool:
        """Whether a | b."""
        raise NotImplementedError

    def unit_and_canonical(self, a):
        """Return (u, c) with a = u*c, u a unit and c the canonical associate."""
        raise NotImplementedError

    def canonical_associate(self, a):
        return self.unit_and_canonical(a)[1]

    def associate(self, a, b) -> bool:
        """Whether a and b differ by a unit."""
        if self.is_zero(a) or self.is_zero(b):
            return self.is_zero(a) and self.is_zero(b)
        return self.divides(a, b) and self.divides(b, a)

    # -- euclidean protocol (for SNF) ------------------------------------
    def quo_rem(self, a, b):
        """(q, r) with a = q*b + r and r strictly 'smaller' than b (pivot key)."""
        raise UnsupportedRingError(f"no division algorithm over {self.describe()}")

    def pivot_key(self, a):
        """Well-founded size measure for SNF pivot selection (nonzero a)."""
        raise UnsupportedRingError(f"no pivot measure over {self.describe()}")

    # -- ideals -----------------------------------------------------------
    def in_jacobson_radical(self, a) -> bool:
        raise UnsupportedRingError(f"no Jacobson-radical test over {self.describe()}")

    def ideal_contains(self, gens, x) -> bool:
        """Whether x lies in the ideal generated by gens."""
        raise UnsupportedRingError(f"no ideal membership over {self.describe()}")

    def ideal_is_unit(self, gens) -> bool:
        return self.ideal_contains(gens, self.one())

    # -- conversions ------------------------------------------------------
    def from_int(self, k: int):
        return self.canon(k)

    def to_str(self, a) -> str:
        return str(a)

    def from_str(self, s: str):
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"<Ring {self.describe()}>"

    def describe(self) -> str:
        return self.kind

    @cached_property
    def _echelon(self) -> _Elimination:
        """The ring's :class:`_Elimination`.  Q and Z[q] keep this default:
        over the ring itself by its quo_rem, pivot_key and canonical
        associates, with no torsion factorization."""
        return _Elimination(
            self, 0, self.quo_rem, self.pivot_key, self.canonical_associate, self,
            list, self._canon_row, self._factor,
        )

    def _canon_row(self, v) -> list:
        """v, a row of products taken with Python's operators, as canonical
        elements of this ring (over Z/n and GF(p), read mod n)."""
        return [self.canon(x) for x in v]

    def _factor(self, t):
        raise UnsupportedRingError(f"no torsion factorization over {self.describe()}")

    def __eq__(self, other):
        return isinstance(other, Ring) and self.to_json() == other.to_json()

    def __hash__(self):
        return hash(tuple(sorted(self.to_json().items())))


class NumberRing(Ring):
    """Base of Z, Q and Z_(p), whose elements are Python ints or Fractions:
    the ring operations are Python's own, and 0 and 1 are constants."""

    _zero = 0
    _one = 1

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return not a


class IntegerRing(NumberRing):
    kind = "Z"
    is_pid = True

    def canon(self, x):
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"{x} is not an integer")
            return int(x)
        return int(x)

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if not self.is_unit(a):
            raise ValueError(f"{a} is not a unit in Z")
        return a

    def divides(self, a, b):
        if a == 0:
            return b == 0
        return b % a == 0

    def unit_and_canonical(self, a):
        if a < 0:
            return -1, -a
        return 1, a

    def quo_rem(self, a, b):
        # symmetric remainder: |r| <= |b|/2, for fast SNF convergence.
        # Python's divmod gives r with the sign of b in (b,0] or [0,b);
        # r - b always moves it into the symmetric range, i.e. q += 1.
        q, r = divmod(a, b)
        if 2 * abs(r) > abs(b):
            q += 1
            r -= b
        return q, r

    def pivot_key(self, a):
        return abs(a)

    @cached_property
    def _echelon(self):
        # quotient None: the eliminations inline the symmetric quo_rem
        # ints are rows' entries as they are: clear and primitive copy the row
        return _Elimination(self, 0, None, abs, abs, self, list, list, _factor_integer)

    def in_jacobson_radical(self, a):
        return a == 0

    def ideal_contains(self, gens, x):
        g = 0
        for a in gens:
            g = math.gcd(g, a)
        return self.divides(g, x)

    def from_str(self, s):
        return int(s)

    def to_json(self):
        return {"ring": "Z"}


class RationalField(NumberRing):
    kind = "Q"
    _zero = _FRACTION_ZERO
    _one = _FRACTION_ONE
    is_field = True
    is_pid = True

    def canon(self, x):
        return Fraction(x)

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 is not a unit")
        return 1 / Fraction(a)

    def divides(self, a, b):
        return a != 0 or b == 0

    def unit_and_canonical(self, a):
        if a == 0:
            return _FRACTION_ONE, _FRACTION_ZERO
        return Fraction(a), _FRACTION_ONE

    def quo_rem(self, a, b):
        return Fraction(a) / b, _FRACTION_ZERO

    def pivot_key(self, a):
        return 0

    def in_jacobson_radical(self, a):
        return a == 0

    def ideal_contains(self, gens, x):
        if any(g != 0 for g in gens):
            return True
        return x == 0

    def from_str(self, s):
        return Fraction(s)

    def to_json(self):
        return {"ring": "Q"}


class IntegersModRing(Ring):
    """Z/n.  A field iff n is prime (use :func:`GF` for emphasis)."""

    def __init__(self, n: int):
        n = int(n)
        if n < 2:
            raise PreconditionError("IntegersMod requires n >= 2")
        self.n = n
        self.is_field = _is_prime(n)
        self.is_pid = self.is_field
        self.is_local = _is_prime_power(n)
        self.kind = "GF" if self.is_field else "Zmod"

    def canon(self, x):
        return int(x) % self.n

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def is_zero(self, a):
        return not a

    def is_unit(self, a):
        return math.gcd(a % self.n, self.n) == 1

    def inv(self, a):
        return pow(a, -1, self.n)

    def divides(self, a, b):
        g = math.gcd(a % self.n, self.n)
        return (b % self.n) % g == 0

    def unit_and_canonical(self, a):
        a %= self.n
        if a == 0:
            return 1, 0
        g = math.gcd(a, self.n)
        # find a unit u with u*g == a (mod n); a//g is a unit mod n//g, lift it
        base = a // g
        m = self.n // g
        u = base
        while math.gcd(u, self.n) != 1:
            u += m
        u %= self.n
        assert (u * g) % self.n == a
        return u, g

    def quo_rem(self, a, b):
        if not self.is_field:
            raise UnsupportedRingError(f"no division algorithm over {self.describe()}")
        return self.mul(a, self.inv(b)), 0

    def pivot_key(self, a):
        if not self.is_field:
            raise UnsupportedRingError(f"no pivot measure over {self.describe()}")
        return 0

    @cached_property
    def _echelon(self):
        if self.is_field:
            return _Elimination(
                self, self.n, self.quo_rem, self.pivot_key, lambda x: 1, self, list,
                self._canon_row, self._factor,
            )
        # composite n: the rows are integers, whose residues mod n count
        return ZZ._echelon._replace(window=self, primitive=self._canon_row, factor=self._factor)

    def _factor(self, t):
        return _factor_integer(t % self.n)

    def in_jacobson_radical(self, a):
        # J(Z/n) = (rad n) is the set of nilpotents, and every prime divides
        # n fewer than bit_length times, so a nilpotent a has a^bit_length = 0
        return pow(a % self.n, self.n.bit_length(), self.n) == 0

    def ideal_contains(self, gens, x):
        g = self.n
        for a in gens:
            g = math.gcd(g, a % self.n)
        return (x % self.n) % g == 0

    def from_str(self, s):
        return self.canon(int(s))

    def to_json(self):
        if self.is_field:
            return {"ring": "GF", "p": self.n}
        return {"ring": "Zmod", "n": self.n}

    def describe(self):
        return f"GF({self.n})" if self.is_field else f"Z/{self.n}"


class PLocalRing(NumberRing):
    """Z_(p): rationals with denominator coprime to p.  A local PID (a DVR)."""

    kind = "Zloc"
    _zero = _FRACTION_ZERO
    _one = _FRACTION_ONE
    is_pid = True
    is_local = True

    def __init__(self, p: int):
        p = int(p)
        if not _is_prime(p):
            raise PreconditionError(f"PLocal requires a prime, got {p}")
        self.p = p

    def canon(self, x):
        f = Fraction(x)
        if f.denominator % self.p == 0:
            raise ValueError(f"{f} is not p-local at p={self.p}")
        return f

    def valuation(self, a) -> int:
        """p-adic valuation; raises on zero."""
        if a == 0:
            raise ValueError("valuation of zero")
        return _vp(a.numerator, self.p)

    def is_unit(self, a):
        return a != 0 and a.numerator % self.p != 0

    def inv(self, a):
        if not self.is_unit(a):
            raise ValueError(f"{a} is not a unit in Z_({self.p})")
        return 1 / a

    def divides(self, a, b):
        if a == 0:
            return b == 0
        if b == 0:
            return True
        return self.valuation(a) <= self.valuation(b)

    def unit_and_canonical(self, a):
        if a == 0:
            return _FRACTION_ONE, _FRACTION_ZERO
        c = Fraction(self.p) ** self.valuation(a)
        return a / c, c

    def quo_rem(self, a, b):
        if self.divides(b, a):
            return Fraction(a) / b, _FRACTION_ZERO
        return _FRACTION_ZERO, Fraction(a)

    def pivot_key(self, a):
        return self.valuation(a)

    @cached_property
    def _echelon(self):
        # the windows keep primitive integer rows: a unit scale changes no span
        p, v = self.p, self.valuation

        def generator(x) -> int:
            """p^v(x), the canonical generator of (x), x a nonzero int or Fraction."""
            n, g = x.numerator, 1
            if not n:
                raise ValueError("valuation of zero")
            while not n % p:
                n //= p
                g *= p
            return g

        def primitive(row: list) -> list:
            """The integer row divided by the part of its content prime to p:
            the one positive unit multiple of it whose content is a power of
            p, the same for every unit multiple of the row."""
            g = math.gcd(*row)
            while g and not g % p:
                g //= p
            return [x // g for x in row] if g > 1 else row

        return _Elimination(
            self, 0, self.quo_rem, self.pivot_key, generator, ZZ, _cleared, primitive,
            lambda t: [(p, v(t))],
        )

    def in_jacobson_radical(self, a):
        return a == 0 or self.valuation(a) >= 1

    def ideal_contains(self, gens, x):
        vals = [self.valuation(g) for g in gens if g != 0]
        if not vals:
            return x == 0
        return x == 0 or self.valuation(x) >= min(vals)

    def from_str(self, s):
        return self.canon(Fraction(s))

    def to_json(self):
        return {"ring": "Zloc", "p": self.p}

    def describe(self):
        return f"Z_({self.p})"


class IntPolyRing(Ring):
    """Z[q]: integer polynomials in one variable.  Ring arithmetic only, and
    exact division, for the quotients of :func:`cyclotomic_poly`."""

    kind = "ZPoly"
    is_pid = False

    def canon(self, x):
        if isinstance(x, (int, Fraction)):
            k = IntegerRing().canon(x)
            return (k,) if k else ()
        t = tuple(int(c) for c in x)
        while t and t[-1] == 0:
            t = t[:-1]
        return t

    def add(self, a, b):
        n = max(len(a), len(b))
        out = [0] * n
        for i, c in enumerate(a):
            out[i] += c
        for i, c in enumerate(b):
            out[i] += c
        return self.canon(out)

    def neg(self, a):
        return tuple(-c for c in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b):
                    out[i + j] += c * d
        return self.canon(out)

    def is_unit(self, a):
        return len(a) == 1 and a[0] in (1, -1)

    def inv(self, a):
        if not self.is_unit(a):
            raise ValueError("not a unit in Z[q]")
        return a

    def _divmod_q(self, b, a):
        """Division over Q: (quotient, remainder) with Fraction coefficients."""
        rem = [Fraction(c) for c in b]
        quo = [Fraction(0)] * max(0, len(b) - len(a) + 1)
        lead = Fraction(a[-1])
        for i in range(len(b) - len(a), -1, -1):
            c = rem[i + len(a) - 1] / lead
            if c:
                quo[i] = c
                for j, d in enumerate(a):
                    rem[i + j] -= c * d
        while rem and rem[-1] == 0:
            rem.pop()
        return quo, rem

    def divides(self, a, b):
        if not a:
            return not b
        if not b:
            return True
        if (len(b) - len(a)) < 0:
            return False
        quo, rem = self._divmod_q(b, a)
        return not rem and all(c.denominator == 1 for c in quo)

    def exact_div(self, b, a):
        if not a:
            if not b:
                return ()
            raise ValueError("0 does not divide a nonzero polynomial")
        quo, rem = self._divmod_q(b, a)
        if rem or any(c.denominator != 1 for c in quo):
            raise ValueError("not divisible in Z[q]")
        return self.canon([int(c) for c in quo])

    def unit_and_canonical(self, a):
        if not a:
            return (1,), ()
        if a[-1] < 0:
            return (-1,), self.neg(a)
        return (1,), a

    def evaluate(self, a, ring: Ring, q0):
        """Evaluate the polynomial at q0 in another ring."""
        acc = ring.zero()
        for c in reversed(a):
            acc = ring.add(ring.mul(acc, q0), ring.from_int(c))
        return acc

    def to_str(self, a):
        if not a:
            return "0"
        parts = []
        for i in range(len(a) - 1, -1, -1):
            c = a[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mon = "q" if i == 1 else f"q^{i}"
                term = mon if abs(c) == 1 else f"{abs(c)}*{mon}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, term))
        s = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, term in parts[1:]:
            s += sign + term
        return s

    _TERM = re.compile(r"([+-]?)\s*(\d+)?\s*\*?\s*(q(?:\^(\d+))?)?\s*")

    def from_str(self, s):
        s = s.strip()
        if s.startswith("[") and s.endswith("]"):
            inner = s[1:-1].strip()
            return self.canon([int(t) for t in inner.split(",")] if inner else [])
        if s == "0":
            return ()
        coeffs: dict[int, int] = {}
        pos = 0
        while pos < len(s):
            m = self._TERM.match(s, pos)
            if not m or m.end() == pos:
                raise ValueError(f"cannot parse polynomial {s!r}")
            sign = -1 if m.group(1) == "-" else 1
            num = int(m.group(2)) if m.group(2) else 1
            if m.group(3):
                deg = int(m.group(4)) if m.group(4) else 1
            else:
                deg = 0
            coeffs[deg] = coeffs.get(deg, 0) + sign * num
            pos = m.end()
        out = [0] * (max(coeffs) + 1)
        for d, c in coeffs.items():
            out[d] = c
        return self.canon(out)

    def to_json(self):
        return {"ring": "ZPoly"}

    def describe(self):
        return "Z[q]"


# The first 13 primes; a strong probable prime to all of them below this bound
# is prime (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86 (2017)).  The bound is the least strong pseudoprime to all 13.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.  A witness proves n
    composite at any size; raises :class:`PreconditionError` when n passes
    all 13 bases at or above ``_MR_BOUND``, where they no longer certify
    primality."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise PreconditionError(f"cannot certify that {n} is prime (at or above {_MR_BOUND})")
    return True


def _iroot(n: int, k: int) -> int:
    """The integer part of the k-th root of n >= 1 (Newton's method)."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _is_prime_power(n: int) -> bool:
    """Whether n = r^k for a prime r and some k >= 1, found by exact k-th
    roots rather than by factoring n."""
    for k in range(1, n.bit_length() + 1):
        r = _iroot(n, k)
        if r < 2:
            return False
        if r**k == n and _is_prime(r):
            return True
    return False


def _prime_factors(n: int) -> list:
    """The distinct primes dividing n >= 1, in increasing order: the first 13
    primes by trial division, larger ones split off by Pollard-Brent rho."""
    primes = set()
    for p in _MR_BASES:
        if n % p == 0:
            primes.add(p)
            n //= p ** _vp(n, p)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if _is_prime(m):
            primes.add(m)
        else:
            f = _rho_factor(m)
            stack += [f, m // f]
    return sorted(primes)


def _rho_factor(n: int) -> int:
    """A proper factor of a composite n with no prime factor below 42
    (Brent's variant of Pollard's rho, R. P. Brent, BIT 20 (1980))."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batched product overshot: step back one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise AssertionError(f"no factor of {n} found")


ZZ = IntegerRing()
QQ = RationalField()
ZPOLY = IntPolyRing()


def Zmod(n: int) -> IntegersModRing:
    return IntegersModRing(n)


def GF(p: int) -> IntegersModRing:
    r = IntegersModRing(p)
    if not r.is_field:
        raise PreconditionError(f"GF requires a prime, got {p}")
    return r


def Zloc(p: int) -> PLocalRing:
    return PLocalRing(p)


def json_int(x) -> int:
    """x itself if it is a JSON integer; a ValueError otherwise.  The one
    integer rule for JSON input: floats, booleans and strings are not
    coerced (JSON object keys, always strings, are read as decimals)."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {json.dumps(x)}")
    return x


def json_int_list(obj) -> list:
    """obj as a list of :func:`json_int` integers; a ValueError naming all
    of obj otherwise."""
    if isinstance(obj, list):
        try:
            return [json_int(x) for x in obj]
        except ValueError:
            pass
    raise ValueError(f"expected a list of integers, got {json.dumps(obj)}")


def ring_from_json(obj: dict) -> Ring:
    """Deserialize a ring descriptor {"ring": ..., "n": ..., "p": ...}."""
    kind = obj["ring"]
    if kind == "Z":
        return ZZ
    if kind == "Q":
        return QQ
    if kind == "Zmod":
        return Zmod(json_int(obj["n"]))
    if kind == "GF":
        return GF(json_int(obj["p"]))
    if kind == "Zloc":
        return Zloc(json_int(obj["p"]))
    if kind == "ZPoly":
        return ZPOLY
    raise ValueError(f"unknown ring kind {kind!r}")


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


class ExactMatrix:
    """A rows x cols matrix of ring elements (row-major list of lists)."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: Ring, entries, rows: int | None = None, cols: int | None = None):
        self.ring = ring
        if rows is None:
            rows = len(entries)
        if cols is None:
            cols = len(entries[0]) if entries else 0
        self.rows = rows
        self.cols = cols
        self.entries = [[ring.canon(x) for x in row] for row in entries]
        for row in self.entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")

    @classmethod
    def _from_canonical(cls, ring: Ring, entries, rows: int, cols: int) -> "ExactMatrix":
        """Wrap entries that are already canonical ring elements, as is."""
        m = cls.__new__(cls)
        m.ring, m.rows, m.cols, m.entries = ring, rows, cols, entries
        return m

    @classmethod
    def from_columns(cls, ring: Ring, columns, rows: int) -> "ExactMatrix":
        """The rows x len(columns) matrix with these columns of canonical
        ring elements, as is."""
        entries = [list(r) for r in zip(*columns)] if columns else [[] for _ in range(rows)]
        return cls._from_canonical(ring, entries, rows, len(columns))

    @classmethod
    def zero(cls, ring: Ring, rows: int, cols: int) -> "ExactMatrix":
        z = ring.zero()
        return cls._from_canonical(ring, [[z] * cols for _ in range(rows)], rows, cols)

    def __repr__(self):
        return f"ExactMatrix({self.ring.describe()}, {self.entries})"


@dataclass(frozen=True)
class ModuleInvariants:
    """Invariants of a finitely generated module over a coefficient ring.

    free_rank plus an ordered divisibility chain of nonunit, nonzero torsion
    factors d1 | d2 | ... (canonical associates).  Over a field the torsion
    list is empty and free_rank is the dimension.
    """

    ring: Ring
    free_rank: int
    torsion_factors: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self, "torsion_factors", tuple(self.ring.canon(t) for t in self.torsion_factors)
        )

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion_factors

    def torsion_lengths(self) -> dict:
        """Per-prime lengths of the torsion part (Z, Z_(p), Z/n rings)."""
        out: dict[int, int] = {}
        for t in self.torsion_factors:
            for p, e in self.ring._echelon.factor(t):
                out[p] = out.get(p, 0) + e
        return out

    def plus_class(self) -> dict:
        """[M]_+ : per-prime torsion lengths; zero (empty) unless M is torsion."""
        if self.free_rank > 0:
            return {}
        return self.torsion_lengths()

    def to_json(self):
        return {
            "free_rank": self.free_rank,
            "torsion_factors": [self.ring.to_str(t) for t in self.torsion_factors],
        }

    def __repr__(self):
        R = self.ring
        parts = [f"{R.describe()}^{self.free_rank}"] if self.free_rank else []
        parts += [f"{R.describe()}/({R.to_str(t)})" for t in self.torsion_factors]
        return " + ".join(parts) if parts else "0"


def _factor_integer(n: int) -> list:
    """The (prime, exponent) pairs of a nonzero integer n."""
    n = abs(n)
    return [(p, _vp(n, p)) for p in _prime_factors(n)]


def invariants_from_factors(ring: Ring, free_rank: int, factors) -> ModuleInvariants:
    """Invariants of ring^free_rank plus the sum of ring/(f) over the factors
    f, in any order: the cokernel of their diagonal matrix.  With no factors
    that is ring^free_rank, returned without a Smith normal form."""
    k = len(factors)
    if not k:
        return ModuleInvariants(ring, free_rank, ())
    diag = ExactMatrix.zero(ring, k, k)
    for i, f in enumerate(factors):
        diag.entries[i][i] = ring.canon(f)
    inv = cokernel_invariants(diag)
    return ModuleInvariants(ring, free_rank + inv.free_rank, inv.torsion_factors)


# ---------------------------------------------------------------------------
# Smith normal form and derived operations
# ---------------------------------------------------------------------------


def smith_normal_form(m: ExactMatrix):
    """Return (U, D, V) with U*m*V = D diagonal with a divisibility chain.

    U and V are invertible over the ring.  Supported rings: Z, Z_(p), and
    fields.  Over Z/n (n composite) raises UnsupportedRingError; callers
    should use the lift-based kernel/cokernel helpers instead.

    The elimination is :func:`_euclid` (through :func:`_smith`), which
    :func:`cokernel_invariants`, :func:`kernel_basis` and
    :func:`quotient_generators` run too, each building only the factors it
    reads: none of them calls this.  It is the one entry that returns U and
    the whole V, so it is where _euclid's row and column moves can be
    checked, through U*m*V = D.
    """
    return _smith(m, "UDV")


def _smith(m: ExactMatrix, want: str):
    """The Smith elimination of m that its ring and the request want call
    for, building only the factors the request reads:

    - "UDV": the ExactMatrices (U, D, V) of :func:`smith_normal_form`;
    - "D": the diagonal of D, for :func:`cokernel_invariants`;
    - "V": the columns of V past the rank, a basis of the kernel;
    - "W": (the diagonal of D, the columns of U^-1), for
      :func:`quotient_generators`.

    Every request over Z, Q, GF(p) and Z_(p) runs :func:`_euclid` as the
    ring's record (Ring._echelon) says: on ints over Z and GF(p), on
    Fractions over Q and Z_(p), whose pivots of least valuation already form
    the divisibility chain.  Unless only V is wanted, a violation of the
    chain (over Z) then mixes the two columns and eliminates again (the
    least pivot pulls in the gcd), and each pivot is scaled to its canonical
    associate, its row of U by the inverse unit and its column of U^-1 by
    the unit.  Neither step touches the columns of V past the rank: the
    repair only adds pivot columns to pivot columns, and a zero column never
    becomes a pivot.  Where the record's base is not the ring (Z/n, n
    composite), "D" and "V" run over Z on the lift [A | nI] and read the
    result mod n; every other request there, and every request over Z[q],
    raises.
    """
    R, nr, nc = m.ring, m.rows, m.cols
    elim = R._echelon
    if elim.base is not R and want in ("D", "V"):
        # [A | nI] over Z: its kernel and cokernel are those of A over Z/n
        lift = [row + n_row for row, n_row in zip(m.entries, _lift_rows(R, nr))]
        out = _smith(ExactMatrix._from_canonical(elim.base, lift, nr, nc + nr), want)
        return out if want == "D" else _kernel_heads(R, out, nc)
    if not R.is_pid:
        raise UnsupportedRingError(f"smith_normal_form unsupported over {R.describe()}")
    A = [row[:] for row in m.entries]
    one, zero = R.one(), R.zero()
    U = _identity(nr, one, zero) if "U" in want else None
    V = _identity(nc, one, zero) if "V" in want else None
    W = _identity(nr, one, zero) if want == "W" else None
    key, quo_rem, p = elim.key, elim.quotient, elim.modulus
    rank = _euclid(A, nc, key, quo_rem, p, U, V, W)
    if want == "V":
        return V[rank:]
    i = 0
    while i < rank - 1:
        if R.divides(A[i][i], A[i + 1][i + 1]):
            i += 1
            continue
        # a chain breaks only over Z, where A and V need no reduction
        for row in A:
            row[i] += row[i + 1]
        if V is not None:
            V[i] = [x + y for x, y in zip(V[i], V[i + 1])]
        rank = _euclid(A, nc, key, quo_rem, p, U, V, W)
        i = 0
    for i in range(rank):
        u, A[i][i] = R.unit_and_canonical(A[i][i])
        if u != 1:
            ui = R.inv(u)
            if U is not None:
                U[i] = [R.mul(ui, x) for x in U[i]]
            if W is not None:
                W[i] = [R.mul(u, x) for x in W[i]]
    diag = [A[i][i] for i in range(min(nr, nc))]
    if want == "D":
        return diag
    if want == "W":
        return diag, W
    return (
        ExactMatrix._from_canonical(R, U, nr, nr),
        ExactMatrix._from_canonical(R, A, nr, nc),
        ExactMatrix._from_canonical(R, [list(r) for r in zip(*V)], nc, nc),
    )


def _euclid(A: list, nc: int, key, quo_rem, p: int, U=None, V=None, W=None) -> int:
    """Diagonalize the rows A (nc columns) in place by the Euclidean
    elimination of the Smith form (Cohen, *A Course in Computational
    Algebraic Number Theory*, 2.4); returns the rank.

    Step t takes as pivot the first entry of least key(x) at or after
    (t, t), in row-major order, and clears the rows below it, then the
    columns after it, with quo_rem(x, pivot) (over Z, quo_rem is None and
    the symmetric quotient of ``IntegerRing.quo_rem`` is inlined), until no
    remainder is left.  Entries are ints or Fractions, so the zero test,
    product and difference are Python's operators, reduced mod p when p is
    nonzero (over GF(p)).  Each factor given is updated in place: U (rows)
    by the row moves, V by the column moves, and W, U^-1, by the inverse of
    each row move as a column move; V and W are kept transposed (V[j] is
    column j of V)."""
    nr = len(A)
    for t in range(min(nr, nc)):
        while True:
            # rows before t are zero from column t on; a key of 0 is least
            best, pi, pj = -1, t, t
            for i in range(t, nr):
                row = A[i]
                for j in range(t, nc):
                    x = row[j]
                    if x:
                        k = key(x)
                        if best < 0 or k < best:
                            best, pi, pj = k, i, j
                            if not k:
                                break
                if not best:
                    break
            if best < 0:
                return t
            if pi != t:
                A[t], A[pi] = A[pi], A[t]
                if U is not None:
                    U[t], U[pi] = U[pi], U[t]
                if W is not None:
                    W[t], W[pi] = W[pi], W[t]
            if pj != t:
                for row in A[t:]:
                    row[t], row[pj] = row[pj], row[t]
                if V is not None:
                    V[t], V[pj] = V[pj], V[t]
            At = A[t]
            a = At[t]
            left = []  # the rows below the pivot left with a remainder
            for i in range(t + 1, nr):
                x = A[i][t]
                if x:
                    if quo_rem is None:
                        q, r = divmod(x, a)
                        if 2 * abs(r) > best:  # best is |a| over Z
                            q += 1
                            r -= a
                    else:
                        q, r = quo_rem(x, a)
                    if q:
                        A[i] = _minus(A[i], q, At, p)
                        if U is not None:
                            U[i] = _minus(U[i], q, U[t], p)
                        if W is not None:
                            W[t] = _minus(W[t], -q, W[i], p)
                    if r:
                        left.append(A[i])
            dirty = bool(left)
            for j in range(t + 1, nc):
                x = At[j]
                if x:
                    if quo_rem is None:
                        q, r = divmod(x, a)
                        if 2 * abs(r) > best:
                            q += 1
                            r -= a
                    else:
                        q, r = quo_rem(x, a)
                    if q:
                        At[j] = r
                        for row in left:
                            row[j] -= q * row[t]
                        if V is not None:
                            V[j] = _minus(V[j], q, V[t], p)
                    if r:
                        dirty = True
            if not dirty:
                break
    return min(nr, nc)


def _identity(n: int, one=1, zero=0) -> list:
    """The rows of the n x n identity matrix."""
    rows = []
    for i in range(n):
        row = [zero] * n
        row[i] = one
        rows.append(row)
    return rows


def _minus(x: list, q, y: list, p: int) -> list:
    """x - q * y, entry by entry, reduced mod p when p is nonzero."""
    if p:
        return [(a - q * b) % p for a, b in zip(x, y)]
    return [a - q * b for a, b in zip(x, y)]


def _cleared(v) -> list:
    """Over Z_(p), the ints that are v times the lcm of its denominators, for
    v a row of ints or p-local Fractions: a positive unit multiple of v, as
    the denominators are prime to p."""
    l = 1
    for x in v:
        if x.denominator != 1:
            l = math.lcm(l, x.denominator)
    if l == 1:
        return [x.numerator for x in v]
    return [x.numerator * (l // x.denominator) for x in v]


def _kernel_heads(R: Ring, kernel, n: int) -> list:
    """The distinct nonzero heads v[:n], read in R, of the kernel vectors v
    of a matrix [A | B] whose A has n columns: they generate the vectors
    that A maps into the span of B's columns."""
    heads, seen = [], set()
    for v in kernel:
        w = tuple(R.canon(x) for x in v[:n])
        if any(w) and w not in seen:
            seen.add(w)
            heads.append(list(w))
    return heads


def _lift_rows(ring: Ring, dim: int) -> list:
    """The rows n e_i, generators of ker(Z^dim -> (Z/n)^dim), where the
    ring's record (Ring._echelon) lifts Z/n to Z; none over any other ring.
    Lattice.__init__ tests the same rule inline, to skip the call for each
    of the many small lattices built over Z, Z_(p) and fields."""
    if ring._echelon.base is ring:
        return []
    return [[ring.n if t == i else 0 for t in range(dim)] for i in range(dim)]


def _diagonal_invariants(R: Ring, rows: int, diag) -> ModuleInvariants:
    """Invariants of R^rows modulo the diag[i] * e_i, with the entries of
    diag read in R (over Z/n, integers read mod n, so a factor n is a free
    summand): one free summand per zero or missing entry, and the nonunits
    as torsion."""
    nonzero = [d for d in map(R.canon, diag) if d]
    return ModuleInvariants(R, rows - len(nonzero), tuple(d for d in nonzero if not R.is_unit(d)))


def cokernel_invariants(m: ExactMatrix) -> ModuleInvariants:
    """Invariants of coker(m : R^cols -> R^rows), from the diagonal of m's
    Smith form, built without U or V (over Z/n, of the lift's).  Over a
    field the cokernel is free of rank rows - rank(m), and the rank is that
    of the echelon basis of m's columns."""
    R = m.ring
    if R.is_field:
        return column_cokernel_invariants(R, zip(*m.entries), m.rows)
    return _diagonal_invariants(R, m.rows, _smith(m, "D"))


def column_cokernel_invariants(ring: Ring, columns, rows: int) -> ModuleInvariants:
    """cokernel_invariants of the rows x len(columns) matrix with these
    columns of canonical ring elements.  Over a field it reads the rank of
    the columns' echelon basis from the columns themselves, with no matrix
    built and transposed back."""
    if ring.is_field:
        return ModuleInvariants(ring, rows - Lattice(ring, rows, columns).rank)
    return cokernel_invariants(ExactMatrix.from_columns(ring, list(columns), rows))


def kernel_basis(m: ExactMatrix):
    """Generators of {v : m v = 0} as a list of column vectors: the columns
    of the Smith form's V past the rank, built without U.

    Over fields and Z (and Z_(p)) this is a basis of the full kernel
    (saturated over Z).  Over Z/n it generates the kernel subgroup: the
    distinct nonzero residues of the kernel of the lift [A | nI] over Z,
    cut to A's columns.
    """
    return _smith(m, "V")


# ---------------------------------------------------------------------------
# Submodules of R^dim
# ---------------------------------------------------------------------------


class Lattice:
    """A submodule of R^dim, held as an echelon basis: one row per pivot
    column, zero before its pivot, reduced with the ring's quo_rem.

    Works over fields, Z and Z_(p).  Over Z/n (n composite) it holds the
    preimage in Z^dim, which contains n Z^dim: vectors enter as integers,
    and the rows are integer vectors whose residues generate the submodule.
    Entries must be canonical ring elements (over Z/n, any ints); they are
    not canonicalized again."""

    def __init__(self, ring: Ring, dim: int, vectors=()):
        self.dim = dim
        self.rows: dict[int, list] = {}  # pivot column -> row
        # the ring the rows live over, and how they reduce (Ring._echelon)
        self.base, self._mod, self._quo_rem = ring._echelon[:3]
        # generators of ker(Z^dim -> (Z/n)^dim); none where the rows live
        # over the ring itself (the rule of _lift_rows, tested here)
        self.lift_kernel = [] if self.base is ring else _lift_rows(ring, dim)
        for v in self.lift_kernel:
            self.insert(v)
        for v in vectors:
            self.insert(v)

    def insert(self, v) -> bool:
        """Add v; returns whether the lattice grew, i.e. v was not in it."""
        rows, dim, quo_rem, mod = self.rows, self.dim, self._quo_rem, self._mod
        v = list(v)
        grew = False
        for p in range(dim):
            if not v[p]:
                continue
            r = rows.get(p)
            if r is None:
                rows[p] = v
                return True
            while True:
                q, v[p] = divmod(v[p], r[p]) if quo_rem is None else quo_rem(v[p], r[p])
                if quo_rem is None and 2 * abs(v[p]) > abs(r[p]):
                    q += 1  # the symmetric remainder of IntegerRing.quo_rem
                    v[p] -= r[p]
                if q:
                    if mod:
                        for t in range(p + 1, dim):
                            v[t] = (v[t] - q * r[t]) % mod
                    else:
                        for t in range(p + 1, dim):
                            v[t] -= q * r[t]
                if not v[p]:
                    break
                # the remainder did not clear the pivot: it is the smaller
                # pivot, so swap it in and reduce the old row against it
                rows[p], v, r = v, r, v
                grew = True
        return grew

    def _express(self, v):
        """{pivot: q} with v = sum of q * rows[pivot], or None when v is not
        in the lattice.  Stops at the first nonzero entry that the rows
        cannot clear: the rows with a later pivot are zero there."""
        rows, dim, quo_rem, mod = self.rows, self.dim, self._quo_rem, self._mod
        v = list(v)
        out = {}
        for p in range(dim):
            if not v[p]:
                continue
            r = rows.get(p)
            if r is None:
                return None
            # over Z, b | a exactly when divmod leaves no remainder, so the
            # symmetric remainder of IntegerRing.quo_rem is not needed
            q, rem = divmod(v[p], r[p]) if quo_rem is None else quo_rem(v[p], r[p])
            if rem:
                return None
            out[p] = q
            if mod:
                for t in range(p + 1, dim):
                    v[t] = (v[t] - q * r[t]) % mod
            else:
                for t in range(p + 1, dim):
                    v[t] -= q * r[t]
        return out

    def contains(self, v) -> bool:
        return self._express(v) is not None

    def coords(self, v):
        """Coordinates of v in basis() order, or None when v is not in the lattice."""
        c = self._express(v)
        if c is None:
            return None
        return [c.get(p, self.base.zero()) for p in sorted(self.rows)]

    def basis(self) -> list:
        """The rows in pivot order (over Z/n, integer rows)."""
        return [self.rows[p][:] for p in sorted(self.rows)]

    @property
    def rank(self) -> int:
        """The number of rows (over Z/n, of the lift, so always dim)."""
        return len(self.rows)


class _NotInLatticeError(AssertionError):
    """A vector handed to _coordinates is not in the lattice."""


def _coordinates(lattice: Lattice, vectors) -> ExactMatrix:
    """The coordinates in lattice.basis() of the vectors and, over Z/n, of
    lattice.lift_kernel, one column each, over lattice.base."""
    coords = [lattice.coords(v) for v in [*vectors, *lattice.lift_kernel]]
    if any(c is None for c in coords):
        raise _NotInLatticeError("vectors must lie in the lattice")
    return ExactMatrix.from_columns(lattice.base, coords, lattice.rank)


def quotient_generators(ring: Ring, dim: int, vectors, sub_vectors) -> list:
    """Vectors whose classes generate span(vectors) / span(sub_vectors), for
    sub_vectors inside span(vectors): minimally over fields and PIDs, a
    generating set over Z/n.

    Over a field these are the vectors that grow the span, kept in order.
    Otherwise the sub-lattice is written in an echelon basis of
    span(vectors), and the non-unit invariant factors of its Smith form
    U X V = D are lifted back through U^-1 and that basis.  The elimination
    builds U^-1 alone, applying the inverse of each row move as a column
    move."""
    return _quotient_generators(ring, vectors, sub_vectors, Lattice(ring, dim, sub_vectors))


def _quotient_generators(ring: Ring, vectors, sub_vectors, sub: Lattice) -> list:
    """:func:`quotient_generators` with sub, the Lattice of sub_vectors,
    already built (it may grow)."""
    dim = sub.dim
    if ring.is_field:
        return [v for v in vectors if sub.insert(v)]
    if all(sub.contains(v) for v in vectors):
        return []
    whole = Lattice(ring, dim, vectors)
    R, basis = whole.base, whole.basis()
    X = _coordinates(whole, sub_vectors)
    if not X.cols:
        return basis
    diag, Uinv = _smith(X, "W")
    out = []
    for i, column in enumerate(Uinv):
        if i < len(diag) and R.is_unit(diag[i]):
            continue
        vec = [R.zero()] * dim
        for c, b in zip(column, basis):
            if not R.is_zero(c):
                for s in range(dim):
                    vec[s] = R.add(vec[s], R.mul(c, b[s]))
        vec = [ring.canon(x) for x in vec]
        if any(not ring.is_zero(x) for x in vec):
            out.append(vec)
    return out


def _quotient_invariants(ring: Ring, dim: int, vectors, sub_vectors) -> ModuleInvariants:
    """Invariants of span(vectors) / span(sub_vectors), for vectors of
    canonical elements with the sub_vectors inside their span: the cokernel
    of the sub_vectors' coordinates in an echelon basis of span(vectors).
    Over Z/n these are coordinates in the preimage in Z^dim, lift rows
    included, so the quotient is an abelian group whose factors divide n,
    read mod n.  _coordinates raises _NotInLatticeError when a sub_vector
    is not in the span."""
    X = _coordinates(Lattice(ring, dim, vectors), sub_vectors)
    return _diagonal_invariants(ring, X.rows, _smith(X, "D"))


def homology_invariants(A: ExactMatrix, B: ExactMatrix) -> ModuleInvariants:
    """Invariants of ker(A)/im(B) for a complex C2 --B--> C1 --A--> C0.

    Requires A.cols == B.rows and A*B = 0; raises PreconditionError when a
    column of B is not in the kernel of A.  The columns of B are written in
    a basis of the kernel lattice, whose cokernel is the homology.  Over Z/n
    that lattice is the preimage of ker(A) in Z^a, so the homology is
    computed as an abelian group whose factors all divide n."""
    if A.cols != B.rows:
        raise ValueError("shape mismatch in homology")
    columns = [[row[j] for row in B.entries] for j in range(B.cols)]
    try:
        return _quotient_invariants(A.ring, A.cols, kernel_basis(A), columns)
    except _NotInLatticeError:
        raise PreconditionError(
            "homology needs A*B = 0: a column of B is not in the kernel of A"
        ) from None
