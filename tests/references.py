"""Reference algorithms the tests compare gdpakit against, and the input
recipes that several test files draw from."""

import itertools
import math
from fractions import Fraction

import sympy
from sympy.matrices.normalforms import invariant_factors

from gdpakit.coeff_rings import (
    GF,
    QQ,
    ZZ,
    Zloc,
    Zmod,
    ExactMatrix,
    IntegersModRing,
    Lattice,
    ModuleInvariants,
    PLocalRing,
    PreconditionError,
    Ring,
    _coordinates,
    _identity,
    kernel_basis,
    quotient_generators,
    smith_normal_form,
)
from gdpakit.coherence_lab import UnboundedTorsionError, _least_annihilating_n
from gdpakit.gdpa import AlgebraContext, GdpaElement
from gdpakit.graded_modules import (
    FreeGradedModule,
    ModuleMap,
    PresentedModule,
    SubmoduleGenerators,
    TorsionReport,
    _relation_columns,
    _vector_to_column,
    syzygy_generators,
)
from gdpakit.pi_core import PiSequence, h_transform
from gdpakit.resolutions_k import SpecialBlock, SpecialFiltrationCertificate, ideal_invariants


# the rings and pi of the oracle tests: classical and all-ones pi
ORACLE_RINGS = [Zloc(2), Zloc(3), ZZ, QQ, GF(2), GF(3), Zmod(4), Zmod(6)]
ORACLE_CONTEXTS = [
    AlgebraContext(family(R))
    for R in ORACLE_RINGS
    for family in (PiSequence.classical, PiSequence.all_ones)
]


def primitive_integer_vector(v, p: int) -> list:
    """The integer vector that is a unit multiple of v over Z_(p) and whose
    content is a power of p, by its definition: v times the lcm of its
    denominators (prime to p), divided by the part of its content prime to
    p.  It is the only such vector that is a positive multiple of v."""
    l = math.lcm(*[Fraction(x).denominator for x in v])
    nums = [int(x * l) for x in v]
    g = math.gcd(*nums)
    while g and not g % p:
        g //= p
    return [x // g for x in nums] if g > 1 else nums


def _diag(D: ExactMatrix):
    return [D.entries[i][i] for i in range(min(D.rows, D.cols))]


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The product a b."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    R = a.ring
    out = ExactMatrix.zero(R, a.rows, b.cols)
    for rowi, outi in zip(a.entries, out.entries):
        for x, rowk in zip(rowi, b.entries):
            if not R.is_zero(x):
                for j, y in enumerate(rowk):
                    if not R.is_zero(y):
                        outi[j] = R.add(outi[j], R.mul(x, y))
    return out


def apply_vector(m: ExactMatrix, v) -> list:
    """m times the column vector v (a list)."""
    R = m.ring
    out = []
    for row in m.entries:
        acc = R.zero()
        for a, x in zip(row, v):
            if not R.is_zero(x):
                acc = R.add(acc, R.mul(a, x))
        out.append(acc)
    return out


def lattice_equals(a: Lattice, b: Lattice) -> bool:
    """Whether the lattices a and b hold the same vectors."""
    return all(b.contains(r) for r in a.rows.values()) and all(
        a.contains(r) for r in b.rows.values())


def lift_zmod(m: ExactMatrix) -> ExactMatrix:
    """[A | nI] over Z, for kernel/cokernel computations over Z/n."""
    R = m.ring
    assert isinstance(R, IntegersModRing)
    ents = [
        [m.entries[i][j] for j in range(m.cols)]
        + [R.n if k == i else 0 for k in range(m.rows)]
        for i in range(m.rows)
    ]
    return ExactMatrix(ZZ, ents, m.rows, m.cols + m.rows)


def solve(m: ExactMatrix, b):
    """Solve m x = b exactly (b a list) through the Smith form U m V = D;
    returns x or None if unsolvable.  Over Z/n it solves [m | nI] over Z."""
    R = m.ring
    if isinstance(R, IntegersModRing) and not R.is_field:
        lifted = lift_zmod(m)
        x = solve(lifted, [int(v) for v in b])
        if x is None:
            return None
        return [R.canon(v) for v in x[: m.cols]]
    U, D, V = smith_normal_form(m)
    c = apply_vector(U, [R.canon(x) for x in b])
    diag = _diag(D)
    y = [R.zero()] * m.cols
    for i in range(m.rows):
        ci = c[i]
        di = diag[i] if i < len(diag) else R.zero()
        if R.is_zero(di):
            if not R.is_zero(ci):
                return None
        else:
            if i < m.cols:
                if not R.divides(di, ci):
                    return None
                y[i] = R.quo_rem(ci, di)[0]
            elif not R.is_zero(ci):
                return None
    return apply_vector(V, y)


def _snf_euclid(m: ExactMatrix):
    """Smith normal form by Euclidean elimination with the ring's quo_rem
    and pivot_key (Z, Q, fields)."""
    R = m.ring
    nr, nc = m.rows, m.cols
    A = [row[:] for row in m.entries]
    U = [[R.one() if i == j else R.zero() for j in range(nr)] for i in range(nr)]
    V = [[R.one() if i == j else R.zero() for j in range(nc)] for i in range(nc)]

    def row_sub(i, j, q):  # row_i -= q * row_j  (on A and U)
        if R.is_zero(q):
            return
        for t in range(nc):
            A[i][t] = R.add(A[i][t], R.neg(R.mul(q, A[j][t])))
        for t in range(nr):
            U[i][t] = R.add(U[i][t], R.neg(R.mul(q, U[j][t])))

    def col_sub(i, j, q):  # col_i -= q * col_j  (on A and V)
        if R.is_zero(q):
            return
        for t in range(nr):
            A[t][i] = R.add(A[t][i], R.neg(R.mul(q, A[t][j])))
        for t in range(nc):
            V[t][i] = R.add(V[t][i], R.neg(R.mul(q, V[t][j])))

    def swap_rows(i, j):
        if i != j:
            A[i], A[j] = A[j], A[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i != j:
            for t in range(nr):
                A[t][i], A[t][j] = A[t][j], A[t][i]
            for t in range(nc):
                V[t][i], V[t][j] = V[t][j], V[t][i]

    def find_pivot(t):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = A[i][j]
                if not R.is_zero(x):
                    k = R.pivot_key(x)
                    if best is None or k < best[0]:
                        best = (k, i, j)
        return best

    def eliminate_at(t):
        """Clear row t and column t beyond (t,t), leaving a pivot at (t,t)."""
        while True:
            best = find_pivot(t)
            if best is None:
                return False
            _, pi, pj = best
            swap_rows(t, pi)
            swap_cols(t, pj)
            dirty = False
            for i in range(t + 1, nr):
                if not R.is_zero(A[i][t]):
                    q, r = R.quo_rem(A[i][t], A[t][t])
                    row_sub(i, t, q)
                    if not R.is_zero(A[i][t]):
                        dirty = True
            for j in range(t + 1, nc):
                if not R.is_zero(A[t][j]):
                    q, r = R.quo_rem(A[t][j], A[t][t])
                    col_sub(j, t, q)
                    if not R.is_zero(A[t][j]):
                        dirty = True
            if not dirty:
                return True

    def diagonalize() -> int:
        rank = 0
        for t in range(min(nr, nc)):
            if not eliminate_at(t):
                break
            rank += 1
        return rank

    rank = diagonalize()
    # enforce the divisibility chain d_i | d_{i+1}: on a violation, mix the
    # two columns and re-diagonalize (the min-pivot rule pulls in the gcd)
    while True:
        violation = None
        for i in range(rank - 1):
            if not R.divides(A[i][i], A[i + 1][i + 1]):
                violation = i
                break
        if violation is None:
            break
        col_sub(violation, violation + 1, R.neg(R.one()))  # col_i += col_{i+1}
        rank = diagonalize()

    # normalize diagonal entries to canonical associates (scale rows by units)
    for i in range(min(nr, nc)):
        a = A[i][i]
        if R.is_zero(a):
            continue
        u, c = R.unit_and_canonical(a)
        if not R.eq(u, R.one()):
            ui = R.inv(u)
            for t in range(nc):
                A[i][t] = R.mul(ui, A[i][t])
            for t in range(nr):
                U[i][t] = R.mul(ui, U[i][t])

    return (
        ExactMatrix._from_canonical(R, U, nr, nr),
        ExactMatrix._from_canonical(R, A, nr, nc),
        ExactMatrix._from_canonical(R, V, nc, nc),
    )


def _dvr_eliminate(A: list, nc: int, p: int, V: list | None = None):
    """Fraction-free Smith elimination over Z_(p) of the integer rows A (nc
    columns), in place; returns (pivots, cv).

    The integer matrices stand for those of the Fraction loop up to unit
    scales.  V, when given, is the nc x nc identity, kept transposed: it
    ends with column j of the Fraction loop's V at V[j] / cv[j].  A pivot
    p^v * u (u prime to p) clears row i by ``u * A[i] - (A[i][t] // p^v) *
    A[t]``, which is u times the Fraction row; columns likewise, with
    cv[j] *= u.  With least-valuation pivots one pass clears row and column
    t, and the divisibility chain holds.  pivots[t] is (v, u) for the pivot
    p^v * u at (t, t); the columns of V past the last pivot span the kernel.
    """
    nr = len(A)
    cv = [1] * nc
    pivots = []
    for t in range(min(nr, nc)):
        # the first entry of least valuation, in row-major order
        best = None
        for i in range(t, nr):
            row = A[i]
            for j in range(t, nc):
                x = row[j]
                if x:
                    v = 0
                    while not x % p:
                        x //= p
                        v += 1
                    if best is None or v < best[0]:
                        best = (v, i, j)
                        if not v:
                            break
            if best is not None and not best[0]:
                break
        if best is None:
            break
        v, pi, pj = best
        A[t], A[pi] = A[pi], A[t]
        if pj != t:
            for row in A[t:]:
                row[t], row[pj] = row[pj], row[t]
            if V is not None:
                V[t], V[pj] = V[pj], V[t]
                cv[t], cv[pj] = cv[pj], cv[t]
        q = p**v
        At = A[t]
        u = At[t] // q
        pivots.append((v, u))
        for i in range(t + 1, nr):
            w = A[i][t]
            if w:
                w //= q
                A[i] = [u * x - w * y for x, y in zip(A[i], At)]
        # column t of A is now zero below the pivot, so clearing A[t][j]
        # leaves the rest of column j as it is (up to the scale cv[j])
        for j in range(t + 1, nc):
            w = At[j]
            if w:
                w //= q
                At[j] = 0
                for i in range(t + 1, nr):
                    A[i][j] *= u
                if V is not None:
                    V[j] = [u * x - w * y for x, y in zip(V[j], V[t])]
                    cv[j] *= u
    return pivots, cv


def integer_kernel(A: list, nc: int, p: int) -> list:
    """A basis over Z_(p) of the kernel of the integer rows A (nc columns),
    as integer vectors whose content is 1, by :func:`_dvr_eliminate`; A is
    left as is."""
    V = _identity(nc)
    pivots, _ = _dvr_eliminate([row[:] for row in A], nc, p, V)
    # V[j] / cv[j] is a column of a matrix invertible over Z_(p), so p does
    # not divide the content of V[j]
    out = []
    for j in range(len(pivots), nc):
        g = math.gcd(*V[j])
        out.append([x // g for x in V[j]] if g > 1 else V[j])
    return out


def quotient_generators_two_snf(ring: Ring, dim: int, vectors, sub_vectors) -> list:
    """gdpakit's quotient_generators as it was with two Smith forms, both by
    the generic loop _snf_euclid.

    Vectors whose classes generate span(vectors) / span(sub_vectors), for
    sub_vectors inside span(vectors): minimally over fields and PIDs, a
    generating set over Z/n.

    Over a field these are the vectors that grow the span, kept in order.
    Otherwise the sub-lattice is written in an echelon basis of
    span(vectors), and the non-unit invariant factors of its Smith form are
    lifted back through U^-1 and that basis.  U is invertible, so the Smith
    form of U is P U Q = I and U^-1 = Q P."""
    sub = Lattice(ring, dim, sub_vectors)
    if ring.is_field:
        return [v for v in vectors if sub.insert(v)]
    if all(sub.contains(v) for v in vectors):
        return []
    whole = Lattice(ring, dim, vectors)
    R, basis = whole.base, whole.basis()
    X = _coordinates(whole, sub_vectors)
    if not X.cols:
        return basis
    U, D, _ = _snf_euclid(X)
    P, _, Q = _snf_euclid(U)
    Uinv = matmul(Q, P)
    diag = _diag(D)
    out = []
    r = len(basis)
    for i in range(r):
        if i < len(diag) and R.is_unit(diag[i]):
            continue
        vec = [R.zero()] * dim
        for t in range(r):
            c = Uinv.entries[t][i]
            if not R.is_zero(c):
                for s in range(dim):
                    vec[s] = R.add(vec[s], R.mul(c, basis[t][s]))
        vec = [ring.canon(x) for x in vec]
        if any(not ring.is_zero(x) for x in vec):
            out.append(vec)
    return out


def refine_lattice_every_j(M, d: int, lattice: Lattice, j_start: int, j_end: int,
                           relation_columns):
    """Cut the lattice down to the vectors v with x^[j] v in im(relations)
    for every j in [j_start, j_end], one j at a time; over Z_(p) each step
    runs on primitive integer vectors, with kernels by the DVR elimination
    :func:`integer_kernel`."""
    ctx = M.context
    R = ctx.ring
    F0 = M.generators
    basis = F0.basis(d)
    dim = len(basis)
    p = R.p if isinstance(R, PLocalRing) else None
    for j in range(j_start, j_end + 1):
        B = lattice.basis()
        if not B:
            break
        row_of = {i: r for r, (i, _) in enumerate(F0.basis(d + j))}
        coeffs = [ctx.C(s + j, j) for _, s in basis]
        if p:
            B = [primitive_integer_vector(b, p) for b in B]
            coeffs = primitive_integer_vector(coeffs, p)
        relations = ExactMatrix.from_columns(
            R, list(relation_columns(d + j).values()), len(row_of)).entries
        big = [[0 if p else R.zero()] * len(B) + r for r in relations]
        for col, b in enumerate(B):
            for (i, _), c, x in zip(basis, coeffs, b):
                big[row_of[i]][col] = c * x if p else R.mul(c, x)
        newvecs = []
        if p:
            for k in integer_kernel(big, len(big[0]), p):
                w = [0] * dim
                for c, b in zip(k, B):
                    if c:
                        w = [x + c * y for x, y in zip(w, b)]
                if any(w):
                    newvecs.append([Fraction(x) for x in primitive_integer_vector(w, p)])
        else:
            for k in kernel_basis(ExactMatrix(R, big, len(big), len(big[0]))):
                w = [R.zero()] * dim
                for coeff, b in zip(k, B):
                    if not R.is_zero(coeff):
                        w = [R.add(x, R.mul(coeff, y)) for x, y in zip(w, b)]
                if any(not R.is_zero(x) for x in w):
                    newvecs.append(w)
        lattice = Lattice(R, dim, newvecs)
    return lattice


def lattice_quotient_invariants(R: Ring, whole: Lattice, sub: Lattice) -> ModuleInvariants:
    """Invariants of whole / sub, for lattices sub inside whole over R: the
    diagonal of the generic Smith form of sub's coordinates in whole's
    basis, read in R (over Z/n the lattices are preimages in Z^dim, so the
    coordinates include the lift rows and the diagonal is read mod n, a
    factor n being a free summand)."""
    X = _coordinates(whole, sub.basis())
    diag = _diag(_snf_euclid(X)[1]) if X.cols else []
    nonzero = [x for x in map(R.canon, diag) if not R.is_zero(x)]
    return ModuleInvariants(R, X.rows - len(nonzero),
                            tuple(x for x in nonzero if not R.is_unit(x)))


def torsion_submodule_every_j(M, degree_bound: int) -> TorsionReport:
    """torsion_submodule with its windows [1, margin], [margin+1, cap/2] and
    [cap/2+1, cap] cut at every j; margin and cap read degrees relative to
    the lowest generator degree, and a candidate's invariants are those of
    the stable lattice modulo the relation span."""
    ctx = M.context
    R = ctx.ring
    dmin = M.min_degree()
    margin = max(4, M.max_presentation_degree() - dmin + 1)
    cap = max(4 * margin, 2 * (1 << (degree_bound - dmin + margin - 1).bit_length()))
    certified = R.is_field and ctx.pi.is_zero_free()
    stable = []
    shrank = False
    columns = _relation_columns(M)
    for d in range(dmin, degree_bound + 1):
        dim = M.generators.rank(d)
        if not dim:
            continue
        pspan = Lattice(R, dim, M.relations.slice_columns(d))
        whole = Lattice(R, dim, _identity(dim, R.one(), R.zero()))
        window = refine_lattice_every_j(M, d, whole, 1, margin, columns)
        if lattice_equals(window, pspan):
            continue
        half = refine_lattice_every_j(M, d, window, margin + 1, cap // 2, columns)
        final = refine_lattice_every_j(M, d, half, cap // 2 + 1, cap, columns)
        if lattice_equals(half, pspan) or lattice_equals(final, pspan) \
                or not lattice_equals(half, final):
            shrank = True
            continue
        stable.append((d, lattice_quotient_invariants(R, final, pspan)))
    if stable:
        if certified:
            return TorsionReport(
                "has_torsion", stable, degree_bound, margin,
                certificate="field with nowhere-vanishing pi: x^[1]-annihilation persists",
            )
        return TorsionReport("inconclusive", stable, degree_bound, margin)
    note = f"no stable annihilated classes up to degree {degree_bound}"
    if shrank:
        note += f" (margin artifacts eliminated within extended window {cap})"
    return TorsionReport("torsion_free", [], degree_bound, margin, certificate=note)


def fresh_images(F, generators, d):
    """The list of F.images of the (degree, column) generators, their
    columns parsed afresh."""
    return list(F.images([(e, F._column_terms(e, col)) for e, col in generators], d))


def syzygy_generators_every_degree(f, degree_bound: int):
    """gdpakit's syzygy_generators as it was before one-row slices stopped
    at index 1: in every degree, the kernel of the slice and the quotient of
    it by the images of the generators found below."""
    R = f.context.ring
    out = SubmoduleGenerators(f.source, [], degree_bound)
    for d in range(min(f.source.degrees, default=0), degree_bound + 1):
        kv = [v for v in kernel_basis(f.slice(d)) if any(not R.is_zero(x) for x in v)]
        if not kv:
            continue
        old = fresh_images(f.source, out.generators, d)
        for vec in quotient_generators(R, f.source.rank(d), kv, old):
            out.generators.append((d, _vector_to_column(f.source, d, vec)))
    return out


def piece_torsion_counts_by_closure(M, d: int) -> dict:
    """{m: |M_d[m]|} for M over Z/n (GF(p) included) and each divisor m of
    n, M_d[m] the classes that m kills, counted with no Smith form, no
    Lattice and no slice.  R_d is the subgroup of (Z/n)^rank generated by
    x^[d - r] * rel over the relations rel of degree r <= d (D_s has rank
    1), found by closure under addition; the products are GdpaElement
    products, and coordinate i is the coefficient of x^[d - g_i] in entry i.
    A class v + R_d is killed by m when m * v lies in R_d, so |M_d[m]| is
    the number of such v over |R_d|, and |M_d[n]| = |M_d|."""
    n = M.context.ring.n
    gens = [i for i, g in enumerate(M.generators.degrees) if g <= d]
    step = M.context.x
    group = {(0,) * len(gens)}
    for r, col in zip(M.relations.source.degrees, M.relations.columns):
        if r > d:
            continue
        image = {i: step(d - r).mul(e) for i, e in col.items()}
        v = tuple(image[i].coeff(d - M.generators.degrees[i]) if i in image else 0
                  for i in gens)
        new = list(group)
        while new:
            new = [w for w in {tuple((a + b) % n for a, b in zip(u, v)) for u in new}
                   if w not in group]
            group.update(new)
    space = list(itertools.product(range(n), repeat=len(gens)))
    return {m: sum(tuple(m * a % n for a in v) in group for v in space) // len(group)
            for m in range(1, n + 1) if n % m == 0}


def invariants_from_torsion_counts(n: int, counts: dict) -> tuple:
    """(free rank, divisor chain) of the Z/n-module whose m-torsion has
    counts[m] elements for each divisor m of n.  For a prime p with p^e | n,
    |M[p^j]| / |M[p^(j-1)]| = p^(r_j), r_j the number of cyclic summands
    of order divisible by p^j; the i-th largest summand has the order
    prod_p p^(#{j : r_j >= i}).  Summands of order n are free, the others
    are the chain, ascending (the canonical form of ModuleInvariants)."""
    orders = {}
    for p, e in sympy.factorint(n).items():
        for j in range(1, e + 1):
            ratio, r = counts[p ** j] // counts[p ** (j - 1)], 0
            while ratio > 1:
                ratio //= p
                r += 1
            for i in range(r):
                orders[i] = orders.get(i, 1) * p
    return (sum(1 for o in orders.values() if o == n),
            tuple(sorted(o for o in orders.values() if o != n)))


def kx_invariant_factors(M) -> list:
    """The nonzero invariant factors of M as a module over k[x], by sympy.
    Over a field where pi has no zero, x^[1]^t = c_t x^[t] with c_t != 0
    (c_t read off GdpaElement products), so D = k[x] with x^[t] = x^t / c_t,
    and M is the cokernel of the matrix whose column j has the entry
    (a / c_t) x^t at generator i for a relation entry a x^[t]."""
    ctx, R = M.context, M.context.ring
    x = sympy.Symbol("x")
    domain = (sympy.QQ if R.kind == "Q" else sympy.GF(R.n))[x]
    top = M.max_presentation_degree() - M.min_degree()
    power, c = ctx.x(0), []
    for t in range(top + 1):
        c.append(power.coeff(t))
        power = power.mul(ctx.x(1))
    A = sympy.zeros(M.generators.n_gens, len(M.relations.columns))
    for j, (r, col) in enumerate(zip(M.relations.source.degrees, M.relations.columns)):
        for i, e in col.items():
            t = r - M.generators.degrees[i]
            a = R.mul(e.coeff(t), R.inv(c[t]))
            A[i, j] = sympy.Rational(a.numerator, a.denominator) * x ** t
    return [f for f in invariant_factors(A, domain=domain) if f != 0]


def tor_entry(table, i: int, d: int, ring: Ring) -> ModuleInvariants:
    """Tor_i(M, k)_d of a TorTable, 0 where the table holds no entry."""
    return table.entries.get((i, d), ModuleInvariants(ring, 0, ()))


def cyclic_module_invariants(ring: Ring, x) -> ModuleInvariants:
    """Invariants of the cyclic module k/(x)."""
    x = ring.canon(x)
    if ring.is_unit(x):
        return ModuleInvariants(ring, 0, ())
    if ring.is_zero(x):
        return ModuleInvariants(ring, 1, ())
    return ModuleInvariants(ring, 0, (ring.canonical_associate(x),))


def tor1_closed_form(pi, degree_range) -> list:
    """Predicted graded pieces of Tor_1(k, k): degree n gives k/(pi_n).

    Returns a list of (n, ModuleInvariants) for n in degree_range, skipping
    zero pieces."""
    out = []
    for n in degree_range:
        inv = cyclic_module_invariants(pi.ring, pi.pi(n))
        if not inv.is_zero:
            out.append((n, inv))
    return out


def sp1_hand_filtration(context, s: int) -> tuple:
    """The ideal (x^[1], ..., x^[s-1]) inside D over a field with pi_s = 0,
    filtered by D^(s)-translates: blocks M((0), s)[-j], j = 1..s-1.

    Returns (ideal module, certificate)."""
    R = context.ring
    if not R.is_field or not R.is_zero(context.pi.pi(s)):
        raise PreconditionError("requires a field with pi_s = 0")
    cols = [{0: context.x(j)} for j in range(1, s)]
    degs = list(range(1, s))
    f0 = FreeGradedModule(context, degs)
    # present the ideal as a module: generators x^[j], syzygies among them
    gmap = ModuleMap(f0, FreeGradedModule(context, [0]), cols)
    syz = syzygy_generators(gmap, 4 * s)
    I = PresentedModule(f0, syz.as_map())
    cert = SpecialFiltrationCertificate(
        [SpecialBlock([R.zero()], s, shift=j) for j in range(1, s)]
    )
    return I, cert


def c_binomial_by_carries(pi, n: int, m: int):
    """C(n, m) read off its definition: the product, in increasing k, of
    pi_k over every k in [2, n] with eps_k(n - m, m) = floor(n/k) -
    floor((n - m)/k) - floor(m/k) = 1, with no memo and no early stop at
    a zero product."""
    R = pi.ring
    acc = R.one()
    for k in range(2, n + 1):
        if n // k - (n - m) // k - m // k:
            acc = R.mul(acc, pi.pi(k))
    return acc


def torsion_bound_N_every_index(spec) -> int:
    """gdpakit's torsion_bound_N as it was before it read each chain ideal
    once: the torsion factors of k/a_i for every 0 <= i <= 3d, the chain
    extended constantly by a_d, repeats kept."""
    R = spec.context.ring
    if R.is_field or isinstance(R, IntegersModRing):
        return 1
    factors = []
    for i in range(3 * spec.d + 1):
        factors += ideal_invariants(R, spec.chain[min(i, spec.d)]).torsion_factors
    if not factors:
        return 1
    limit = 4 * math.lcm(*map(int, factors)) + 16
    pi = spec.context.pi
    transforms = [pi if h == 1 else h_transform(pi, h) for h in range(1, 2 * max(spec.d, 1) + 1)]
    N = _least_annihilating_n(R, factors, transforms, limit)
    if N is None:
        raise UnboundedTorsionError(f"no N <= {limit}")
    return N


# ---------------------------------------------------------------------------
# the carry rule over a field
# ---------------------------------------------------------------------------


class DivisibleSequence:
    """A sequence 1 = b_0 | b_1 | b_2 | ... with proper divisibility.

    Either finite (a tuple of terms) or extended lazily by a rule mapping the
    previous term to the next one (or None to stop).
    """

    def __init__(self, terms, rule=None):
        terms = [int(t) for t in terms]
        if not terms or terms[0] != 1:
            raise PreconditionError("divisible sequence must start with b_0 = 1")
        for a, b in zip(terms, terms[1:]):
            if b % a != 0 or b == a:
                raise PreconditionError(
                    f"b_i must properly divide b_(i+1): got {a}, {b}"
                )
        self._terms = terms
        self._rule = rule

    def term(self, i: int):
        """b_i, or None if the sequence has ended before index i."""
        while len(self._terms) <= i:
            if self._rule is None:
                return None
            nxt = self._rule(self._terms[-1])
            if nxt is None:
                self._rule = None
                return None
            nxt = int(nxt)
            if nxt % self._terms[-1] != 0 or nxt == self._terms[-1]:
                raise PreconditionError("rule violated proper divisibility")
            self._terms.append(nxt)
        return self._terms[i]

    def terms_up_to(self, bound: int):
        """All terms <= bound (list)."""
        out = []
        i = 0
        while True:
            t = self.term(i)
            if t is None or t > bound:
                break
            out.append(t)
            i += 1
        return out

    def __repr__(self):
        tail = ", ..." if self._rule is not None else ""
        return f"DivisibleSequence({self._terms}{tail})"


def base_rep(n: int, b: DivisibleSequence):
    """Greedy base-b_bullet digits (d_0, d_1, ...) of n >= 0.

    0 <= d_i < b_(i+1)/b_i, the last defined digit being unbounded when the
    sequence is finite; sum of d_i * b_i reconstructs n.
    """
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    if n == 0:
        return []
    terms = b.terms_up_to(n)
    # if the sequence continues beyond n, larger places get digit 0; if it is
    # finite, the top digit absorbs the rest (unbounded last digit)
    digits = [0] * len(terms)
    rem = n
    for i in range(len(terms) - 1, -1, -1):
        digits[i] = rem // terms[i]
        rem -= digits[i] * terms[i]
    assert rem == 0
    return digits


def base_carry_count(n: int, m: int, b: DivisibleSequence) -> int:
    """Number of places where the base-b digits of n and m do not add up to
    those of n + m (0 means the addition carries nowhere)."""
    dn, dm, ds = base_rep(n, b), base_rep(m, b), base_rep(n + m, b)
    k = max(len(dn), len(dm), len(ds))

    def pad(digits):
        return digits + [0] * (k - len(digits))

    return sum(x + y != z for x, y, z in zip(pad(dn), pad(dm), pad(ds)))


def field_multiply_by_carries(e1: GdpaElement, e2: GdpaElement) -> GdpaElement:
    """The product e1 e2 over a field by the carry rule.

    Over a field the zeros of an admissible pi form a divisible sequence b
    (1, then the n with pi_n = 0), and x^[n] x^[m] = x^[n+m] if adding n
    and m in base b produces no carry, and 0 otherwise.  b is read up to
    the top degree of the product, the largest term base_rep can use.  Must
    agree with GdpaElement.mul up to units, and exactly when pi takes
    values in {0, 1}."""
    ctx = e1.context
    R = ctx.ring
    if not R.is_field:
        raise PreconditionError("carry multiplication requires a field")
    top = max(e1.terms, default=0) + max(e2.terms, default=0)
    b = DivisibleSequence([1] + ctx.pi.zero_degrees(top))
    out: dict[int, object] = {}
    for n, cn in e1.terms.items():
        for m, cm in e2.terms.items():
            if base_carry_count(n, m, b) == 0:
                d = n + m
                out[d] = R.add(out.get(d, R.zero()), R.mul(cn, cm))
    return GdpaElement(ctx, out)


def random_field_module(ctx, rng):
    """The acceptance suite's test_10 recipe, which the special-gfp benchmark
    also draws: 1-3 generators in degrees 0-6 and 0-3 relations up to
    degree 6, each entry present with probability 0.7, coefficients in
    1..4; rng is a random.Random."""
    ngens = rng.randint(1, 3)
    gdegs = sorted(rng.randint(0, 6) for _ in range(ngens))
    nrels = rng.randint(0, 3)
    cols, rdegs = [], []
    for _ in range(nrels):
        rdeg = rng.randint(min(gdegs), 6)
        col = {}
        for i, g in enumerate(gdegs):
            if g <= rdeg and rng.random() < 0.7:
                c = rng.randint(1, 4)
                if ctx.ring.is_zero(ctx.ring.from_int(c)):
                    continue
                col[i] = ctx.x(rdeg - g, coeff=ctx.ring.from_int(c))
        if col:
            cols.append(col)
            rdegs.append(rdeg)
    return PresentedModule.from_columns(ctx, gdegs, cols, rdegs)


def shifted_module(M, s):
    """M with every generator and relation degree moved up by s."""
    return PresentedModule.from_columns(
        M.context, [g + s for g in M.generators.degrees], M.relations.columns,
        [r + s for r in M.relations.source.degrees])
