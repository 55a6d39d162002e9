"""Finitely presented graded D-modules, realized degree by degree.

Every graded degree of D is free of rank 1 over the coefficient ring, so each
graded piece of a finitely presented module, each slice of a homogeneous map,
and each syzygy computation is a finite exact linear-algebra problem over the
coefficient ring.  All operations here work degreewise up to an explicit
horizon and tag their results with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from .coeff_rings import (
    ExactMatrix,
    Lattice,
    ModuleInvariants,
    PreconditionError,
    Ring,
    UnsupportedRingError,
    _euclid,
    _identity,
    _lift_rows,
    _quotient_generators,
    _quotient_invariants,
    cokernel_invariants,
    column_cokernel_invariants,
    homology_invariants,
    json_int_list,
    kernel_basis,
)
from .gdpa import AlgebraContext, GdpaElement
from .pi_core import c_binomial


# ---------------------------------------------------------------------------
# free modules, homogeneous maps, presentations
# ---------------------------------------------------------------------------


class FreeGradedModule:
    """A free graded D-module with listed generator degrees.

    The degree-d piece is free over the coefficient ring with one basis
    element x^[d - g_i] e_i for each generator with g_i <= d.
    """

    def __init__(self, context: AlgebraContext, generator_degrees):
        self.context = context
        self.degrees = tuple(int(g) for g in generator_degrees)
        # from the top generator degree on, every generator has a basis
        # element, in generator order: basis column i is generator i
        self._top = max(self.degrees, default=0)
        self._all_columns = {i: i for i in range(len(self.degrees))}
        # read by images on every call; the binomials are pi's own memo table
        self._mul, self._zero = context.ring.mul, context.ring.zero()
        self._binomials = context.pi._c_memo

    @property
    def n_gens(self) -> int:
        return len(self.degrees)

    def basis(self, d: int):
        """[(generator index, monomial shift)] for the degree-d piece."""
        return [(i, d - g) for i, g in enumerate(self.degrees) if g <= d]

    def rank(self, d: int) -> int:
        if d >= self._top:
            return len(self.degrees)
        return sum(1 for g in self.degrees if g <= d)

    def _columns(self, d: int) -> dict:
        """{generator index: its column on the degree-d basis}."""
        if d >= self._top:
            return self._all_columns
        return {i: c for c, (i, _) in enumerate(self.basis(d))}

    def _column_terms(self, e: int, col: dict) -> list:
        """A degree-e column {i: element} as its terms (i, g_i, t, c): the
        entry at generator i (degree g_i) read as c * x^[t], t = e - g_i, the
        one degree at which it counts (D_t has rank 1); zero terms dropped."""
        R = self.context.ring
        out = []
        for i, elem in col.items():
            g = self.degrees[i]
            c = elem.coeff(e - g)
            if not R.is_zero(c):
                out.append((i, g, e - g, c))
        return out

    def images(self, generators, d: int):
        """For each (degree e, terms) in generators with e <= d, yield the
        coordinate vector of x^[d - e] * column on the degree-d basis, terms
        being the column as _column_terms parses it: a term (i, g_i, t, c)
        gives c * C(d - g_i, t) at x^[d - g_i] e_i (D_s has rank 1).  Each
        vector is built when it is asked for, so a caller that stops early
        builds no more.  C(d - g_i, t) is read from pi's memo table
        (PiSequence._c_memo), and c_binomial is called only for a binomial
        not met before."""
        mul, pi, zero, memo = self._mul, self.context.pi, self._zero, self._binomials
        col_of = self._columns(d)
        n = len(col_of)
        for e, terms in generators:
            if e > d:
                continue
            vec = [zero] * n
            for i, g, t, c in terms:
                b = memo.get((d - g, t))
                if b is None:
                    b = c_binomial(pi, d - g, t)
                vec[col_of[i]] = mul(c, b)
            yield vec


class ModuleMap:
    """A homogeneous map of free graded modules, one GdpaElement column per
    source generator: e_j maps to the sum over i of column[j][i] * e_i.

    Entry (i, j) must be a monomial of pure degree source_deg_j - target_deg_i
    (graded pieces of D have rank 1) or absent.
    """

    def __init__(self, source: FreeGradedModule, target: FreeGradedModule, columns):
        if source.context is not target.context:
            raise PreconditionError("source/target context mismatch")
        self.source = source
        self.target = target
        self.context = source.context
        self.columns = []
        for j, col in enumerate(columns):
            clean = {}
            for i, e in col.items():
                i = int(i)
                if not 0 <= i < target.n_gens:
                    raise PreconditionError(f"entry ({i},{j}): no target generator {i}")
                if e.is_zero:
                    continue
                t = source.degrees[j] - target.degrees[i]
                if e.degrees() != [t]:
                    raise PreconditionError(
                        f"entry ({i},{j}) must be homogeneous of degree {t}"
                    )
                clean[i] = e
            self.columns.append(clean)
        if len(self.columns) != source.n_gens:
            raise PreconditionError("one column per source generator required")
        # the columns are never changed, so each is parsed into terms once
        self._terms = [
            (e, target._column_terms(e, col)) for e, col in zip(source.degrees, self.columns)
        ]

    @classmethod
    def zero(cls, source: FreeGradedModule, target: FreeGradedModule) -> "ModuleMap":
        return cls(source, target, [{} for _ in range(source.n_gens)])

    def slice_columns(self, d: int) -> list:
        """The columns of slice(d): the images of the source basis at degree
        d, x^[d - e_j] e_j mapping to x^[d - e_j] * column j."""
        return list(self.target.images(self._terms, d))

    def slice(self, d: int) -> ExactMatrix:
        """The degree-d piece as a matrix over the coefficient ring: rows are
        the target basis at degree d, columns the source basis."""
        return ExactMatrix.from_columns(
            self.context.ring, self.slice_columns(d), self.target.rank(d)
        )

    def constant_slice(self, d: int) -> ExactMatrix:
        """The degree-d piece of the map tensored with k = D/D_+.

        Rows/columns are generators of degree exactly d; entries are the
        degree-0 (scalar) components."""
        R = self.context.ring
        trows = [i for i, g in enumerate(self.target.degrees) if g == d]
        scols = [j for j, g in enumerate(self.source.degrees) if g == d]
        m = ExactMatrix.zero(R, len(trows), len(scols))
        for c, j in enumerate(scols):
            for r, i in enumerate(trows):
                e = self.columns[j].get(i)
                if e is not None:
                    m.entries[r][c] = e.coeff(0)
        return m


class PresentedModule:
    """A finitely presented graded module F0 / im(F1 -> F0)."""

    def __init__(self, generators: FreeGradedModule, relations: ModuleMap):
        if relations.target is not generators:
            raise PreconditionError("relations must target the generator module")
        self.generators = generators
        self.relations = relations
        self.context = generators.context

    @classmethod
    def from_columns(cls, context, gen_degrees, relation_columns, relation_degrees):
        """relation_columns: list of dicts {gen index: GdpaElement}."""
        f0 = FreeGradedModule(context, gen_degrees)
        f1 = FreeGradedModule(context, relation_degrees)
        return cls(f0, ModuleMap(f1, f0, relation_columns))

    def min_degree(self) -> int:
        return min(self.generators.degrees, default=0)

    def max_presentation_degree(self) -> int:
        degs = self.generators.degrees + self.relations.source.degrees
        return max(degs, default=0)

    def piece_invariants(self, d: int) -> ModuleInvariants:
        return column_cokernel_invariants(
            self.context.ring, self.relations.slice_columns(d), self.generators.rank(d))

    def to_json(self):
        return {
            "context": self.context.pi.to_json(),
            "generators": list(self.generators.degrees),
            "relation_degrees": list(self.relations.source.degrees),
            "relations": [
                {str(i): e.to_json() for i, e in col.items()}
                for col in self.relations.columns
            ],
        }

    @classmethod
    def from_json(cls, context: AlgebraContext, obj) -> "PresentedModule":
        f0 = FreeGradedModule(context, json_int_list(obj["generators"]))
        f1 = FreeGradedModule(context, json_int_list(obj["relation_degrees"]))
        cols = [
            {int(i): GdpaElement.from_json(context, e) for i, e in col.items()}
            for col in obj["relations"]
        ]
        return cls(f0, ModuleMap(f1, f0, cols))


def trivial_module(context: AlgebraContext, horizon: int) -> PresentedModule:
    """k = D / D_+, presented with the relations x^[j] for the degrees j
    where pi_j is not a unit (horizon-limited: relations up to the horizon)."""
    degs = context.dplus_generator_degrees(horizon)
    cols = [{0: context.x(j)} for j in degs]
    return PresentedModule.from_columns(context, [0], cols, degs)


def principal_special_module(context, ideal_gens, h: int, shift: int = 0):
    """M(a, h)[-shift] = (D/aD)^(h), regraded: one generator in degree shift,
    relations a*e for each ideal generator and x^[j] e for 0 < j < h
    (so nonzero pieces sit at shift + multiples of h, each one k/a)."""
    cols = []
    degs = []
    for a in ideal_gens:
        cols.append({0: context.x(0, a)})
        degs.append(shift)
    for j in range(1, h):
        cols.append({0: context.x(j)})
        degs.append(shift + j)
    return PresentedModule.from_columns(context, [shift], cols, degs)


# ---------------------------------------------------------------------------
# syzygies / kernels with generator-degree extraction
# ---------------------------------------------------------------------------


@dataclass
class SubmoduleGenerators:
    """Generators of a graded submodule K of a free module, found degreewise.

    Each generator is (degree, column) with the column a dict row -> element
    of the ambient free module."""

    ambient: FreeGradedModule
    generators: list
    horizon: int

    def degrees(self):
        return [d for d, _ in self.generators]

    def as_map(self) -> ModuleMap:
        src = FreeGradedModule(self.ambient.context, self.degrees())
        return ModuleMap(src, self.ambient, [c for _, c in self.generators])


def _vector_to_column(ambient: FreeGradedModule, d: int, vec) -> dict:
    """Turn a degree-d coordinate vector into a column of GdpaElements."""
    ctx = ambient.context
    R = ctx.ring
    col = {}
    for c, (i, s) in enumerate(ambient.basis(d)):
        v = vec[c]
        if not R.is_zero(v):
            col[i] = ctx.x(s, v)
    return col


def syzygy_generators(f: ModuleMap, degree_bound: int) -> SubmoduleGenerators:
    """Minimal generators (over fields and PIDs; a generating set over Z/n)
    of ker(f) up to degree_bound, degree by degree.

    Over a field or a PID (Z, Z_(p), Q, GF(p)), and with one target
    generator, each degree-d slice of f is one row r in R^m, handed to
    :func:`_degreewise_generators` as its row.  The images S of the
    generators found below lie in K = ker(r), as x^[j] times a syzygy is a
    syzygy, and a degree is skipped, with no kernel and no quotient, once
    the images built so far span K by :func:`_spans_row_kernel`'s index
    test; the images after them are never built.  This changes no output:
    the quotient K / S is then 0, so no generator would be found.  Every
    other case (Z/n, several target generators) has no row and takes the
    kernel of the slice in every degree."""
    one_row = f.target.n_gens == 1 and f.context.ring.is_pid
    target, terms = f.target, f._terms

    def row(d):
        return [v[0] for v in target.images(terms, d)] if target.rank(d) else None

    return _degreewise_generators(
        f.source, degree_bound, lambda d: kernel_basis(f.slice(d)), row if one_row else None
    )


def _spans_row_kernel(ideal_generator, r):
    """What the index test of :func:`_row_kernel_images` reads of a row r
    in R^m over a field or a PID: (content(r), the generator of the ideal
    of r[np]), or None when r = 0.  np is the last column where r is
    nonzero, and ideal_generator is the generator of R's record
    (Ring._echelon).  The test says of a lattice sub inside K = ker(r)
    whether it is all of K.

    Proof.  R^m / K embeds in R through r, so it is free and K is a direct
    summand of rank m - 1.  Let w_j be the maximal minor, signed by
    (-1)^j, of a basis of K without column j: w . x is the determinant of
    that basis with x appended, so w is orthogonal to K, and w is
    primitive, as K is a direct summand.  r / content(r) is the other
    primitive vector on that line, so w = u r / content(r) for a unit u.
    The minors of sub's basis are det T times those of K's, T the matrix of
    sub's basis in K's, and det T generates the index ideal [K : sub],
    which is the unit ideal exactly when sub = K.  Over the fraction field
    sub spans K (same rank), so sub's pivots are the columns where some
    vector of K has its first nonzero entry.  np is not one: such a v has
    r . v = r[np] v[np], as r is zero past np, so v[np] = 0.  sub's
    echelon basis without column np is thus triangular, and its minor there
    is the product of its pivots.  So det T generates the ideal of (product
    of pivots) * content(r) / r[np] (Cohen, *A Course in Computational
    Algebraic Number Theory*, 2.4), and sub = K exactly when the test
    holds.  A sub spanned by some of a set S of vectors in K thus settles
    all of S: when the test holds, sub <= span(S) <= K = sub."""
    np = len(r)
    while np and not r[np - 1]:
        np -= 1
    if not np:
        return None  # K = R^m
    # the numerators' gcd generates content(r): denominators are units
    return math.gcd(*[x.numerator for x in r]), ideal_generator(r[np - 1])


def _degreewise_generators(ambient: FreeGradedModule, degree_bound: int, candidates, row=None):
    """Generators of the graded submodule of ambient whose degree-d slice is
    spanned by the vectors candidates(d): in each degree, those that the
    generators found below do not already generate, the quotient of the
    candidates by the degree-d images of the old generators and the
    Lattice they span.

    row(d), when given, is the degree-d slice as one row r of a map over a
    field or a PID whose kernel K the candidates span, or None.  With a
    row, the old images, which lie in K, are built and inserted one at a
    time, and the degree is skipped as soon as they span K
    (:func:`_row_kernel_images`), before candidates is asked.  Without
    one, candidates(d) comes first, and the images are built only when it
    gives a nonzero vector."""
    R = ambient.context.ring
    out = SubmoduleGenerators(ambient, [], degree_bound)
    terms = []  # (degree, terms) of each generator found, parsed once
    for d in range(min(ambient.degrees, default=0), degree_bound + 1):
        r = None if row is None else row(d)
        if r is not None:
            old = _row_kernel_images(ambient, terms, d, r)
            if old is None:
                continue
        kv = [v for v in candidates(d) if any(not R.is_zero(x) for x in v)]
        if not kv:
            continue
        if r is None:
            vectors = list(ambient.images(terms, d))
            old = vectors, Lattice(R, ambient.rank(d), vectors)
        for vec in _quotient_generators(R, kv, *old):
            col = _vector_to_column(ambient, d, vec)
            out.generators.append((d, col))
            terms.append((d, ambient._column_terms(d, col)))
    return out


def _row_kernel_images(ambient: FreeGradedModule, terms, d: int, r):
    """The degree-d images of the generators (degree, terms) and the
    Lattice they span, or None once that Lattice spans K = ker(r).

    The index test: the Lattice is all of K exactly when it has rank
    m - 1, m = len(r), and the product of its echelon pivots times
    content(r) generates the ideal of r[np] (equal absolute values over Z,
    equal valuations over Z_(p); over a field the rank decides).
    :func:`_spans_row_kernel` reads content(r) and the generator of r[np]
    once per degree, and proves the test.  It runs only where the Lattice
    has rank m - 1: on the empty Lattice when m = 1 (K = 0, and the
    product of no pivots is 1), and after each insert that grows it to, or
    within, rank m - 1.  The images after the one that passes are never
    built.  When r = 0 no test applies, and every image is built."""
    R = ambient.context.ring
    generator = R._echelon.generator
    read = _spans_row_kernel(generator, r)
    if read is None:
        vectors = list(ambient.images(terms, d))
        return vectors, Lattice(R, len(r), vectors)
    content, want = read
    rank = len(r) - 1  # of K
    vectors, sub = [], Lattice(R, len(r))
    rows, images = sub.rows, ambient.images(terms, d)
    while True:  # test, then insert images up to the next one that grows sub
        if len(rows) == rank and generator(
                content * math.prod([row[p] for p, row in rows.items()])) == want:
            return None
        for v in images:
            vectors.append(v)
            if sub.insert(v):
                break
        else:
            return vectors, sub


# ---------------------------------------------------------------------------
# Hilbert series
# ---------------------------------------------------------------------------


@dataclass
class HilbertSeries:
    module: PresentedModule
    pieces: dict  # degree -> ModuleInvariants
    horizon: int
    fit: dict | None = None

    def piece(self, d: int) -> ModuleInvariants:
        R = self.module.context.ring
        return self.pieces.get(d, ModuleInvariants(R, 0, ()))

    def to_json(self):
        out = {
            "horizon": self.horizon,
            "pieces": {str(d): inv.to_json() for d, inv in sorted(self.pieces.items())},
        }
        if self.fit:
            out["fit"] = {
                "preperiod": [
                    [d, inv.to_json()] for d, inv in self.fit["preperiod"]
                ],
                "period": self.fit["period"],
                "block_start": self.fit["block_start"],
                "block": [inv.to_json() for inv in self.fit["block"]],
            }
        return out


def hilbert_series(M: PresentedModule, horizon: int) -> HilbertSeries:
    pieces = {}
    for d in range(M.min_degree(), horizon + 1):
        inv = M.piece_invariants(d)
        if not inv.is_zero:
            pieces[d] = inv
    return HilbertSeries(M, pieces, horizon)


def rational_fit(H: HilbertSeries) -> HilbertSeries:
    """Fit H as  sum_{d < s} [M_d] t^d  +  (sum_{j<h} [M_{s+j}] t^{s+j}) / (1 - t^h)
    with the least eventual period h and preperiod s of :func:`_periodic_fit`,
    which re-expands to H on the horizon.  Requires at least two full periods
    of data; otherwise the series is returned unfitted."""
    H.fit = _periodic_fit(H.piece, H.module.min_degree(), H.horizon)
    return H


def _periodic_fit(value, dmin: int, horizon: int, zero=None):
    """Fit the stream value(dmin), ..., value(horizon) as a preperiod and a
    block repeating with the least period h <= 12; None if no h fits.

    Returns {"preperiod": [(d, value(d)) for d < s, leaving out values equal
    to zero], "period": h, "block_start": s, "block": [value(s + j) for
    j < h]}, where s is the least start of an h-periodic tail."""
    for h in range(1, 13):
        s = dmin
        for d in range(dmin, horizon - h + 1):
            if value(d) != value(d + h):
                s = d + 1
        # demand a tail of at least two periods and four data points, so a
        # short trailing run cannot masquerade as a period-1 fit
        if horizon - s + 1 >= max(2 * h, 4):
            return {
                "preperiod": [(d, value(d)) for d in range(dmin, s) if value(d) != zero],
                "period": h,
                "block_start": s,
                "block": [value(s + j) for j in range(h)],
            }
    return None


def fit_matches_principal_special(H: HilbertSeries, ideal_gens, h: int) -> bool:
    """Whether the fitted series equals [k/a] / (1 - t^h) (no preperiod)."""
    if not H.fit or H.fit["period"] != h or H.fit["preperiod"]:
        return False
    R = H.module.context.ring
    m = ExactMatrix(R, [[R.canon(a) for a in ideal_gens]], 1, len(ideal_gens))
    target = cokernel_invariants(m)
    block = H.fit["block"]
    if H.fit["block_start"] % h != 0:
        return False
    if block[0] != target:
        return False
    return all(block[j].is_zero for j in range(1, h))


# ---------------------------------------------------------------------------
# Tor tables via degreewise free resolutions
# ---------------------------------------------------------------------------


@dataclass
class TorTable:
    entries: dict  # (i, d) -> ModuleInvariants (nonzero only)
    max_i: int
    horizon: int


def free_resolution(M: PresentedModule, steps: int, degree_bound: int):
    """Maps d_1, ..., d_steps of a degreewise free resolution of M, built by
    repeated syzygy extraction (exact in all degrees <= degree_bound)."""
    maps = [M.relations]
    for _ in range(1, steps):
        maps.append(syzygy_generators(maps[-1], degree_bound).as_map())
    return maps


def tor(M: PresentedModule, max_i: int, degree_bound: int) -> TorTable:
    """Tor_i(M, k)_d for 0 <= i <= max_i, d <= degree_bound, computed as the
    homology of (free resolution) tensor k: only the scalar components of the
    differentials survive, degree by degree."""
    maps = free_resolution(M, max_i + 1, degree_bound)
    entries = {}
    for d in range(M.min_degree(), degree_bound + 1):
        bars = [m.constant_slice(d) for m in maps]
        # Tor_0 = coker(bar d_1) on generators of degree exactly d
        inv0 = cokernel_invariants(bars[0])
        if not inv0.is_zero:
            entries[(0, d)] = inv0
        for i in range(1, max_i + 1):
            inv = homology_invariants(bars[i - 1], bars[i])
            if not inv.is_zero:
                entries[(i, d)] = inv
    return TorTable(entries, max_i, degree_bound)


# ---------------------------------------------------------------------------
# torsion submodules
# ---------------------------------------------------------------------------


@dataclass
class TorsionReport:
    verdict: str  # "torsion_free" | "has_torsion" | "inconclusive"
    candidates: list  # (degree, invariants of stable lattice / relation span)
    horizon: int
    margin: int
    certificate: str | None = None


def _rank_and_delta(R: Ring, vectors, dim: int):
    """(rank, delta) of the span of the vectors in R^dim, given as rows over
    the window ring of R's record (Ring._echelon; integer rows over Z_(p)):
    delta generates the ideal of the maximal nonzero minors of the matrix
    with the vectors as rows (over Z/n, with the lift rows n e_i appended,
    so that it spans the preimage in Z^dim).  _euclid diagonalizes the rows
    by unimodular moves over the window's record, which keep that ideal,
    so delta generates the product of the diagonal; no divisibility chain
    is needed.  The transpose, with the vectors as columns, has the same
    rank and the same maximal minors."""
    K = R._echelon.window
    elim = K._echelon
    if not elim.base.is_pid:
        raise UnsupportedRingError(f"smith_normal_form unsupported over {K.describe()}")
    rows = [list(v) for v in vectors] + _lift_rows(K, dim)
    rank = _euclid(rows, dim, elim.key, elim.quotient, elim.modulus)
    return rank, R._echelon.generator(math.prod(rows[t][t] for t in range(rank)))


def _refine_lattice(M: PresentedModule, d: int, window, degrees, relation_columns, goal=None):
    """Cut a window of F0_d down to the vectors v with x^[j] v in
    im(relations) for every j in degrees, one j at a time (each step is one
    echelon form of a tiny matrix, so large margins stay cheap), and return
    the cut window.  The relation submodule is a D-submodule, so a lattice
    that contains its degree-d slice keeps it.  Callers pass the degrees of
    ``dplus_generator_degrees`` in a window: a lattice that meets the
    conditions for every j below the window meets them for every j up to
    its top, as the skipped x^[j] are R-combinations of products of smaller
    ones (the proof is in that method's docstring).

    A window is ((rank, delta), B): B an independent basis (rows) of the
    lattice, delta the generator of the ideal of B's maximal minors; None
    is all of F0_d.  The ring's record (Ring._echelon) gives the generator
    and the ring K of the rows: over Z_(p), K is Z, and integer rows span
    the lattice, as a unit scale changes no span; over Z/n, the rows are
    integers whose residues generate the lattice.  relation_columns(e) is
    the echelon basis over K of the relation slice of degree e, keyed by
    pivot (:func:`_relation_columns`): already reduced, so a cut sets each
    of its rows at its pivot, with no insert.  Over Z/n, whose cut holds
    the lift rows n e_i from the start, the rows that are not among them
    are inserted.

    A step for j is one Lattice over K (over Z/n, the preimage of its span)
    in K^(t + r + dim), t the rank of F0_{d+j} and r that of the window,
    spanned by the rows [P_k | 0 | 0], P_k the relation rows of degree
    d + j, and [x^[j] b_c | e_c | b_c], b_c the rows of B, x^[j] taking
    x^[s] e_i to C(s + j, j) x^[s + j] e_i by the row of
    :func:`_times_row`.  Its vectors are (P z + x^[j] y B, y, y B), so the
    ones that vanish on the top block are the (0, y, y B) with x^[j] y B
    in the relation span.  In an echelon basis the rows whose pivot lies
    past the top block span exactly the lattice's vectors that vanish
    there: such a vector is a combination of the rows, and the first row
    it uses, by pivot, has a pivot past the top block.  No such row has its
    pivot in the bottom block, as y = 0 gives y B = 0 (over Z/n the lift
    rows there are left out).  So the rows with pivot in the middle block
    give, in their middle blocks, an echelon basis A of the coordinates
    y, and in their bottom blocks B <- A B, the cut window (Cohen, *A
    Course in Computational Algebraic Number Theory*, 2.4), kept as the
    echelon form leaves it: already rows over K.  Over Z_(p), with the
    binomial row a primitive integer row, a unit multiple of the binomials
    (a unit scale of x^[j] changes no condition), this is the same over Z:
    Z_(p) is a localization of Z, so a Z-basis of the cut is a
    Z_(p)-basis of it.
    Over Z/n only the residues of B count: its rows generate the cut
    modulo n, and A's pivots give the index of the coordinate lattice.  At
    an unchanged rank A is square and triangular, so delta gains the
    product of its pivots; when the rank drops, :func:`_rank_and_delta` of
    B gives delta again.

    With goal, the (rank, delta) of the relation span, the cuts stop once
    the window reaches it: the window contains the relation span, and
    nested lattices of equal rank and delta are equal."""
    ctx = M.context
    R = ctx.ring
    F0 = M.generators
    basis = F0.basis(d)
    dim = len(basis)
    elim = R._echelon
    K, ideal_generator = elim.window, elim.generator
    zero, one, mul = K.zero(), K.one(), K.mul
    (rank, delta), B = window or ((dim, 1), _identity(dim, one, zero))
    shifts = [s for _, s in basis]
    for j in degrees:
        if not rank or (rank, delta) == goal:
            break
        row_of = F0._columns(d + j)
        top = len(row_of)
        coeffs = _times_row(ctx, shifts, j)
        lattice = Lattice(K, top + rank + dim)
        rows, pad = lattice.rows, [zero] * (rank + dim)
        for p, row in relation_columns(d + j).items():
            v = row + pad
            if p not in rows:
                rows[p] = v  # an echelon basis: each row goes straight to its pivot
            elif v not in lattice.lift_kernel:
                # over Z/n the cut holds its lift rows n e_i from the start
                lattice.insert(v)
        for c, b in enumerate(B):
            v = [zero] * (top + rank) + b
            v[top + c] = one
            # x^[j] sends x^[s] e_i to C(s + j, j) x^[s + j] e_i: one row
            # per generator, so no two products land in the same entry
            for (i, _), coeff, x in zip(basis, coeffs, b):
                v[row_of[i]] = mul(coeff, x)
            lattice.insert(v)
        cut = lattice.rows
        middle = [t for t in range(top, top + rank) if t in cut]
        B = [cut[t][top + rank:] for t in middle]
        if len(middle) == rank:
            delta = ideal_generator(delta * math.prod(cut[t][t] for t in middle))
        else:
            rank, delta = _rank_and_delta(R, B, dim)
    return (rank, delta), B


def _relation_rows(M: PresentedModule):
    """e -> the rows of the relation slice at degree e over the windows'
    ring, one per relation of degree <= e: its columns, each read by the
    ring's record (Ring._echelon) as the one row its primitive gives, over
    Z_(p) the positive unit multiple with integer entries whose content is
    a power of p, over any other ring the canonical entries.

    Each relation column is read once per call of this function, its
    coefficients cleared to one unit multiple over the windows' ring (over
    Z_(p), times the lcm of their denominators).  A degree's rows then read
    each term's binomial C(e - g_i, t) from pi's memo table, all cleared as
    one row, and take one product per term and one primitive per row."""
    ctx = M.context
    elim = ctx.ring._echelon
    clear, primitive, zero = elim.clear, elim.primitive, elim.window.zero()
    F0, pi, memo = M.generators, ctx.pi, ctx.pi._c_memo
    relations = []
    for f, terms in M.relations._terms:
        coeffs = clear([c for *_, c in terms])
        relations.append((f, [(i, g, t, a) for (i, g, t, _), a in zip(terms, coeffs)]))

    def rows(e: int) -> list:
        col_of = F0._columns(e)
        live = [terms for f, terms in relations if f <= e]
        try:
            binomials = [memo[e - g, t] for terms in live for _, g, t, _ in terms]
        except KeyError:  # c_binomial computes the binomials not met before, and keeps them
            binomials = [c_binomial(pi, e - g, t) for terms in live for _, g, t, _ in terms]
        # one unit multiple clears every binomial of the degree: each row is
        # then a unit multiple of its column, and primitive makes it the row
        # that the column stands for
        binomials = iter(clear(binomials))
        out = []
        for terms in live:
            row = [zero] * len(col_of)
            # zip stops at the end of terms, before it takes another binomial
            for (i, _, _, a), b in zip(terms, binomials):
                row[col_of[i]] = a * b
            out.append(primitive(row))
        return out

    return rows


def _times_row(ctx: AlgebraContext, shifts, j: int) -> list:
    """The binomials C(s + j, j), s in shifts, by which x^[j] multiplies a
    degree's basis elements x^[s] e_i, as one row over the windows' ring,
    read by the ring's record (Ring._echelon) as :func:`_relation_rows`
    reads a relation's column: cleared, then made primitive."""
    pi, memo = ctx.pi, ctx.pi._c_memo
    try:
        binomials = [memo[s + j, j] for s in shifts]
    except KeyError:  # c_binomial computes the binomials not met before, and keeps them
        binomials = [c_binomial(pi, s + j, j) for s in shifts]
    elim = ctx.ring._echelon
    return elim.primitive(elim.clear(binomials))


def _relation_columns(M: PresentedModule):
    """e -> an echelon basis of the relation slice at degree e, as rows over
    the windows' ring (Ring._echelon) keyed by their pivots, in pivot order:
    one Lattice of the rows of :func:`_relation_rows`, built once per
    degree and call, so each relation column is read once per call and
    each degree's rows once.  It spans the slice's lattice (over Z/n, its
    preimage in Z^t, lift rows included), so the cuts, the goal and a
    candidate's span all read it in its place, and a cut sets its rows at
    their pivots."""
    K = M.context.ring._echelon.window
    rank, rows = M.generators.rank, _relation_rows(M)

    @cache
    def echelon_rows(e: int) -> dict:
        basis = Lattice(K, rank(e), rows(e)).rows
        return {p: basis[p] for p in sorted(basis)}

    return echelon_rows


def _relation_goal(R: Ring, rows: dict, dim: int):
    """(rank, delta) of the span of rows, an echelon basis over the windows'
    ring in R^dim keyed by pivot: with dim rows it is square and
    triangular, so delta generates the product of its pivots (always so
    over Z/n, whose lift rows are in it); otherwise :func:`_rank_and_delta`
    of the rows."""
    if len(rows) < dim:
        return _rank_and_delta(R, rows.values(), dim)
    return dim, R._echelon.generator(math.prod(row[p] for p, row in rows.items()))


def torsion_submodule(M: PresentedModule, degree_bound: int) -> TorsionReport:
    """Detect classes m with x^[j] m = 0 for all large j (torsion), degreewise.

    A degree-d class is a candidate when x^[j] m lies in the relation
    submodule for every 1 <= j <= margin.  Because the conditions are finite,
    margin artifacts are possible (e.g. over Z_(p), deep p-power multiples of
    free classes satisfy long windows and only escape at p-power-aligned j);
    so the search runs on past the margin, up to a cap that scales with the
    degree bound.  D acts through degree differences, so both read degrees
    relative to dmin, the lowest generator degree: the margin is
    max(4, top presentation degree - dmin + 1), and the cap is
    max(4 margin, 2^(b + 1)), b the bit length of degree_bound - dmin +
    margin - 1; a module and its shift get the same margin, cap and report.
    In every degree the lattice starts as all of F0_d and is
    cut through the windows [1, margin], [margin+1, cap/2] and
    [cap/2+1, cap], at the j of ``ctx.dplus_generator_degrees(cap)`` only:
    for any other j the C(j, a), 0 < a < j, generate the unit ideal, so
    x^[a] v in N for every a < j gives x^[j] v in N (N the relations),
    since x^[j-a] x^[a] v = C(j, a) x^[j] v, and a cut at j would not
    change a lattice already cut at every smaller degree.  The
    lattice always contains the relation span, because the relation
    submodule is a D-submodule, so the lattices after the three windows
    shrink and all contain the span.  Nested lattices of equal rank are
    equal exactly when their determinant ideals agree, so each is compared
    with the span, and the last with the middle one, by (rank, delta) (see
    :func:`_refine_lattice`); a window that reaches the span stops cutting,
    as every later cut would keep it.  The span's pair, the goal, is read
    from the echelon basis of the relation slice that the cuts also use
    (:func:`_relation_columns`, :func:`_relation_goal`).  After a window:

    - lattice equal to the relation span -> no candidate;
    - unchanged over the top half of the window [cap/2, cap] (stable) ->
      reported torsion, certified when the ring is a field and pi is
      zero-free (:meth:`PiSequence.is_zero_free`: x^[j] is then a unit
      multiple of x^[1]^j, and x^[1]-annihilation persists), otherwise
      inconclusive, as a zero of pi past the cap may free the class;
    - still shrinking at the cap -> a margin artifact, no stable torsion.

    A candidate is reported with the invariants of its torsion slice, the
    stable lattice modulo the relation span: a submodule of M_d, never 0.

    Never claims torsion that was not certified; torsion_free is always
    qualified by the scanned bound and margins."""
    ctx = M.context
    R = ctx.ring
    margin = max(4, M.max_presentation_degree() - M.min_degree() + 1)
    cap = max(4 * margin, 2 * (1 << (degree_bound - M.min_degree() + margin - 1).bit_length()))
    certified = R.is_field and ctx.pi.is_zero_free()
    stable = []
    shrank = False
    relation_columns = _relation_columns(M)
    cuts = ctx.dplus_generator_degrees(cap)
    first = [j for j in cuts if j <= margin]
    middle = [j for j in cuts if margin < j <= cap // 2]
    last = [j for j in cuts if j > cap // 2]
    for d in range(M.min_degree(), degree_bound + 1):
        dim = M.generators.rank(d)
        if not dim:
            continue
        goal = _relation_goal(R, relation_columns(d), dim)
        window = _refine_lattice(M, d, None, first, relation_columns, goal)
        if window[0] == goal:
            continue
        half = _refine_lattice(M, d, window, middle, relation_columns, goal)
        final = _refine_lattice(M, d, half, last, relation_columns, goal)
        if final[0] == goal or half[0] != final[0]:
            shrank = True
            continue
        # stable annihilated classes beyond the relation submodule
        cols = [[R.canon(x) for x in v] for v in final[1]]
        span = [[R.canon(x) for x in v] for v in relation_columns(d).values()]
        stable.append((d, _quotient_invariants(R, dim, cols, span)))
    if stable:
        if certified:
            return TorsionReport(
                "has_torsion", stable, degree_bound, margin,
                certificate=(
                    "field with nowhere-vanishing pi: x^[1]-annihilation persists"
                ),
            )
        return TorsionReport("inconclusive", stable, degree_bound, margin)
    note = f"no stable annihilated classes up to degree {degree_bound}"
    if shrank:
        note += f" (margin artifacts eliminated within extended window {cap})"
    return TorsionReport("torsion_free", [], degree_bound, margin, certificate=note)
