"""Special modules M(a, h), special resolutions over fields, filtration
certificates, and Grothendieck-class invariants H and L.

Class groups implemented: K(Z), K(Z_(p)) and K(field) are identified with Z
via rank / dimension; the torsion class group K_+ over Z and Z_(p) is the
group of per-prime length vectors ([M]_+ = 0 unless M is torsion as an
abelian group).
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff_rings import (
    ExactMatrix,
    Lattice,
    ModuleInvariants,
    PreconditionError,
    Ring,
    Zloc,
    _identity,
    column_cokernel_invariants,
    cokernel_invariants,
    invariants_from_factors,
    quotient_generators,
)
from .gdpa import AlgebraContext
from .graded_modules import (
    FreeGradedModule,
    ModuleMap,
    PresentedModule,
    SubmoduleGenerators,
    _degreewise_generators,
    _periodic_fit,
    hilbert_series,
    principal_special_module,
    syzygy_generators,
    tor,
)
from .pi_core import PiSequence


def ideal_contains(ring: Ring, gens, x) -> bool:
    """Whether x lies in the ideal generated by gens (x = 0 always does,
    also over rings without an ideal membership test)."""
    x = ring.canon(x)
    return ring.is_zero(x) or ring.ideal_contains([ring.canon(g) for g in gens], x)


def ideal_invariants(ring: Ring, gens) -> ModuleInvariants:
    """Invariants of the cyclic module k/(gens); k itself when gens is empty."""
    return cokernel_invariants(ExactMatrix(ring, [[ring.canon(g) for g in gens]], 1, len(gens)))


# ---------------------------------------------------------------------------
# special blocks and filtration certificates
# ---------------------------------------------------------------------------


@dataclass
class SpecialBlock:
    """The principal special module M(a, h)[-shift] with given multiplicity."""

    ideal_generators: list
    h: int
    shift: int = 0
    multiplicity: int = 1

    def validate(self, context: AlgebraContext):
        R = context.ring
        if self.h < 1:
            raise PreconditionError("h must be >= 1")
        if not ideal_contains(R, self.ideal_generators, context.pi.pi(self.h)):
            gens = ", ".join(R.to_str(R.canon(g)) for g in self.ideal_generators)
            raise PreconditionError(f"pi_{self.h} is not in the ideal ({gens})")

    def to_json(self, ring: Ring):
        return {
            "ideal": [ring.to_str(ring.canon(g)) for g in self.ideal_generators],
            "h": self.h,
            "shift": self.shift,
            "multiplicity": self.multiplicity,
        }


def make_special(context: AlgebraContext, block: SpecialBlock) -> PresentedModule:
    """Presentation of M(a, h)[-shift]: one generator, relations a e (a in the
    ideal generators) and x^[j] e for 1 <= j <= h-1."""
    block.validate(context)
    return principal_special_module(
        context, block.ideal_generators, block.h, shift=block.shift
    )


@dataclass
class SpecialFiltrationCertificate:
    blocks: list  # of SpecialBlock

    def expected_pieces(self, ring: Ring, degrees):
        """The invariants of the direct sum of the blocks at each degree in
        degrees.  k/(ideal) is computed once per distinct ideal (as its
        canonical generators) within the call, and each block steps once
        over its degrees shift, shift + h, ... up to the last one asked for;
        the invariants are built once per distinct (free rank, factors)
        within the call."""
        degrees = list(degrees)
        top = max(degrees, default=0)
        free, factors, ideals = {}, {}, {}
        for b in self.blocks:
            gens = tuple(ring.canon(g) for g in b.ideal_generators)
            if gens not in ideals:
                ideals[gens] = ideal_invariants(ring, gens)
            inv = ideals[gens]
            for e in range(b.shift, top + 1, b.h):
                free[e] = free.get(e, 0) + inv.free_rank * b.multiplicity
                if inv.torsion_factors:
                    factors[e] = factors.get(e, ()) + inv.torsion_factors * b.multiplicity
        built = {}
        for e in degrees:
            key = (free.get(e, 0), factors.get(e, ()))
            if key not in built:
                built[key] = invariants_from_factors(ring, *key)
            yield built[key]

    def to_json(self, ring: Ring):
        return {"blocks": [b.to_json(ring) for b in self.blocks]}


def verify_special_filtration(
    M: PresentedModule, cert: SpecialFiltrationCertificate, horizon: int, slices=None
):
    """Degreewise check that the graded pieces of M match the direct sum of
    the declared principal special blocks; (True, None) or (False, witness
    degree).  M's relation slice is built at every degree from the lowest
    generator or block degree up to the horizon, except where slices, a map
    from degrees to relation slices already built
    (M.relations.slice_columns(d)), holds it.  The piece is the cokernel of
    the slice, so it is computed once per distinct (rank of F0_d, slice)
    within the call, and compared with the certificate at every degree."""
    R = M.context.ring
    F0 = M.generators
    slices = slices or {}
    lo = min([M.min_degree()] + [b.shift for b in cert.blocks])
    degrees = range(lo, horizon + 1)
    pieces = {}
    for e, expected in zip(degrees, cert.expected_pieces(R, degrees)):
        cols = slices[e] if e in slices else M.relations.slice_columns(e)
        key = (F0.rank(e), tuple(map(tuple, cols)))
        if key not in pieces:
            pieces[key] = column_cokernel_invariants(R, cols, key[0])
        if pieces[key] != expected:
            return False, e
    return True, None


# ---------------------------------------------------------------------------
# special resolutions over fields
# ---------------------------------------------------------------------------


@dataclass
class SpecialResolution:
    module: PresentedModule
    r: int
    free_part: list  # generator degrees of F_0, ..., F_{r-1}
    certificate: SpecialFiltrationCertificate  # for the special stage P_r
    horizon: int
    h: int | None = None  # decomposition period used (r = 0 branch)
    notes: str = ""

    def to_json(self):
        R = self.module.context.ring
        return {
            "r": self.r,
            "free_generator_degrees": self.free_part,
            "certificate": self.certificate.to_json(R),
            "horizon": self.horizon,
            "h": self.h,
            "notes": self.notes,
        }


# The highest degree, unless the normalised horizon is higher, at which
# special_resolve_field looks for a zero of pi past the presentation degrees.
_ZERO_SEARCH_DEGREE = 1024


def special_resolve_field(M: PresentedModule, horizon: int = 40) -> SpecialResolution:
    """A special resolution of a finitely presented module over a field.

    D acts through degree differences, so degrees are read relative to
    dmin, the lowest generator degree: M shifted by s, at horizon + s, gets
    the same h and r and the certificate shifted by s.  If some pi_h = 0
    with h past max(presentation degrees) - dmin, M is itself special and
    r = 0: M = D^(h) tensor N with N a module over D_{<h}, and the adic
    filtration of M by I = (x^[j] : h ∤ j) has layers that are direct sums
    of shifted M((0), h).  The filtration is computed only up to max(F0
    degrees) + h - 1, the top degree of N, where every block lies (see
    _special_resolve_adic for the proof).  The zero h is sought up to
    max(horizon - dmin, 1024), past the horizon too: zeros of pi below the
    presentation degrees can force syzygies within the horizon that only
    the split at h resolves.  Otherwise the free-kernel path takes one free
    cover and checks that its kernel is free, so r <= 1; that holds when pi
    has no zeros at all.  A pi whose zeros all lie at or below the
    presentation degrees can leave a kernel that is not free, and then
    PreconditionError is raised although the module is valid.  Either way
    the certificate is verified against M's own pieces at every degree up
    to the horizon, and a failed check raises AssertionError."""
    ctx = M.context
    R = ctx.ring
    if not R.is_field:
        raise PreconditionError("special_resolve_field requires a field")
    dmin = M.min_degree()
    first = max(2, M.max_presentation_degree() - dmin + 1)
    last = max(horizon - dmin, _ZERO_SEARCH_DEGREE)
    h = next((z for z in range(first, last + 1) if R.is_zero(ctx.pi.pi(z))), None)
    if h is not None:
        return _special_resolve_adic(M, h, horizon)
    return _special_resolve_free_kernel(M, horizon)


def _special_resolve_adic(M: PresentedModule, h: int, horizon: int) -> SpecialResolution:
    """The adic filtration F_t = I^t M, I = (x^[j] : h ∤ j), for a zero h of
    pi past max(presentation degrees) - dmin over a field; r = 0.

    Every step reads degrees only through their differences from dmin,
    the lowest generator degree, so this is the computation on M shifted
    to dmin = 0, at horizon - dmin, with the blocks shifted back.  An entry
    at generator g of a relation of degree r has degree r - g <=
    max(presentation degrees) - dmin < h.  The filtration runs only on the
    degrees dmin .. min(horizon, top), top = max(F0 degrees) + h - 1, the
    top degree of N below.  Why the cut keeps the result:
    - Only degrees of D up to horizon - dmin act within the horizon, and
      dplus_generator_degrees checks admissibility up to there.  If h lies
      beyond, top >= horizon and nothing is cut.  Otherwise, over a field,
      admissibility makes the zeros of pi up to there a divisibility chain
      through h: a zero z < h divides h, and h divides a zero z > h.
    - So for 0 <= a < h, C(qh + a, a) carries at no zero: a zero k | h
      divides qh, and a zero k = mh leaves a < h <= k and no multiple of
      k between qh and qh + a.  So x^[a] x^[qh] is a unit multiple of
      x^[qh + a].
    - For a, b < h <= a + b, C(a + b, a) carries at h and pi_h = 0, so
      x^[a] x^[b] = 0.
    - So D = D_{<h} tensor D^(h) as algebras, D_{<h} spanned by the x^[a],
      a < h, and D^(h) by the x^[qh].  Every relation entry lies in
      D_{<h}, so M = D^(h) tensor N, N the module over D_{<h} with the same
      presentation, which is 0 above top.
    - Each x^[j] with h ∤ j is a unit multiple of x^[a] x^[qh] with
      a = j mod h, so I = I'D, I' the augmentation ideal of D_{<h}, and
      F_t(M) = D^(h) tensor I'^t N.
    - So the layer multiplicity l_{t, d} = dim L_t(N)_d, which is 0 for
      d > top: every block the whole horizon would give has its shift on
      the prefix.
    - F_t(M)_d is a sum of products into degree d from lower degrees, so
      the loop on the prefix computes the same F_t(d) there as on the whole
      horizon.  F_t(M) is 0 on the horizon exactly when I'^t N = 0, that is
      when it is 0 on the prefix, so the depth T is the same too.  F_t(d)
      is 0 for t > d - dmin, so T <= horizon - dmin + 1.
    The certificate is still checked against M's own pieces at every degree
    up to the horizon, so a slip in this argument raises AssertionError and
    never yields a wrong certificate.  The same split of D at a zero is the
    first half of the route to modules whose zeros of pi all lie at or
    below the presentation degrees."""
    ctx = M.context
    R = ctx.ring
    F0 = M.generators
    dmin = M.min_degree()
    top = max(F0.degrees, default=dmin) + h - 1
    degrees = range(dmin, min(horizon, top) + 1)
    # Per-degree maps, built once per call: the basis (i, s) of F0_d, the
    # column of each generator i in it, and the relation vectors.  x^[j]
    # sends x^[s] e_i at degree d - j to C(s + j, j) x^[s + j] e_i, which is
    # the column of generator i at degree d; each generator has one basis
    # element per degree, so no two products land in the same column.  The
    # products are formed here rather than by a slice of x^[j], so that
    # C(s + j, j) is evaluated only at the nonzero entries of the vectors
    # multiplied, and not at all once the span is full.
    basis = {d: F0.basis(d) for d in degrees}
    col_of = {d: {i: c for c, (i, _) in enumerate(basis[d])} for d in degrees}
    rel_vectors = {d: M.relations.slice_columns(d) for d in degrees}
    # vectors[t][d]: the vectors that grow span(rel_vectors[d]) to F_t(d);
    # over a field each adds one to the rank, so dim F_t(d) in M is their
    # number.  F_0 = M: everything
    vectors = [{
        d: quotient_generators(
            R, len(basis[d]), _identity(len(basis[d]), R.one(), R.zero()), rel_vectors[d]
        )
        for d in degrees
    }]

    # F_t = I F_{t-1} with I = (x^[j] : h ∤ j), and F_{t-1} is a
    # D-submodule, so F_t(d) = sum_{j in G} x^[j] F_{t-1}(d - j) for any set
    # G of degrees j with h ∤ j whose x^[j] generate I.  The j with h ∤ j
    # and pi_j not a unit do: if pi_j is a unit, some C(j, a), 0 < a < j,
    # is not 0 (see AlgebraContext.dplus_generator_degrees for the proof)
    # and x^[j] = C(j, a)^-1 x^[a] x^[j-a].  One of a and j - a, call it b, has
    # h ∤ b (else h | j), so x^[j] F_{t-1}(d - j) lies in x^[b] F_{t-1}(d - b)
    # with b < j, and by induction on j in the sum over G.  I F_{t-1} is a
    # D-submodule, so it needs no closure under x^[qh].  The spans, hence the
    # vector counts and the blocks, are those of the sum over every j with
    # h ∤ j; only the vectors picked to span them may differ.  Once F_t(d)
    # spans all of F0_d no vector can grow it, so the j loop stops there:
    # later products would all be rejected and vt[d] is the same as without
    # the stop.
    G = [j for j in ctx.dplus_generator_degrees(horizon - dmin) if j % h]
    t = 0
    while any(vectors[t].values()):
        t += 1
        if t > horizon - dmin + 1:
            raise AssertionError("adic filtration failed to terminate")
        vt = {d: [] for d in degrees}
        for d in degrees:
            dim, tgt_col = len(basis[d]), col_of[d]
            span = Lattice(R, dim, rel_vectors[d])
            for j in G:
                if j > d - dmin or span.rank == dim:
                    break
                source = vectors[t - 1][d - j]
                if not source:
                    continue
                src = basis[d - j]
                for vec in source:
                    w = [R.zero()] * dim
                    for c, (i, s) in enumerate(src):
                        v = vec[c]
                        if not R.is_zero(v):
                            w[tgt_col[i]] = R.mul(v, ctx.C(s + j, j))
                    if span.insert(w):
                        vt[d].append(w)
        vectors.append(vt)
    T = t  # F_T = 0 in M on the prefix, hence on the whole horizon

    # layer multiplicities: dim L_t(d) = sum_{q >= 0} l_{t, d - qh}, so
    # l_{t, d} = dim L_t(d) - dim L_t(d - h)
    blocks = []
    for t in range(T):
        layer = {d: len(vectors[t][d]) - len(vectors[t + 1][d]) for d in degrees}
        for d in degrees:
            acc = layer[d] - layer.get(d - h, 0)
            if acc < 0:
                raise AssertionError(f"negative layer multiplicity at (t={t}, d={d})")
            if acc:
                blocks.append(SpecialBlock([R.zero()], h, shift=d, multiplicity=acc))
    cert = SpecialFiltrationCertificate(blocks)
    ok, witness = verify_special_filtration(M, cert, horizon, rel_vectors)
    if not ok:
        raise AssertionError(f"special filtration verification failed at {witness}")
    return SpecialResolution(
        module=M,
        r=0,
        free_part=[],
        certificate=cert,
        horizon=horizon,
        h=h,
        notes=f"adic filtration with {len(blocks)} block groups, depth {T}",
    )


def minimal_image_generators(g: ModuleMap, degree_bound: int) -> SubmoduleGenerators:
    """Minimal generators of the image submodule of g, degree by degree,
    with horizon degree_bound.

    The image at degree d is spanned by the slice columns x^[d - e_j] * col_j
    (source degrees e_j <= d).  The scan stops at the top source degree:
    col_j lies in the span of the generators g_k (degrees e_k) found up to
    e_j, col_j = sum c_k * x^[e_j - e_k] * g_k, so at every d > e_j
    x^[d - e_j] * col_j = sum c_k * C(d - e_k, d - e_j) * x^[d - e_k] * g_k
    lies in the span of the old generators' images, and quotient_generators
    returns [] there, over every ring (Z/n included)."""
    top = min(degree_bound, max(g.source.degrees, default=degree_bound))
    gens = _degreewise_generators(g.target, top, g.slice_columns)
    gens.horizon = degree_bound
    return gens


def _special_resolve_free_kernel(M: PresentedModule, horizon: int) -> SpecialResolution:
    """r = 0 when the relations have no image generators (M is free), else
    r = 1 when the free cover's kernel is free; blocks M((0), 1) certify."""
    ctx = M.context
    R = ctx.ring
    kgens = minimal_image_generators(M.relations, horizon)
    incl = kgens.as_map()
    free = M
    if kgens.generators:
        second = syzygy_generators(incl, horizon)
        if second.generators:
            raise PreconditionError(
                "kernel of the free cover is not free on its minimal generators; "
                f"syzygies at degrees {second.degrees()}"
            )
        free = PresentedModule(incl.source, ModuleMap.zero(FreeGradedModule(ctx, []), incl.source))
    cert = SpecialFiltrationCertificate(
        [SpecialBlock([R.zero()], 1, shift=g) for g in free.generators.degrees]
    )
    ok, witness = verify_special_filtration(free, cert, horizon)
    if not ok:
        raise AssertionError(f"free module certificate failed at {witness}")
    if free is M:
        return SpecialResolution(M, 0, [], cert, horizon, h=1, notes="already free")
    # exactness check: dim F0_d = dim M_d + dim K_d degreewise
    for d in range(M.min_degree(), horizon + 1):
        lhs = M.generators.rank(d)
        rhs = M.piece_invariants(d).free_rank + incl.source.rank(d)
        if lhs != rhs:
            raise AssertionError(f"free-cover exactness fails at degree {d}")
    return SpecialResolution(
        module=M,
        r=1,
        free_part=[list(M.generators.degrees)],
        certificate=cert,
        horizon=horizon,
        h=None,
        notes="free cover with free kernel",
    )


# ---------------------------------------------------------------------------
# Grothendieck-class invariants: H (rank classes) and L (torsion classes)
# ---------------------------------------------------------------------------


@dataclass
class KClassExpr:
    """A K(k)-valued power series: integer rank/dimension per degree."""

    coeffs: dict  # degree -> int (zero omitted)
    dmin: int
    horizon: int
    fit: dict | None = None

    def coeff(self, d: int) -> int:
        return self.coeffs.get(d, 0)

    def to_json(self):
        return {
            "coeffs": {str(d): c for d, c in sorted(self.coeffs.items())},
            "horizon": self.horizon,
            "fit": self.fit,
        }


def h_invariant(M: PresentedModule, horizon: int) -> KClassExpr:
    """H_M(t) mapped through K(k) = Z: rank (over Z, Z_(p)) or dimension
    (over a field) per degree, with a periodic rational fit."""
    R = M.context.ring
    if not (R.is_field or R.is_pid):
        raise PreconditionError(f"no implemented class group for {R.describe()}")
    pieces = hilbert_series(M, horizon).pieces
    coeffs = {d: inv.free_rank for d, inv in pieces.items() if inv.free_rank}
    expr = KClassExpr(coeffs, M.min_degree(), horizon)
    expr.fit = _periodic_fit(lambda d: coeffs.get(d, 0), expr.dmin, horizon, zero=0)
    return expr


def check_mah_relation(
    context: AlgebraContext, ideal_gens, h: int, k: int, horizon: int
) -> bool:
    """Prop-style relation (1 - t^h)/(1 - t^k) [M(a,h)] = [M(a,k)] on H
    rank streams: a_d - a_{d-h} == b_d - b_{d-k} for all d <= horizon."""
    A = h_invariant(make_special(context, SpecialBlock(list(ideal_gens), h)), horizon)
    B = h_invariant(make_special(context, SpecialBlock(list(ideal_gens), k)), horizon)
    for d in range(0, horizon + 1):
        if A.coeff(d) - A.coeff(d - h) != B.coeff(d) - B.coeff(d - k):
            return False
    return True


def _plus_tuple(inv: ModuleInvariants):
    """[M]_+ as a canonical tuple of (prime, length); 0 for non-torsion."""
    pc = inv.plus_class()
    return tuple(sorted(pc.items()))


def _plus_add(a, b, sign=1):
    d = dict(a)
    for p, n in b:
        d[p] = d.get(p, 0) + sign * n
    return tuple(sorted((p, n) for p, n in d.items() if n != 0))


@dataclass
class LSeries:
    """L_M(t) = L0_M(t) / (1 - t): K_+-valued coefficients per degree."""

    l0: dict  # degree -> plus tuple
    l: dict  # degree -> plus tuple (cumulative)
    dmin: int
    horizon: int
    max_i: int
    complete: bool
    fit: dict | None = None

    def l_coeff(self, d: int):
        if d < self.dmin:
            return ()
        return self.l.get(d, ())

    def is_zero(self) -> bool:
        return all(not v for v in self.l.values())

    def matches_closed_form(self, plus_value, h: int) -> bool:
        """Whether L = [value]/(1 - t^h), i.e. coefficient value at
        nonnegative multiples of h and 0 elsewhere."""
        target = tuple(sorted(plus_value))
        for d in range(self.dmin, self.horizon + 1):
            want = target if d >= 0 and d % h == 0 else ()
            if self.l_coeff(d) != want:
                return False
        return True

    def to_json(self):
        return {
            "l0": {str(d): list(v) for d, v in sorted(self.l0.items()) if v},
            "l": {str(d): list(v) for d, v in sorted(self.l.items()) if v},
            "horizon": self.horizon,
            "max_i": self.max_i,
            "complete": self.complete,
            "fit": {k: (v if k != "block" else [list(x) for x in v])
                    for k, v in self.fit.items()} if self.fit else None,
        }


def l_invariant(M: PresentedModule, horizon: int, max_i: int | None = None) -> LSeries:
    """L0_M(t) = sum_i (-1)^i [Tor_i(M, k)]_+ per degree, and L = L0/(1-t),
    with a periodic fit over (1 - t^h).  The default max_i, horizon - dmin + 1
    (dmin the lowest generator degree), is the same for M and its shifts."""
    R = M.context.ring
    if not R.is_pid or R.is_field:
        raise PreconditionError("L-invariant requires k in {Z, Z_(p)}")
    dmin = M.min_degree()
    if max_i is None:
        max_i = horizon - dmin + 1
    table = tor(M, max_i, horizon)
    # if Tor at the top index is nonzero somewhere, the truncated alternating
    # sum may be missing contributions: flag the series as partial
    complete = not any(i == max_i for (i, _) in table.entries)
    l0 = {}
    for (i, d), inv in table.entries.items():
        t = _plus_tuple(inv)
        if t:
            l0[d] = _plus_add(l0.get(d, ()), t, sign=(-1) ** i)
    l0 = {d: v for d, v in l0.items() if v}
    l = {}
    acc = ()
    for d in range(dmin, horizon + 1):
        acc = _plus_add(acc, l0.get(d, ()))
        if acc:
            l[d] = acc
    fit = _periodic_fit(lambda d: l.get(d, ()), dmin, horizon, zero=())
    return LSeries(l0, l, dmin, horizon, max_i, complete, fit)


def ktors_demo(p: int, h: int, horizon: int | None = None) -> dict:
    """The torsion-class phenomenon over Z_(p), classical pi: the H-class of
    D/pD is 0 in K(Z_(p)) = Z, while L_{M((p), h)} = [F_p]_+/(1 - t^h) != 0."""
    ring = Zloc(p)  # PreconditionError unless p is prime
    hh = h
    while hh > 0 and hh % p == 0:
        hh //= p
    if hh != 1:
        raise PreconditionError(f"h = {h} must be a power of p = {p}")
    if horizon is None:
        horizon = max(12, 3 * h + 2)
    ctx = AlgebraContext(PiSequence.classical(ring))
    DpD = make_special(ctx, SpecialBlock([ring.from_int(p)], 1))
    Hc = h_invariant(DpD, horizon)
    h_zero = all(Hc.coeff(d) == 0 for d in range(0, horizon + 1))
    Mph = make_special(ctx, SpecialBlock([ring.from_int(p)], h))
    L = l_invariant(Mph, horizon)
    expected = ((p, 1),)
    l_matches = L.matches_closed_form(expected, h)
    report = {
        "p": p,
        "h": h,
        "horizon": horizon,
        "h_class_of_D_mod_pD_is_zero": h_zero,
        "l_series_nonzero": not L.is_zero(),
        "l_matches_closed_form": l_matches,
        "l": L.to_json(),
        "h_series": Hc.to_json(),
        "note": (
            "no torsion phenomenon at h = 1: [M((p),1)] = [D/pD]"
            if h == 1
            else "L detects the class killed in K via rank"
        ),
    }
    lines = [
        f"ktors demo: p = {p}, h = {h} over Z_({p}), classical pi",
        f"  H-class of D/pD in K(Z_(p)) = Z: {'0' if h_zero else 'NONZERO'}",
        f"  L_M((p),{h}) = [F_{p}]_+/(1 - t^{h}): "
        + ("matches, nonzero" if l_matches and not L.is_zero() else "MISMATCH"),
    ]
    report["text"] = "\n".join(lines)
    return report
