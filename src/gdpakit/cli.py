"""Command-line front end: every computation over JSON inputs.

Exit codes: 0 success, 1 precondition/validation error, 2 inconclusive or
partial results (results are still emitted), 3 internal verification failed
(a certificate the package computed did not check out)."""

from __future__ import annotations

import functools
import json
import sys

import click

from .coeff_rings import (
    GF,
    QQ,
    ZPOLY,
    ZZ,
    PreconditionError,
    Ring,
    Zloc,
    Zmod,
    json_int,
    json_int_list,
)
from .gdpa import (
    AlgebraContext,
    NotAGdpaError,
    StructureConstants,
    recover_pi,
)
from .graded_modules import (
    PresentedModule,
    hilbert_series,
    rational_fit,
    syzygy_generators,
    tor,
    torsion_submodule,
)
from .pi_core import (
    PiSequence,
    a_invariant,
    admissible_check,
    h_transform,
    pi_from_gcd_morphic,
)


def _fail(msg: str):
    click.echo(f"error: {msg}", err=True)
    sys.exit(1)


def _non_negative(ctx, param, value):
    if value is not None and value < 0:
        _fail(f"{param.opts[0]} must be >= 0, got {value}")
    return value


def _positive(ctx, param, value):
    if value is not None and value < 1:
        _fail(f"{param.opts[0]} must be >= 1, got {value}")
    return value


def _parse(what: str, build):
    """build(), with malformed input reported as one error line naming the
    option it came from."""
    try:
        return build()
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        _fail(f"malformed {what}: {type(e).__name__}: {e}")


def load_json(arg: str):
    """Inline JSON, @path, or '-' for stdin."""
    try:
        if arg == "-":
            return json.load(sys.stdin)
        if arg.startswith("@"):
            with open(arg[1:]) as f:
                return json.load(f)
        return json.loads(arg)
    except (OSError, json.JSONDecodeError) as e:
        _fail(f"malformed JSON input: {e}")


def parse_ring(name: str) -> Ring:
    s = name.strip().replace(" ", "")
    if s in ("Z", "ZZ"):
        return ZZ
    if s in ("Q", "QQ"):
        return QQ
    if s in ("Z[q]", "Zq"):
        return ZPOLY
    for prefix in ("Z/", "Zmod"):
        if s.startswith(prefix):
            return Zmod(int(s[len(prefix):]))
    if s.startswith("GF(") and s.endswith(")"):
        return GF(int(s[3:-1]))
    if s.startswith("GF"):
        return GF(int(s[2:]))
    if s.startswith("Z_(") and s.endswith(")"):
        return Zloc(int(s[3:-1]))
    if s.startswith("Zloc"):
        return Zloc(int(s[4:]))
    _fail(f"unknown ring {name!r} (use Z, Q, Z/n, GF(p), Z_(p), Z[q])")


def build_pi(family: str, ring: Ring, values: str | None, default: str | None,
             q0: str | None) -> PiSequence:
    fam = family.replace("-", "_")
    if fam == "classical":
        return PiSequence.classical(ring)
    if fam == "all_ones":
        return PiSequence.all_ones(ring)
    if fam == "cyclotomic":
        return PiSequence.cyclotomic_symbolic()
    if fam == "cyclotomic_at":
        if q0 is None:
            _fail("cyclotomic-at requires --q0")
        return PiSequence.cyclotomic_at(ring, _parse("--q0", lambda: ring.from_str(q0)))
    if fam == "gcd_morphic":
        if values is None:
            _fail("gcd-morphic requires --values (JSON list a(1), a(2), ...)")
        seq = _parse("--values", lambda: json_int_list(load_json(values)))
        return pi_from_gcd_morphic(lambda n: seq[n - 1], up_to=len(seq))
    if fam == "custom":
        if values is None:
            _fail("custom requires --values (JSON object degree -> value)")
        obj = load_json(values)
        vals = _parse("--values", lambda: {int(k): ring.from_str(str(v)) for k, v in obj.items()})
        dflt = None if default is None else _parse("--default", lambda: ring.from_str(default))
        return PiSequence.custom(ring, vals, dflt)
    _fail(f"unknown family {family!r}")


def emit(data: dict, out: str, text_lines):
    if out == "json":
        click.echo(json.dumps(data, sort_keys=True, default=str))
    else:
        for line in text_lines:
            click.echo(line)


ring_option = click.option("--ring", default="Z", show_default=True,
                           help="Coefficient ring: Z, Q, Z/n, GF(p), Z_(p), Z[q].")
family_option = click.option("--family", default="classical", show_default=True,
                             help="pi family: classical, all-ones, cyclotomic, "
                                  "cyclotomic-at, custom, gcd-morphic.")
values_option = click.option("--values", default=None,
                             help="JSON values for custom / gcd-morphic families.")
default_option = click.option("--default", "default_", default=None,
                              help="Default pi value for the custom family.")
q0_option = click.option("--q0", default=None, help="q0 for cyclotomic-at.")
out_option = click.option("--out", type=click.Choice(["json", "text"]),
                          default="text", show_default=True)


def pi_options(f):
    for opt in (ring_option, family_option, values_option, default_option, q0_option):
        f = opt(f)
    return f


def context_from_flags(ring, family, values, default_, q0) -> AlgebraContext:
    R = parse_ring(ring)
    return AlgebraContext(build_pi(family, R, values, default_, q0))


def module_from_flags(ring, family, values, default_, q0, module, ideal, h,
                      shift, horizon=None) -> PresentedModule:
    """--module JSON (self-describing) or --ideal/--h building M(a, h).
    With a horizon, pi must also be admissible up to the D-degree reached,
    horizon - (lowest generator degree); a context checks only up to 24."""
    if module is not None:
        obj = load_json(module)
        M = _parse("--module", lambda: PresentedModule.from_json(
            AlgebraContext(PiSequence.from_json(obj["context"])), obj))
    else:
        if ideal is None or h is None:
            _fail("provide --module JSON or both --ideal and --h")
        ctx = context_from_flags(ring, family, values, default_, q0)
        from .resolutions_k import SpecialBlock, make_special

        obj = load_json(ideal)
        gens = _parse("--ideal", lambda: [ctx.ring.from_str(str(g)) for g in obj])
        M = make_special(ctx, SpecialBlock(gens, h, shift=shift))
    if horizon is not None:
        M.context.require_admissible(horizon - M.min_degree())
    return M


module_option = click.option("--module", default=None,
                             help="Presented module as JSON (inline, @file, or -).")
ideal_option = click.option("--ideal", default=None,
                            help="JSON list of ideal generators for M(a, h).")
h_option = click.option("--h", "h", type=int, default=None,
                        help="Period h for M(a, h).")
shift_option = click.option("--shift", type=int, default=0, show_default=True)


def module_options(f):
    """The pi options and --module, --ideal, --h, --shift, in that order.
    The command gets, in their place, ``load_module``: a function that
    builds the module when called, so a command may also run without
    module flags.  A command whose library call does not check
    admissibility itself passes its horizon, and pi must then be
    admissible up to the D-degree that the horizon reaches."""
    @functools.wraps(f)
    def command(ring, family, values, default_, q0, module, ideal, h, shift, **kwargs):
        return f(functools.partial(module_from_flags, ring, family, values, default_, q0,
                                   module, ideal, h, shift), **kwargs)

    for opt in (shift_option, h_option, ideal_option, module_option):
        command = opt(command)
    return pi_options(command)


@click.group()
def main():
    """Exact computations in generalized divided power algebras."""


@main.command()
@pi_options
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, required=True)
@out_option
def cbinom(ring, family, values, default_, q0, n, m, out):
    """The generalized binomial C(n, m) as a carry product."""
    ctx = context_from_flags(ring, family, values, default_, q0)
    c = ctx.C(n, m)
    emit({"n": n, "m": m, "C": ctx.ring.to_str(c)}, out, [ctx.ring.to_str(c)])


@main.command("pi-derive")
@click.option("--values", required=True,
              help="JSON list a(1), a(2), ... of a GCD-morphic sequence.")
@click.option("--up-to", type=int, default=None, callback=_non_negative)
@out_option
def pi_derive(values, up_to, out):
    """Derive pi from a GCD-morphic sequence by Mobius inversion."""
    obj = load_json(values)
    seq = _parse("--values", lambda: json_int_list(obj))
    bound = len(seq) if up_to is None else up_to
    if bound > len(seq):
        _fail(f"--up-to must be <= the number of values ({len(seq)}), got {bound}")
    pi = pi_from_gcd_morphic(lambda n: seq[n - 1], up_to=bound)
    data = pi.to_json(value_horizon=bound)
    emit(data, out, [f"pi_{n} = {v}" for n, v in sorted(
        (int(k), v) for k, v in data["values_preview"].items())])


@main.command("pi-check")
@pi_options
@click.option("--up-to", type=int, default=24, show_default=True, callback=_non_negative)
@out_option
def pi_check(ring, family, values, default_, q0, up_to, out):
    """Admissibility check; exits 1 with the violating pair if it fails."""
    R = parse_ring(ring)
    pi = build_pi(family, R, values, default_, q0)
    verdict, witness = admissible_check(pi, up_to)
    ok = verdict == "admissible"
    data = {"admissible": ok, "up_to": up_to,
            "violation": list(witness) if witness else None}
    emit(data, out, [
        f"admissible up to {up_to}" if ok else f"violation at pair {witness}"
    ])
    if not ok:
        _fail(f"not admissible up to {up_to}: violation at pair {witness}")


@main.command("pi-transform")
@pi_options
@click.option("--h", "h", type=int, required=True)
@click.option("--up-to", type=int, default=16, show_default=True, callback=_non_negative)
@out_option
def pi_transform(ring, family, values, default_, q0, h, up_to, out):
    """The h-transform pi^[h], with a value preview."""
    pi = build_pi(family, parse_ring(ring), values, default_, q0)
    R = pi.ring  # gcd-morphic values are integers whatever --ring says
    tpi = h_transform(pi, h)
    data = {
        "h": h,
        "values": {str(n): R.to_str(tpi.pi(n)) for n in range(1, up_to + 1)},
        "a_values": {str(n): R.to_str(a_invariant(tpi, n)) for n in range(1, up_to + 1)},
    }
    emit(data, out, [f"pi^[{h}]_{n} = {data['values'][str(n)]}"
                     for n in range(1, up_to + 1)])


@main.command()
@module_options
@click.option("--horizon", type=int, default=24, show_default=True, callback=_non_negative)
@out_option
def hilbert(load_module, horizon, out):
    """Graded pieces and the rational fit of the Hilbert series."""
    M = load_module(horizon)
    H = rational_fit(hilbert_series(M, horizon))
    data = H.to_json()
    lines = [f"H_{d} = {H.pieces[d]!r}" for d in sorted(H.pieces)]
    lines.append(f"fit: {data.get('fit')}")
    emit(data, out, lines)


@main.command()
@module_options
@click.option("--horizon", type=int, default=24, show_default=True, callback=_non_negative)
@out_option
def syzygy(load_module, horizon, out):
    """Minimal syzygy generators of the presentation map, degree by degree."""
    M = load_module(horizon)
    syz = syzygy_generators(M.relations, horizon)
    data = {
        "degrees": syz.degrees(),
        "horizon": horizon,
        "columns": [
            {str(i): e.to_json() for i, e in col.items()} for _, col in syz.generators
        ],
    }
    emit(data, out, [f"syzygy generators at degrees {syz.degrees()}"])


@main.command("tor")
@module_options
@click.option("--max-i", type=int, default=3, show_default=True, callback=_non_negative)
@click.option("--horizon", type=int, default=16, show_default=True, callback=_non_negative)
@out_option
def tor_cmd(load_module, max_i, horizon, out):
    """The Tor table Tor_i(M, k)_d for i <= max-i, d <= horizon."""
    M = load_module(horizon)
    table = tor(M, max_i, horizon)
    data = {
        "max_i": max_i,
        "horizon": horizon,
        "entries": {f"{i},{d}": inv.to_json()
                    for (i, d), inv in sorted(table.entries.items())},
    }
    lines = [f"Tor_{i}(M,k)_{d} = {inv!r}" for (i, d), inv in sorted(table.entries.items())]
    emit(data, out, lines or [f"Tor_i(M,k)_d = 0 for i <= {max_i}, d <= {horizon}"])


@main.command()
@module_options
@click.option("--horizon", type=int, default=24, show_default=True, callback=_non_negative)
@out_option
def torsion(load_module, horizon, out):
    """Torsion-submodule detection; exit 2 when inconclusive."""
    M = load_module()
    report = torsion_submodule(M, horizon)
    data = {
        "verdict": report.verdict,
        "candidate_degrees": [d for d, _ in report.candidates],
        "horizon": report.horizon,
        "margin": report.margin,
        "certificate": report.certificate,
    }
    emit(data, out, [f"verdict: {report.verdict}",
                     f"candidates at degrees {data['candidate_degrees']}"])
    if report.verdict == "inconclusive":
        sys.exit(2)


@main.command()
@module_options
@click.option("--horizon", type=int, default=40, show_default=True, callback=_non_negative)
@out_option
def special(load_module, horizon, out):
    """Special resolution over a field (certified, r <= 1)."""
    from .resolutions_k import special_resolve_field

    M = load_module()
    res = special_resolve_field(M, horizon=horizon)
    data = res.to_json()
    emit(data, out, [
        f"r = {res.r} (h = {res.h}); {res.notes}",
        "blocks: " + ", ".join(
            f"M(({','.join(str(g) for g in b.ideal_generators)}),{b.h})"
            f"[{-b.shift if b.shift < 0 else f'-{b.shift}'}]^{b.multiplicity}"
            for b in res.certificate.blocks
        ),
    ])


@main.command()
@module_options
@click.option("--horizon", type=int, default=24, show_default=True, callback=_non_negative)
@out_option
def kclass(load_module, horizon, out):
    """The H-invariant: the class of M in K(k) = Z, degree by degree."""
    from .resolutions_k import h_invariant

    M = load_module(horizon)
    H = h_invariant(M, horizon)
    data = H.to_json()
    lo = min(0, M.min_degree())
    emit(data, out, [f"rank stream: {[H.coeff(d) for d in range(lo, horizon + 1)]}",
                     f"fit: {H.fit}"])


@main.command("l-invariant")
@module_options
@click.option("--horizon", type=int, default=None, callback=_non_negative,
              help="Degree horizon.  [default: 10; the demo picks its own]")
@click.option("--max-i", type=int, default=None, callback=_non_negative)
@click.option("--demo-p", type=int, default=None,
              help="Run the torsion-class demo for this prime instead.")
@click.option("--demo-h", type=int, default=None)
@out_option
def l_invariant_cmd(load_module, horizon, max_i, demo_p, demo_h, out):
    """The L-invariant (K_+-valued series); exit 2 when partial."""
    from .resolutions_k import ktors_demo, l_invariant

    if demo_p is not None:
        report = ktors_demo(demo_p, demo_h if demo_h is not None else demo_p,
                            horizon=horizon)
        text = report.pop("text")
        emit(report, out, text.splitlines())
        return
    horizon = 10 if horizon is None else horizon
    M = load_module(horizon)
    L = l_invariant(M, horizon, max_i=max_i)
    data = L.to_json()
    emit(data, out, [f"L0: {data['l0']}", f"L: {data['l']}", f"fit: {data['fit']}"])
    if not L.complete:
        sys.exit(2)


@main.command("bound-check")
@click.option("--spec", default=None,
              help='IdealSpec JSON {"chain": [[...], ...], "d": n} over Z classical.')
@click.option("--seed", type=int, default=None, help="Random batch seed.")
@click.option("--count", type=int, default=10, show_default=True, callback=_non_negative)
@click.option("--max-d", type=int, default=4, show_default=True, callback=_positive)
@out_option
def bound_check(spec, seed, count, max_d, out):
    """t_1(I/T(I)) <= (2N+3)d checks; exit 1 if any report fails."""
    from .coherence_lab import IdealSpec, run_random_bound_checks, t1_bound_check

    pairs = []
    if spec is not None:
        obj = load_json(spec)
        ctx = AlgebraContext(PiSequence.classical(ZZ))
        ispec = _parse("--spec", lambda: IdealSpec(
            ctx, [[ZZ.from_str(str(g)) for g in gens] for gens in obj["chain"]],
            json_int(obj["d"]),
        ))
        pairs.append((ispec, t1_bound_check(ispec)))
    elif seed is not None:
        pairs = run_random_bound_checks(seed, count, max_d=max_d)
    else:
        _fail("provide --spec or --seed")
    data = {"reports": [
        {"spec": s.to_json(), **rep.to_json()} for s, rep in pairs
    ]}
    all_pass = all(rep.passed for _, rep in pairs)
    data["all_pass"] = all_pass
    emit(data, out, [
        f"d={rep.d} N={rep.N} bound={rep.bound} t1={rep.computed_t1} "
        f"{'PASS' if rep.passed else 'FAIL'}"
        for _, rep in pairs
    ] + [f"all pass: {all_pass}"])
    if not all_pass:
        sys.exit(1)


@main.command("a2-check")
@click.option("--ring", default="Z", show_default=True)
@click.option("--ideal", required=True, help="JSON list of ideal generators.")
@click.option("--h", "h", type=int, default=1, show_default=True)
@click.option("--limit", type=int, default=256, show_default=True, callback=_non_negative)
@out_option
def a2_check(ring, ideal, h, limit, out):
    """Condition (A2): bounded ideal torsion; exit 2 when inconclusive."""
    from .coherence_lab import a2_condition_check

    R = parse_ring(ring)
    obj = load_json(ideal)
    gens = _parse("--ideal", lambda: [R.from_str(str(g)) for g in obj])
    result = a2_condition_check(R, gens, h, limit=limit)
    emit(result, out, [f"verdict: {result['verdict']}"
                       + (f" (n = {result['n']})" if "n" in result else "")])
    if result["verdict"] == "inconclusive":
        sys.exit(2)


@main.command()
@click.option("--p", type=int, default=2, show_default=True)
@click.option("--r", type=int, default=1, show_default=True)
@click.option("--koszul-sanity", is_flag=True,
              help="Run the bivariate polynomial-ring sanity case instead.")
@out_option
def counterexample(p, r, koszul_sanity, out):
    """The bivariate non-coherence counterexample (or its Koszul sanity)."""
    from .coherence_lab import bivariate_counterexample
    from .coherence_lab import koszul_sanity as run_koszul

    if koszul_sanity:
        result = run_koszul()
        emit(result, out, [f"syzygy generators at {result['generator_bidegrees']}"])
        if not result["exactly_one_koszul"]:
            sys.exit(1)
        return
    report = bivariate_counterexample(p, r)
    text = report.pop("text")
    emit(report, out, [text])
    if not (report["identity_holds"] and report["syzygy_not_generated_below"]):
        sys.exit(1)


@main.command("recover-pi")
@click.option("--ring", default="Z_(2)", show_default=True)
@click.option("--table", required=True,
              help="Structure-constant table JSON (inline, @file, or -).")
@click.option("--normalize", is_flag=True)
@out_option
def recover_pi_cmd(ring, table, normalize, out):
    """Recover pi (up to associates) from a structure-constant table."""
    R = parse_ring(ring)
    obj = load_json(table)
    sc = _parse("--table", lambda: StructureConstants.from_json(R, obj))
    pi = recover_pi(sc, normalize=normalize)
    data = pi.to_json(value_horizon=sc.N)
    emit(data, out, [f"pi_{n} = {v}" for n, v in sorted(
        (int(k), v) for k, v in data["values_preview"].items())])


def run():
    try:
        main(standalone_mode=False)
    except click.exceptions.Exit as e:
        sys.exit(e.exit_code)
    except click.ClickException as e:
        click.echo(f"error: {e.format_message()}", err=True)
        sys.exit(1)
    except (PreconditionError, NotAGdpaError, ValueError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    except AssertionError as e:
        click.echo(f"error: internal verification failed: {e}", err=True)
        sys.exit(3)


if __name__ == "__main__":
    run()
