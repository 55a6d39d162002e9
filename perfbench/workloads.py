"""Seeded input generators, item runners and correctness checks.

Every workload is a closed loop with one client over one *pass*: a list of
items that holds the same number of inputs from each stratum of the recipe
(its independent size draws, such as the number of generators and
relations), in a seeded order.  Every stratum of the recipe is equally
likely, so a pass is a stratified sample of the recipe.

A pass that fits a run holds 9 to 61 inputs whose costs differ by up to a
hundredfold, so passes drawn afresh for every seed differ in cost, and in
which input is the median one, by more than the benchmark's bounds.  The
library workloads therefore draw their inputs once, from a fixed stream
(``_corpus``); the seed presents each input in other coordinates, by units
that give the same module or ideal, and sets the order of the pass.

A set-up function builds new objects on every call: contexts, whose pi
sequences carry the only memo tables in gdpakit, and inputs.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI_REFERENCE = HERE / "cli_reference.json"

TORSION_HORIZON = 40
SPECIAL_HORIZON = 80


class Workload:
    """Inputs of one workload and how to run and check one item."""

    def __init__(self, name, items, run_item, warm_up=True):
        self.name = name
        self.items = items
        # item -> None, raises CheckFailed when wrong; an item run in a child
        # process returns the child's speed probes (run_cli_subprocess)
        self.run_item = run_item
        # run the pass once, untimed, to fill the contexts' memo tables
        self.warm_up = warm_up


class CheckFailed(Exception):
    """An item ran but its result is wrong."""


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _corpus(workload: str) -> random.Random:
    return random.Random(f"{workload}:corpus")


# ---------------------------------------------------------------------------
# torsion-zloc2: torsion_submodule(M, 40) on random Z_(2) modules
# ---------------------------------------------------------------------------


def _zloc2_presentation(rng, ngens, nrels):
    """Generator degrees and relation columns {generator: coefficient}."""
    gdegs = sorted(rng.randint(0, 3) for _ in range(ngens))
    rels = []
    while len(rels) < nrels:
        rdeg = max(gdegs) + rng.randint(1, 4)
        col = {i: c for i in range(ngens) if (c := rng.randint(0, 4))}
        if col:  # the recipe drops an empty column; here it is drawn again
            rels.append((rdeg, col))
    return gdegs, rels


def _zloc2_module(ctx, gdegs, rels, units):
    from gdpakit.graded_modules import PresentedModule

    cols = [
        {i: ctx.x(rdeg - gdegs[i], coeff=ctx.ring.from_int(c * u)) for i, c in col.items()}
        for (rdeg, col), u in zip(rels, units)
    ]
    return PresentedModule.from_columns(ctx, gdegs, cols, [rdeg for rdeg, _ in rels])


def _torsion_item(M):
    from gdpakit.graded_modules import torsion_submodule

    rep = torsion_submodule(M, TORSION_HORIZON)
    if rep.verdict != "torsion_free":
        raise CheckFailed(f"verdict {rep.verdict!r}, expected 'torsion_free'")


def setup_torsion(seed: int) -> Workload:
    from gdpakit.coeff_rings import Zloc
    from gdpakit.gdpa import AlgebraContext
    from gdpakit.pi_core import PiSequence

    ctx = AlgebraContext(PiSequence.classical(Zloc(2)))
    # one module per stratum; every relation times a unit, +1 or -1
    corpus = _corpus("torsion-zloc2")
    rng = _rng("torsion-zloc2", seed)
    items = []
    for g in (1, 2, 3):
        for r in (1, 2, 3):
            gdegs, rels = _zloc2_presentation(corpus, g, r)
            units = [rng.choice((1, -1)) for _ in rels]
            items.append(_zloc2_module(ctx, gdegs, rels, units))
    rng.shuffle(items)
    return Workload("torsion-zloc2", items, _torsion_item)


# ---------------------------------------------------------------------------
# boundcheck-zz: t1_bound_check(spec) for gcd-closed principal chains over Z
# ---------------------------------------------------------------------------


def _ideal_spec(ctx, corpus, rng, a0, d):
    """The chain a_0, gcd(a_0, r_1), ... with r_i drawn from the corpus; the
    seed's rng picks the sign of each generator."""
    from gdpakit.coherence_lab import IdealSpec

    g = a0
    chain = [g]
    for _ in range(d):
        g = math.gcd(g, corpus.randint(0, 60))
        chain.append(g)
    return IdealSpec(ctx, [[ctx.ring.from_int(rng.choice((1, -1)) * g)] for g in chain], d)


def _bound_item(spec):
    from gdpakit.coherence_lab import t1_bound_check

    rep = t1_bound_check(spec)
    if not rep.passed:
        raise CheckFailed(f"bound check failed: t1={rep.computed_t1} > {rep.bound}")


def setup_boundcheck(seed: int) -> Workload:
    from gdpakit.coeff_rings import ZZ
    from gdpakit.gdpa import AlgebraContext
    from gdpakit.pi_core import PiSequence

    ctx = AlgebraContext(PiSequence.classical(ZZ))
    corpus, rng = _corpus("boundcheck-zz"), _rng("boundcheck-zz", seed)
    # a_0 (whose prime powers set N, hence the horizon) and d set the cost
    # of a spec.  The pass holds each a_0 in 0..60 once, with d = 1..4 in
    # turn, so each d about equally often.
    items = [_ideal_spec(ctx, corpus, rng, a0, 1 + a0 % 4) for a0 in range(61)]
    rng.shuffle(items)
    return Workload("boundcheck-zz", items, _bound_item)


# ---------------------------------------------------------------------------
# special-gfp: special_resolve_field(M, 80) over GF(2) and GF(3)
# ---------------------------------------------------------------------------


def _field_module(ctx, corpus, rng, ngens, nrels):
    """The test_10 recipe drawn from the corpus; the seed's rng scales each
    relation by a nonzero element of the field."""
    from gdpakit.graded_modules import PresentedModule

    R = ctx.ring
    gdegs = sorted(corpus.randint(0, 6) for _ in range(ngens))
    cols, rdegs = [], []
    for _ in range(nrels):
        rdeg = corpus.randint(min(gdegs), 6)
        col = {}
        for i, g in enumerate(gdegs):
            if g <= rdeg and corpus.random() < 0.7:
                c = corpus.randint(1, 4)
                if R.is_zero(R.from_int(c)):
                    continue
                col[i] = c
        unit = rng.randrange(1, R.n)
        col = {i: ctx.x(rdeg - gdegs[i], coeff=R.from_int(c * unit)) for i, c in col.items()}
        if col:
            cols.append(col)
            rdegs.append(rdeg)
    return PresentedModule.from_columns(ctx, gdegs, cols, rdegs)


def _special_item(M):
    from gdpakit.resolutions_k import special_resolve_field

    # the resolver re-verifies its certificate degreewise and raises on any
    # mismatch, which counts as a failed item
    res = special_resolve_field(M, SPECIAL_HORIZON)
    if res.r > 1:
        raise CheckFailed(f"r = {res.r} > 1")


def setup_special(seed: int) -> Workload:
    from gdpakit.coeff_rings import GF
    from gdpakit.gdpa import AlgebraContext
    from gdpakit.pi_core import PiSequence

    ctxs = [AlgebraContext(PiSequence.classical(GF(p))) for p in (2, 3)]
    corpus, rng = _corpus("special-gfp"), _rng("special-gfp", seed)
    strata = [(c, g, r) for c in ctxs for g in (1, 2, 3) for r in (0, 1, 2, 3)]
    items = [_field_module(c, corpus, rng, g, r) for c, g, r in strata for _ in range(2)]
    rng.shuffle(items)
    return Workload("special-gfp", items, _special_item)


# ---------------------------------------------------------------------------
# cli-readme: the README examples that need no @file, one process each
# ---------------------------------------------------------------------------


def load_cli_reference():
    """[(args, expected stdout)] for every README example without @file."""
    entries = json.loads(CLI_REFERENCE.read_text())
    return [(e["args"], e["stdout"]) for e in entries]


def run_cli_subprocess(args):
    """Run gdpakit.cli ARGS from the sources in this checkout, as
    ``python -m gdpakit.cli ARGS`` does, through cli_child.py, which times
    speed probes in the child.

    Returns (exit code, stdout bytes, stderr bytes, peak RSS of the child in
    KiB, the child's (probe seconds, mean probe seconds) or None if it wrote
    none)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
    p = subprocess.Popen(
        [sys.executable, str(HERE / "cli_child.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    with p.stdout, p.stderr:
        out = p.stdout.read()
        err = p.stderr.read()  # small: a one-line error at most
    # reap the child here, not in Popen, to read its resource usage
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    report = None
    err, _, last = err.rstrip(b"\n").rpartition(b"\n")
    if last.startswith(b"probes "):
        report = tuple(map(float, last.split()[1:]))
    return p.returncode, out, err, usage.ru_maxrss, report


def run_cli_in_process(args):
    """Run one command through the click group in this process.

    Returns (exit code, stdout text)."""
    from gdpakit import cli

    buf = io.StringIO()
    code = 0
    with redirect_stdout(buf):
        try:
            cli.main.main(args, prog_name="gdpakit", standalone_mode=False)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
    return code, buf.getvalue()


def check_cli(args, code, stdout, expected: str):
    """Exit code 0 and stdout byte-identical to the stored reference."""
    if isinstance(stdout, str):
        stdout = stdout.encode("utf-8")
    if code != 0:
        raise CheckFailed(f"gdpakit {' '.join(args)}: exit code {code}")
    if stdout != expected.encode("utf-8"):
        raise CheckFailed(f"gdpakit {' '.join(args)}: stdout differs from the reference")


def setup_cli(seed: int) -> Workload:
    import gdpakit.cli  # noqa: F401  (start-up cost every CLI call pays)

    items = load_cli_reference()
    _rng("cli-readme", seed).shuffle(items)
    # each item is a fresh interpreter, with no memo table to fill
    wl = Workload("cli-readme", items, None, warm_up=False)
    wl.child_rss_kib = 0

    def run_item(item):
        args, expected = item
        code, out, err, rss, report = run_cli_subprocess(args)
        wl.child_rss_kib = max(wl.child_rss_kib, rss)
        check_cli(args, code, out, expected)
        return report

    wl.run_item = run_item
    return wl


SETUPS = {
    "torsion-zloc2": setup_torsion,
    "boundcheck-zz": setup_boundcheck,
    "special-gfp": setup_special,
    "cli-readme": setup_cli,
}
