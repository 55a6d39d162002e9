"""The gdpakit benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload torsion-zloc2 --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports gdpakit from ``src/`` there.
Every workload is a closed loop with one client: the next item starts when
the previous one has returned and been checked.

--trace 0 runs the seed's pass of items once to warm up (not for
cli-readme, whose items run in fresh processes), then repeats it for about
--seconds in all, and prints the end-to-end metrics of the timed
passes.  Timings are in reference seconds (speed.py): wall time scaled by
the speed of the shared host at that moment, measured by probes interleaved
with the work.  The host's speed changes by tens of percent within seconds,
and the scaled times repeat where wall times do not.
--trace 1 runs the pass four times, each time on freshly built inputs: with
no wrapper, under span wrappers, with no wrapper again, and under counting
wrappers.  It prints the per-layer metrics and the tracing overhead, and
writes the spans to .bench_out/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback

import speed
import tracing
import workloads
from workloads import ROOT, SETUPS

SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5  # fresh interpreters per run whose median is setup_s
CLI_PROBE_REPEATS = 5

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "latency_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _median(xs):
    return statistics.median(xs)


def hd_median(xs, steps=64):
    """Harrell-Davis estimate of the median: a weighted mean of the sorted
    values, value i weighted by the Beta((n+1)/2, (n+1)/2) probability of
    ((i-1)/n, i/n].  When items near the median swap places from run to run
    it moves smoothly, where the sample median jumps from one to the other."""
    xs = sorted(xs)
    n = len(xs)
    a = (n + 1) / 2
    log_beta = 2 * math.lgamma(a) - math.lgamma(2 * a)
    weights = []
    for i in range(n):  # midpoint rule over ((i-1)/n, i/n]
        xs_i = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(x * (1 - x)) - log_beta)
                           for x in xs_i))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


# ---------------------------------------------------------------------------
# running items
# ---------------------------------------------------------------------------


class Tally:
    """Attempted and failed items; the first failures are printed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, run_item, item):
        """Run and check one item; returns its start and end times and what
        ``run_item`` returned (None if it raised)."""
        self.attempted += 1
        report = None
        t0 = time.perf_counter()
        try:
            report = run_item(item)
        except Exception:  # a wrong or crashed item is counted, not fatal
            self.failed += 1
            if self.failed <= 3:
                traceback.print_exc(file=sys.stderr)
        return t0, time.perf_counter(), report


def timed_passes(wl, seconds, tally):
    """A warm-up pass if the workload has one (``Workload.warm_up``), then
    timed passes until the next one would end after ``seconds``; at least
    one timed pass.

    Returns (timed passes, [(item index, start, end, report)] of every timed
    item, probes)."""
    runs, passes = [], 0
    warm_ups = int(wl.warm_up)
    with speed.Probes() as probes:
        t_start = time.perf_counter()
        if warm_ups:
            run_pass(wl, wl.run_item, tally)
        while True:
            for i, item in enumerate(wl.items):
                runs.append((i, *tally.attempt(wl.run_item, item)))
            passes += 1
            elapsed = time.perf_counter() - t_start
            if elapsed * (passes + warm_ups + 1) / (passes + warm_ups) > seconds:
                return passes, runs, probes


def run_pass(wl, run_item, tally, on_item=None):
    """Every item of the pass once; returns elapsed seconds."""
    t0 = time.perf_counter()
    for i, item in enumerate(wl.items):
        if on_item:
            on_item(i)
        tally.attempt(run_item, item)
    return time.perf_counter() - t0


def in_process_cli(item):
    args, expected = item
    code, out = workloads.run_cli_in_process(args)
    workloads.check_cli(args, code, out, expected)


def _run(cmd, **kw):
    return subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True, **kw)


def probe_setup(workload, seed) -> tuple[float, float]:
    """Set-up time measured inside a fresh interpreter (see --probe-setup),
    as (reference seconds, wall seconds)."""
    out = _run([sys.executable, __file__, "--probe-setup", "--workload", workload,
                "--seed", str(seed)]).stdout
    ref_s, wall_s = map(float, out.split()[-2:])
    return ref_s, wall_s


def _check_source():
    """gdpakit must come from this checkout, not from an installed copy."""
    import gdpakit

    if not gdpakit.__file__.startswith(str(SRC)):
        print(f"error: gdpakit imported from {gdpakit.__file__}", file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def end_to_end(workload, seed, seconds):
    setups = [probe_setup(workload, seed) for _ in range(SETUP_REPEATS)]
    tally = Tally()
    wl = SETUPS[workload](seed)
    _check_source()
    pristine = tracing.snapshot()
    passes, runs, probes = timed_passes(wl, seconds, tally)
    wrapped = tracing.rebound_since(pristine)
    if workload == "cli-readme":
        rss_kib = wl.child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = len(wl.items)
    ref_s = [[] for _ in range(n)]
    wall_s = [[] for _ in range(n)]
    for i, t0, t1, report in runs:
        # an item run in a child process is scaled by the child's own probes
        ref = speed.scaled(t1 - t0, *report) if report else probes.reference_s(t0, t1)
        ref_s[i].append(ref)
        wall_s[i].append(t1 - t0)
    latencies = [_median(x) for x in ref_s]
    values = {
        "items_per_s": len(runs) / sum(map(sum, ref_s)),
        "latency_p50_s": hd_median(latencies),
        "setup_s": _median([r for r, _ in setups]),
        "peak_rss_mb": rss_kib / 1024,
    }
    print(f"workload {workload} seed {seed}: {passes} timed passes of {n} items, "
          f"closed loop, 1 client; times in reference seconds (speed.py)")
    for name, v in values.items():
        print(f"  {name:<16} {v:12.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'fail_ratio':<16} {tally.failed / tally.attempted:12.6g} "
          f"({tally.failed}/{tally.attempted})")
    tail = ""
    if n >= 20:  # the highest percentile with at least ten samples beyond it
        pct = 100 * (n - 10) // n
        tail = f", p{pct} {statistics.quantiles(latencies, n=100)[pct - 1]:.6g} s"
    print(f"  latency samples  {n}, each the median of {passes}: "
          f"p50 {values['latency_p50_s']:.6g} s{tail}")
    print(f"  wall time        {len(runs) / sum(map(sum, wall_s)):.6g} items/s, "
          f"p50 {_median([_median(x) for x in wall_s]):.6g} s, "
          f"set-up {_median([w for _, w in setups]):.6g} s; "
          f"probe median {probes.median_s() * 1e3:.4g} ms "
          f"(reference {speed.REF_S * 1e3:g} ms) over {len(probes.dur)} probes")
    if wrapped:
        print(f"  error: {len(wrapped)} gdpakit functions were rebound during an "
              "untraced run", file=sys.stderr)
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return tally, not wrapped, metrics


def cli_probes():
    """Start-up costs of the CLI, and the in-process time of its commands."""
    py = sys.executable
    env_cmd = {"env": dict(os.environ, PYTHONPATH=str(SRC))}
    interp, imp, sympy = [], [], []
    for _ in range(CLI_PROBE_REPEATS):
        t0 = time.perf_counter()
        _run([py, "-c", "pass"], **env_cmd)
        t1 = time.perf_counter()
        _run([py, "-c", "import gdpakit.cli"], **env_cmd)
        t2 = time.perf_counter()
        interp.append(t1 - t0)
        imp.append(t2 - t1)
        err = _run([py, "-X", "importtime", "-c", "import gdpakit.cli"], **env_cmd).stderr
        # "import time:   self [us] | cumulative | imported package"
        us = [int(m.group(1)) for m in re.finditer(r"\|\s*(\d+)\s*\|\s*sympy\s*$", err, re.M)]
        sympy.append(sum(us) / 1e6)
    return {
        "interpreter_s": _median(interp),
        "import_s": _median(imp) - _median(interp),
        "import_sympy_s": _median(sympy),
    }


def traced(workload, seed):
    tally = Tally()
    values = {f"cli.{k}": v for k, v in cli_probes().items()}

    # untraced: the same inputs, freshly built, with no wrapper installed
    wl = SETUPS[workload](seed)
    _check_source()
    pristine = tracing.snapshot()
    run_item = in_process_cli if workload == "cli-readme" else wl.run_item
    t_before = run_pass(wl, run_item, tally)

    # in-process command times, import excluded
    cli_items = workloads.load_cli_reference()
    times = [tally.attempt(in_process_cli, item) for item in cli_items]
    values["cli.command_s"] = _median([t1 - t0 for t0, t1, _ in times])

    spans = tracing.SpanTracer()
    spans.install_all()
    try:
        wl = SETUPS[workload](seed)  # spans of set-up carry item -1
        t_traced = run_pass(wl, run_item, tally, on_item=lambda i: setattr(spans, "item", i))
    finally:
        spans.uninstall()

    # untraced again, so that warming up favours neither side
    wl = SETUPS[workload](seed)
    t_after = run_pass(wl, run_item, tally)
    t_plain = (t_before + t_after) / 2

    ops = tracing.OpCounter()
    ops.install_all()
    try:
        wl = SETUPS[workload](seed)
        run_pass(wl, run_item, tally)
    finally:
        ops.uninstall()
    restored = not tracing.rebound_since(pristine)

    values.update(layer_metrics(spans, ops.counts))
    values["trace.items_per_s_untraced"] = len(wl.items) / t_plain
    values["trace.items_per_s_traced"] = len(wl.items) / t_traced
    values["trace.overhead_ratio"] = t_traced / t_plain - 1
    values["trace.spans"] = len(spans)

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-{seed}.tsv.gz"
    spans.write(path)
    print(f"workload {workload} seed {seed}: traced {len(wl.items)} items; "
          f"spans in {path.relative_to(ROOT)}")
    units = {name: unit for name, unit, _ in PER_LAYER}
    for name, _, _ in PER_LAYER:
        print(f"  {name:<48} {values[name]:14.6g} {units[name]}")
    if not restored:
        print("error: wrappers were not removed cleanly", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    return tally, restored, metrics


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _layer_names():
    """[(name, unit, better)] of every per-layer metric, in print order."""
    out = [(f"{m}.self_s", "s", "lower") for m in tracing.MODULES]
    for name in ("snf_calls", "snf_cells", "snf_max_rows", "snf_max_cols",
                 "kernel_basis_calls", "solve_calls", "solve_columns_calls",
                 "cokernel_invariants_calls", "homology_invariants_calls",
                 "span_add_calls"):
        out.append((f"coeff_rings.{name}", "count", "lower"))
    out += [
        ("coeff_rings.snf_self_s", "s", "lower"),
        ("coeff_rings.la_self_s", "s", "lower"),
        ("coeff_rings.span_self_s", "s", "lower"),
        ("coeff_rings.snf_max_entry_bits", "bits", "lower"),
        ("coeff_rings.snf_U_discarded_ratio", "ratio", "lower"),
        ("coeff_rings.snf_per_solve_column", "ratio", "lower"),
    ]
    for op in ("canon", "is_zero", "add", "mul"):
        for kind in ("ZZ", "Zloc", "Zmod"):
            out.append((f"coeff_rings.{op}_calls.{kind}", "count", "lower"))
    out += [
        ("pi_core.c_binomial_calls", "count", "lower"),
        ("pi_core.c_binomial_self_s", "s", "lower"),
        ("pi_core.c_binomial_repeat_ratio", "ratio", "lower"),
        ("pi_core.pi_calls", "count", "lower"),
        ("pi_core.admissible_check_s", "s", "lower"),
        ("gdpa.context_build_s", "s", "lower"),
        ("gdpa.element_mul_calls", "count", "lower"),
        ("graded_modules.slice_calls", "count", "lower"),
        ("graded_modules.slice_cells", "count", "lower"),
        ("graded_modules.slice_self_s", "s", "lower"),
        ("graded_modules.gsv_calls", "count", "lower"),
        ("graded_modules.gsv_vectors", "count", "lower"),
        ("graded_modules.gsv_self_s", "s", "lower"),
        ("graded_modules.syzygy_generators_self_s", "s", "lower"),
        ("graded_modules.generators_found", "count", "lower"),
        ("graded_modules.torsion_submodule_self_s", "s", "lower"),
        ("graded_modules.piece_invariants_calls", "count", "lower"),
        ("resolutions_k.special_resolve_field_self_s", "s", "lower"),
        ("resolutions_k.verify_special_filtration_s", "s", "lower"),
        ("resolutions_k.minimal_image_generators_s", "s", "lower"),
        ("coherence_lab.t1_bound_check_self_s", "s", "lower"),
        ("coherence_lab.torsion_bound_N_s", "s", "lower"),
        ("coherence_lab.materialize_ideal_s", "s", "lower"),
        ("coherence_lab.horizon_sum", "count", "lower"),
        ("cli.interpreter_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
        ("cli.import_sympy_s", "s", "lower"),
        ("cli.command_s", "s", "lower"),
        ("trace.items_per_s_untraced", "1/s", "higher"),
        ("trace.items_per_s_traced", "1/s", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return out


PER_LAYER = _layer_names()


def layer_metrics(spans, counts):
    calls, total, self_s = spans.summary()
    v = {}
    for m in tracing.MODULES:
        v[f"{m}.self_s"] = sum(t for k, t in self_s.items() if k.startswith(m + "."))
    snf = "coeff_rings.smith_normal_form"
    v["coeff_rings.snf_calls"] = calls[snf]
    v["coeff_rings.snf_self_s"] = self_s[snf]
    for name in ("snf_cells", "snf_max_rows", "snf_max_cols", "snf_max_entry_bits"):
        v[f"coeff_rings.{name}"] = counts[name]
    for fn in ("kernel_basis", "solve", "solve_columns", "cokernel_invariants",
               "homology_invariants"):
        v[f"coeff_rings.{fn}_calls"] = calls[f"coeff_rings.{fn}"]
    span_reducer = [k for k in self_s if k.startswith("coeff_rings.SpanReducer.")]
    v["coeff_rings.span_add_calls"] = calls["coeff_rings.SpanReducer.add"]
    v["coeff_rings.span_self_s"] = sum(self_s[k] for k in span_reducer)
    v["coeff_rings.la_self_s"] = v["coeff_rings.self_s"] - v["coeff_rings.span_self_s"]

    discarded = under_solve_columns = 0
    for i in range(len(spans)):
        if spans.name_of(i) != snf:
            continue
        up = list(spans.ancestors(i))
        discarded += bool(up) and up[0] in ("coeff_rings.kernel_basis",
                                            "coeff_rings.cokernel_invariants")
        under_solve_columns += "coeff_rings.solve_columns" in up
    v["coeff_rings.snf_U_discarded_ratio"] = discarded / calls[snf] if calls[snf] else 0.0
    cols = counts["solve_columns_cols"]
    v["coeff_rings.snf_per_solve_column"] = under_solve_columns / cols if cols else 0.0
    for op in ("canon", "is_zero", "add", "mul"):
        for kind in ("ZZ", "Zloc", "Zmod"):
            v[f"coeff_rings.{op}_calls.{kind}"] = counts[f"{op}_calls.{kind}"]

    cb = counts["c_binomial_calls"]
    v["pi_core.c_binomial_calls"] = cb
    v["pi_core.c_binomial_self_s"] = self_s["pi_core.c_binomial"]
    v["pi_core.c_binomial_repeat_ratio"] = counts["c_binomial_repeats"] / cb if cb else 0.0
    v["pi_core.pi_calls"] = counts["pi_calls"]
    v["pi_core.admissible_check_s"] = total["pi_core.admissible_check"]
    v["gdpa.context_build_s"] = total["gdpa.AlgebraContext.__init__"]
    v["gdpa.element_mul_calls"] = counts["element_mul_calls"]

    gm = "graded_modules."
    v[gm + "slice_calls"] = calls[gm + "ModuleMap.slice"]
    v[gm + "slice_cells"] = counts["slice_cells"]
    v[gm + "slice_self_s"] = self_s[gm + "ModuleMap.slice"]
    gsv = gm + "SubmoduleGenerators.generator_slice_vectors"
    v[gm + "gsv_calls"] = calls[gsv]
    v[gm + "gsv_vectors"] = counts["gsv_vectors"]
    v[gm + "gsv_self_s"] = self_s[gsv]
    v[gm + "syzygy_generators_self_s"] = self_s[gm + "syzygy_generators"]
    v[gm + "generators_found"] = counts["generators_found"]
    v[gm + "torsion_submodule_self_s"] = self_s[gm + "torsion_submodule"]
    v[gm + "piece_invariants_calls"] = calls[gm + "PresentedModule.piece_invariants"]

    rk = "resolutions_k."
    v[rk + "special_resolve_field_self_s"] = self_s[rk + "special_resolve_field"]
    v[rk + "verify_special_filtration_s"] = total[rk + "verify_special_filtration"]
    v[rk + "minimal_image_generators_s"] = total[rk + "minimal_image_generators"]
    cl = "coherence_lab."
    v[cl + "t1_bound_check_self_s"] = self_s[cl + "t1_bound_check"]
    v[cl + "torsion_bound_N_s"] = total[cl + "torsion_bound_N"]
    v[cl + "materialize_ideal_s"] = total[cl + "materialize_ideal"]
    v[cl + "horizon_sum"] = counts["horizon_sum"]
    return v


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="internal: time one set-up in this fresh interpreter and exit")
    args = ap.parse_args(argv)

    if not (SRC / "gdpakit" / "__init__.py").is_file():
        print(f"error: no gdpakit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.probe_setup:
        with speed.Probes() as probes:
            t0 = time.perf_counter()
            SETUPS[args.workload](args.seed)
            t1 = time.perf_counter()
        print(probes.reference_s(t0, t1), t1 - t0)
        return 0

    if args.trace:
        tally, ok, metrics = traced(args.workload, args.seed)
    else:
        tally, ok, metrics = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": ok and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
