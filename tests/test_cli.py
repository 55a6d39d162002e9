"""CLI tests via click's test runner: outputs, exit codes, determinism."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import gdpakit.resolutions_k
from gdpakit.cli import main, run
from gdpakit.coeff_rings import QQ, Zloc
from gdpakit.gdpa import AlgebraContext, StructureConstants
from gdpakit.graded_modules import FreeGradedModule, ModuleMap, PresentedModule
from gdpakit.pi_core import PiSequence, fibonacci


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def run_entry_point(monkeypatch, capsys, args):
    """Run the console entry point, which maps exceptions to exit codes;
    returns (exit code, stdout, stderr)."""
    monkeypatch.setattr(sys, "argv", ["gdpakit", *args])
    with pytest.raises(SystemExit) as exc:
        run()
    out, err = capsys.readouterr()
    return exc.value.code, out, err


def x1_quotient(g, ring, values):
    """D/(x^[1]) with its generator at degree g, as --module JSON, over the
    ring (JSON) with custom pi: the values (JSON), default 1."""
    return json.dumps({
        "context": {"family": "custom", "ring": ring, "values": values, "default": "1"},
        "generators": [g], "relation_degrees": [g + 1],
        "relations": [{"0": {"terms": [[1, "1"]]}}]})


def not_admissible_at_45(g):
    """D/(x^[1]) over GF(2), generator at g, with pi admissible to 24 but
    not at the pair (30, 45)."""
    return x1_quotient(g, {"ring": "GF", "p": 2}, {"30": "0", "45": "0"})


class TestPiCommands:
    def test_cbinom_classical(self, runner):
        res = invoke(runner, ["cbinom", "--n", "4", "--m", "2"])
        assert res.exit_code == 0
        assert res.output.strip() == "6"

    def test_cbinom_json(self, runner):
        res = invoke(runner, ["cbinom", "--n", "4", "--m", "2", "--out", "json"])
        assert json.loads(res.output)["C"] == "6"

    def test_cbinom_cyclotomic(self, runner):
        res = invoke(
            runner,
            ["cbinom", "--family", "cyclotomic", "--ring", "Z[q]",
             "--n", "3", "--m", "1"],
        )
        assert res.exit_code == 0
        # [3 choose 1]_q = 1 + q + q^2
        assert "q" in res.output

    def test_pi_check_violation_exits_one(self, runner, monkeypatch, capsys):
        args = ["pi-check", "--family", "custom",
                "--values", '{"2": 2, "3": 2}', "--ring", "Z", "--up-to", "10"]
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert "violation" in res.output
        # the verdict on stdout, and the one error line of every exit 1
        code, out, err = run_entry_point(monkeypatch, capsys, args)
        assert code == 1 and out == "violation at pair (2, 3)\n"
        assert err == "error: not admissible up to 10: violation at pair (2, 3)\n"
        code, out, err = run_entry_point(monkeypatch, capsys, [*args, "--out", "json"])
        assert code == 1 and json.loads(out) == {
            "admissible": False, "up_to": 10, "violation": [2, 3]}
        assert err == "error: not admissible up to 10: violation at pair (2, 3)\n"

    def test_pi_check_names_the_ring_as_written(self, monkeypatch, capsys):
        # a ring without an ideal test is named as the user wrote it
        code, out, err = run_entry_point(
            monkeypatch, capsys, ["pi-check", "--ring", "Z[q]", "--up-to", "4"])
        assert (code, out, err) == (1, "", "error: no ideal membership over Z[q]\n")

    def test_pi_check_classical_ok(self, runner):
        res = invoke(runner, ["pi-check", "--up-to", "16"])
        assert res.exit_code == 0

    def test_pi_derive_fibonomial(self, runner):
        fibs = [fibonacci(n) for n in range(1, 13)]
        res = invoke(
            runner, ["pi-derive", "--values", json.dumps(fibs), "--up-to", "7"]
        )
        assert res.exit_code == 0
        assert "pi_6 = 4" in res.output
        assert "pi_7 = 13" in res.output

    def test_pi_derive_empty_values_prints_empty_preview(self, runner):
        # used to raise KeyError: 'values_preview'
        res = invoke(runner, ["pi-derive", "--values", "[]"])
        assert res.exit_code == 0 and res.output == ""
        res = invoke(runner, ["pi-derive", "--values", "[]", "--out", "json"])
        assert json.loads(res.output)["values_preview"] == {}

    def test_pi_derive_explicit_up_to_zero(self, runner):
        # --up-to 0 used to be read as the default, the number of values
        res = invoke(runner, ["pi-derive", "--values", "[1, 1, 2, 3]", "--up-to", "0",
                              "--out", "json"])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["values_preview"] == {} and data["a"] == []

    def test_pi_transform(self, runner):
        res = invoke(
            runner, ["pi-transform", "--h", "2", "--up-to", "8", "--out", "json"]
        )
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["h"] == 2 and "values" in data


def _module_json():
    ctx = AlgebraContext(PiSequence.classical(Zloc(2)))
    M = PresentedModule.from_columns(ctx, [0, 1], [{0: ctx.x(1, 2), 1: ctx.x(0, 1)}], [1])
    return json.dumps(M.to_json())


def _module_json_with(**fields):
    """_module_json() with the given top-level fields replaced."""
    return json.dumps({**json.loads(_module_json()), **fields})


# a JSON integer given as a float, boolean or string, which int() used to
# read (Z/6.9 as Z/6, "0" as 0, d = 1.9 as 1) and the command ran
MALFORMED_INT_MODULES = [
    _module_json_with(context={"family": "classical", "ring": {"ring": "Zmod", "n": 6.9}}),
    _module_json_with(generators=["0", 1]),
    _module_json_with(relation_degrees=[True]),
    _module_json_with(relations=[{"0": {"terms": [[1.9, "2"]]}, "1": {"terms": [[0, "1"]]}}]),
    _module_json_with(context={"family": "gcd_morphic", "a": [1.5, 2.7, 3]}),
]
# a relation entry at a generator index the module does not have: "5" used
# to end in an IndexError traceback, and "-1" wrapped to the last generator
# and ended in a KeyError traceback at slice time
OUT_OF_RANGE_MODULES = [
    json.dumps({"context": {"family": "classical", "ring": {"ring": "Z"}}, "generators": [0],
                "relation_degrees": [1], "relations": [{key: {"terms": [[1, "1"]]}}]})
    for key in ("5", "-1")
]
MALFORMED_INT_SPECS = ['{"chain": [[2], [1]], "d": 1.9}', '{"chain": [[2], [1]], "d": true}']


PI_PARAMS = [("q0", None), ("default_", None), ("values", None), ("family", "classical"),
             ("ring", "Z")]
MODULE_PARAMS = [*PI_PARAMS, ("module", None), ("ideal", None), ("h", None), ("shift", 0)]


class TestModuleCommands:
    @pytest.mark.parametrize("name, own", [
        ("hilbert", [("horizon", 24)]),
        ("syzygy", [("horizon", 24)]),
        ("tor", [("max_i", 3), ("horizon", 16)]),
        ("torsion", [("horizon", 24)]),
        ("special", [("horizon", 40)]),
        ("kclass", [("horizon", 24)]),
        ("l-invariant", [("horizon", None), ("max_i", None), ("demo_p", None),
                         ("demo_h", None)]),
    ])
    def test_module_command_params(self, name, own):
        # the module options are declared once; each command keeps them, in
        # this order and with these defaults, before its own
        params = [(p.name, p.default) for p in main.commands[name].params]
        assert params == [*MODULE_PARAMS, *own, ("out", "text")]

    def test_hilbert_principal_special(self, runner):
        res = invoke(
            runner,
            ["hilbert", "--ideal", "[2]", "--h", "2", "--horizon", "12",
             "--out", "json"],
        )
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["fit"]["period"] == 2
        assert data["pieces"]["0"]["torsion_factors"] == ["2"]
        assert "1" not in data["pieces"]

    def test_syzygy(self, runner):
        res = invoke(
            runner,
            ["syzygy", "--ideal", "[2]", "--h", "2", "--horizon", "12",
             "--out", "json"],
        )
        assert res.exit_code == 0
        assert "degrees" in json.loads(res.output)

    def test_tor(self, runner):
        res = invoke(
            runner,
            ["tor", "--ideal", "[2]", "--h", "1", "--max-i", "1",
             "--horizon", "6", "--out", "json"],
        )
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert any(k.startswith("0,") for k in data["entries"])

    def test_tor_of_the_zero_module_prints_one_line(self, runner):
        # a table with no nonzero entry says so in text, and JSON is unchanged
        module = json.dumps({
            "context": {"family": "classical", "ring": {"ring": "Z"}},
            "generators": [], "relation_degrees": [], "relations": []})
        res = invoke(runner, ["tor", "--module", module, "--horizon", "4"])
        assert res.exit_code == 0
        assert res.output == "Tor_i(M,k)_d = 0 for i <= 3, d <= 4\n"
        res = invoke(runner, ["tor", "--module", module, "--horizon", "4", "--out", "json"])
        assert json.loads(res.output) == {"entries": {}, "horizon": 4, "max_i": 3}

    def test_torsion_on_module_json(self, runner):
        ctx = AlgebraContext(PiSequence.all_ones(QQ))
        f0 = FreeGradedModule(ctx, [0])
        rel = ModuleMap(FreeGradedModule(ctx, [1]), f0, [{0: ctx.x(1)}])
        M = PresentedModule(f0, rel)
        res = runner.invoke(
            main,
            ["torsion", "--module", json.dumps(M.to_json()), "--horizon", "6",
             "--out", "json"],
        )
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["verdict"] == "has_torsion"
        assert 0 in data["candidate_degrees"]

    @pytest.mark.parametrize("g,horizon", [(0, 5), (5, 10)])
    def test_torsion_of_a_shifted_module(self, runner, g, horizon):
        # margin and cap read degrees relative to the lowest generator, so
        # D/(-3 x^[2]) over Z_(3) is torsion-free with its generator at 0
        # and at 5, with the same margin
        ctx = AlgebraContext(PiSequence.classical(Zloc(3)))
        M = PresentedModule.from_columns(ctx, [g], [{0: ctx.x(2, coeff=-3)}], [g + 2])
        res = invoke(runner, ["torsion", "--module", json.dumps(M.to_json()),
                              "--horizon", str(horizon), "--out", "json"])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert (data["verdict"], data["margin"]) == ("torsion_free", 4)

    def test_special(self, runner):
        res = invoke(
            runner,
            ["special", "--ring", "GF(2)", "--ideal", "[0]", "--h", "2",
             "--horizon", "24", "--out", "json"],
        )
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["r"] == 0

    def test_torsion_is_not_certified_before_a_late_zero_of_pi(self, monkeypatch, capsys):
        # over Q with pi_40 = 0, x^[40] e != 0 in D/(x^[1]): the search up to
        # its cap at horizon 4 cannot certify torsion
        code, out, _ = run_entry_point(monkeypatch, capsys, [
            "torsion", "--module", x1_quotient(0, {"ring": "Q"}, {"40": "0"}),
            "--horizon", "4", "--out", "json"])
        data = json.loads(out)
        assert (code, data["verdict"], data["candidate_degrees"]) == (2, "inconclusive", [0])

    # admissible to 24 but not at (30, 45)
    NOT_ADMISSIBLE_AT_45 = not_admissible_at_45(0)

    @pytest.mark.parametrize("command", [["special", "--horizon", "100"],
                                         ["torsion", "--horizon", "40"],
                                         ["hilbert", "--horizon", "60"],
                                         ["syzygy", "--horizon", "60"],
                                         ["tor", "--max-i", "1", "--horizon", "60"],
                                         ["kclass", "--horizon", "60"],
                                         ["l-invariant", "--horizon", "60"]])
    def test_pi_not_admissible_up_to_the_horizon_exits_one(self, monkeypatch, capsys, command):
        # the user's input, not an internal fault (special exited 3, torsion
        # reported torsion_free, the others printed results)
        code, out, err = run_entry_point(
            monkeypatch, capsys, [*command, "--module", self.NOT_ADMISSIBLE_AT_45])
        assert (code, out, err) == (1, "", "error: pi-sequence not admissible: pair (30, 45)\n")

    @pytest.mark.parametrize("command", ["hilbert", "syzygy", "tor", "kclass"])
    def test_admissibility_is_checked_up_to_the_horizon_only(self, runner, command):
        res = runner.invoke(main, [command, "--horizon", "44", "--module",
                                   self.NOT_ADMISSIBLE_AT_45])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("command", [["hilbert"], ["syzygy"], ["tor", "--max-i", "1"],
                                         ["kclass"]])
    def test_admissibility_reaches_the_horizon_less_the_lowest_generator(
            self, runner, monkeypatch, capsys, command):
        # D acts through degree differences: with its generator at -20,
        # horizon 30 reaches D-degree 50, past (30, 45); at 20, horizon 60
        # reaches only 40
        code, out, err = run_entry_point(monkeypatch, capsys, [
            *command, "--horizon", "30", "--module", not_admissible_at_45(-20)])
        assert (code, out, err) == (1, "", "error: pi-sequence not admissible: pair (30, 45)\n")
        res = runner.invoke(main, [*command, "--horizon", "60",
                                   "--module", not_admissible_at_45(20)])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("shift, shown", [(3, "[-3]"), (0, "[-0]"), (-3, "[3]")])
    def test_special_text_reads_shift_as_m_minus_s(self, runner, shift, shown):
        # M(a, h)[-s] with s = -3 is M(a, h)[3], not M(a, h)[--3]
        res = invoke(runner, ["special", "--ring", "GF(2)", "--ideal", "[0]", "--h", "2",
                              "--shift", str(shift), "--horizon", "4"])
        assert res.exit_code == 0
        blocks = res.output.splitlines()[1]
        assert blocks.startswith("blocks: M((0),") and blocks.endswith(f"){shown}^1")

    def test_kclass_text_starts_at_negative_shift(self, runner):
        args = ["kclass", "--ring", "GF(2)", "--ideal", "[0]", "--h", "2",
                "--shift", "-2", "--horizon", "4"]
        res = invoke(runner, args)
        assert res.output.splitlines()[0] == "rank stream: [1, 0, 1, 0, 1, 0, 1]"
        coeffs = json.loads(invoke(runner, args + ["--out", "json"]).output)["coeffs"]
        assert coeffs == {"-2": 1, "0": 1, "2": 1, "4": 1}

    def test_kclass(self, runner):
        res = invoke(
            runner,
            ["kclass", "--ring", "GF(2)", "--ideal", "[0]", "--h", "2",
             "--horizon", "16", "--out", "json"],
        )
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["fit"]["period"] == 2

    def test_l_invariant(self, runner):
        res = runner.invoke(
            main,
            ["l-invariant", "--ring", "Z_(2)", "--ideal", "[2]", "--h", "2",
             "--horizon", "8", "--out", "json"],
        )
        assert res.exit_code in (0, 2)
        data = json.loads(res.output)
        assert data["l"]["0"] == [[2, 1]]

    def test_l_invariant_of_a_shifted_module_is_complete(self, runner):
        # the default --max-i reads the horizon from the lowest generator:
        # M((2), 2) moved down by 4 at horizon 2 is M((2), 2) at horizon 6
        res = invoke(runner, ["l-invariant", "--ring", "Z_(2)", "--ideal", "[2]", "--h", "2",
                              "--shift", "-4", "--horizon", "2", "--out", "json"])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert (data["max_i"], data["complete"], data["fit"]["period"]) == (7, True, 2)
        assert data["l"] == {str(d): [[2, 1]] for d in (-4, -2, 0, 2)}

    @pytest.mark.parametrize("horizon", [9, 10, 11])
    def test_l_invariant_demo_explicit_horizon(self, runner, horizon):
        # an explicit --horizon is used as given, 10 included
        res = invoke(runner, ["l-invariant", "--demo-p", "2", "--demo-h", "2",
                              "--horizon", str(horizon), "--out", "json"])
        assert json.loads(res.output)["horizon"] == horizon

    def test_l_invariant_default_horizon(self, runner):
        # without --horizon the demo picks its own, and a module gets 10
        res = invoke(runner, ["l-invariant", "--demo-p", "2", "--demo-h", "2",
                              "--out", "json"])
        assert json.loads(res.output)["horizon"] == 12
        res = runner.invoke(main, ["l-invariant", "--ring", "Z_(2)", "--ideal", "[2]",
                                   "--h", "2", "--out", "json"])
        assert json.loads(res.output)["horizon"] == 10

    def test_l_invariant_demo(self, runner):
        res = invoke(runner, ["l-invariant", "--demo-p", "2", "--demo-h", "2",
                              "--out", "json"])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["l_matches_closed_form"]
        assert data["h_class_of_D_mod_pD_is_zero"]


class TestInputBoundary:
    @pytest.mark.parametrize(
        "args",
        [
            ["torsion", "--ring", "Z_(2)", "--ideal", "[2]", "--h", "2", "--horizon", "-3"],
            ["hilbert", "--ideal", "[2]", "--h", "2", "--horizon", "-1"],
            ["syzygy", "--ideal", "[2]", "--h", "2", "--horizon", "-1"],
            ["tor", "--ideal", "[2]", "--h", "2", "--horizon", "-1"],
            ["tor", "--ideal", "[2]", "--h", "2", "--max-i", "-1"],
            ["special", "--ring", "GF(2)", "--ideal", "[0]", "--h", "2", "--horizon", "-1"],
            ["kclass", "--ring", "GF(2)", "--ideal", "[0]", "--h", "2", "--horizon", "-1"],
            ["l-invariant", "--ideal", "[2]", "--h", "2", "--horizon", "-1"],
            ["l-invariant", "--ideal", "[2]", "--h", "2", "--max-i", "-2"],
        ],
    )
    def test_negative_horizon_or_max_i_rejected(self, runner, args):
        # exit 1 with one error line; exit 2 would read as "inconclusive"
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error: --") and res.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["pi-check", "--up-to", "-3"],
            ["pi-derive", "--values", "[1, 1, 2, 3]", "--up-to", "-1"],
            ["pi-transform", "--h", "2", "--up-to", "-1"],
            ["bound-check", "--seed", "1", "--count", "-2"],
            ["a2-check", "--ideal", "[2]", "--limit", "-1"],
        ],
    )
    def test_negative_count_rejected(self, runner, args):
        # a negative count used to give a vacuous "admissible" / "all pass"
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error: --") and res.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "args, err",
        [
            (["--values", "5"],
             "error: malformed --values: ValueError: expected a list of integers, got 5\n"),
            (["--values", '["x"]'], "error: malformed --values: ValueError: "),
            (["--values", '{"1": 2}'], "error: malformed --values: ValueError: "),
            (["--values", "[1.5]"], "error: malformed --values: ValueError: "),
            (["--values", "[true, 2]"], "error: malformed --values: ValueError: "),
            (["--values", '["3"]'], "error: malformed --values: ValueError: "),
            (["--values", "[1, 2]", "--up-to", "3"],
             "error: --up-to must be <= the number of values (2), got 3\n"),
        ],
        ids=["not-a-list", "not-integers", "object", "float", "boolean", "numeric-string",
             "up-to-past-the-values"],
    )
    def test_pi_derive_bad_values_rejected(self, runner, args, err):
        # these used to end in a TypeError or IndexError traceback
        res = runner.invoke(main, ["pi-derive", *args])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.stdout == ""
        assert res.stderr.startswith(err) and res.stderr.count("\n") == 1

    @pytest.mark.parametrize("values", ["5", "[1.5, 2]", '{"1": 2}'])
    def test_gcd_morphic_family_bad_values_rejected(self, runner, values):
        # the gcd-morphic family reads --values as pi-derive does; "5" used
        # to end in a TypeError traceback and "[1.5, 2]" was read as [1, 2]
        res = runner.invoke(main, ["pi-check", "--ring", "ZZ", "--family", "gcd-morphic",
                                   "--values", values])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.stdout == ""
        assert res.stderr == f"error: malformed --values: ValueError: expected a list of integers, got {values}\n"

    def test_precondition_error_prints_ring_elements(self, monkeypatch, capsys):
        code, out, err = run_entry_point(
            monkeypatch, capsys, ["special", "--ring", "Z_(2)", "--ideal", "[0]", "--h", "3"])
        assert code == 1 and out == ""
        assert err == "error: pi_3 is not in the ideal (0)\n"

    def test_failed_internal_check_exits_three(self, monkeypatch, capsys):
        # a certificate the resolver built that does not verify is a bug, not
        # a failed user-facing check: exit 3, not a traceback with exit 1
        monkeypatch.setattr(gdpakit.resolutions_k, "verify_special_filtration",
                            lambda M, cert, horizon, slices: (False, 5))
        code, out, err = run_entry_point(
            monkeypatch, capsys,
            ["special", "--ring", "GF(2)", "--ideal", "[0]", "--h", "2", "--horizon", "8"])
        assert code == 3 and out == ""
        assert err == ("error: internal verification failed: "
                       "special filtration verification failed at 5\n")

    @pytest.mark.parametrize(
        "module",
        ['{"foo": 1}', "[1]", '{"context": {"ring": {"ring": "Z"}}}', *MALFORMED_INT_MODULES,
         *OUT_OF_RANGE_MODULES],
    )
    def test_malformed_module_json_rejected(self, runner, module):
        res = runner.invoke(main, ["torsion", "--module", module])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: malformed --module: ")
        assert res.stderr.count("\n") == 1

    def test_malformed_module_relations_rejected(self, runner):
        ctx = AlgebraContext(PiSequence.all_ones(QQ))
        M = PresentedModule.from_columns(ctx, [0], [{0: ctx.x(1)}], [1])
        obj = M.to_json()
        obj["relations"] = "x"
        res = runner.invoke(main, ["torsion", "--module", json.dumps(obj)])
        assert res.exit_code == 1
        assert res.stderr.startswith("error: malformed --module: ")


    @pytest.mark.parametrize("max_d", ["0", "-1"])
    def test_max_d_below_one_rejected(self, runner, max_d):
        # used to exit 1 with random's "empty range for randrange()"
        res = runner.invoke(main, ["bound-check", "--seed", "1", "--max-d", max_d])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr == f"error: --max-d must be >= 1, got {max_d}\n"

    @pytest.mark.parametrize(
        "spec, kind",
        [('{"chain": 3}', "TypeError"), ("[1]", "TypeError"),
         ('{"chain": [[1]]}', "KeyError"), ('{"chain": [["x"]], "d": 0}', "ValueError"),
         *[(spec, "ValueError") for spec in MALFORMED_INT_SPECS]],
    )
    def test_malformed_spec_rejected(self, runner, spec, kind):
        res = runner.invoke(main, ["bound-check", "--spec", spec])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.stderr.startswith(f"error: malformed --spec: {kind}: ")
        assert res.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "table, kind",
        [("[1]", "TypeError"), ('{"rows": 3, "N": 1}', "TypeError"),
         ('{"rows": [[1], [1, 1]]}', "KeyError"),
         ('{"rows": [[1], [1, "1/0"]], "N": 1}', "ZeroDivisionError")],
    )
    def test_malformed_table_rejected(self, runner, table, kind):
        res = runner.invoke(main, ["recover-pi", "--table", table])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.stderr.startswith(f"error: malformed --table: {kind}: ")
        assert res.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "args, option, kind",
        [(["cbinom", "--family", "custom", "--values", "[1,2]", "--n", "4", "--m", "2"],
          "--values", "AttributeError"),
         (["hilbert", "--ideal", "5", "--h", "2"], "--ideal", "TypeError"),
         (["a2-check", "--ideal", "5"], "--ideal", "TypeError"),
         (["cbinom", "--ring", "Q", "--family", "custom", "--values", '{"2":3}',
           "--default", "1/0", "--n", "4", "--m", "2"], "--default", "ZeroDivisionError"),
         (["cbinom", "--ring", "Q", "--family", "cyclotomic-at", "--q0", "1/0",
           "--n", "4", "--m", "2"], "--q0", "ZeroDivisionError")],
        ids=["custom-values-list", "hilbert-ideal-int", "a2-check-ideal-int",
             "custom-default-zero-denominator", "cyclotomic-at-q0-zero-denominator"],
    )
    def test_malformed_values_and_ideal_rejected(self, monkeypatch, capsys, args, option, kind):
        # these used to end in a traceback from the console entry point
        code, out, err = run_entry_point(monkeypatch, capsys, args)
        assert code == 1 and out == ""
        assert err.startswith(f"error: malformed {option}: {kind}: ")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_no_module_imports_sympy():
    # sympy is a test-only oracle; importing it costs every CLI call ~0.35 s
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import gdpakit.cli, gdpakit.coherence_lab, gdpakit.resolutions_k, sys; "
            "assert 'sympy' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


def _unused_imports(tree) -> list:
    """Names a module imports but never reads, nor lists in __all__."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            read |= {e.value for e in node.value.elts}
    return sorted(imported - read)


@pytest.mark.parametrize(
    "path",
    sorted((Path(__file__).resolve().parents[1] / "src" / "gdpakit").glob("*.py")),
    ids=lambda path: path.name,
)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


class TestHarnessCommands:
    def test_bound_check_spec(self, runner):
        res = invoke(
            runner,
            ["bound-check", "--spec", '{"chain": [[2], [1]], "d": 1}',
             "--out", "json"],
        )
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["all_pass"]
        assert data["reports"][0]["N"] == 2

    def test_bound_check_random(self, runner):
        res = invoke(runner, ["bound-check", "--seed", "3", "--count", "3"])
        assert res.exit_code == 0
        assert "all pass: True" in res.output

    def test_bound_check_deterministic(self, runner):
        args = ["bound-check", "--seed", "11", "--count", "2", "--out", "json"]
        out1 = invoke(runner, args).output
        out2 = invoke(runner, args).output
        assert out1 == out2

    def test_a2_check(self, runner):
        res = invoke(runner, ["a2-check", "--ideal", "[6]", "--out", "json"])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["verdict"] == "bounded" and data["n"] == 6

    def test_a2_check_zero_ideal_without_generators(self, runner):
        # k/(no generators) = k, as k/(0)
        outs = [invoke(runner, ["a2-check", "--ideal", ideal, "--out", "json"])
                for ideal in ("[]", "[0]")]
        assert [r.exit_code for r in outs] == [0, 0]
        assert json.loads(outs[0].output) == json.loads(outs[1].output)

    def test_bound_check_spec_with_empty_generator_list(self, runner):
        reports = []
        for a0 in ("[]", "[0]"):
            spec = f'{{"chain": [{a0}, [1]], "d": 1}}'
            res = invoke(runner, ["bound-check", "--spec", spec, "--out", "json"])
            assert res.exit_code == 0
            data = json.loads(res.output)
            assert data["all_pass"]
            reports.append({k: v for k, v in data["reports"][0].items() if k != "spec"})
        assert reports[0] == reports[1]

    def test_counterexample(self, runner):
        res = invoke(runner, ["counterexample", "--p", "2", "--r", "1",
                              "--out", "json"])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["identity_holds"] and data["syzygy_not_generated_below"]

    def test_counterexample_koszul(self, runner):
        res = invoke(runner, ["counterexample", "--koszul-sanity", "--out", "json"])
        assert res.exit_code == 0
        assert json.loads(res.output)["exactly_one_koszul"]

    def test_recover_pi(self, runner):
        ring = Zloc(2)
        pi = PiSequence.classical(ring)
        table = StructureConstants.from_pi(pi, 8).to_json()
        res = invoke(
            runner,
            ["recover-pi", "--ring", "Z_(2)", "--table", json.dumps(table),
             "--out", "json"],
        )
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["values_preview"]["2"] == "2"


# ---------------------------------------------------------------------------
# the input boundary, fuzzed: every command of the click tree on drawn argv
# ---------------------------------------------------------------------------

# option name -> (valid values, malformed values); sizes stay small (horizon
# <= 12) so each run is quick, and the size options are always passed, as
# some defaults (horizon 40, the demo's own horizon) are slower
FUZZ_VALUES = {
    "ring": (["Z", "Q", "GF(2)", "GF(3)", "Z_(2)", "Z/4", "Z/6", "Z[q]"],
             ["GF(4)", "Z/0", "Z/1", "Z/-2", "Z_(x)", "Zloc9", "R", ""]),
    "family": (["classical", "all-ones", "cyclotomic", "cyclotomic-at", "custom",
                "gcd-morphic"], ["nope", ""]),
    "values": (['{"2": 3}', '{"2": 0, "6": 0}', "[1, 1, 2, 3, 5, 8]", "[1, 2]"],
               ["{", '{"2": "1/0"}', '{"x": 1}', "null", "[1.5]", '"s"', "5",
                '{"2": [1]}', "@missing.json", "[]", '{"-1": 2}', '{"0": 0}']),
    "default_": (["1", "2", "0"], ["1/0", "x", ""]),
    "q0": (["2", "1/3", "-1"], ["1/0", "x", "1/2", ""]),
    "module": ([_module_json()],
               ["{", "{}", "[]", '{"context": 1}', "5", "null",
                _module_json().replace('"relation_degrees": [1]', '"relation_degrees": [0]'),
                *MALFORMED_INT_MODULES]),
    "ideal": (["[2]", "[0]", "[]", "[2, 4]", '["1/3"]'],
              ["[", '["1/0"]', '"x"', "5", "[[1]]", '{"a": 1}', "[1.5]", "[true]"]),
    "h": (["1", "2", "3"], ["0", "-1", "x"]),
    "shift": (["0", "1", "2"], ["-1", "-3", "x"]),
    "horizon": ([str(i) for i in range(13)], ["-1", "x", "1.5", ""]),
    "max_i": (["0", "1", "2"], ["-1", "y"]),
    "n": ([str(i) for i in range(7)], ["-1", "x"]),
    "m": ([str(i) for i in range(7)], ["-1", "9", "x"]),
    "up_to": ([str(i) for i in range(9)], ["-1", "1/0"]),
    "spec": (['{"chain": [[2], [1]], "d": 1}', '{"chain": [[4], [2], [1]], "d": 2}',
              '{"chain": [[0]], "d": 0}', '{"chain": [[], [3]], "d": 1}'],
             ["{", '{"chain": 3}', "[1]", '{"chain": [[1]]}', '{"chain": [["x"]], "d": 0}',
              '{"chain": [[1], [2]], "d": 1}', '{"chain": [[2]], "d": -1}',
              '{"chain": [[2]], "d": "a"}', '{"chain": [[2]], "d": 1.5}',
              *MALFORMED_INT_SPECS]),
    "seed": (["0", "1", "7", "-1"], ["x", "1.5"]),
    "count": (["0", "1", "2"], ["-1", "x"]),
    "max_d": (["1", "2"], ["0", "-1"]),
    "out": (["json", "text"], ["xml"]),
    "limit": (["0", "8", "16"], ["-1", "x"]),
    "p": (["2", "3"], ["0", "1", "4", "-2", "x"]),
    "r": (["0", "1"], ["-1", "3", "5", "x"]),
    "demo_p": (["2", "3"], ["4", "0", "-1", "1"]),
    "demo_h": (["1", "2"], ["0", "-1"]),
    "table": ([json.dumps(StructureConstants.from_pi(PiSequence.classical(Zloc(2)), 4).to_json())],
              ["[1]", '{"rows": 3, "N": 1}', "{", '{"rows": [[1], [1, 1]]}',
               '{"rows": [[1], [1, "1/0"]], "N": 1}', '{"rows": [], "N": 0}',
               '{"rows": [[1]], "N": 5}']),
}
SIZE_OPTIONS = {"horizon", "max_i", "up_to", "count", "limit"}


def _run_in_process(args):
    """(exit code, stdout, stderr) of the console entry point on argv."""
    out, err = io.StringIO(), io.StringIO()
    argv, sys.argv = sys.argv, ["gdpakit", *args]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                run()
                code = 0
            except SystemExit as e:
                code = e.code or 0
    finally:
        sys.argv = argv
    return code, out.getvalue(), err.getvalue()


@st.composite
def cli_argv(draw):
    name = draw(st.sampled_from(sorted(main.commands)))
    args = [name]
    for param in main.commands[name].params:
        if not isinstance(param, click.Option):
            continue
        flag = param.opts[0]
        if param.is_flag:
            if draw(st.booleans()):
                args.append(flag)
            continue
        valid, malformed = FUZZ_VALUES[param.name]
        kind = draw(st.sampled_from(["valid"] * 4 + ["malformed", "omitted"]))
        if kind == "omitted" and param.name in SIZE_OPTIONS:
            kind = "valid"
        if kind != "omitted":
            args += [flag, draw(st.sampled_from(valid if kind == "valid" else malformed))]
    return args


@settings(max_examples=300, deadline=None)
@given(cli_argv())
def test_every_command_holds_its_input_boundary(args):
    # any argv ends in a documented exit code, without a traceback, and a
    # rejected one says why in exactly one line
    code, out, err = _run_in_process(args)
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error:") and err.count("\n") == 1, err
