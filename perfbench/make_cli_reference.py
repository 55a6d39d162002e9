"""Regenerate cli_reference.json: the README's gdpakit examples that need no
@file, with the stdout each prints.

    python3 perfbench/make_cli_reference.py

Run it only on a commit whose output is known to be right; the benchmark
checks every later commit against what it stores."""

import json
import sys

from workloads import CLI_REFERENCE, ROOT, run_cli_subprocess

COMMANDS = [
    ["cbinom", "--n", "4", "--m", "2"],
    ["cbinom", "--ring", "Z[q]", "--family", "cyclotomic", "--n", "3", "--m", "1"],
    ["pi-check", "--up-to", "16"],
    ["pi-derive", "--values", "[1,1,2,3,5,8,13,21,34,55,89,144]", "--up-to", "7"],
    ["pi-transform", "--h", "2", "--up-to", "8", "--out", "json"],
    ["hilbert", "--ideal", "[2]", "--h", "2", "--horizon", "12", "--out", "json"],
    ["syzygy", "--ideal", "[2]", "--h", "2", "--horizon", "12"],
    ["tor", "--ideal", "[2]", "--h", "1", "--max-i", "2", "--horizon", "8"],
    ["special", "--ring", "GF(2)", "--ideal", "[0]", "--h", "2", "--horizon", "24"],
    ["kclass", "--ring", "GF(2)", "--ideal", "[0]", "--h", "2", "--horizon", "16"],
    ["l-invariant", "--ring", "Z_(2)", "--ideal", "[2]", "--h", "2", "--horizon", "8"],
    ["l-invariant", "--demo-p", "2", "--demo-h", "2"],
    ["bound-check", "--spec", '{"chain": [[2], [1]], "d": 1}'],
    ["bound-check", "--seed", "7", "--count", "6"],
    ["a2-check", "--ideal", "[6]"],
    ["counterexample", "--p", "2", "--r", "1"],
    ["counterexample", "--koszul-sanity"],
]


def main():
    if not (ROOT / "src" / "gdpakit").is_dir():
        sys.exit(f"no gdpakit sources under {ROOT / 'src'}")
    entries = []
    for args in COMMANDS:
        code, out, err, _, _ = run_cli_subprocess(args)
        if code != 0:
            sys.exit(f"gdpakit {' '.join(args)} exited {code}: {err.decode()}")
        entries.append({"args": args, "stdout": out.decode("utf-8")})
    CLI_REFERENCE.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(entries)} commands to {CLI_REFERENCE}")


if __name__ == "__main__":
    main()
