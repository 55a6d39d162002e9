"""Run ``python -m gdpakit.cli ARGS`` under speed probes (speed.py).

    python3 perfbench/cli_child.py ARGS...

The command's stdout, stderr and exit code are its own.  After them this
process writes one more line to stderr, ``probes TOTAL MEAN``: the seconds
its probes took in all and on average, with which the benchmark scales the
wall time of the call.  The probes run from before gdpakit is imported
until the command has returned.
"""

import runpy
import sys

import speed


def main():
    code = 0
    with speed.Probes() as probes:
        try:
            runpy.run_module("gdpakit.cli", run_name="__main__", alter_sys=True)
        except SystemExit as e:
            code = e.code
    sys.stdout.flush()
    total = sum(probes.dur)
    sys.stderr.write(f"\nprobes {total!r} {total / len(probes.dur)!r}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
