"""One cold `a1u` call that also times each selfcheck suite.

Usage (from the repository root, with src on PYTHONPATH):
    python3 perfbench/timed_child.py OUT.json ARGV...

Runs `cli.run(ARGV)` in this fresh process, as `a1u ARGV` does, with each
entry of `selfcheck.SUITES` wrapped in a timer.  Writes the seconds of
each suite that ran, in suite order, to OUT.json and exits with the
command's exit code.  The timers add two clock reads per suite; stdout
is the command's stdout.
"""

import json
import sys
from time import perf_counter


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    from a1unicity import cli, selfcheck

    seconds = []

    def timed(fn):
        def run(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                seconds.append(perf_counter() - start)
        return run

    selfcheck.SUITES = [(name, timed(fn), quick) for name, fn, quick in selfcheck.SUITES]
    rc = cli.run(argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(seconds, fh)
    sys.exit(rc)


if __name__ == "__main__":
    main()
