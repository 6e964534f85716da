"""One traced `a1u` call, for the traced cli-cold run.

Usage (from the repository root):
    python3 perfbench/traced_child.py OUT.json ARGV...

Runs `cli.run(ARGV)` in this fresh process with the tracer installed,
writes the call's spans and timings to OUT.json and exits with the
command's exit code.  Its stdout is the command's stdout.
"""

import json
import os
import sys
from time import perf_counter


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    t0 = perf_counter()
    from a1unicity import cli

    import_s = perf_counter() - t0
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    t1 = perf_counter()
    try:
        rc = cli.run(argv)
    finally:
        run_s = perf_counter() - t1
        tracer.active = False
        tracer.uninstall()
    sys.stdout.flush()
    first_verdict = next(
        (end - start for name, start, end, _, _ in tracer.spans if name == "atlas.verdict"),
        None,
    )
    record = {
        "import_s": import_s,
        "run_s": run_s,
        "first_verdict_s": first_verdict,
        "aggregate": tracer.aggregate(),
        "item_calls": tracer.item_calls(),
        "spans": tracer.spans,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    sys.exit(rc)


if __name__ == "__main__":
    main()
