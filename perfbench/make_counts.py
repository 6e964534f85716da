"""Regenerate perfbench/enum_counts.txt, the frozen enumeration counts.

Each line is `family dim p blocks count growth cost_us` for one valid
partition with all blocks below p, over the ranges of the
enumeration-sweep workload (SL dims 2..14, Sp 4..16, SO 7..15, p in
{5, 7}, twists <= 3).  The file serves two purposes: each enumeration
answer must reproduce its frozen count and growth flag, and the sweep
draws its partitions stratified by cost, so that every seed gives about
the same latency distribution.  `cost_us` is the fastest of five timed
classifier-plus-enumeration checks on the machine that wrote the file;
only the order it gives is used.

Run from the repository root:  python3 perfbench/make_counts.py
"""

import os
import sys
from time import perf_counter

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

DIMS = {"SL": range(2, 15), "Sp": range(4, 17, 2), "SO": range(7, 16)}
PRIMES = (5, 7)
TIMINGS = 5
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "enum_counts.txt")


def main():
    cases = [
        {"family": family, "dim": dim, "p": p, "blocks": list(blocks)}
        for family, dims in DIMS.items()
        for dim in dims
        for p in PRIMES
        for blocks in workloads.valid_partitions(family, dim, p, p - 1)
    ]
    answers = [workloads.op_verdict(case) for case in cases]  # also warms the caches
    best = [float("inf")] * len(cases)
    # whole passes, so that the timings of one case are far apart in time
    for _ in range(TIMINGS):
        for i, case in enumerate(cases):
            start = perf_counter()
            workloads.op_verdict(case)
            best[i] = min(best[i], perf_counter() - start)
    lines = [
        f"{c['family']} {c['dim']} {c['p']} {'.'.join(map(str, c['blocks']))} "
        f"{count} {int(growth)} {round(1e6 * t)}"
        for c, (_, count, growth), t in zip(cases, answers, best)
    ]
    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} rows to {OUT}")


if __name__ == "__main__":
    main()
