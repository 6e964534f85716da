#!/usr/bin/env python3
"""Re-derive the classical unicity table by brute force.

For every valid partition with blocks below p on the chosen groups, run
the completely reducible enumeration and compare against the classifier.
Prints one row per partition and a summary; disagreements (none are
expected) are flagged loudly.  SL, Sp and SO all run up to --max-dim.
The rows come from the generator that the classifier-vs-enumeration
suite of `a1u selfcheck` walks, here at the one prime --p, and the
comparison is the suite's.

Usage: python scripts/rederive_classical.py [--p 5] [--max-dim 10]
"""

import argparse
import sys

from a1unicity.classical import SL, SO, Sp
from a1unicity.jordan import jnotation
from a1unicity.selfcheck import agrees, classifier_vs_enumeration


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=5)
    parser.add_argument("--max-dim", type=int, default=10)
    parser.add_argument("--max-twist", type=int, default=3)
    args = parser.parse_args()

    dims = {
        SL: range(2, args.max_dim + 1),
        Sp: range(4, args.max_dim + 1, 2),
        SO: range(7, args.max_dim + 1),
    }
    disagreements = 0
    total = 0
    for g, part, _, v, res in classifier_vs_enumeration((args.p,), dims, args.max_twist):
        agree = agrees(v, res)
        total += 1
        disagreements += not agree
        marker = "" if agree else "   <-- DISAGREEMENT"
        growth = "+growth" if res.growth_flag else "stable"
        print(
            f"{str(g):8s} {jnotation(part.parts):18s} "
            f"classifier={v.kind.value:9s} classes={res.count:3d} "
            f"({growth}){marker}"
        )
    print(
        f"\n{total} partitions checked at p = {args.p}; "
        f"{disagreements} disagreement(s)"
    )
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
