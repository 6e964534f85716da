#!/usr/bin/env python3
"""Re-derive the classical unicity table by brute force.

For every valid partition with blocks below p on the chosen groups, run
the completely reducible enumeration and compare against the classifier.
Prints one row per partition and a summary; disagreements (none are
expected) are flagged loudly.

Usage: python scripts/rederive_classical.py [--p 5] [--max-dim 10]
"""

import argparse
import sys

from a1unicity.classical import Partition, SL, SO, Sp, VerdictKind, unicity_verdict, validate
from a1unicity.enumerator import partitions_bounded, enumerate_embeddings
from a1unicity.errors import ValidationError
from a1unicity.jordan import jnotation
from a1unicity.sl2modules import FormType


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=5)
    parser.add_argument("--max-dim", type=int, default=10)
    parser.add_argument("--max-twist", type=int, default=3)
    args = parser.parse_args()

    setups = [
        (SL, range(2, min(args.max_dim, 8) + 1), FormType.NONE),
        (Sp, range(4, args.max_dim + 1, 2), FormType.SYMPLECTIC),
        (SO, range(7, args.max_dim + 1), FormType.ORTHOGONAL),
    ]
    disagreements = 0
    total = 0
    for make, dims, form in setups:
        for dim in dims:
            g = make(dim)
            for blocks in partitions_bounded(dim, args.p - 1):
                if blocks[0] < 2:
                    continue
                part = Partition(blocks)
                try:
                    validate(g, part, args.p)
                except ValidationError:
                    continue
                res = enumerate_embeddings(form, dim, part, args.p, args.max_twist)
                stable_unique = res.count == 1 and not res.growth_flag
                v = unicity_verdict(g, part, args.p)
                agree = (v.kind is VerdictKind.UNIQUE) == stable_unique
                total += 1
                disagreements += not agree
                marker = "" if agree else "   <-- DISAGREEMENT"
                growth = "+growth" if res.growth_flag else "stable"
                print(
                    f"{str(g):8s} {jnotation(blocks):18s} "
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
