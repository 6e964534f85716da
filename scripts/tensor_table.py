#!/usr/bin/env python3
"""Print the full J(m) x J(n) decomposition table for a prime.

Every entry is computed by the closed form and re-checked against the
matrix oracle on the spot; a mismatch prints one line naming (m, n, p)
and exits 1.

Usage: python scripts/tensor_table.py [--p 7]
"""

import argparse
import sys

from a1unicity.jordan import jnotation, tensor_pair, tensor_pair_oracle


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=7)
    args = parser.parse_args()
    p = args.p

    width = max(len(jnotation(tensor_pair(m, n, p).blocks)) for m in range(1, p + 1)
                for n in range(1, p + 1)) + 2
    header = "      " + "".join(f"J({n})".ljust(width) for n in range(1, p + 1))
    print(f"J(m) x J(n) over GF({p})\n")
    print(header)
    for m in range(1, p + 1):
        row = [f"J({m})".ljust(6)]
        for n in range(1, p + 1):
            t = tensor_pair(m, n, p)
            if t != tensor_pair_oracle(m, n, p):
                print(f"oracle mismatch at (m, n, p) = ({m}, {n}, {p})", file=sys.stderr)
                return 1
            row.append(jnotation(t.blocks).ljust(width))
        print("".join(row))
    print("\nall entries oracle-verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
