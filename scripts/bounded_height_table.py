#!/usr/bin/env python3
"""Print a table of pair counts: rows n, columns the height bound k.

Each entry counts pairs of same-shape standard tableaux with at most k rows.
The k = 2 column is the Catalan sequence; once k >= n the rows saturate
at n!.
"""

import argparse

from symfunc.tableaux import PAIR_METHODS, bounded_height_pairs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=10)
    parser.add_argument("--max-k", type=int, default=5)
    parser.add_argument("--method", default=PAIR_METHODS[0], choices=PAIR_METHODS)
    args = parser.parse_args()

    ks = list(range(1, args.max_k + 1))
    header = "n\\k " + "".join(f"{k:>10}" for k in ks)
    print(header)
    for n in range(args.max_n + 1):
        row = f"{n:<4}" + "".join(
            f"{bounded_height_pairs(n, k, args.method):>10}" for k in ks
        )
        print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
