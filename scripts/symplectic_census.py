#!/usr/bin/env python3
"""Census of Bott towers compatible with a split symplectic form on (S^2)^3.

Prints the counts split by the c = 0 / c != 0 branches together with the
sign-normalized representatives (halved twisting degrees).

    python scripts/symplectic_census.py 5 2 1
    python scripts/symplectic_census.py 11 6 1 --full
"""

import argparse

from bott import symplectic as sp
from bott.cli import _frac
from bott.core import StageTooLarge


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("k", nargs=3, type=_frac, help="weights k1 >= k2 >= k3 > 0")
    parser.add_argument("--full", action="store_true",
                        help="list the doubled matrix parameters instead")
    try:   # a decimal past the parser's bound is refused as a parse error
        args = parser.parse_args()
        k1, k2, k3 = args.k
        n_b0, n_bne0, n_b = sp.count_compatible(k1, k2, k3)
        reps = sp.enumerate_compatible(k1, k2, k3)
    except (ValueError, StageTooLarge) as exc:
        parser.error(str(exc))
    print(f"weights: ({k1}, {k2}, {k3})")
    print(f"  c == 0 branch: {n_b0}")
    print(f"  c != 0 branch: {n_bne0}")
    print(f"  total:         {n_b}")
    scale = 2 if args.full else 1
    print("  representatives (a, b, c):")
    for a, b, c in reps:
        print(f"    ({scale * a}, {scale * b}, {scale * c})")


if __name__ == "__main__":
    main()
