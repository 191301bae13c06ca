#!/usr/bin/env python3
"""Sweep the CSC obstruction over the class parameters and emit curve data.

For each m the obstruction vanishes on the balanced family r- = -r+ and,
for large enough r+, on a second branch; the CSV feeds any plotter.

    python scripts/csc_family_sweep.py --m 1 2 3 4 --step 1/50 > families.csv
    python scripts/csc_family_sweep.py --m 2 --step 1/100 --second-only
"""

import argparse
import sys
from fractions import Fraction

from bott import admissible as adm


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", nargs="+", type=int, default=[1, 2, 3, 4])
    parser.add_argument("--step", type=Fraction, default=Fraction(1, 50))
    parser.add_argument("--tolerance", type=Fraction, default=Fraction(1, 10 ** 12))
    parser.add_argument("--second-only", action="store_true",
                        help="drop the balanced family from the output")
    args = parser.parse_args()
    try:
        sweeps = [(m, adm.csc_family_sweep(m, args.step, args.tolerance, args.second_only))
                  for m in args.m]
    except ValueError as exc:
        parser.error(str(exc))

    out = sys.stdout
    out.write("m,r_plus,r_minus\n")
    for m, rows in sweeps:
        for rp, root in rows:
            out.write(f"{m},{float(rp)},{float(root)}\n")


if __name__ == "__main__":
    main()
