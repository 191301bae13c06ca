#!/usr/bin/env python3
"""Sweep the CSC obstruction over the class parameters and emit curve data.

For each m the obstruction vanishes on the balanced family r- = -r+ and,
for large enough r+, on a second branch; the CSV feeds any plotter.  The
rows come from `bott.cli.csc_sweep_rows`, which `bott csc-family --sweep`
uses too.

    python scripts/csc_family_sweep.py --m 1 2 3 4 --step 1/50 > families.csv
    python scripts/csc_family_sweep.py --m 2 --step 1/100 --second-only
"""

import argparse
import sys
from fractions import Fraction

from bott.admissible import DEFAULT_CSC_TOLERANCE
from bott.cli import CSC_HEADER, _csv, _frac, csc_sweep_rows
from bott.core import StageTooLarge


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", nargs="+", type=int, default=[1, 2, 3, 4])
    parser.add_argument("--step", type=_frac, default=Fraction(1, 50))
    parser.add_argument("--tolerance", type=_frac, default=DEFAULT_CSC_TOLERANCE)
    parser.add_argument("--second-only", action="store_true",
                        help="drop the balanced family from the output")
    try:   # a decimal past the parser's bound is refused as a parse error
        args = parser.parse_args()
        rows = csc_sweep_rows(args.m, args.step, args.tolerance, args.second_only)
    except (ValueError, StageTooLarge) as exc:
        parser.error(str(exc))
    sys.stdout.write(_csv(CSC_HEADER, rows))


if __name__ == "__main__":
    main()
