#!/usr/bin/env python3
"""Exhaustive stage-3 census: invariants for every |a|, |b|, |c| <= radius.

Columns: twisting degrees, holomorphic twist/cotwist, the Pontrjagin
multiple, triviality type, reductivity, Fano and Kahler-Einstein status,
and the diffeomorphism key.  The rows come from `bott.cli.stage3_rows`,
which `bott scan` uses too.

    python scripts/stage3_census.py --radius 2 > census.csv
"""

import argparse
import sys

from bott.cli import _csv, stage3_rows
from bott.core import StageTooLarge

HEADER = ("a", "b", "c", "twist", "cotwist", "toptwist", "p1", "q_type", "reductive",
          "fano", "ke", "diffeo_key")
COLUMNS = ("a", "b", "c", "twist", "cotwist", "topological_twist", "p1", "q_type",
           "reductive", "fano", "ke", "diffeo_key")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--radius", type=int, default=2)
    args = parser.parse_args()
    try:
        rows = [[row[key] for key in COLUMNS] for row in stage3_rows(args.radius, census=True)]
    except (ValueError, StageTooLarge) as exc:
        parser.error(str(exc))
    sys.stdout.write(_csv(HEADER, rows))


if __name__ == "__main__":
    main()
