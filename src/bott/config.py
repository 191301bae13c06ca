"""Runtime limits and tolerances, overridable from a JSON config file.

The config path is taken from the BOTT_CONFIG environment variable (or
passed explicitly); individual CLI flags override file values.  A file
that cannot be read or parsed, that holds a key other than the fields of
Limits, or that holds a value of the wrong type, raises OSError or
ValueError; the CLI answers either with invalid_input (stage_too_large for
a csc_tolerance past every bit bound: admissible.parse_rational).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
from fractions import Fraction

from .admissible import DEFAULT_CSC_TOLERANCE, parse_rational
from .almostkahler import DEFAULT_POSITIVITY_DEPTH
from .core import DEFAULT_STAGE_BOUND

ENV_VAR = "BOTT_CONFIG"
INT_FIELDS = ("orbit_stage_bound", "root_stage_bound", "positivity_depth")


@dataclass(frozen=True)
class Limits:
    orbit_stage_bound: int = DEFAULT_STAGE_BOUND
    root_stage_bound: int = DEFAULT_STAGE_BOUND
    positivity_depth: int = DEFAULT_POSITIVITY_DEPTH
    csc_tolerance: Fraction = DEFAULT_CSC_TOLERANCE


def load_limits(path: str | None = None) -> Limits:
    if path is None:
        path = os.environ.get(ENV_VAR)
    limits = Limits()
    if not path:
        return limits
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("the config file must hold a JSON object")
    unknown = sorted(raw.keys() - {f.name for f in fields(Limits)})
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    updates = {}
    for field in INT_FIELDS:
        if field in raw:
            value = raw[field]
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{field} must be an integer >= 1, got {value!r}")
            updates[field] = value
    if "csc_tolerance" in raw:
        value = raw["csc_tolerance"]
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ValueError(f"csc_tolerance must be a number or a rational string, "
                             f"got {value!r}")
        tol = parse_rational(str(value))
        if tol <= 0:
            raise ValueError("csc_tolerance must be positive")
        updates["csc_tolerance"] = tol
    return replace(limits, **updates)
