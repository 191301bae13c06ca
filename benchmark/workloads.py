"""Seeded workload generators for the bott benchmark.

A workload is a list of rounds; a round is a list of CLI ops.  Every round
of a workload has the same composition (the same op kinds at the same
sizes), only the seeded inputs differ, so a run that stops at a round
boundary always measures the same mix.  Heavy one-off batch ops (the
census `scan`, the analysis `--sweep`) sit in round 1 only.

This module uses the standard library only; the program under test sees
nothing but the generated argv lists.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import NamedTuple

DEFAULT_SEED = 1


class Op(NamedTuple):
    argv: tuple[str, ...]
    kind: str          # names the output check and the per-size metric family
    size: int = 0      # stage n, or m for csc-family; 0 when neither applies
    data: tuple = ()   # the generated inputs the output checks need
    error: str = ""    # expected CLI error code; "" when the op must succeed


def _tower(rng: random.Random, n: int, bound: int) -> tuple[tuple[int, ...], ...]:
    """Random lower-unitriangular matrix with entries in [-bound, bound]."""
    return tuple(tuple(1 if i == j else rng.randint(-bound, bound) if j < i else 0
                       for j in range(n)) for i in range(n))


def _matrix_arg(rows) -> str:
    return json.dumps({"n": len(rows), "rows": [list(r) for r in rows]},
                      separators=(",", ":"))


def _tower_op(command: str, rows, error: str = "") -> Op:
    return Op((command, "--matrix", _matrix_arg(rows)), command, len(rows), rows, error)


def stage3_rows(a: int, b: int, c: int):
    return ((1, 0, 0), (a, 1, 0), (b, c, 1))


def _flatten(rng: random.Random, units: list[list[Op]]) -> list[Op]:
    """Shuffle the units of a round; ops inside a unit keep their order."""
    rng.shuffle(units)
    return [op for unit in units for op in unit]


# -- groupoid ---------------------------------------------------------------
# Orbit scans over all 2^n n! signed permutations.  Per round: one n=6
# orbit (about 70% of the time), three at n=5, six each at n=4 and 3,
# twist/cotwist on every tower, and one n=9 orbit that must be refused.
# A run holds more than ten rounds, so the tail latency falls among the
# n=6 orbits, the class with the narrowest spread of cost, and the median
# among the twist/cotwist ops.

GROUPOID_ROUNDS = 24
GROUPOID_STAGES = {6: 1, 5: 3, 4: 6, 3: 6}


def groupoid(rng: random.Random) -> list[list[Op]]:
    rounds = []
    for _ in range(GROUPOID_ROUNDS):
        units = []
        for n, count in GROUPOID_STAGES.items():
            for _ in range(count):
                rows = _tower(rng, n, 2)
                units.append([_tower_op("orbit", rows)])
                units.append([_tower_op("twist", rows), _tower_op("cotwist", rows)])
        units.append([_tower_op("orbit", _tower(rng, 9, 2), error="stage_too_large")])
        rounds.append(_flatten(rng, units))
    return rounds


# -- census -----------------------------------------------------------------
# The stage-3 box of radius 4 (729 towers, more than the 512-entry ring
# cache) in seeded order, eight cheap per-tower commands each, plus per
# round roots at n = 4 and twice at n = 5 (entries in [-1, 1], whose cost
# varies less), cone --scan-bases at n = 6..9 and classes c|p at n = 8..11.

CENSUS_ROUNDS = 32
CENSUS_TOWERS_PER_ROUND = 24
CENSUS_BOX_RADIUS = 4
CENSUS_SCAN_RADIUS = 2
STAGE3_COMMANDS = ("reductive", "roots", "fano", "classify3", "cohomology",
                   "classes c", "classes p", "classes w2")


def _stage3_ops(a: int, b: int, c: int) -> list[Op]:
    rows = stage3_rows(a, b, c)
    abc = (str(a), str(b), str(c))
    ops = []
    for command in STAGE3_COMMANDS:
        if command == "classify3":
            ops.append(Op(("classify3", *abc), "classify3", 3, rows))
        else:
            words = tuple(command.split())
            ops.append(Op((*words, "--stage3", *abc), words[0], 3, rows))
    return ops


def census(rng: random.Random) -> list[list[Op]]:
    r = CENSUS_BOX_RADIUS
    box = [(a, b, c) for a in range(-r, r + 1) for b in range(-r, r + 1)
           for c in range(-r, r + 1)]
    order: list[tuple[int, int, int]] = []
    rounds = []
    for index in range(CENSUS_ROUNDS):
        extras = [_tower_op("roots", _tower(rng, n, 2 if n == 4 else 1)) for n in (4, 5, 5)]
        extras += [Op(("cone", "--scan-bases", "--matrix", _matrix_arg(rows)), "cone",
                       n, rows)
                   for n in (6, 7, 8, 9) for rows in [_tower(rng, n, 2)]]
        extras += [Op(("classes", rng.choice("cp"), "--matrix", _matrix_arg(rows)),
                      "classes", n, rows)
                   for n in (8, 9, 10, 11) for rows in [_tower(rng, n, 2)]]
        if index == 1:
            extras.append(Op(("scan", "--radius", str(CENSUS_SCAN_RADIUS)), "scan", 3,
                             (CENSUS_SCAN_RADIUS,)))
        units = [[op] for op in extras]
        for _ in range(CENSUS_TOWERS_PER_ROUND):
            if not order:
                order = box[:]
                rng.shuffle(order)
            units.append(_stage3_ops(*order.pop()))
        rounds.append(_flatten(rng, units))
    return rounds


# -- analysis ---------------------------------------------------------------
# Admissible-class computations.  Per round: csc-family at every m = 1..8
# with a small-denominator r+ (q <= 10), twice at m = 7 and 8, and at
# m = k and k + 4 (k cycling 1..4 over rounds) with a larger denominator
# (11 <= q <= 100): 2 of 12 csc ops have a large denominator.  Cost
# depends strongly on where r+ lies in (0, 1) (above about 1/2 a second
# solution family appears; m = 8 costs seven times more at 9/10 than at
# 1/3), so draws are stratified to keep runs alike: each m walks the 31
# small-denominator rationals, sorted, SMALL_STRIDE steps at a time from
# a seeded start (19/31 is close to 1/phi, so any run of consecutive
# draws spreads evenly over (0, 1)), and the large-denominator draws
# cycle through the quarters of (0, 1), each pair of m once per quarter
# in 16 rounds.  Also eight
# extremal-poly, ten cproj (one trajectory, one with |alpha| >= |beta|),
# two ak-solve, and twice symplectic-count followed by compat-enumerate
# on the same weights.  These cheap ops are two thirds of the round, so
# the median latency falls inside the extremal-poly/cproj class rather
# than on its boundary with csc-family.

ANALYSIS_ROUNDS = 24
CSC_MAX_M = 8
SMALL_RPLUS = sorted({Fraction(p, q) for q in range(2, 11) for p in range(1, q)})
SMALL_STRIDE = 19
TRAJECTORY_STEPS = 8
SWEEP_M, SWEEP_STEP = 2, Fraction(1, 10)


SMALL_DRAWS = {m: 2 if m >= 7 else 1 for m in range(1, CSC_MAX_M + 1)}


def _large_rplus(rng: random.Random, quarter: int) -> Fraction:
    while True:
        q = rng.randint(11, 100)
        value = Fraction(rng.randint(1, q - 1), q)
        if value.denominator > 10 and quarter <= 4 * value < quarter + 1:
            return value


def _csc_op(m: int, rp: Fraction) -> Op:
    return Op(("csc-family", "--m", str(m), "--rplus", str(rp)), "csc", m, (m, rp))


def _admissible_json(components) -> str:
    return json.dumps({"components": [{"d": d, "s": str(s), "r": str(r)}
                                      for d, s, r in components]}, separators=(",", ":"))


def _small_fraction(rng: random.Random, lo: int, hi: int, max_den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def _extremal_op(rng: random.Random) -> Op:
    components = []
    for _ in range(rng.randint(2, 3)):
        q = rng.randint(2, 9)
        r = Fraction(rng.choice((-1, 1)) * rng.randint(1, q - 1), q)
        components.append((rng.randint(1, 2), _small_fraction(rng, -6, 6, 3), r))
    return Op(("extremal-poly", "--data", _admissible_json(components)), "extremal",
              data=tuple(components))


def _ks_components(r: Fraction):
    """The bidegree (1,-1) CSC family, whose profile has degree <= dim + 1."""
    return ((1, Fraction(2), r), (1, Fraction(-2), r - 1))


def _cproj_ops(rng: random.Random) -> list[Op]:
    ops = []
    for variant in ("plain",) * 8 + ("trajectory", "singular"):
        q = rng.randint(2, 9)
        r = Fraction(rng.randint(1, q - 1), q)
        components = _ks_components(r)
        q2 = rng.randint(2, 9)
        if variant == "singular":
            alpha = rng.choice((-1, 1)) * Fraction(q2 + rng.randint(0, q2), q2)
        else:
            # every parameter on the path t * alpha must keep each r_a away
            # from zero, so no t in (0, 1] may give t * alpha = r_a
            steps = range(1, TRAJECTORY_STEPS + 1)
            alpha = r
            while any(Fraction(k, TRAJECTORY_STEPS) * alpha in (r, r - 1) for k in steps):
                alpha = Fraction(rng.randint(1 - q2, q2 - 1), q2)
        argv = ("cproj", "--data", _admissible_json(components), f"--alpha={alpha}")
        if variant == "trajectory":
            argv += ("--trajectory", str(TRAJECTORY_STEPS))
            ops.append(Op(argv, "trajectory", 0, (components, alpha)))
        elif variant == "singular":
            ops.append(Op(argv, "cproj", 0, (components, alpha), "singular_parameters"))
        else:
            ops.append(Op(argv, "cproj", 0, (components, alpha)))
    return ops


def _ak_op(rng: random.Random) -> Op:
    while True:
        p0 = _small_fraction(rng, 1, 12, 4)
        p1, p2 = rng.randint(-3, 6), rng.randint(-3, 6)
        if p0 + p1 > 0 and p0 + p2 > 0 and p0 + p1 + p2 > 0:
            return Op(("ak-solve", str(p0), str(p1), str(p2)), "ak", 0, (p0, p1, p2))


def _symplectic_ops(rng: random.Random) -> list[Op]:
    k3 = rng.randint(1, 3)
    k2 = k3 + rng.randint(0, 8)
    k1 = k2 + rng.randint(0, 25)
    weights = (str(k1), str(k2), str(k3))
    return [Op(("symplectic-count", *weights), "scount", 0, (k1, k2, k3)),
            Op(("compat-enumerate", *weights), "cenum", 0, (k1, k2, k3))]


def analysis(rng: random.Random) -> list[list[Op]]:
    walks = {m: rng.randrange(len(SMALL_RPLUS)) for m in range(1, CSC_MAX_M + 1)}
    rounds = []
    for index in range(ANALYSIS_ROUNDS):
        units = []
        for m in walks:
            for _ in range(SMALL_DRAWS[m]):
                units.append([_csc_op(m, SMALL_RPLUS[walks[m]])])
                walks[m] = (walks[m] + SMALL_STRIDE) % len(SMALL_RPLUS)
        k = index % 4 + 1
        quarter = (index + index // 4) % 4
        units += [[_csc_op(m, _large_rplus(rng, quarter))] for m in (k, k + 4)]
        units += [[_extremal_op(rng)] for _ in range(8)]
        units += [[op] for op in _cproj_ops(rng)]
        units += [[_ak_op(rng)] for _ in range(2)]
        units += [_symplectic_ops(rng) for _ in range(2)]
        if index == 1:
            units.append([Op(("csc-family", "--m", str(SWEEP_M), "--sweep", str(SWEEP_STEP)),
                             "sweep", SWEEP_M, (SWEEP_M, SWEEP_STEP))])
        rounds.append(_flatten(rng, units))
    return rounds


WORKLOADS = {"groupoid": groupoid, "census": census, "analysis": analysis}

# How strongly each workload's op times follow the reference kernel when the
# host's speed changes (speed.py): the slope of log op time against log
# kernel time.  Orbit scans, root solves and CLI parsing are interpreter-
# bound like the kernel.  The csc-family solves spend much of their time in
# large-integer arithmetic inside Fraction, which slows less: slopes of 0.5
# (m = 8, r+ = 9/10) to 0.9 were measured on a 2-core x86 host, and 0.8
# gave the analysis runs their smallest spread.
SPEED_EXPONENT = {"groupoid": 1.0, "census": 1.0, "analysis": 0.8}


def generate(name: str, seed: int) -> list[list[Op]]:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
