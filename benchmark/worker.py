"""The workload process: one client driving `bott.cli.run` in a closed loop.

Started by run.py in a fresh interpreter.  It imports the package from
the checkout's `src`, generates the seeded op list, prints READY (the end
of set-up), then sends one op at a time, the next only after the
previous one returned, and checks each output.  It stops at the first
round boundary after `--seconds` of op time, in reference seconds, and
prints one RESULT line of JSON.

Latency is wall-clock time for `bott.cli.run` plus rendering its output
the way `bott.cli.main` prints it, converted to reference seconds by the
reference kernel sampled between ops (speed.py).  Output checks and
kernel samples run between ops, outside the timed region.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from speed import MIN_SAMPLES, SpeedTrack

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"
OUT_DIR = ROOT / ".bench_out"
TAIL_BEYOND = 10        # samples that must lie beyond the tail percentile


def import_cli():
    """Import bott.cli from this checkout's src, refusing any other copy."""
    os.environ.pop("BOTT_CONFIG", None)
    sys.path.insert(0, str(ROOT / "src"))
    import bott.cli
    if Path(bott.cli.__file__).resolve().parent != ROOT / "src" / "bott":
        raise ImportError(f"bott imported from {bott.cli.__file__}, not from {ROOT}/src")
    return bott.cli


def invoke(cli, argv):
    """One op: run the command and render its output as `bott` prints it."""
    result = cli.run(list(argv))
    if result.exit_code:
        text = json.dumps(result.payload)
    elif result.text is not None:
        text = result.text
    else:
        text = json.dumps(result.payload, indent=2)
    return result.exit_code, result.payload, text


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


class Loop(NamedTuple):
    latencies: list[float]            # raw wall seconds
    starts: list[float]
    ops: list
    failures: list[tuple[int, str]]   # (op index, reason)
    speed: SpeedTrack

    def scales(self) -> list[float]:
        """Per op, the factor that turns its wall seconds into reference seconds."""
        return [self.speed.scale(start, start + latency)
                for start, latency in zip(self.starts, self.latencies)]


def timed_loop(rounds, seconds: float, call, checker=None, trace=None,
               exponent: float = 1.0) -> Loop:
    """Run whole rounds until `seconds` of op time are spent.

    Op time is counted in reference seconds, at the scale of the latest
    kernel samples, so a slow spell of the host does not change how many
    rounds a run holds.  `call(argv)` returns (exit code, payload, text);
    `exponent` is the workload's SpeedTrack exponent.
    """
    loop = Loop([], [], [], [], SpeedTrack(exponent))
    for _ in range(MIN_SAMPLES):
        loop.speed.sample()
    spent = 0.0
    r = 0
    while r == 0 or spent < seconds:
        for op in rounds[r % len(rounds)]:
            index = len(loop.ops)
            loop.ops.append(op)
            start = time.perf_counter()
            try:
                out = trace.root(index, call, op.argv) if trace else call(op.argv)
                reason = None
            except Exception as exc:  # a crashing op is a failed op; keep measuring
                reason = f"{type(exc).__name__}: {exc}"
            loop.latencies.append(time.perf_counter() - start)
            loop.starts.append(start)
            if reason is None and checker:
                reason = checker.check(index, op, *out)
            if reason:
                loop.failures.append((index, reason))
            loop.speed.maybe_sample()
            spent += loop.latencies[-1] * loop.speed.recent_scale()
        r += 1
    for _ in range(MIN_SAMPLES):
        loop.speed.sample()
    return loop


def end_to_end(loop: Loop, scales: list[float]) -> dict:
    """Metrics of the loop, in reference seconds (see speed.py)."""
    latencies = [lat * scale for lat, scale in zip(loop.latencies, scales)]
    value, percentile, beyond = tail(latencies)
    n = len(latencies)
    return {
        "ops": n,
        "op_seconds": sum(latencies),
        "raw_op_seconds": sum(loop.latencies),
        "speed_samples": len(loop.speed.seconds),
        "kernel_ms": 1000 * statistics.fmean(loop.speed.seconds),
        "ops_per_s": n / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * value,
        "tail_percentile": percentile,
        "tail_beyond": beyond,
        "failed": len(loop.failures),
        "fail_ratio": len(loop.failures) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# -- traced run -----------------------------------------------------------

ROOTS_SPANS = {"fan.demazure_roots", "fan.is_reductive"}
CONE_SPANS = {"fan.kahler_cone", "fan.kahler_cone_scan", "fan.is_fano"}
CLASS_SPANS = {"cohomology.chern_total", "cohomology.pontrjagin_total",
               "cohomology.stiefel_whitney_2"}
LAYERS = ("cli", "core", "fan", "cohomology", "topology3", "symplectic",
          "admissible", "polynomials", "almostkahler")


def layer_metrics(trace, ops, checker, cache_info, scales) -> dict:
    self_s, calls = trace.self_times(scales)

    def span(names, size=None):
        return trace.span_seconds(names, scales, size)

    pairs = sum(2 ** op.size * math.factorial(op.size) for op in ops
                if op.kind == "orbit" and not op.error)
    members = checker.counts["core.orbit_members"]
    m = {
        "cli.self_s": self_s["cli"], "cli.calls": calls["cli"],
        "core.self_s": self_s["core"], "core.calls": calls["core"],
        "core.orbit_members": members,
        "core.pairs_full_scan": pairs,
        "core.members_per_pair": members / pairs if pairs else 0.0,
        "fan.self_s": self_s["fan"], "fan.calls": calls["fan"],
        "fan.cone_s": span(CONE_SPANS),
        "fan.vertex_systems": trace.counts["fan.vertex_systems"],
        "fan.roots_found": checker.counts["fan.roots_found"],
        "cohomology.self_s": self_s["cohomology"], "cohomology.calls": calls["cohomology"],
        "cohomology.ring_cache_hit_ratio":
            cache_info.hits / (cache_info.hits + cache_info.misses)
            if cache_info.hits + cache_info.misses else 0.0,
        "topology3.self_s": self_s["topology3"],
        "symplectic.self_s": self_s["symplectic"],
        "admissible.self_s": self_s["admissible"], "admissible.calls": calls["admissible"],
        "polynomials.isolate_s": span({"polynomials.roots_in_interval"}),
        "polynomials.interpolate_s": span({"polynomials.lagrange_interpolate"}),
        "polynomials.count_roots_s": span({"polynomials.count_roots_open"}),
        "polynomials.roots_found": trace.counts["polynomials.roots_found"],
        "polynomials.bisection_steps": trace.counts["polynomials.bisection_steps"],
        "almostkahler.solve_s": span({"almostkahler.solve_ak"}),
        "almostkahler.positivity_s": span({"almostkahler.check_positivity"}),
        "almostkahler.integrability_s": span({"almostkahler.check_integrability"}),
        "almostkahler.calls": calls["almostkahler"],
    }
    for n in (3, 4, 5, 6):
        m[f"core.orbit_s.n{n}"] = span({"core.equivalence_orbit"}, n)
    for n in (3, 4, 5):
        m[f"fan.roots_s.n{n}"] = span(ROOTS_SPANS, n)
    for n in (8, 9, 10, 11):
        m[f"cohomology.classes_s.n{n}"] = span(CLASS_SPANS, n)
    for k in range(1, 9):
        m[f"admissible.csc_s.m{k}"] = span({"admissible.csc_family_solve"}, k)
    shares = {layer: self_s[layer] / sum(self_s.values()) for layer in LAYERS}
    return m, shares


def input_properties(name: str, ops) -> dict:
    """Properties of the ops a run executed that an optimisation may depend on."""
    props: dict = {"sizes": dict(sorted(Counter(
        f"{'m' if op.kind in ('csc', 'sweep') else 'n'}{op.size}" for op in ops
        if op.size).items()))}
    if name == "census":
        from bott.core import BottMatrix, canonical_form
        seen, repeated, towers = set(), 0, set()
        for op in ops:
            if op.kind == "classify3" and op.data not in towers:
                towers.add(op.data)
                canon = canonical_form(BottMatrix(op.data))
                repeated += canon in seen
                seen.add(canon)
        props["stage3_towers"] = len(towers)
        props["distinct_ring_towers"] = len({op.data for op in ops
                                             if op.kind in ("cohomology", "classes")})
        props["orbit_seen_before_share"] = repeated / len(towers)
    if name == "analysis":
        dens = [op.data[1].denominator for op in ops if op.kind == "csc"]
        props["rplus_den_le_10_share"] = sum(d <= 10 for d in dens) / len(dens)
        props["rplus_den_11_100_share"] = sum(d > 10 for d in dens) / len(dens)
    return props


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="run every op once and print the output digests")
    args = parser.parse_args(argv)

    cli = import_cli()
    import checks
    import workloads
    rounds = workloads.generate(args.workload, args.seed)
    exponent = workloads.SPEED_EXPONENT[args.workload]
    print("READY", flush=True)
    if args.setup_only:
        return 0

    call = functools.partial(invoke, cli)
    if args.record:
        outs = [call(op.argv) for rnd in rounds for op in rnd]
        print("RESULT " + json.dumps([checks.digest(code, text) for code, _, text in outs]))
        return 0

    digests = None
    if args.seed == workloads.DEFAULT_SEED and DIGESTS.exists():
        digests = json.loads(DIGESTS.read_text())[args.workload]
    checker = checks.Checker(digests)
    if not args.trace:
        loop = timed_loop(rounds, args.seconds, call, checker, exponent=exponent)
        result = end_to_end(loop, loop.scales())
    else:
        import tracer
        ring = sys.modules["bott.cohomology"].ring
        trace = tracer.Tracer()
        trace.install()
        try:
            loop = timed_loop(rounds, args.seconds, call, checker, trace, exponent)
        finally:
            trace.uninstall()
        cache_info = ring.cache_info()
        ring.cache_clear()
        # the same ops again, untraced, from the same cache state and with the
        # same checks between ops (their garbage shifts when collections run)
        untraced = timed_loop([loop.ops], 0, call, checks.Checker(), exponent=exponent)
        scales = loop.scales()
        result = end_to_end(loop, scales)
        result["layers"], result["layer_shares"] = layer_metrics(trace, loop.ops, checker,
                                                                 cache_info, scales)
        result["layers"]["trace.overhead_ratio"] = (
            result["op_seconds"] / end_to_end(untraced, untraced.scales())["op_seconds"])
        result["inputs"] = input_properties(args.workload, loop.ops)
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        out.write_text(json.dumps({**result, "span_columns": ["op", "name", "parent",
                                                              "size", "start", "end"],
                                   "spans": trace.rows()}))
        result["trace_file"] = str(out.relative_to(ROOT))
    result["failures"] = loop.failures[:20]
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
