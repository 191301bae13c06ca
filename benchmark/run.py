"""Benchmark of the `bott` CLI: one closed-loop client per workload.

Run from the repository root:

    python3 benchmark/run.py --workload census --seed 3 --seconds 30 --trace 0

Workloads (see workloads.py): `groupoid`, `census`, `analysis`.  With
`--trace 0` the run reports the end-to-end metrics listed in
BENCHMARK.json; with `--trace 1` it reports the per-layer metrics from a
traced run, whose spans and report are written under `.bench_out/`.
Either way it prints every metric by name and unit, then, as its last
line, one JSON object {"correct", "attempted", "failed", "metrics"}.

`setup_s` is the time from launching a fresh workload interpreter until
it is ready to send the first op (importing bott.cli and generating the
inputs), the median over SETUP_LAUNCHES set-up-only launches.  Every time
is reported in reference seconds, which take out the changes in machine
speed that a shared host shows from one second and one minute to the
next: op times are scaled by a stdlib kernel timed between ops
(speed.py), and each set-up by a reference launch before and after it,
an interpreter that imports a fixed set of stdlib modules
(REFERENCE_LAUNCH, NOMINAL_LAUNCH_S at nominal speed).

    python3 benchmark/run.py --record-digests

re-records benchmark/digests.json, the output digests of every op at the
default seed, against which later runs at that seed are checked.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import NOMINAL_S
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_LAUNCHES = 11
REFERENCE_LAUNCH = ["-c", "import argparse, fractions, itertools, json, math, statistics; "
                          "print('READY', flush=True)"]
NOMINAL_LAUNCH_S = 0.065
TIMEOUT_S = 170


def _run_worker(extra: list[str]) -> tuple[float, dict | None]:
    """Start a worker; return its set-up wall time and its RESULT (None if none)."""
    return _run([str(WORKER), *extra])


def _run(args: list[str]) -> tuple[float, dict | None]:
    """Run the interpreter on `args` until it exits; return the time until
    it printed READY, and its RESULT line (None if none)."""
    env = dict(os.environ)
    env.pop("BOTT_CONFIG", None)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        if ready.strip() != "READY":
            raise RuntimeError(f"{args[0]}: process failed during set-up")
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    lines = [line for line in out.splitlines() if line.startswith("RESULT ")]
    return setup, json.loads(lines[-1][len("RESULT "):]) if lines else None


def _setup_times(common: list[str]) -> list[float]:
    """Set-up-only launches in reference seconds, each scaled by the mean of
    the reference launches just before and after it."""
    reference = [_run(REFERENCE_LAUNCH)[0]]
    setups = []
    for _ in range(SETUP_LAUNCHES):
        setup = _run_worker(common + ["--setup-only"])[0]
        reference.append(_run(REFERENCE_LAUNCH)[0])
        setups.append(setup * NOMINAL_LAUNCH_S / statistics.fmean(reference[-2:]))
    return setups


def _record_digests() -> None:
    digests = {}
    for name in WORKLOADS:
        _, digests[name] = _run_worker(["--workload", name, "--seed", str(DEFAULT_SEED),
                                        "--record"])
        print(f"{name}: {len(digests[name])} ops recorded")
    (HERE / "digests.json").write_text(json.dumps(digests, indent=0) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "bott" / "cli.py").is_file():
        print("benchmark: no bott sources under src/ in this checkout", file=sys.stderr)
        return 2
    if args.record_digests:
        _record_digests()
        return 0
    if not args.workload:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = _setup_times(common)
    _, res = _run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    if res is None:
        raise RuntimeError("workload process printed no result")
    res["setup_s"] = statistics.median(setups)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, {res['ops']} ops in {res['raw_op_seconds']:.2f} s "
          f"of wall op time, {res['op_seconds']:.2f} s in reference seconds")
    print(f"  reference kernel: mean {res['kernel_ms']:.3f} ms over "
          f"{res['speed_samples']} samples between ops (nominal "
          f"{1000 * NOMINAL_S:.3f} ms); times below are in reference seconds")
    print(f"  setup_s      {res['setup_s']:.4f} s   (median of {len(setups)} launches)")
    print(f"  ops_per_s    {res['ops_per_s']:.3f} 1/s")
    print(f"  op_p50_ms    {res['op_p50_ms']:.3f} ms")
    print(f"  op_tail_ms   {res['op_tail_ms']:.3f} ms  (p{res['tail_percentile']:.2f}, "
          f"{res['tail_beyond']} of {res['ops']} samples beyond)")
    print(f"  fail_ratio   {res['fail_ratio']:.6f} ratio  ({res['failed']} of {res['ops']})")
    print(f"  peak_rss_mb  {res['peak_rss_mb']:.2f} MB")
    for index, reason in res["failures"]:
        print(f"  FAILED op {index}: {reason}")

    if args.trace:
        wanted = spec["per_layer"]
        values = res["layers"]
        print("layer shares of op time (self time): " + ", ".join(
            f"{k} {v:.1%}" for k, v in res["layer_shares"].items()))
        print(f"input properties: {json.dumps(res['inputs'])}")
        print(f"spans and report written to {res['trace_file']}")
    else:
        wanted = spec["end_to_end"]
        values = res
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    if args.trace:
        for name, metric in metrics.items():
            print(f"  {name:34} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["ops"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        sys.exit(1)
