"""Tests for the benchmark itself.  Run from the repository root:

    python -m pytest benchmark
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

cli = worker.import_cli()
import checks  # noqa: E402  (needs bott on the path)
import speed  # noqa: E402
import tracer  # noqa: E402
from workloads import Op, generate, stage3_rows  # noqa: E402


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_round_reports_every_metric(workload, trace):
    out = _bench(["--workload", workload, "--seed", "5", "--seconds", "0",
                  "--trace", str(trace)])
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(report["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = report["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"  {m['name']} " in out.stdout      # printed by name with its unit
    if not trace:
        assert "  fail_ratio " in out.stdout
        assert all(report["metrics"][m["name"]]["value"] > 0 for m in wanted)


def _orbit_ops():
    rows9 = tuple(tuple(1 if i == j else 0 for j in range(9)) for i in range(9))
    return [Op(("orbit", "--stage3", "1", "2", "3"), "orbit", 3, stage3_rows(1, 2, 3)),
            Op(("orbit", "--matrix", json.dumps({"n": 9, "rows": rows9})), "orbit", 9,
               rows9, "stage_too_large")]


def _fail_ratio(call, checker=None):
    loop = worker.timed_loop([_orbit_ops()], 0, call, checker or checks.Checker())
    return worker.end_to_end(loop, loop.scales())["fail_ratio"]


def test_correct_outputs_do_not_fail():
    assert _fail_ratio(lambda argv: worker.invoke(cli, argv)) == 0


def test_corrupted_output_counts_as_failure():
    def corrupt(argv):
        code, payload, text = worker.invoke(cli, argv)
        if code == 0:
            payload = dict(payload, canonical=payload["representatives"][-1])
        return code, payload, text

    assert _fail_ratio(corrupt) == 0.5


def test_wrong_error_code_counts_as_failure():
    def wrong_code(argv):
        code, payload, text = worker.invoke(cli, argv)
        if code == 1:
            payload = dict(payload, error="invalid_input")
        return code, payload, text

    assert _fail_ratio(wrong_code) == 0.5


def test_digest_mismatch_counts_as_failure():
    call = lambda argv: worker.invoke(cli, argv)  # noqa: E731
    expected = [checks.digest(*worker.invoke(cli, op.argv)[::2]) for op in _orbit_ops()]
    assert _fail_ratio(call, checks.Checker(expected)) == 0
    assert _fail_ratio(call, checks.Checker([expected[0], "0" * 12])) == 0.5


def test_generation_depends_only_on_the_seed():
    assert generate("analysis", 7) == generate("analysis", 7)
    assert generate("analysis", 7) != generate("analysis", 8)


def test_tracer_restores_attributes_and_computes_self_time():
    original = cli.equivalence_orbit
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.equivalence_orbit is not original
        t.root(0, worker.invoke, cli, ("orbit", "--stage3", "1", "2", "3"))
    finally:
        t.uninstall()
    assert cli.equivalence_orbit is original
    assert t.names[:2] == ["cli.run", "core.equivalence_orbit"] and t.parents[1] == 0
    self_s, calls = t.self_times([1.0])
    root = t.ends[0] - t.starts[0]
    assert calls["cli"] == 1 and calls["core"] == 1
    assert self_s["cli"] + self_s["core"] == pytest.approx(root)


def test_speed_scale_uses_the_samples_around_an_op():
    track = speed.SpeedTrack()
    # kernel took twice the nominal time for the first 10 s, then the nominal time
    track.times = [0.5 * i for i in range(40)]
    track.seconds = [2 * speed.NOMINAL_S if t < 10 else speed.NOMINAL_S for t in track.times]
    assert track.scale(2.0, 3.0) == pytest.approx(0.5)
    assert track.scale(15.0, 15.5) == pytest.approx(1.0)
    # far past the last sample: the nearest MIN_SAMPLES decide
    assert track.scale(100.0, 101.0) == pytest.approx(1.0)
    track.exponent = 0.5
    assert track.scale(2.0, 3.0) == pytest.approx(0.5 ** 0.5)


def test_reported_times_are_wall_times_scaled():
    loop = worker.timed_loop([_orbit_ops()], 0, lambda argv: worker.invoke(cli, argv))
    assert len(loop.speed.seconds) >= 2 * speed.MIN_SAMPLES
    scales = [2.0] * len(loop.latencies)
    result = worker.end_to_end(loop, scales)
    assert result["op_seconds"] == pytest.approx(2 * sum(loop.latencies))
    assert result["raw_op_seconds"] == pytest.approx(sum(loop.latencies))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(["--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"],
                 cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
