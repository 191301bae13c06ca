"""A traced run of real commands records spans in every library layer.

The benchmark tracer replaces module attributes by name, so a command
reaches it only if `bott.cli` looks the library call up when the command
runs.  A dispatch table bound at import time would bypass the hooks and
leave a layer without spans; this test fails then.  benchmark/tracer.py
is loaded from its file, as in test_tracer_hooks.py, and every hook is
removed again at the end.
"""

import importlib.util
from pathlib import Path

from bott import cli

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"
KS_DATA = '{"components": [{"d":1,"s":"2","r":"2/5"},{"d":1,"s":"-2","r":"-3/5"}]}'

COMMANDS = [
    ["orbit", "--stage3", "1", "2", "3"],
    ["twist", "--stage3", "0", "1", "-1"],
    ["reductive", "--stage3", "0", "1", "-1"],
    ["classes", "c", "--stage3", "3", "-1", "2"],
    ["csc-family", "--m", "2", "--rplus", "4/5"],
    ["cproj", "--data", KS_DATA, "--alpha=-5/19", "--trajectory", "3"],
    ["ak-solve", "1", "2", "2"],
]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bott_benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_commands_reach_every_layer():
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        results = [tracer.root(i, cli.run, argv) for i, argv in enumerate(COMMANDS)]
    finally:
        tracer.uninstall()
    assert [r.exit_code for r in results] == [0] * len(COMMANDS)
    layers = set(tracer.layers)
    assert {"core", "fan", "cohomology", "admissible", "polynomials",
            "almostkahler"} <= layers
    assert tracer.layers.count("cli") == len(COMMANDS)


def test_admissible_root_calls_are_traced():
    # the integer paths still call roots_in_interval and count_roots_open
    # through bott.admissible, and refine_root through bott.polynomials; the
    # tracer names those spans by their layer, polynomials
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        csc = tracer.root(0, cli.run, ["csc-family", "--m", "3", "--rplus", "4/5"])
        csc_counts = dict(tracer.counts)
        extremal = tracer.root(1, cli.run, ["extremal-poly", "--data", KS_DATA])
    finally:
        tracer.uninstall()
    assert (csc.exit_code, extremal.exit_code) == (0, 0)
    spans = {(op, name) for op, name in zip(tracer.op_ids, tracer.names)}
    assert (0, "polynomials.roots_in_interval") in spans
    assert (1, "polynomials.count_roots_open") in spans
    # the balanced root -r_plus is listed exactly, not found by the search
    assert csc_counts["polynomials.roots_found"] == len(set(csc.payload["roots"]) - {"-4/5"}) > 0
    assert csc_counts["polynomials.bisection_steps"] > 0
