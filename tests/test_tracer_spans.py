"""A traced run of real commands records spans in every library layer.

The benchmark tracer replaces module attributes by name, so a command
reaches it only if `bott.cli` looks the library call up when the command
runs.  A command table bound at import time would bypass the hooks and
leave a command without its spans; these tests fail then.
benchmark/tracer.py is loaded from its file, as in test_tracer_hooks.py,
and every hook is removed again at the end.
"""

import importlib.util
from pathlib import Path

import pytest

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


# one command line per `bott` command (two for cone), and the spans of the
# hooks its compute calls directly
COMMAND_SPANS = [
    (["twist", "--stage3", "0", "1", "-1"], {"core.twist"}),
    (["cotwist", "--stage3", "1", "2", "0"], {"core.cotwist"}),
    (["orbit", "--stage3", "1", "2", "3"], {"core.equivalence_orbit"}),
    (["cohomology", "--stage3", "4", "-7", "9"],
     {"cohomology.ring", "cohomology.alpha", "cohomology.y"}),
    (["reductive", "--stage3", "0", "1", "-1"], {"fan.is_reductive"}),
    (["roots", "--stage3", "0", "1", "-1"], {"fan.demazure_roots", "fan.is_symmetric"}),
    (["fano", "--stage3", "0", "1", "1"], {"fan.is_fano"}),
    (["classes", "c", "--stage3", "3", "-1", "2"], {"cohomology.ring", "cohomology.chern_total"}),
    (["classify3", "0", "24", "1"], {"topology3.stage3_invariants"}),
    (["twist1-diffeo", "--k", "1", "2", "3", "--kprime", "-1", "-2", "3"],
     {"topology3.twist1_diffeomorphic"}),
    (["cone", "--stage3", "-1", "2", "-3", "--basis", "uvu"], {"fan.kahler_cone"}),
    (["cone", "--stage3", "0", "0", "0", "--scan-bases"], {"fan.kahler_cone_scan"}),
    (["symplectic-count", "11", "6", "1"], {"symplectic.count_compatible"}),
    (["compat-enumerate", "5", "3", "1"], {"symplectic.enumerate_compatible"}),
    (["extremal-poly", "--data", KS_DATA], {"admissible.extremal_polynomial", "admissible.is_csc",
                                            "admissible.is_positive_on_interval"}),
    (["csc-family", "--m", "2", "--rplus", "1/3"], {"admissible.csc_family_solve"}),
    (["cproj", "--data", KS_DATA, "--alpha", "1/3"], {"admissible.cproj_transform"}),
    (["ak-solve", "1", "2", "2"], {"almostkahler.solve_ak", "almostkahler.system_determinant",
                                   "almostkahler.check_positivity",
                                   "almostkahler.check_integrability"}),
    (["scan", "--radius", "0"], {"core.twist", "core.cotwist", "fan.is_reductive", "fan.is_fano",
                                 "topology3.stage3_invariants", "cohomology.topological_twist"}),
]


def test_every_command_has_its_spans():
    assert {argv[0] for argv, _ in COMMAND_SPANS} == set(cli.COMMANDS)


@pytest.mark.parametrize("argv, spans", COMMAND_SPANS, ids=[argv[0] for argv, _ in COMMAND_SPANS])
def test_command_reaches_its_hooks(argv, spans):
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        result = tracer.root(0, cli.run, argv)
    finally:
        tracer.uninstall()
    assert result.exit_code == 0
    # direct children of the op's `cli` root span
    assert spans <= {name for name, parent in zip(tracer.names, tracer.parents) if parent == 0}


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
