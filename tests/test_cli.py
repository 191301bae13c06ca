import contextlib
import csv
import io
import json
import re
import runpy
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bott import admissible as adm
from bott import cli
from bott import cohomology as coh
from bott import symplectic as sp
from bott.admissible import AdmissibleData
from bott.cli import main, run
from bott.core import ORBIT_STAGE_BOUND, BottMatrix
from bott.fan import ROOT_SEARCH_BOUND
from conftest import class_from_json, seeded_towers

IDENTITY9 = json.dumps(BottMatrix.identity(9).to_json())   # one stage past ORBIT_STAGE_BOUND
KS_DATA = '{"components": [{"d":1,"s":"2","r":"2/5"},{"d":1,"s":"-2","r":"-3/5"}]}'
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name, *argv):
    script = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(script), *argv])
    runpy.run_path(str(script), run_name="__main__")


class TestBasicCommands:
    def test_symplectic_count(self):
        result = run(["symplectic-count", "11", "6", "1"])
        assert result.exit_code == 0
        assert result.payload == {"N_B0": 16, "N_Bne0": 27, "N_B": 43}

    def test_symplectic_census_script(self, monkeypatch, capsys):
        run_script(monkeypatch, "symplectic_census.py", "11", "6", "1")
        lines = capsys.readouterr().out.splitlines()
        assert lines[:4] == ["weights: (11, 6, 1)", "  c == 0 branch: 16",
                             "  c != 0 branch: 27", "  total:         43"]
        assert len(lines) == 5 + 43

    def test_twist(self):
        assert run(["twist", "--stage3", "0", "1", "-1"]).payload == 1

    def test_cotwist(self):
        assert run(["cotwist", "--stage3", "1", "2", "0"]).payload == 1

    def test_fano(self):
        assert run(["fano", "--stage3", "0", "1", "1"]).payload is True
        assert run(["fano", "--stage3", "2", "0", "0"]).payload is False

    def test_reductive(self):
        assert run(["reductive", "--stage3", "0", "1", "-1"]).payload is True

    def test_matrix_json_input(self):
        blob = json.dumps({"n": 2, "rows": [[1, 0], [3, 1]]})
        assert run(["twist", "--matrix", blob]).payload == 1

    def test_classify3(self):
        payload = run(["classify3", "0", "24", "1"]).payload
        assert payload["p"] == 48
        assert payload["diffeo_key"]

    def test_twist1_diffeo(self):
        result = run(["twist1-diffeo", "--k", "1", "2", "3",
                      "--kprime", "-1", "-2", "3"])
        assert result.payload is True

    def test_twist1_diffeo_eleven_factors(self):
        # 11! permutations: answered in closed form, not by a scan
        k = [str(i) for i in range(1, 12)]
        assert run(["twist1-diffeo", "--k", *k, "--kprime", *k[::-1]]).payload is True
        changed = k[::-1][:-1] + ["13"]
        assert run(["twist1-diffeo", "--k", *k, "--kprime", *changed]).payload is False

    def test_orbit(self):
        payload = run(["orbit", "--stage3", "1", "2", "3"]).payload
        assert len(payload["representatives"]) == 4
        reparsed = [BottMatrix.from_json(m) for m in payload["representatives"]]
        assert BottMatrix.stage3(1, 2, 3) in reparsed
        assert BottMatrix.from_json(payload["canonical"]) == min(reparsed)

    def test_cone(self):
        payload = run(["cone", "--stage3", "-1", "2", "-3", "--basis", "uuu"]).payload
        assert payload["first_orthant"] is False
        assert payload["inequalities"][0]["coeffs"] == ["1", "0", "-2"]

    def test_inequality_json(self):
        payload = run(["cone", "--stage3", "-1", "2", "-3", "--basis", "uuu"]).payload
        assert payload["inequalities"][0] == {"coeffs": ["1", "0", "-2"], "rhs": "0",
                                              "strict": True}

    def test_cone_scan(self):
        payload = run(["cone", "--stage3", "0", "0", "0", "--scan-bases"]).payload
        assert set(payload) == {"uuu", "uuv", "uvu", "uvv"}
        assert all(entry["first_orthant"] for entry in payload.values())

    @pytest.mark.parametrize("n", range(1, 10))
    def test_cone_scan_matches_each_basis(self, n):
        # the scan builds one dict per distinct row and shares it between
        # bases; each entry is still the payload of `cone --basis` alone
        for A in seeded_towers(n, 600 + n):
            matrix = json.dumps(A.to_json())
            result = run(["cone", "--matrix", matrix, "--scan-bases"])
            assert result.text == json.dumps(result.payload, indent=2)
            assert len(result.payload) == 2 ** (n - 1)
            shared = {}
            for choice, entry in result.payload.items():
                single = run(["cone", "--matrix", matrix, "--basis", choice]).payload
                assert {"basis": choice, **entry} == single
                for ineq in entry["inequalities"]:
                    assert type(ineq) is cli._Shared
                    assert shared.setdefault(tuple(ineq["coeffs"]), ineq) is ineq

    def test_roots(self):
        payload = run(["roots", "--stage3", "0", "1", "-1"]).payload
        assert payload["reductive"] is True
        assert [1, 0, 0] in payload["roots"]

    def test_classes(self):
        payload = run(["classes", "p", "--stage3", "0", "1", "-1"]).payload
        terms = {tuple(t["monomial"]): int(t["coeff"]) for t in payload["terms"]}
        assert terms[(1, 2)] == -2
        w2 = run(["classes", "w2", "--stage3", "0", "1", "-1"]).payload
        assert w2["monomials"] == [[1], [2]]

    def test_classes_stage_bound(self):
        # c and p have up to 2^n terms; w2 is linear in n and unbounded
        assert cli.CLASSES_STAGE_BOUND == 15
        top = json.dumps(BottMatrix.identity(15).to_json())
        c = run(["classes", "c", "--matrix", top])
        assert c.exit_code == 0 and len(c.payload["terms"]) == 2 ** 15
        assert run(["classes", "p", "--matrix", top]).payload["terms"] == [
            {"monomial": [], "coeff": "1"}]
        past = json.dumps(BottMatrix.identity(16).to_json())
        for kind in "cp":
            result = run(["classes", kind, "--matrix", past])
            assert (result.exit_code, result.payload["error"]) == (1, "stage_too_large")
        assert run(["classes", "w2", "--matrix", past]).exit_code == 0

    def test_classes_entry_bits_bound(self):
        # the coefficients of c and p grow with the entries; w2 reads them mod 2
        assert cli.CLASSES_ENTRY_BITS == 64
        for top in (2 ** 64 - 1, -(2 ** 64 - 1)):
            A = BottMatrix.stage3(1, top, -top)
            for kind in "cp":
                result = run(["classes", kind, "--stage3", "1", str(top), str(-top)])
                assert result.exit_code == 0
                assert class_from_json(A, result.payload) == (
                    coh.ring(A).chern_total() if kind == "c" else coh.ring(A).pontrjagin_total())
        for past in (2 ** 64, -(2 ** 64)):
            for kind in "cp":
                result = run(["classes", kind, "--stage3", "0", "0", str(past)])
                assert (result.exit_code, result.payload["error"]) == (1, "stage_too_large")
                assert "65 bits" in result.payload["message"]
            assert run(["classes", "w2", "--stage3", "0", "0", str(past)]).exit_code == 0

    def test_class_payload_round_trip(self):
        A = BottMatrix.stage3(3, -1, 2)
        payload = run(["classes", "c", "--stage3", "3", "-1", "2"]).payload
        assert class_from_json(A, payload) == coh.ring(A).chern_total()

    def test_cohomology_payload_round_trip(self):
        A = BottMatrix.stage3(4, -7, 9)
        payload = run(["cohomology", "--stage3", "4", "-7", "9"]).payload
        R = coh.ring(A)
        for k in range(3):
            assert class_from_json(A, payload["alpha"][k]) == R.alpha(k)
            assert class_from_json(A, payload["y"][k]) == R.y(k)

    def test_ring_commands_share_one_ring(self):
        coh.ring.cache_clear()
        for words in (["cohomology"], ["classes", "c"], ["classes", "p"], ["classes", "w2"]):
            assert run([*words, "--stage3", "2", "-1", "3"]).exit_code == 0
        info = coh.ring.cache_info()
        assert (info.hits, info.misses) == (3, 1)


class TestAdmissibleCommands:
    def test_extremal_poly(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(KS_DATA, encoding="utf-8")
        payload = run(["extremal-poly", "--data", str(path)]).payload
        assert payload["csc"] is True
        assert payload["positive"] is True
        data = AdmissibleData.from_json(payload["data"])
        assert data.r_list() == (Fraction(2, 5), Fraction(-3, 5))

    def test_csc_family_single(self):
        payload = run(["csc-family", "--m", "1", "--rplus", "2/5"]).payload
        assert payload["roots"] == ["-3/5", "-2/5"]

    def test_csc_family_sweep_csv(self):
        result = run(["csc-family", "--m", "1", "--sweep", "1/4", "--csv"])
        lines = result.text.strip().splitlines()
        assert lines[0] == "m,r_plus,r_minus"
        rows = [line.split(",") for line in lines[1:]]
        # two straight segments: r- = -r+ and r- = r+ - 1
        for m, rp, rm in rows:
            rp, rm = float(rp), float(rm)
            assert abs(rm + rp) < 1e-9 or abs(rm - (rp - 1)) < 1e-9

    @pytest.mark.parametrize("step", ["0", "1", "2"])
    def test_sweep_step_out_of_range(self, step):
        # a zero step used to loop forever, a step >= 1 to print an empty CSV
        result = run(["csc-family", "--m", "1", "--sweep", step])
        assert result.exit_code == 1
        assert result.payload["error"] == "invalid_input"

    @pytest.mark.parametrize("argv", [
        ["--m", "2", "--rplus", "1"], ["--m", "2", "--rplus", "0"],
        ["--m", "0", "--rplus", "1/2"], ["--m", "-1", "--sweep", "1/4"],
        ["--m", "2", "--rplus", "1/2", "--tolerance", "0"],
        ["--m", "2", "--sweep", "1/4", "--tolerance", "0"],
    ])
    def test_csc_family_out_of_range(self, argv):
        result = run(["csc-family", *argv])
        assert result.exit_code == 1
        assert result.payload["error"] == "invalid_input"

    def test_explicit_tolerance_used(self):
        # the searched second-family root moves with the tolerance; the
        # balanced root -r_plus is exact at every tolerance
        coarse = run(["csc-family", "--m", "2", "--rplus", "4/5", "--tolerance", "1/4"])
        fine = run(["csc-family", "--m", "2", "--rplus", "4/5"])
        assert len(coarse.payload["roots"]) == len(fine.payload["roots"]) == 2
        (c,), (f,) = ([r for r in result.payload["roots"] if r != "-4/5"]
                      for result in (coarse, fine))
        assert c != f and abs(Fraction(c) - Fraction(f)) <= Fraction(1, 4)

    def test_coarse_tolerance_keeps_balanced_root_exact(self):
        result = run(["csc-family", "--m", "1", "--rplus", "1/10", "--tolerance", "1"])
        assert result.payload["roots"] == ["-1/2", "-1/10"]

    def test_cproj(self):
        result = run(["cproj", "--data", KS_DATA, "--alpha=-5/19"])
        assert result.payload["r_transformed"] == ["3/5", "-2/5"]

    def test_cproj_poly_trailing_zeros_keep_degree(self):
        # degree 1, padded with zeros past the degree cap 4 of this data
        padded = run(["cproj", "--data", KS_DATA, "--alpha=-5/19", "--poly", "1,2,0,0,0,0"])
        assert padded.exit_code == 0
        short = run(["cproj", "--data", KS_DATA, "--alpha=-5/19", "--poly", "1,2"])
        assert padded.payload == short.payload

    def test_cproj_poly_is_echoed_normalized(self):
        result = run(["cproj", "--data", KS_DATA, "--alpha=-5/19", "--poly", "1,2,0,0"])
        assert result.payload["F"] == ["1", "2"]

    def test_cproj_empty_poly_refused(self):
        result = run(["cproj", "--data", KS_DATA, "--alpha=-5/19", "--poly", ""])
        assert result.exit_code == 1
        assert result.payload["error"] == "invalid_input"

    def test_cproj_trajectory(self):
        result = run(["cproj", "--data", KS_DATA, "--alpha=-5/19", "--trajectory", "10"])
        lines = result.text.strip().splitlines()
        assert lines[0] == "step,r1,r2"
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert abs(float(first[1]) - 0.4) < 1e-12
        assert abs(float(last[1]) - 0.6) < 1e-12
        assert abs(float(last[2]) + 0.4) < 1e-12

    def test_emit_plot_data_direct(self):
        text = run(["csc-family", "--m", "1", "--sweep", "1/2"]).text
        assert text.splitlines()[0] == "m,r_plus,r_minus"
        text = run(["cproj", "--data", KS_DATA, "--alpha=-5/19", "--trajectory", "4"]).text
        assert len(text.splitlines()) == 6

    def test_csv_only_payload_is_body_lines(self):
        for argv in (["csc-family", "--m", "2", "--sweep", "1/4"],
                     ["cproj", "--data", KS_DATA, "--alpha=-5/19", "--trajectory", "3"]):
            result = run(argv)
            assert result.exit_code == 0
            assert result.payload == result.text.splitlines()[1:]

    def test_cproj_csv_flag_removed(self):
        # the trajectory is always CSV and the transform always JSON
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["cproj", "--data", KS_DATA, "--alpha=-5/19", "--csv"]) == 2

    @pytest.mark.parametrize("steps", ["0", "-2"])
    def test_cproj_trajectory_must_be_positive(self, steps):
        result = run(["cproj", "--data", KS_DATA, "--alpha=-5/19", "--trajectory", steps])
        assert result.exit_code == 1
        assert result.payload["error"] == "invalid_input"
        assert result.text is None

    # a trajectory computes only the parameters of each step, so the degree
    # of F is checked once, before the first step, and each step's own
    # refusal is that of the whole transform at its alpha
    @pytest.mark.parametrize("extra, error, message", [
        (["--alpha=-5/19", "--poly=0,0,0,0,0,1"], "degree_too_high", "degree 5 exceeds cap 4"),
        (["--alpha=4/5"], "singular_parameters", "parameter collapses to zero"),
        (["--alpha=-5/19", "--beta=0"], "singular_parameters", "need |alpha| < |beta|"),
        (["--alpha=2", "--beta=3/2"], "singular_parameters", "need |alpha| < |beta|"),
    ])
    def test_cproj_trajectory_refusals(self, extra, error, message):
        result = run(["cproj", "--data", KS_DATA, *extra, "--trajectory", "4"])
        assert (result.exit_code, result.payload) == (1, {"error": error, "message": message})

    @pytest.mark.parametrize("argv", [
        ["--m", "2", "--rplus", "1/3", "--sweep", "1/4"], ["--m", "2"],
    ])
    def test_csc_family_needs_exactly_one_mode(self, argv):
        result = run(["csc-family", *argv])
        assert result.exit_code == 1
        assert result.payload == {"error": "invalid_input",
                                  "message": "provide exactly one of --rplus or --sweep"}

    def test_sweep_script_prints_cli_rows(self, monkeypatch, capsys):
        run_script(monkeypatch, "csc_family_sweep.py", "--m", "2", "--step", "1/4")
        assert capsys.readouterr().out == \
            run(["csc-family", "--m", "2", "--sweep", "1/4"]).text
        run_script(monkeypatch, "csc_family_sweep.py",
                   "--m", "1", "2", "--step", "1/4", "--second-only")
        lines = capsys.readouterr().out.splitlines()
        assert lines.count("m,r_plus,r_minus") == 1 and lines[0] == "m,r_plus,r_minus"
        assert {line.split(",")[0] for line in lines[1:]} == {"1", "2"}


class TestAkCommand:
    def test_solve(self):
        payload = run(["ak-solve", "1", "2", "2"]).payload
        assert payload["positive"] is True
        assert payload["integrable"] is False
        assert Fraction(payload["determinant"]) != 0

    def test_product(self):
        payload = run(["ak-solve", "1", "0", "0"]).payload
        assert payload["integrable"] is True
        assert payload["solution"]["A1"] == "0"


class TestScan:
    FANO3 = {(1, 0, 0), (1, 1, 1), (1, -1, -1), (-1, 0, 0), (-1, 0, 1), (-1, 0, -1)} | \
            {(0, b, c) for b in (-1, 0, 1) for c in (-1, 0, 1)}

    def test_reproduces_closed_form_criteria(self):
        rows = run(["scan", "--radius", "2"]).payload
        assert len(rows) == 125
        for row in rows:
            a, b, c = row["a"], row["b"], row["c"]
            expected = (a == 0 and b * c < 0) or (a == b == c == 0)
            assert row["reductive"] == expected
            assert row["p1"] == c * (2 * b - a * c)
            assert row["fano"] == ((a, b, c) in self.FANO3)

    def test_csv_shape(self):
        result = run(["scan", "--radius", "1", "--csv"])
        lines = result.text.strip().splitlines()
        assert lines[0].startswith("a,b,c,")
        assert len(lines) == 28

    def test_props_flag_removed(self):
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["scan", "--radius", "1", "--props", "twist", "--csv"]) == 2

    def test_negative_radius_rejected(self):
        result = run(["scan", "--radius", "-1"])
        assert result.exit_code == 1
        assert result.payload["error"] == "invalid_input"
        assert run(["scan", "--radius", "0"]).payload[0] == {
            "a": 0, "b": 0, "c": 0, "twist": 0, "cotwist": 0, "reductive": True,
            "fano": True, "p1": 0, "q_trivial": True, "topological_twist": 0}

    def test_radius_bound(self, monkeypatch):
        monkeypatch.setattr(cli, "stage3_rows", lambda radius: iter([]))
        assert run(["scan", "--radius", "7"]).exit_code == 0
        monkeypatch.undo()
        result = run(["scan", "--radius", "8"])
        assert result.exit_code == 1
        assert result.payload["error"] == "stage_too_large"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main(["scan", "--radius", "60"]) == 1
        assert json.loads(err.getvalue())["error"] == "stage_too_large"

    def test_census_script_radius_bound(self, monkeypatch, capsys):
        # the bound is checked in stage3_rows, which the script prints
        assert run(["scan", "--radius", "8"]).payload["message"] == "radius 8 exceeds bound 7"
        with pytest.raises(SystemExit) as exc:
            run_script(monkeypatch, "stage3_census.py", "--radius", "8")
        assert exc.value.code == 2
        assert "error: radius 8 exceeds bound 7" in capsys.readouterr().err

    def test_census_script_shares_scan_rows(self, monkeypatch, capsys):
        run_script(monkeypatch, "stage3_census.py", "--radius", "1")
        text = capsys.readouterr().out
        assert text.splitlines()[:2] == [
            "a,b,c,twist,cotwist,toptwist,p1,q_type,reductive,fano,ke,diffeo_key",
            "-1,-1,-1,2,2,2,3,-,False,False,NotKE,3|1|None"]
        census = list(csv.DictReader(io.StringIO(text)))
        scan = list(csv.DictReader(io.StringIO(run(["scan", "--radius", "1", "--csv"]).text)))
        assert len(census) == len(scan) == 27
        for row, scan_row in zip(census, scan):
            for column, key in [("a", "a"), ("b", "b"), ("c", "c"), ("twist", "twist"),
                                ("cotwist", "cotwist"), ("toptwist", "topological_twist"),
                                ("p1", "p1"), ("reductive", "reductive"), ("fano", "fano")]:
                assert row[column] == scan_row[key]


class TestErrors:
    def test_domain_error_exit_1(self):
        result = run(["orbit", "--matrix", IDENTITY9])
        assert result.exit_code == 1
        assert result.payload["error"] == "stage_too_large"

    def test_main_prints_error_to_stderr(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["orbit", "--matrix", IDENTITY9])
        assert code == 1
        assert json.loads(err.getvalue())["error"] == "stage_too_large"

    def test_parse_error_exit_2(self):
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["twist", "--stage3", "x", "1", "2"]) == 2

    def test_stage3_and_matrix_conflict(self):
        blob = json.dumps({"n": 3, "rows": BottMatrix.stage3(1, 2, 3).rows})
        result = run(["twist", "--stage3", "0", "0", "0", "--matrix", blob])
        assert result.exit_code == 1
        assert result.payload == {"error": "invalid_input",
                                  "message": "provide exactly one of --stage3 or --matrix"}

    @pytest.mark.parametrize("blob", ['{"n": 3}', "{}"])
    def test_matrix_needs_rows_or_stage3(self, blob):
        message = 'matrix JSON needs "rows" or "stage3"'
        assert run(["twist", "--matrix", blob]).payload == {"error": "invalid_input",
                                                            "message": message}
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["twist", "--matrix", blob]) == 1
        assert json.loads(err.getvalue()) == {"error": "invalid_input", "message": message}

    def test_invalid_matrix(self):
        result = run(["twist", "--matrix", '{"n": 2, "rows": [[1, 5], [0, 1]]}'])
        assert result.exit_code == 1
        assert result.payload["error"] == "invalid_input"

    @pytest.mark.parametrize("blob", [
        '{"rows": [[1, 0], [2.7, 1]]}', '{"rows": [[1, 0], [true, 1]]}',
        '{"rows": [[1, 0], ["3", 1]]}', '{"stage3": [0, 2.5, 1]}',
        '{"rows": 5}', '{"stage3": 5}',
    ])
    def test_non_integer_matrix(self, blob):
        result = run(["orbit", "--matrix", blob])
        assert result.exit_code == 1
        assert result.payload["error"] == "invalid_input"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main(["orbit", "--matrix", blob]) == 1
        assert json.loads(err.getvalue())["error"] == "invalid_input"

    @pytest.mark.parametrize("argv", [
        ["reductive", "--stage3", "1", "2", "3", "--stage-bound", "8"],
        ["roots", "--stage3", "1", "2", "3", "--stage-bound", "8"],
        ["orbit", "--stage3", "1", "2", "3", "--stage-bound", "8"],
        ["symplectic-count", "11", "6", "1", "--enumerate"],
    ], ids=lambda argv: argv[0])
    def test_removed_flags_are_parse_errors(self, argv):
        # the bounds are module constants, and compat-enumerate lists the towers
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 2

    def test_grid_flag_removed(self):
        # integrability is decided exactly, with no sample grid to size
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["ak-solve", "1", "2", "2", "--grid", "5"]) == 2

    @pytest.mark.parametrize("blob", [
        '{"components": [{"d": 1.5, "s": "2", "r": "2/5"}, {"d": 1, "s": "-2", "r": "-3/5"}]}',
        '{"components": [{"d": true, "s": "2", "r": "2/5"}, {"d": 1, "s": "-2", "r": "-3/5"}]}',
        '{"components": 5}', '{"components": [5]}', '{"components": [{"d": 1, "s": "2"}]}',
        '{"components": [{"d": 1, "s": null, "r": "2/5"}]}',
        '{"components": [{"d": 1, "s": 2, "r": 0.4}, {"d": 1, "s": -2, "r": -0.6}]}',
        '{"components": [{"d": 1, "s": 2.0, "r": "2/5"}, {"d": 1, "s": -2, "r": "-3/5"}]}',
    ])
    def test_invalid_admissible_data(self, blob):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main(["extremal-poly", "--data", blob]) == 1
        assert json.loads(err.getvalue())["error"] == "invalid_input"

    @pytest.mark.parametrize("argv, key", [
        (["twist", "--matrix"], "rows"),
        (["extremal-poly", "--data"], "components"),
        (["cproj", "--alpha=-5/19", "--data"], "components"),
    ])
    @pytest.mark.parametrize("from_file", [False, True], ids=["inline", "file"])
    def test_deeply_nested_json(self, tmp_path, argv, key, from_file):
        # json's decoder recurses once per level, past the interpreter's
        # recursion limit here: bad input, not a traceback
        blob = f'{{"{key}":' + "[" * 10_000 + "]" * 10_000 + "}"
        if from_file:
            path = tmp_path / "deep.json"
            path.write_text(blob, encoding="utf-8")
            blob = str(path)
        result = run([*argv, blob])
        assert result.exit_code == 1
        assert result.payload == {"error": "invalid_input", "message": "JSON nested too deeply"}
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, blob]) == 1
        assert json.loads(err.getvalue())["error"] == "invalid_input"

    @pytest.mark.parametrize("argv", [
        ["symplectic-count", "1000", "1", "1/1000"],       # ceil(k1/k3) = 10^6
        ["symplectic-count", "50001", "1", "1"],
        ["compat-enumerate", "50001", "1", "1"],
        ["compat-enumerate", "316", "1", "1"],   # N_B = 50,086
    ])
    def test_symplectic_bounds_refuse(self, argv):
        result = run(argv)
        assert result.exit_code == 1
        assert result.payload["error"] == "stage_too_large"

    def test_symplectic_bounds_largest_accepted(self):
        assert sp.MAX_CEILING_TERMS == 50_000 and sp.MAX_REPRESENTATIVES == 50_000
        count = run(["symplectic-count", "50000", "1", "1"])
        assert count.exit_code == 0 and count.payload["N_B"] == 50_000 * 50_001 // 2
        enum = run(["compat-enumerate", "315", "1", "1"])
        assert enum.exit_code == 0 and enum.payload["count"] == 315 * 316 // 2

    @pytest.mark.parametrize("argv", [
        ["csc-family", "--m", "17", "--rplus", "1/2"],
        ["csc-family", "--m", "17", "--sweep", "1/2"],
        ["csc-family", "--m", "1", "--sweep", "1/1002"],       # 1,001 values of r_plus
        ["extremal-poly", "--data", '{"components": [{"d": 24, "s": "2", "r": "1/2"}]}'],
        ["cproj", "--data", '{"components": [{"d": 24, "s": "2", "r": "1/2"}]}',
         "--alpha=1/3", "--poly=1,0,-1"],
        ["cproj", "--data", KS_DATA, "--alpha=-5/19", "--trajectory", "501"],
    ])
    def test_admissible_bounds_refuse(self, argv):
        result = run(argv)
        assert result.exit_code == 1
        assert result.payload["error"] == "stage_too_large"

    # every rational read from text goes through one parser, which refuses a
    # power of ten past every bit bound before expanding it
    @pytest.mark.parametrize("argv", [
        ["csc-family", "--m=2", "--rplus=1e-100000000"],
        ["csc-family", "--m=2", "--rplus=1/3", "--tolerance=1e-100000000"],
        ["csc-family", "--m=2", "--sweep=1e-1_000_000_000"],
        ["cproj", "--data", KS_DATA, "--alpha=1e-100000000"],
        ["cproj", "--data", KS_DATA, "--alpha=1/5", "--beta=-1e100000000"],
        ["cproj", "--data", KS_DATA, "--alpha=1/5", "--poly=1,0e99999999,-1"],
        ["extremal-poly", "--data", '{"components": [{"d": 1, "s": "2e99999999", "r": "1/2"}]}'],
        ["ak-solve", "1e-100000000", "1", "1"],
        ["symplectic-count", "1e100000000", "1", "1"],
        ["compat-enumerate", "3", "2", "1e-100000000"],
    ])
    def test_huge_exponents_refused_at_once(self, argv):
        start = time.perf_counter()
        result = run(argv)
        assert time.perf_counter() - start < 1
        assert (result.exit_code, result.payload["error"]) == (1, "stage_too_large")

    # the scripts read rationals with the same parser, and refuse with a parse error
    @pytest.mark.parametrize("script, argv", [
        ("csc_family_sweep.py", ["--m", "1", "--step", "1e-20000000"]),
        ("symplectic_census.py", ["1e1000000", "1", "1"]),
    ])
    def test_scripts_refuse_huge_exponents_at_once(self, monkeypatch, capsys, script, argv):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            run_script(monkeypatch, script, *argv)
        assert time.perf_counter() - start < 1
        assert exc.value.code == 2
        assert "exceeds bound of 256 bits" in capsys.readouterr().err

    def test_malformed_rationals_still_parse_errors(self):
        for text in ("1e", "1__0", "1/2/3"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(["csc-family", "--m=2", f"--rplus={text}"]) == 2
            assert "not a rational" in err.getvalue()

    def test_admissible_bounds_largest_accepted(self, monkeypatch, capsys):
        assert (adm.MAX_CSC_M, adm.MAX_DIM, adm.MAX_SWEEP_POINTS) == (16, 24, 1000)
        assert cli.TRAJECTORY_BOUND == 500
        csc = run(["csc-family", "--m", "16", "--rplus", "1/2"])
        assert csc.exit_code == 0 and "-1/2" in csc.payload["roots"]
        data = '{"components": [{"d": 23, "s": "2", "r": "1/2"}]}'
        assert run(["extremal-poly", "--data", data]).exit_code == 0
        sweep = run(["csc-family", "--m", "1", "--sweep", "1/1001", "--tolerance", "1/1000"])
        assert sweep.exit_code == 0 and len({row.split(",")[1] for row in sweep.payload}) == 1000
        path = run(["cproj", "--data", KS_DATA, "--alpha=-5/19", "--trajectory", "500"])
        assert path.exit_code == 0 and len(path.payload) == 501
        # the sweep script refuses through csc_sweep_rows, as a parse error
        with pytest.raises(SystemExit) as exc:
            run_script(monkeypatch, "csc_family_sweep.py", "--m", "1", "--step", "1/1002")
        assert exc.value.code == 2
        assert "exceed bound 1000" in capsys.readouterr().err

    def test_rational_bits_bound(self):
        assert adm.MAX_RATIONAL_BITS == 12
        assert run(["csc-family", "--m", "2", "--rplus", "4094/4095"]).exit_code == 0
        accepted = '{"components": [{"d": 1, "s": "4095", "r": "4094/4095"}]}'
        assert run(["extremal-poly", "--data", accepted]).exit_code == 0
        assert run(["cproj", "--data", KS_DATA, "--alpha=-4094/4095", "--beta=4095"]).exit_code == 0
        for argv in (["csc-family", "--m", "2", "--rplus", "4095/4096"],
                     ["cproj", "--data", KS_DATA, "--alpha=1/4096"],
                     ["cproj", "--data", KS_DATA, "--alpha=1/3", "--beta=4096", "--trajectory=5"],
                     ["csc-family", "--m", "2", "--sweep", "2049/4096"],
                     ["extremal-poly", "--data",
                      '{"components": [{"d": 1, "s": "4096", "r": "1/2"}]}'],
                     ["cproj", "--alpha=1/3", "--data",
                      '{"components": [{"d": 1, "s": "2", "r": "-4095/4096"}]}']):
            result = run(argv)
            assert (result.exit_code, result.payload["error"]) == (1, "stage_too_large")

    def test_tolerance_bits_bound(self):
        assert adm.MAX_TOLERANCE_BITS == 256
        largest, refused = f"1/{2 ** 256 - 1}", f"1/{2 ** 256}"
        single = ["csc-family", "--m", "3", "--rplus", "1/3", "--tolerance"]
        sweep = ["csc-family", "--m", "1", "--sweep", "1/2", "--tolerance"]
        assert run(single + [largest]).payload["roots"] == ["-1/3"]
        assert run(sweep + [largest]).exit_code == 0
        for argv in (single + [refused], sweep + [refused], single + ["1e-10000"]):
            result = run(argv)
            assert (result.exit_code, result.payload["error"]) == (1, "stage_too_large")

    def test_scan_bases_stage_bound(self):
        # --scan-bases lists 2^(n-1) bases; plain `cone` is O(n^2) and unbounded
        assert cli.SCAN_BASES_STAGE_BOUND == 13
        largest = json.dumps(BottMatrix.identity(13).to_json())
        refused = json.dumps(BottMatrix.identity(14).to_json())
        result = run(["cone", "--matrix", largest, "--scan-bases"])
        assert result.exit_code == 0 and len(result.payload) == 2 ** 12
        result = run(["cone", "--matrix", refused, "--scan-bases"])
        assert (result.exit_code, result.payload["error"]) == (1, "stage_too_large")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["cone", "--matrix", refused, "--scan-bases"]) == 1
        assert json.loads(err.getvalue())["error"] == "stage_too_large"
        assert run(["cone", "--matrix", refused]).exit_code == 0

    @pytest.mark.parametrize("argv", [["--scan-bases", "--basis", "uvu"],
                                      ["--basis", "uuu", "--scan-bases"]])
    def test_basis_and_scan_bases_conflict(self, argv):
        message = "provide at most one of --basis or --scan-bases"
        result = run(["cone", "--stage3", "1", "1", "1", *argv])
        assert (result.exit_code, result.payload) == (1, {"error": "invalid_input",
                                                          "message": message})
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main(["cone", "--stage3", "1", "1", "1", *argv]) == 1
        assert json.loads(err.getvalue()) == {"error": "invalid_input", "message": message}

    @pytest.mark.parametrize("basis", ["", "vuu", "uu", "uxu", "uuuu"])
    def test_malformed_cone_basis(self, basis):
        result = run(["cone", "--stage3", "-1", "2", "-3", "--basis", basis])
        assert (result.exit_code, result.payload["error"]) == (1, "invalid_input")

    def test_singular_cproj(self):
        result = run(["cproj", "--data", KS_DATA, "--alpha", "1", "--beta", "1"])
        assert result.exit_code == 1
        assert result.payload["error"] == "singular_parameters"

    def test_main_success_prints_json(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["twist", "--stage3", "0", "1", "-1"])
        assert code == 0
        assert json.loads(out.getvalue()) == 1


# JSON values for the renderer: every scalar json.dumps accepts, at sizes
# and in spellings its encoder treats apart, and lists of one scalar type,
# which the renderer joins in one call
_scalar = st.one_of(st.text(), st.integers(-10 ** 40, 10 ** 40), st.booleans(), st.none(),
                    st.floats(), st.sampled_from([float("nan"), float("inf"), -0.0]))
_key = st.one_of(st.text(), st.integers(-10 ** 40, 10 ** 40), st.floats(),
                 st.booleans(), st.none())
_one_type_list = st.one_of(*(st.lists(s) for s in (
    st.text(), st.integers(-10 ** 40, 10 ** 40), st.booleans(), st.none(), st.floats())))
_json_tree = st.recursive(
    st.one_of(_scalar, _one_type_list, st.lists(st.sampled_from([True, 1, False, 0, 1.0]))),
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(_key, kids, max_size=4)),
    max_leaves=30)

_json_dict = st.dictionaries(_key, _json_tree, max_size=4)


@st.composite
def _json_dag(draw):
    """A payload holding one plain dict and one `cli._Shared` dict several
    times each, at two depths; the shared dict may hold the plain one."""
    plain = draw(_json_dict)
    shared = cli._Shared(draw(_json_dict))
    if draw(st.booleans()):
        shared["plain"] = plain
    node = st.one_of(st.sampled_from([plain, shared]), _json_tree)
    middle = draw(st.lists(st.one_of(node, st.dictionaries(st.text(max_size=2), node,
                                                           max_size=3)), max_size=4))
    return [plain, shared, {"a": [shared, plain], "b": shared}, *middle, plain, shared]


class TestRendering:
    """`run` renders each JSON result as json.dumps(payload, indent=2), the
    text that `main` prints; CSV and error output keep their own form."""

    @given(_json_tree)
    @settings(max_examples=300, deadline=None)
    @example({"": [], "a": {}, "b": ()})
    @example([True, 1, False, 0, None, "1", 1.0])
    @example({1: "i", 2.5: "f", True: "t", None: "n", float("nan"): "nan", -0.0: "z"})
    @example(["\u00e9\u4e2d\U0001f600", "\x00\x1f\"\\\n\t\x7f", 10 ** 40, -(10 ** 40)])
    @example([float("inf"), float("-inf"), float("nan"), -0.0, 1e300, 5e-324])
    def test_matches_json_dumps(self, value):
        assert cli.render_json(value) == json.dumps(value, indent=2)

    @given(_json_dag())
    @settings(max_examples=200, deadline=None)
    @example([cli._Shared(a=[1, {"b": None}]), {"x": cli._Shared(), "y": [[]]}])
    def test_shared_dicts_match_json_dumps(self, value):
        assert cli.render_json(value) == json.dumps(value, indent=2)

    def test_shared_dict_rendered_once_per_depth(self, monkeypatch):
        child = {"x": [1, 2]}
        shared = cli._Shared(coeffs=["1", "-2"], child=child)
        calls = []   # the indentation of each rendering of `child`
        render = cli._render

        def counting(obj, pad, memo):
            if obj is child:
                calls.append(pad)
            return render(obj, pad, memo)

        monkeypatch.setattr(cli, "_render", counting)
        one_depth = [shared, {"a": 1}, shared, shared]
        memo = {}
        assert cli._render(one_depth, "\n", memo) == json.dumps(one_depth, indent=2)
        assert calls == ["\n    "]
        assert memo == {(id(shared), "\n  "): json.dumps(shared, indent=2).replace("\n", "\n  ")}
        calls.clear()
        two_depths = [shared, {"b": shared}, [shared, shared]]
        assert cli.render_json(two_depths) == json.dumps(two_depths, indent=2)
        assert sorted(calls) == ["\n    ", "\n      "]

    def test_plain_dicts_are_never_stored(self):
        payload = run(["orbit", "--stage3", "1", "2", "3"]).payload
        assert payload["moves"] and isinstance(payload["moves"][0], dict)
        memo = {}
        assert cli._render(payload, "\n", memo) == json.dumps(payload, indent=2)
        assert memo == {}
        payload = run(["cone", "--stage3", "1", "2", "3", "--scan-bases"]).payload
        cli._render(payload, "\n", memo)
        ineqs = {id(ineq) for entry in payload.values() for ineq in entry["inequalities"]}
        assert {key for key, _ in memo} == ineqs

    def test_subclasses_render_as_their_base(self):
        import enum
        from typing import NamedTuple

        class Level(enum.IntEnum):
            HIGH = 3

        class Name(str):
            pass

        class Pair(NamedTuple):
            x: object
            y: object

        class Table(dict):
            pass

        value = Table({Name("k"): Pair(Level.HIGH, [Name("v"), Level.HIGH]), Level.HIGH: 2.5})
        assert cli.render_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}, [b"x"], {(1, 2): 3}])
    def test_unserializable_raises_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            cli.render_json(value)

    JSON_COMMANDS = [
        ["twist", "--stage3", "0", "1", "-1"],
        ["cotwist", "--stage3", "1", "2", "0"],
        ["orbit", "--stage3", "1", "2", "3"],
        ["cohomology", "--stage3", "4", "-7", "9"],
        ["reductive", "--stage3", "0", "1", "-1"],
        ["roots", "--stage3", "0", "1", "-1"],
        ["fano", "--stage3", "0", "1", "1"],
        ["classes", "c", "--stage3", "3", "-1", "2"],
        ["classes", "p", "--stage3", "0", "1", "-1"],
        ["classes", "w2", "--stage3", "0", "1", "-1"],
        ["classify3", "0", "24", "1"],
        ["twist1-diffeo", "--k", "1", "2", "3", "--kprime", "-1", "-2", "3"],
        ["cone", "--stage3", "-1", "2", "-3", "--basis", "uvu"],
        ["cone", "--stage3", "0", "0", "0", "--scan-bases"],
        ["symplectic-count", "11", "6", "1"],
        ["compat-enumerate", "5", "3", "1"],
        ["extremal-poly", "--data", KS_DATA],
        ["csc-family", "--m", "2", "--rplus", "1/3"],
        ["cproj", "--data", KS_DATA, "--alpha", "1/3"],
        ["ak-solve", "1", "2", "2"],
        ["scan", "--radius", "1"],
    ]

    @staticmethod
    def printed(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda argv: " ".join(argv[:2]))
    def test_json_text_is_printed(self, argv):
        result = run(argv)
        assert result.exit_code == 0
        assert result.text == json.dumps(result.payload, indent=2)
        assert self.printed(argv) == (0, result.text + "\n", "")

    @pytest.mark.parametrize("argv", [
        ["csc-family", "--m", "2", "--rplus", "1/3", "--csv"],
        ["csc-family", "--m", "1", "--sweep", "1/4"],
        ["cproj", "--data", KS_DATA, "--alpha", "1/3", "--trajectory", "2"],
        ["scan", "--radius", "1", "--csv"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_csv_text_is_printed(self, argv):
        result = run(argv)
        assert result.exit_code == 0 and result.text.endswith("\n")
        assert self.printed(argv) == (0, result.text, "")

    @pytest.mark.parametrize("argv", [
        ["orbit", "--matrix", IDENTITY9],
        ["classes", "c", "--stage3", "0", "0", str(2 ** 64)],
        ["twist", "--matrix", '{"n": 2, "rows": [[1, 0], [1, 2]]}'],
    ], ids=lambda argv: argv[0])
    def test_errors_print_one_json_line(self, argv):
        result = run(argv)
        assert result.exit_code == 1 and result.text is None
        assert self.printed(argv) == (1, "", json.dumps(result.payload) + "\n")


# argv for the CLI-contract fuzz.  Half of the values are small and mostly
# valid, so commands run to the end; the rest are tiny or huge rationals, as
# fractions and with exponents of any size, and text that is no number.
# Sweeps keep to steps with denominators up to 25, because a sweep costs
# one solve per step.
_junk_text = st.sampled_from(["", " ", "x", "1/2/3", "nan", "inf", "-", "1/0", "0x10"])
_exponent = st.one_of(st.integers(-5000, 5000), st.integers(-10 ** 12, 10 ** 12))
_extreme_text = st.one_of(
    st.integers(-10 ** 60, 10 ** 60).map(str),
    st.builds("{}/{}".format, st.integers(-10 ** 60, 10 ** 60), st.integers(0, 10 ** 60)),
    st.builds("{}e{}".format, st.integers(-9, 9), _exponent),
    _junk_text,
)
_positive_text = st.integers(2, 16).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda p: f"{p}/{q}"))        # in (0, 1)
_unit_text = st.one_of(_positive_text, _positive_text.map("-{}".format))
_rational_text = st.one_of(_unit_text, st.integers(-20, 20).map(str), _extreme_text)
_int_text = st.one_of(st.integers(-5, 8).map(str), _extreme_text)
_tolerance_text = st.one_of(_rational_text, st.builds("1e-{}".format, _exponent.map(abs)))
_step_text = st.one_of(st.builds("{}/{}".format, st.integers(-3, 25), st.integers(-1, 25)),
                       _junk_text, st.sampled_from(["0", "1", "1/1002", "1e-9", "1e400"]))
_json_value = st.one_of(_unit_text, _rational_text, st.integers(-5, 5),
                        st.floats(-2, 2, allow_nan=False), st.none())
_valid_component = st.fixed_dictionaries(
    {"d": st.integers(1, 3), "s": _rational_text, "r": _unit_text})
_component = st.one_of(_valid_component, st.fixed_dictionaries({
    "d": st.one_of(st.integers(-1, 25), st.sampled_from(["1", True, 1.5])),
    "s": _json_value, "r": _json_value}))
_data_text = st.one_of(
    st.lists(_valid_component, min_size=1, max_size=3).map(lambda c: json.dumps({"components": c})),
    st.lists(_component, min_size=1, max_size=3).map(lambda c: json.dumps({"components": c})),
    st.sampled_from(["{", "{}", '{"components": []}', '{"components": 3}',
                     '{"components": [1]}', '{"components": [{"d": 1}]}']),
)


# the bidegree (1,-1) family, whose profile has degree <= dim + 1 as cproj needs
_ks_data_text = st.integers(2, 16).flatmap(lambda q: st.integers(1, q - 1).map(
    lambda p: json.dumps(adm.ks_data(Fraction(p, q)).to_json())))


@st.composite
def _csc_family_argv(draw):
    m = draw(st.one_of(st.integers(1, 8), st.integers(-1, 17), _junk_text))
    argv = ["csc-family", f"--m={m}"]
    flags = draw(st.one_of(st.just(["--rplus"]), st.just(["--sweep"]),
                           st.lists(st.sampled_from(["--rplus", "--sweep"]), max_size=2)))
    for flag in flags:
        value = st.one_of(_positive_text, _rational_text) if flag == "--rplus" else _step_text
        argv.append(f"{flag}={draw(value)}")
    if draw(st.booleans()):
        argv.append(f"--tolerance={draw(_tolerance_text)}")
    if draw(st.booleans()):
        argv.append("--csv")
    return argv


@st.composite
def _cproj_argv(draw):
    argv = ["cproj", "--data", draw(st.one_of(_ks_data_text, _data_text))]
    if draw(st.sampled_from([True, True, True, False])):
        argv.append(f"--alpha={draw(st.one_of(_unit_text, _rational_text))}")
    if draw(st.booleans()):
        argv.append(f"--beta={draw(_rational_text)}")
    if draw(st.booleans()):
        argv.append("--poly=" + ",".join(draw(st.lists(_rational_text, max_size=27))))
    if draw(st.booleans()):
        argv.append(f"--trajectory={draw(st.integers(-1, 501))}")
    return argv


_contract_argv = st.one_of(
    _csc_family_argv(),
    st.builds(lambda data: ["extremal-poly", "--data", data], _data_text),
    _cproj_argv(),
    st.builds(lambda *xs: ["ak-solve", *xs], st.one_of(_positive_text, _rational_text),
              _int_text, _int_text),
)


# Towers for the contract fuzz: stage-3 shorthand of any arity, square
# lower-triangular matrices up to one stage past the largest bound (small or
# huge entries), matrices with a wrong shape, diagonal, upper entry, entry
# type or n, and text that is no matrix.  `orbit` gets no matrix of 6 to 8
# stages: only its stage bound covers it yet, and sparse towers of 8 stages
# take seconds.  `roots` and `reductive` run on all of them.
_entry = st.one_of(st.integers(-3, 3), st.integers(-10 ** 60, 10 ** 60))
_bad_entry = st.sampled_from([0, 2, -1, 1.5, True, "1", None, [1]])
_entry_text = st.one_of(_entry.map(str), _int_text)


_stages = st.one_of(st.integers(1, 5), st.integers(0, 15))
_orbit_stages = st.one_of(st.integers(1, 5), st.integers(ORBIT_STAGE_BOUND + 1, 15))


@st.composite
def _matrix_text(draw, stages):
    n = draw(stages)
    rows = [[draw(_entry) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    flaw = draw(st.sampled_from(["none", "none", "none", "cell", "ragged", "n", "rows"]))
    if flaw == "cell" and n:
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(_bad_entry)
    elif flaw == "ragged" and n:
        rows[draw(st.integers(0, n - 1))].append(0)
    obj = {"n": draw(st.one_of(st.just(n), st.integers(-1, 16), _bad_entry)) if flaw == "n"
           else n, "rows": rows}
    if flaw == "rows":
        obj["rows"] = draw(st.one_of(_bad_entry, st.lists(_entry, max_size=3)))
    return json.dumps(obj)


_stage3_text = st.lists(_entry_text, min_size=3, max_size=3).map(
    lambda xs: json.dumps({"stage3": [int(x) if x.lstrip("-").isdigit() else x for x in xs]}))


def _tower_args(stages):
    return st.one_of(
        st.lists(_entry_text, min_size=0, max_size=4).map(lambda xs: ["--stage3", *xs]),
        _matrix_text(stages).map(lambda text: ["--matrix", text]),
        _stage3_text.map(lambda text: ["--matrix", text]),
        st.sampled_from([[], ["--matrix", "{"], ["--matrix", "{}"], ["--matrix", '{"n": 2}'],
                         ["--matrix", "missing.json"], ["--matrix", ""],
                         ["--stage3", "0", "1", "2", "--matrix", '{"stage3": [0, 1, 2]}']]),
    )


_basis_text = st.one_of(st.text("uv", max_size=16), _junk_text)
_weights = st.lists(st.one_of(_rational_text, _unit_text), min_size=3, max_size=3)


@st.composite
def _tower_argv(draw):
    command = draw(st.sampled_from(["twist", "cotwist", "cohomology", "fano", "classes",
                                    "orbit", "cone", "roots", "reductive"]))
    argv = [command, *draw(_tower_args(_orbit_stages if command == "orbit" else _stages))]
    if command == "classes":
        argv.insert(1, draw(st.sampled_from(["c", "p", "w2", "x"])))
    elif command == "cone":
        basis = ["--basis", draw(_basis_text)]
        argv += draw(st.sampled_from([[], ["--scan-bases"], basis, ["--scan-bases", *basis]]))
    return argv


_entries = st.one_of(st.lists(_entry.map(str), min_size=1, max_size=5),
                    st.lists(_entry_text, max_size=5))
_other_argv = st.sampled_from([
    st.builds(lambda xs: ["classify3", *xs],
              st.one_of(st.lists(_entry.map(str), min_size=3, max_size=3), _entries)),
    st.builds(lambda k, k2: ["twist1-diffeo", "--k", *k, "--kprime", *k2], _entries, _entries),
    st.builds(lambda r, csv: ["scan", "--radius", r, *csv],
              st.one_of(st.integers(-2, 3).map(str), st.sampled_from(["7", "8"]), _int_text),
              st.sampled_from([[], ["--csv"]])),
    st.builds(lambda ks: ["symplectic-count", *ks], _weights),
    st.builds(lambda ks: ["compat-enumerate", *ks], _weights),
]).flatmap(lambda strategy: strategy)


class TestContract:
    """Any argv: exit 0, 1 or 2, an error JSON with exit 1, no traceback, no hang."""

    @staticmethod
    def assert_contract(argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - start < 10
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            error = json.loads(err.getvalue())["error"]
            assert error in {*cli.DOMAIN_ERRORS.values(), "invalid_input"}
        elif code == 0:
            assert out.getvalue() and not err.getvalue()
        return code, out.getvalue(), err.getvalue()

    @given(_contract_argv)
    @settings(max_examples=200, deadline=None)
    @example(["csc-family", "--m=3", "--rplus=1/3", "--tolerance=1e-10000"])
    @example(["csc-family", "--m=16", "--sweep=1/2", "--tolerance=1e-20000", "--csv"])
    @example(["csc-family", "--m=16", "--rplus=1e-5000"])
    @example(["extremal-poly", "--data", '{"components": [{"d": 1, "s": "2", "r": 0.4}]}'])
    @example(["cproj", "--data", KS_DATA, "--alpha=1e-5000", "--trajectory=500"])
    @example(["ak-solve", "1e-5000", "1", "1"])
    @example(["csc-family", "--m=16", "--rplus=1e-10000000", "--tolerance=1e-1000000000"])
    @example(["cproj", "--data", KS_DATA, "--alpha=1/3", "--poly=1,1e10000000"])
    def test_admissible_commands(self, argv):
        self.assert_contract(argv)

    @given(st.one_of(_tower_argv(), _other_argv))
    @settings(max_examples=200, deadline=None)
    @example(["classes", "p", "--matrix", json.dumps(
        {"n": 9, "rows": [[(-1) ** (i * j) * 10 ** 60 if j < i else int(i == j)
                           for j in range(9)] for i in range(9)]})])
    @example(["cone", "--scan-bases", "--matrix", json.dumps(BottMatrix.identity(14).to_json())])
    @example(["orbit", "--matrix",
              '{"rows": [[1,0,0,0,0],[0,1,0,0,0],[0,0,1,0,0],[0,0,0,1,0],[0,0,0,1,1]]}'])
    @example(["twist1-diffeo", "--k", str(10 ** 60), "0", "--kprime", "1"])
    @example(["classify3", str(-10 ** 60), "3", str(10 ** 60)])
    def test_tower_and_symplectic_commands(self, argv):
        self.assert_contract(argv)

    @pytest.mark.parametrize("command", ["roots", "reductive"])
    @pytest.mark.parametrize("tower", [
        [[1, 0, 0], [-300, 1, 0], [0, -300, 1]],
        [[1, 0, 0, 0], [-10, 1, 0, 0], [-10, -10, 1, 0], [10, 7, -10, 1]],
        1200,
    ], ids=["pm300", "roots190324", "identity1200"])
    def test_root_search_answers_or_refuses(self, command, tower):
        # the search counts its steps: the 190,324 roots of the second tower
        # and the identity of 1,200 stages may each be refused, within 2 s
        A = BottMatrix.identity(tower) if tower == 1200 else BottMatrix.from_rows(tower)
        argv = [command, "--matrix", json.dumps(A.to_json())]
        start = time.perf_counter()
        code, out, err = self.assert_contract(argv)
        assert time.perf_counter() - start < 2
        if code == 1:
            assert json.loads(err)["error"] == "stage_too_large"
        else:
            assert code == 0
        if command == "reductive" and tower == [[1, 0, 0], [-300, 1, 0], [0, -300, 1]]:
            assert (code, out) == (0, "false\n")   # row 1 is nonpositive


class TestConfig:
    """There is no limits file: `--config` is a parse error, and $BOTT_CONFIG
    is not read, whatever the file holds.  Each limit is set by its flag or
    left at its module constant."""

    ORBIT = ["orbit", "--stage3", "0", "0", "0"]

    @staticmethod
    def config_file(tmp_path, text):
        cfg = tmp_path / "limits.json"
        cfg.write_text(text, encoding="utf-8")
        return str(cfg)

    @staticmethod
    def main_code(argv):
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            return main(argv)

    def assert_file_ignored(self, path, monkeypatch):
        monkeypatch.delenv("BOTT_CONFIG", raising=False)
        expected = run(self.ORBIT)
        assert expected.exit_code == 0
        assert self.main_code(["--config", path, *self.ORBIT]) == 2
        monkeypatch.setenv("BOTT_CONFIG", path)
        assert run(self.ORBIT) == expected

    def test_config_file_sets_no_bound(self, tmp_path, monkeypatch):
        path = self.config_file(tmp_path, '{"orbit_stage_bound": 2}')
        self.assert_file_ignored(path, monkeypatch)

    def test_flag_overrides_config(self, tmp_path, monkeypatch):
        # --tolerance is the one setting of the tolerance, with the environment set or not
        argv = ["csc-family", "--m", "2", "--rplus", "1/3"]
        default, coarse = run(argv), run([*argv, "--tolerance", "1/10"])
        monkeypatch.setenv("BOTT_CONFIG", self.config_file(tmp_path, '{"csc_tolerance": "1/1000"}'))
        assert run(argv) == default and run([*argv, "--tolerance", "1/10"]) == coarse

    @pytest.mark.parametrize("text", [
        '{"orbit_stage_bound": true}', '{"root_stage_bound": false}',
        '{"orbit_stage_bound": "8"}', '{"positivity_depth": 2.7}',
        '{"integrability_grid": 0}', '{"orbit_stage_bnd": 2}', '{"orbit_stage_bound": -3}',
        '{"orbit_stage_bound": null}', '{"csc_tolerance": true}',
        '{"csc_tolerance": "abc"}', '{"csc_tolerance": "0"}', '{"csc_tolerance": [1]}',
        '[1, 2]', '"limits"', '{"orbit_stage_bound": ', '',
    ])
    def test_invalid_config_file(self, tmp_path, monkeypatch, text):
        self.assert_file_ignored(self.config_file(tmp_path, text), monkeypatch)

    def test_missing_config_file(self, tmp_path, monkeypatch):
        self.assert_file_ignored(str(tmp_path / "missing.json"), monkeypatch)
        self.assert_file_ignored(str(tmp_path), monkeypatch)    # a directory

    def test_invalid_config_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BOTT_CONFIG", self.config_file(tmp_path, '{"orbit_stage_bound": true}'))
        assert run(self.ORBIT).exit_code == 0

    def test_huge_tolerance_exponent_refused(self, tmp_path, monkeypatch):
        argv = ["csc-family", "--m=2", "--rplus=1/3"]
        path = self.config_file(tmp_path, '{"csc_tolerance": "1e-100000000"}')
        start = time.perf_counter()
        assert self.main_code(["--config", path, *argv]) == 2
        monkeypatch.setenv("BOTT_CONFIG", path)
        assert run(argv).payload == run([*argv, "--tolerance=1e-12"]).payload
        result = run([*argv, "--tolerance=1e-100000000"])
        assert time.perf_counter() - start < 1
        assert (result.exit_code, result.payload["error"]) == (1, "stage_too_large")

    def test_valid_config_values(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BOTT_CONFIG", self.config_file(
            tmp_path, '{"root_stage_bound": 3, "csc_tolerance": "1e-6"}'))
        identity4 = json.dumps(BottMatrix.identity(4).to_json())
        assert run(["roots", "--matrix", identity4]).exit_code == 0
        argv = ["csc-family", "--m=2", "--rplus=1/3"]
        assert run(argv).payload == run([*argv, "--tolerance=1e-12"]).payload

    def test_flags_set_each_limit(self):
        # the stages of `orbit` and the steps of the root search are module
        # constants, --tolerance defaults to admissible.DEFAULT_CSC_TOLERANCE,
        # and the positivity depth has no setting
        assert (ORBIT_STAGE_BOUND, ROOT_SEARCH_BOUND, adm.DEFAULT_CSC_TOLERANCE) == \
            (8, 750_000, Fraction(1, 10 ** 12))
        result = run(["orbit", "--matrix", IDENTITY9])
        assert (result.exit_code, result.payload["error"]) == (1, "stage_too_large")
        # the identity's orbit lists all n! stage orders, its roots are only 2n
        for command in ("roots", "reductive"):
            assert run([command, "--matrix", IDENTITY9]).exit_code == 0
        argv = ["csc-family", "--m", "2", "--rplus", "1/3"]
        default, coarse = run(argv), run([*argv, "--tolerance", "1/10"])
        assert default.payload == run([*argv, "--tolerance", "1e-12"]).payload
        assert default.payload["roots"] != coarse.payload["roots"]
        assert len(default.payload["roots"]) == len(coarse.payload["roots"])


class TestParserReuse:
    # each pair runs a flag (a removed one for orbit, the representatives
    # for the weights), then the same command without it; a parse error
    # (exit 2) sits in between
    SEQUENCE = [
        ["orbit", "--stage3", "1", "2", "3", "--stage-bound", "2"],
        ["orbit", "--stage3", "1", "2", "3"],
        ["cone", "--stage3", "-1", "2", "-3", "--basis", "uvu"],
        ["twist", "--stage3", "x", "1", "2"],
        ["cone", "--stage3", "-1", "2", "-3"],
        ["compat-enumerate", "11", "6", "1"],
        ["symplectic-count", "11", "6", "1"],
        ["csc-family", "--m", "2", "--rplus", "1/3", "--csv"],
        ["cone", "--basis"],
        ["csc-family", "--m", "2", "--rplus", "1/3"],
    ]

    @staticmethod
    def outcome(argv):
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                return run(argv)
            except SystemExit as exc:
                return ("exit", exc.code)

    def test_reused_parser_matches_fresh_parser(self, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        try:
            reused = [self.outcome(argv) for argv in self.SEQUENCE]
            assert len(builds) == 1
            fresh = []
            for argv in self.SEQUENCE:
                cli._parser.cache_clear()
                fresh.append(self.outcome(argv))
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1 + len(self.SEQUENCE)
        assert reused == fresh
        assert [r if isinstance(r, tuple) else r.exit_code for r in reused] == \
            [("exit", 2), 0, 0, ("exit", 2), 0, 0, 0, 0, ("exit", 2), 0]
        assert "representatives" in reused[5].payload
        assert "representatives" not in reused[6].payload
        assert reused[7].text.startswith("m,r_plus,r_minus\n")
        assert reused[9].text == json.dumps(reused[9].payload, indent=2)
        assert reused[2].payload["basis"] == "uvu" and reused[4].payload["basis"] == "uuu"


class TestParsePath:
    """`run` hands a command line that starts with a command name to that
    command's own parser; the namespace it gets, and every parse error
    `main` prints, are those of the full parser."""

    @staticmethod
    def parsed(parse, argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                return parse(argv), ""
            except SystemExit as exc:
                return ("exit", exc.code), err.getvalue()

    @pytest.mark.parametrize("argv", TestRendering.JSON_COMMANDS + TestParserReuse.SEQUENCE,
                             ids=lambda argv: " ".join(argv[:3]))
    def test_run_parses_as_the_full_parser(self, monkeypatch, argv):
        seen = []
        monkeypatch.setattr(cli, "_payload_for", lambda args: seen.append(args) or (0, None))

        def through_run(argv):
            run(argv)
            return seen.pop()

        expected = self.parsed(cli._parser().parse_args, argv)
        assert self.parsed(through_run, argv) == expected
        assert expected[0] == ("exit", 2) or expected[0].command == argv[0]

    @pytest.mark.parametrize("argv, last_line", [
        ([], "bott: error: the following arguments are required: command"),
        (["nosuch"], "bott: error: argument command: invalid choice: 'nosuch'"),
        (["twist", "--stage3", "1", "2", "3", "--bogus"],
         "bott: error: unrecognized arguments: --bogus"),
        (["classify3", "1", "2"], "bott classify3: error: the following arguments are required: c"),
        (["classify3", "-1", "2", "3", "4"], "bott: error: unrecognized arguments: 4"),
    ], ids=["no-argv", "unknown-command", "unknown-flag", "missing-positional", "leftover"])
    def test_parse_errors_keep_their_text(self, monkeypatch, argv, last_line):
        # leftover arguments are reported by the top-level parser, as `bott`,
        # not by the command's parser
        code, out, err = TestRendering.printed(argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith(last_line)
        monkeypatch.setattr(cli, "_parse_args", lambda argv: cli._parser().parse_args(argv))
        assert TestRendering.printed(argv) == (code, out, err)

    def test_every_command_is_parsed_and_rendered(self):
        # each command of the table has a line in JSON_COMMANDS, so it goes
        # through the parse differential above and the rendering tests
        assert {argv[0] for argv in TestRendering.JSON_COMMANDS} == set(cli.COMMANDS)


class TestHelpListing:
    """`bott -h` lists every command in the table's order, and a help line
    for four of them; only the structure is checked, since argparse lays
    out its help differently across Python versions."""

    COMMANDS = ["twist", "cotwist", "orbit", "cohomology", "reductive", "roots", "fano",
                "classes", "classify3", "twist1-diffeo", "cone", "symplectic-count",
                "compat-enumerate", "extremal-poly", "csc-family", "cproj", "ak-solve", "scan"]
    HELP_LINES = {
        "classes": "characteristic classes",
        "classify3": "stage-3 diffeomorphism invariants",
        "cone": "ample-cone inequalities in a divisor basis",
        "scan": "stage-3 box scan of invariants",
    }

    def test_help_lists_every_command(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        code, out, err = TestRendering.printed(["-h"])
        assert (code, err) == (0, "")
        assert re.search(r"\{([^}]*)\}", out).group(1).split(",") == self.COMMANDS
        # a command listed without a help line is a name alone on its line
        assert dict(re.findall(r"^ {4}([\w-]+)(?: +(\S.*))?$", out, re.M)) == self.HELP_LINES
        assert list(cli.COMMANDS) == self.COMMANDS
