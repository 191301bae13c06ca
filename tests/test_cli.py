import contextlib
import io
import json
from fractions import Fraction

import pytest

from bott.admissible import AdmissibleData
from bott.cli import main, run
from bott.core import BottMatrix

KS_DATA = '{"components": [{"d":1,"s":"2","r":"2/5"},{"d":1,"s":"-2","r":"-3/5"}]}'


class TestBasicCommands:
    def test_symplectic_count(self):
        result = run(["symplectic-count", "11", "6", "1"])
        assert result.exit_code == 0
        assert result.payload == {"N_B0": 16, "N_Bne0": 27, "N_B": 43}

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

    def test_cone_scan(self):
        payload = run(["cone", "--stage3", "0", "0", "0", "--scan-bases"]).payload
        assert set(payload) == {"uuu", "uuv", "uvu", "uvv"}
        assert all(entry["first_orthant"] for entry in payload.values())

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

    def test_class_payload_round_trip(self):
        from bott import cohomology as coh
        A = BottMatrix.stage3(3, -1, 2)
        payload = run(["classes", "c", "--stage3", "3", "-1", "2"]).payload
        assert coh.class_from_json(A, payload) == coh.chern_total(A)

    def test_cohomology_payload_round_trip(self):
        from bott import cohomology as coh
        A = BottMatrix.stage3(4, -7, 9)
        payload = run(["cohomology", "--stage3", "4", "-7", "9"]).payload
        R = coh.ring(A)
        for k in range(3):
            assert coh.class_from_json(A, payload["alpha"][k]) == R.alpha(k)
            assert coh.class_from_json(A, payload["y"][k]) == R.y(k)


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

    def test_empty_sweep(self):
        result = run(["csc-family", "--m", "1", "--sweep", "2"])
        assert result.text == "m,r_plus,r_minus\n"

    def test_cproj(self):
        result = run(["cproj", "--data", KS_DATA, "--alpha=-5/19"])
        assert result.payload["r_transformed"] == ["3/5", "-2/5"]

    def test_cproj_trajectory(self):
        result = run(["cproj", "--data", KS_DATA, "--alpha=-5/19",
                      "--trajectory", "10", "--csv"])
        lines = result.text.strip().splitlines()
        assert lines[0] == "step,r1,r2"
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert abs(float(first[1]) - 0.4) < 1e-12
        assert abs(float(last[1]) - 0.6) < 1e-12
        assert abs(float(last[2]) + 0.4) < 1e-12

    def test_emit_plot_data_direct(self):
        from bott.cli import emit_plot_data
        text = emit_plot_data("csc-family", {"m": 1, "sweep": Fraction(1, 2)})
        assert text.splitlines()[0] == "m,r_plus,r_minus"
        data = AdmissibleData.from_json(json.loads(KS_DATA))
        text = emit_plot_data("cproj-trajectory",
                              {"data": data, "alpha": Fraction(-5, 19), "steps": 4})
        assert len(text.splitlines()) == 6


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


class TestErrors:
    def test_domain_error_exit_1(self):
        result = run(["orbit", "--stage3", "1", "1", "1", "--stage-bound", "2"])
        assert result.exit_code == 1
        assert result.payload["error"] == "stage_too_large"

    def test_main_prints_error_to_stderr(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["orbit", "--stage3", "1", "1", "1", "--stage-bound", "2"])
        assert code == 1
        assert json.loads(err.getvalue())["error"] == "stage_too_large"

    def test_parse_error_exit_2(self):
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["twist", "--stage3", "x", "1", "2"]) == 2

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


class TestConfig:
    def test_config_file_sets_bounds(self, tmp_path, monkeypatch):
        cfg = tmp_path / "limits.json"
        cfg.write_text('{"orbit_stage_bound": 2}', encoding="utf-8")
        result = run(["--config", str(cfg), "orbit", "--stage3", "0", "0", "0"])
        assert result.exit_code == 1
        monkeypatch.setenv("BOTT_CONFIG", str(cfg))
        result = run(["orbit", "--stage3", "0", "0", "0"])
        assert result.exit_code == 1
        monkeypatch.delenv("BOTT_CONFIG")
        assert run(["orbit", "--stage3", "0", "0", "0"]).exit_code == 0

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "limits.json"
        cfg.write_text('{"orbit_stage_bound": 2}', encoding="utf-8")
        result = run(["--config", str(cfg), "orbit", "--stage3", "0", "0", "0",
                      "--stage-bound", "4"])
        assert result.exit_code == 0
