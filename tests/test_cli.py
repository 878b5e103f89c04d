import json

import pytest

from switchdiag import pipeline
from switchdiag.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, main
from switchdiag.errors import InternalConsistencyError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def model_path(tmp_path, capsys):
    path = tmp_path / "model.json"
    code, _, _ = run_cli(capsys, "generate", "--n", "3", "--setup", "II", "--out", str(path))
    assert code == EXIT_OK
    return path


class TestGenerate:
    def test_writes_model_json(self, model_path):
        data = json.loads(model_path.read_text())
        assert data["n"] == 3
        assert data["fault_aggregation"]["f_cell"] == ["f_Ro", "f_Cp", "f_Rp", "f_Em"]

    def test_preset_prefix(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        code, _, _ = run_cli(capsys, "generate", "--n", "1", "--setup", "bimmc:III",
                             "--out", str(path))
        assert code == EXIT_OK

    def test_bad_setup_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--n", "2", "--setup", "IX")
        assert code == EXIT_INPUT
        assert "unknown sensor setup" in err

    def test_bad_n_is_input_error(self, capsys):
        code, _, _ = run_cli(capsys, "generate", "--n", "0", "--setup", "I")
        assert code == EXIT_INPUT


class TestAnalyze:
    def test_markdown_report(self, capsys, model_path):
        code, out, _ = run_cli(capsys, "analyze", "--model", str(model_path),
                               "--config", "IIB")
        assert code == EXIT_OK
        assert "{f_cell,3, f_vcell,3}" in out

    def test_matrix_flag(self, capsys, model_path):
        code, out, _ = run_cli(capsys, "analyze", "--model", str(model_path),
                               "--config", "IIB", "--matrix")
        assert code == EXIT_OK
        assert "•" in out

    def test_config_required_for_switched(self, capsys, model_path):
        code, _, err = run_cli(capsys, "analyze", "--model", str(model_path))
        assert code == EXIT_INPUT
        assert "--config" in err

    def test_flat_model_analyze(self, capsys, tmp_path):
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({
            "equations": [
                {"id": "e1", "unknowns": ["x"], "fault": "f1"},
                {"id": "e2", "unknowns": ["x"]},
            ],
            "unknowns": ["x"],
        }))
        code, out, _ = run_cli(capsys, "analyze", "--model", str(flat), "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["detectable"] == ["f1"]

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--model", "nope.json", "--config", "II")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("payload", [
        [],
        "template",
        {"equations": [{"unknowns": ["x"]}], "unknowns": ["x"]},
        {"equations": [["e1", "x"]], "unknowns": ["x"]},
        {"equations": {"id": "e1"}, "unknowns": []},
        {"equations": [{"id": "e1", "unknowns": "x"}], "unknowns": ["x"]},
        {"equations": [{"id": "e1", "fault": ["f"]}], "unknowns": []},
        {"equations": [], "unknowns": "x"},
    ])
    def test_malformed_flat_model_is_input_error(self, capsys, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "analyze", "--model", str(path))
        assert code == EXIT_INPUT
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestSweep:
    def test_markdown_table(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "2")
        assert code == EXIT_OK
        assert out.startswith("| Setup |")
        assert "| IV |" in out

    def test_setup_subset_json(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "1", "--setups", "I,II",
                               "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["setups"] == ["I", "II"]

    def test_full_enumeration(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "2", "--setups", "I",
                               "--full-enumeration")
        assert code == EXIT_OK
        assert "16 raw configurations match" in out

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        def boom(n, setups=None):
            raise InternalConsistencyError("forced")

        monkeypatch.setattr(pipeline, "sweep", boom)
        code, _, err = run_cli(capsys, "sweep", "--n", "2")
        assert code == EXIT_INTERNAL
        assert "internal consistency error" in err


class TestDm:
    def test_json_export(self, capsys, model_path):
        code, out, _ = run_cli(capsys, "dm", "--model", str(model_path),
                               "--config", "IIB", "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert set(data) == {"under", "just", "over", "fine_blocks"}
        assert data["under"]["equations"] == []

    def test_dot_export(self, capsys, model_path):
        code, out, _ = run_cli(capsys, "dm", "--model", str(model_path),
                               "--config", "IIB", "--format", "dot")
        assert code == EXIT_OK
        assert out.startswith("graph dm {")


class TestOracleCheck:
    def test_small_run_agrees(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--seed", "3", "--count", "25")
        assert code == EXIT_OK
        assert "25 models" in out
        assert "all decompositions agree" in out


class TestResidual:
    @pytest.fixture
    def scenario_path(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "mode": "insertion-forward",
            "duration": 0.02,
            "sensors": ["cell_current", "extra_output_current"],
            "faults": [{"signal": "f_iout", "onset": 0.0, "magnitude": 1.0}],
        }))
        return path

    def test_writes_csv_and_gains(self, capsys, tmp_path, scenario_path):
        out_csv = tmp_path / "trace.csv"
        code, out, _ = run_cli(capsys, "residual", "--scenario", str(scenario_path),
                               "--out", str(out_csv), "--gains")
        assert code == EXIT_OK
        header = out_csv.read_text().splitlines()[0]
        assert header == "time_s,r_setup1_V,r_cellcurrent_A,r_redundant_A"
        gains = json.loads(out.split("\n", 1)[1])
        assert gains["gains"]["cell_current"] == pytest.approx(1.0)
        assert abs(gains["gains"]["setup1"]) == pytest.approx(1.892e-3, rel=0.01)

    def test_bypass_scenario_leaves_setup1_column_empty(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "mode": "bypass",
            "sensors": ["extra_output_current"],
            "faults": [{"signal": "f_iout", "onset": 0.0, "magnitude": 1.0}],
        }))
        out_csv = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "residual", "--scenario", str(path),
                             "--out", str(out_csv))
        assert code == EXIT_OK
        first_row = out_csv.read_text().splitlines()[1].split(",")
        assert first_row[1] == "" and first_row[2] == ""
        assert first_row[3] != ""

    def test_requires_out_or_gains(self, capsys, scenario_path):
        code, _, err = run_cli(capsys, "residual", "--scenario", str(scenario_path))
        assert code == EXIT_INPUT
        assert "nothing to do" in err

    def test_invalid_scenario_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, _, _ = run_cli(capsys, "residual", "--scenario", str(path), "--gains")
        assert code == EXIT_INPUT
