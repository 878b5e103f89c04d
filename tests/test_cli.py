import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import switchdiag
from switchdiag import bimmc, modelio, oraclecheck, pipeline
from switchdiag.cli import EXIT_BROKEN_PIPE, EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, main
from switchdiag.errors import InputError, InternalConsistencyError
from switchdiag.residuals import MAX_STEPS, FaultStep
from switchdiag.structural import IsolabilityReport

from .conftest import OVERFLOWING_SENSOR, STIFF_OBSERVER, TINY_TAU


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_input_error(code, err):
    assert code == EXIT_INPUT
    assert err.startswith("error:")
    assert "Traceback" not in err


def strict_json(text):
    # Python's json emits NaN and Infinity, which no JSON parser must accept.
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


# Undecodable bytes, and nesting deeper than the decoder's recursion limit.
NOT_UTF8 = b"\xff\xfe\x00x"
DEEP = b"[" * 100_000 + b"]" * 100_000
DEEP_SCENARIO = b'{"mode": "insertion-forward", "faults": ' + DEEP + b"}"


def test_cli_import_loads_no_scipy():
    # oraclecheck loads scipy.sparse; only the oracle-check command may import it.
    src = str(Path(switchdiag.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys, switchdiag.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["analyze", "--model", "{model}", "--config", "IIBB"],
    ["dm", "--model", "{model}", "--config", "IIBB"],
    ["sweep", "--n", "3", "--full-enumeration"],
], ids=["analyze", "dm", "sweep"])
def test_structural_command_loads_no_numpy(tmp_path, capsys, argv):
    # Only the residual command needs numpy (and oracle-check scipy); the
    # structural commands must start and run without either.
    path = tmp_path / "n4.json"
    code, _, _ = run_cli(capsys, "generate", "--n", "4", "--setup", "IV", "--out", str(path))
    assert code == EXIT_OK
    src = str(Path(switchdiag.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = ("import json, sys, switchdiag.cli; "
             "code = switchdiag.cli.main(json.loads(sys.argv[1])); "
             "print(code, sorted({'numpy', 'scipy'} & set(sys.modules)))")
    argv = [arg.format(model=path) for arg in argv]
    result = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(argv)], env=env, capture_output=True, text=True,
        check=True,
    )
    assert result.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_ends_quietly(tmp_path, capsys, unbuffered):
    # The reader takes one line and closes the pipe, as ``| head -1`` does;
    # the 0.4 MB matrix cannot fit in the pipe, so a later write meets it
    # closed, and so does the flush at exit when stdout is buffered.
    path = tmp_path / "n64.json"
    code, _, _ = run_cli(capsys, "generate", "--n", "64", "--setup", "IV", "--out", str(path))
    assert code == EXIT_OK
    src = str(Path(switchdiag.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "PYTHONUNBUFFERED": unbuffered}
    argv = ["analyze", "--model", str(path), "--config", "I" * 32 + "B" * 32, "--matrix"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "switchdiag.cli", *argv], env=env, bufsize=0,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline() == b"Detectable faults: 194\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == ""


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_stdout_closed_before_output_ends_quietly(unbuffered):
    # The pipe's reader is gone before the command starts; buffered, the
    # short table waits in the buffer until main flushes it.
    src = str(Path(switchdiag.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "PYTHONUNBUFFERED": unbuffered}
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "switchdiag.cli", "sweep", "--n", "2"], env=env, stdout=write,
            stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write)
    assert result.returncode == EXIT_BROKEN_PIPE
    assert result.stderr == b""


def test_package_serves_residual_names():
    from switchdiag import simulate_plant

    assert simulate_plant is switchdiag.residuals.simulate_plant
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        switchdiag.no_such_name


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

    def test_stdout_matches_out_file(self, capsys, model_path):
        code, out, _ = run_cli(capsys, "generate", "--n", "3", "--setup", "II")
        assert code == EXIT_OK
        assert out.encode("utf-8") == model_path.read_bytes()

    def test_unwritable_out_is_input_error(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.json"
        code, _, err = run_cli(capsys, "generate", "--n", "2", "--setup", "I", "--out", str(out))
        assert_input_error(code, err)
        assert "cannot write" in err


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

    @pytest.mark.parametrize("command", ["analyze", "dm"])
    @pytest.mark.parametrize("content", [NOT_UTF8, DEEP], ids=["not-utf8", "deep"])
    def test_unreadable_model_is_input_error(self, capsys, tmp_path, command, content):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        code, _, err = run_cli(capsys, command, "--model", str(path))
        assert_input_error(code, err)

    @pytest.mark.parametrize("payload", [
        [],
        "template",
        {"equations": [{"unknowns": ["x"]}], "unknowns": ["x"]},
        {"equations": [["e1", "x"]], "unknowns": ["x"]},
        {"equations": {"id": "e1"}, "unknowns": []},
        {"equations": [{"id": "e1", "unknowns": "x"}], "unknowns": ["x"]},
        {"equations": [{"id": "e1", "fault": ["f"]}], "unknowns": []},
        {"equations": [], "unknowns": "x"},
        # A fault is absent, null or a non-empty string; nothing else is dropped silently.
        *({"equations": [{"id": "e1", "fault": fault}], "unknowns": []}
          for fault in (0, False, [], {}, "")),
    ])
    def test_malformed_flat_model_is_input_error(self, capsys, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "analyze", "--model", str(path))
        assert code == EXIT_INPUT
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_fault_on_two_equations_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "equations": [{"id": "e1", "unknowns": ["x"], "fault": "f"},
                          {"id": "e2", "unknowns": ["x"], "fault": "f"}],
            "unknowns": ["x"],
        }))
        code, _, err = run_cli(capsys, "analyze", "--model", str(path))
        assert_input_error(code, err)
        assert "duplicate fault identifiers: ['f']" in err


class TestSingleModuleConfiguration:
    """At n=1 a configuration may be one mode name, with or without letters."""

    @staticmethod
    def analyze(capsys, tmp_path, config, letters=True, rename=None):
        switched, _ = bimmc.generate(1, "II")
        data = modelio.switched_model_to_dict(switched, bimmc.FAULT_AGGREGATION)
        if not letters:
            del data["template"]["mode_letters"]
        text = json.dumps(data)
        for old, new in (rename or {}).items():
            text = text.replace(json.dumps(old), json.dumps(new))
        path = tmp_path / "model.json"
        path.write_text(text)
        return run_cli(capsys, "analyze", "--model", str(path), "--config", config, "--matrix")

    @pytest.mark.parametrize("letters", [True, False], ids=["letters", "no-letters"])
    def test_one_mode_name(self, capsys, tmp_path, letters):
        code, out, _ = self.analyze(capsys, tmp_path, "forward", letters)
        assert code == EXIT_OK
        assert out == self.analyze(capsys, tmp_path, "I")[1]

    def test_mode_name_without_a_letter(self, capsys, tmp_path):
        code, out, _ = self.analyze(capsys, tmp_path, "bypass2", letters=False)
        assert code == EXIT_OK
        assert out == self.analyze(capsys, tmp_path, "B")[1]

    def test_letter_without_letters_is_input_error(self, capsys, tmp_path):
        code, _, err = self.analyze(capsys, tmp_path, "I", letters=False)
        assert_input_error(code, err)
        assert "no mode letters" in err

    def test_name_that_is_another_modes_letter_is_ambiguous(self, capsys, tmp_path):
        # Mode bypass2 renamed to I, which is also the letter of forward.
        code, _, err = self.analyze(capsys, tmp_path, "I", rename={"bypass2": "I"})
        assert_input_error(code, err)
        assert "ambiguous" in err


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

    @pytest.mark.parametrize("setups", ["I,I", "I,bimmc:I"])
    def test_repeated_setup_is_input_error(self, capsys, setups):
        code, out, err = run_cli(capsys, "sweep", "--n", "1", "--setups", setups,
                                 "--full-enumeration")
        assert_input_error(code, err)
        assert "duplicate sensor setup identifiers: ['I']" in err
        assert out == ""

    @pytest.mark.parametrize("setups", ["", " ", "I,"], ids=["empty", "blank", "trailing-comma"])
    def test_empty_setup_name_is_input_error(self, capsys, setups):
        code, out, err = run_cli(capsys, "sweep", "--n", "1", "--setups", setups)
        assert_input_error(code, err)
        assert "unknown sensor setup ''" in err
        assert out == ""

    def test_zero_submodules_is_input_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--n", "0")
        assert_input_error(code, err)
        assert "submodule count must be >= 1" in err
        assert out == ""

    def test_preset_prefix_with_full_enumeration(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--n", "2", "--setups", "bimmc:I",
                                 "--full-enumeration", "--format", "json")
        assert code == EXIT_OK, err
        assert out.startswith("setup I: 16 raw configurations match")
        assert json.loads(out.split("\n", 1)[1])["setups"] == ["I"]

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

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_is_input_error(self, capsys, count):
        code, out, err = run_cli(capsys, "oracle-check", "--count", count)
        assert_input_error(code, err)
        assert out == ""

    def test_disagreement_is_internal_error(self, capsys, monkeypatch):
        # A core that calls every fault non-detectable contradicts the oracle.
        def blind(model):
            return IsolabilityReport(frozenset(), (), frozenset(model.faults))

        monkeypatch.setattr(oraclecheck, "isolability_partition", blind)
        code, out, err = run_cli(capsys, "oracle-check", "--seed", "3", "--count", "25")
        assert code == EXIT_INTERNAL
        assert "25 models" in out
        assert "DISAGREEMENT: model" in err
        assert re.search(r"^internal consistency error: \d+ oracle disagreements \(seed 3\)$",
                         err, re.MULTILINE)


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

    def test_bypass_scenario_fills_setup1_column(self, capsys, tmp_path):
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
        # Only the cell-current column, whose sensor is absent, stays empty.
        assert first_row[1] != "" and first_row[2] == ""
        assert first_row[3] != ""

    def test_gains_with_two_faults_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_scenario_payload(_set("faults", [
            {"signal": "f_iout", "onset": 0.01, "magnitude": 1.0},
            {"signal": "f_icell", "onset": 0.01, "magnitude": 1.0},
        ]))))
        code, out, err = run_cli(capsys, "residual", "--scenario", str(path), "--gains")
        assert_input_error(code, err)
        assert "--gains needs at most one fault injection" in err
        assert out == ""

    def test_requires_out_or_gains(self, capsys, scenario_path):
        code, _, err = run_cli(capsys, "residual", "--scenario", str(scenario_path))
        assert code == EXIT_INPUT
        assert "nothing to do" in err

    def test_invalid_scenario_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, _, _ = run_cli(capsys, "residual", "--scenario", str(path), "--gains")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("content", [NOT_UTF8, DEEP_SCENARIO], ids=["not-utf8", "deep"])
    def test_unreadable_scenario_is_input_error(self, capsys, tmp_path, content):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        code, _, err = run_cli(capsys, "residual", "--scenario", str(path), "--gains")
        assert_input_error(code, err)

    def test_unwritable_out_is_input_error(self, capsys, tmp_path, scenario_path):
        out = tmp_path / "missing" / "x.csv"
        code, _, err = run_cli(capsys, "residual", "--scenario", str(scenario_path),
                               "--out", str(out))
        assert_input_error(code, err)
        assert "cannot write" in err

    def test_stiff_observer_gains_are_finite(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(STIFF_OBSERVER))
        code, out, err = run_cli(capsys, "residual", "--scenario", str(path), "--gains")
        assert code == EXIT_OK, err
        gains = strict_json(out)["gains"]
        assert gains["setup1"] == pytest.approx(-(TINY_TAU["r_p"] + TINY_TAU["r_o"]), rel=1e-9)

    @pytest.mark.parametrize("scenario", [OVERFLOWING_SENSOR], ids=["overflowing-sensor"])
    def test_non_finite_result_is_input_error(self, capsys, tmp_path, scenario):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out_csv = tmp_path / "trace.csv"
        for output in (["--gains"], ["--out", str(out_csv)]):
            code, out, err = run_cli(capsys, "residual", "--scenario", str(path), *output)
            assert_input_error(code, err)
            assert "non-finite" in err
            assert out == ""
            assert not out_csv.exists()


def _switched_payload(mutate, setup="II"):
    switched, _ = bimmc.generate(2, setup)
    data = modelio.switched_model_to_dict(switched, bimmc.FAULT_AGGREGATION)
    mutate(data)
    return data


def _scenario_payload(mutate):
    data = {
        "mode": "insertion-forward",
        "dt": 1e-4,
        "duration": 0.02,
        "i_out": {"kind": "sine", "amplitude": 2.0, "frequency_hz": 50.0},
        "sensors": ["cell_current"],
        "faults": [{"signal": "f_iout", "onset": 0.01, "magnitude": 1.0}],
    }
    mutate(data)
    return data


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(data):
        for step in path:
            data = data[step]
        data[key] = value

    return mutate


def _drop(*path):
    *path, key = path

    def mutate(data):
        for step in path:
            data = data[step]
        del data[key]

    return mutate


class TestMalformedSwitchedModel:
    @pytest.mark.parametrize("mutate", [
        _set("template", []),
        _set("n", "abc"),
        _set("n", 2.5),
        _set("n", True),
        _set("global_equations", 5),
        _set("template", "equations", 8, "variants", []),
        _set("template", "equations", 0, "unknowns", "dv_p"),
        _set("template", "modes", []),
        _set("template", "mode_letters", ["I"]),
        _set("global_equations", 0, "per_instance", 3),
        _set("shared_unknowns", {"i_out": 1}),
        _set("fault_aggregation", [1]),
        _set("fault_aggregation", {"f_cell": "f_Ro"}),
        _drop("template", "equations", 0, "id"),
        _set("template", "equations", 7, "fault", ""),
        _set("global_equations", 1, "fault", ""),
    ], ids=[
        "template-list", "n-string", "n-fraction", "n-bool", "global-equations-number",
        "variants-list", "unknowns-string", "no-modes", "mode-letters-list",
        "per-instance-number", "shared-unknowns-object", "aggregation-list",
        "aggregate-string", "equation-without-id", "template-fault-empty", "global-fault-empty",
    ])
    def test_is_input_error(self, capsys, tmp_path, mutate):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_switched_payload(mutate)))
        code, _, err = run_cli(capsys, "analyze", "--model", str(path), "--config", "IB")
        assert code == EXIT_INPUT
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("mutate, duplicated", [
        (_set("global_equations", 0, "id", "e1,1"), "duplicate equation identifiers: ['e1,1']"),
        (_set("template", "equations", 4, "fault", "f_Ro"),
         "duplicate fault identifiers: ['f_Ro,1', 'f_Ro,2']"),
    ], ids=["global-id-collides-with-instance", "template-fault-twice"])
    def test_name_collision_is_input_error(self, capsys, tmp_path, mutate, duplicated):
        path = tmp_path / "model.json"
        data = _switched_payload(mutate, setup="I")
        del data["fault_aggregation"]
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "analyze", "--model", str(path), "--config", "IB")
        assert_input_error(code, err)
        assert duplicated in err

    @pytest.mark.parametrize("mutate, config, message", [
        (_set("template", "mode_letters", "B", "sideways"), "IB",
         "mode letter 'B' maps to unknown mode 'sideways'"),
        (_set("shared_unknowns", ["v_out", "i_out", "v_p"]), "IB",
         "shared unknowns collide with template locals: ['v_p']"),
        (_set("template", "equations", 2, "unknowns", ["dv_p", "zz"]), "IB",
         "template equation 'e3' references undeclared unknowns ['zz']"),
        (_set("global_equations", 0, "unknowns", ["v_out", "v_p"]), "IB",
         "global equation 'e1,0' must use shared unknowns only"),
        (_set("global_equations", 0, "per_instance", ["i_out"]), "IB",
         "global equation 'e1,0' per-instance unknowns must be template locals"),
        (_set("fault_aggregation", "f_other", ["f_Ro"]), "IB",
         "aggregation cells must be disjoint"),
        (_set("fault_aggregation", {"": ["f_Ro"]}), "IB",
         "aggregate name must be a non-empty string"),
        (_set("fault_aggregation", "f_x", []), "IB", "aggregate 'f_x' absorbs no fault"),
        (_set("fault_aggregation", "f_cell", ["f_Ro", "f_Ro", "f_Rp"]), "IB",
         "duplicate aggregate 'f_cell' fault identifiers: ['f_Ro']"),
        (_set("template", "equations", 0, "id", 5), "IB",
         'template equation "id" must be a string'),
        (lambda data: None, "forward,sideways", "unknown mode name 'sideways'"),
    ], ids=[
        "letter-to-unknown-mode", "shared-collides-with-local", "template-undeclared-unknown",
        "global-non-shared-unknown", "per-instance-not-local", "fault-in-two-aggregates",
        "empty-aggregate-name", "empty-aggregate", "aggregate-names-a-fault-twice",
        "equation-id-number", "unknown-mode-name",
    ])
    def test_refusal_names_its_cause(self, capsys, tmp_path, mutate, config, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_switched_payload(mutate)))
        code, out, err = run_cli(capsys, "analyze", "--model", str(path), "--config", config)
        assert_input_error(code, err)
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("mutate, message", [
        (_set("fault_aggregation", "f_other", ["f_Ro"]), "aggregation cells must be disjoint"),
        (_set("fault_aggregation", "f_x", ["f_nope"]),
         "aggregation pattern references unknown faults ['f_nope']"),
        (_set("global_equations", 1, "fault", "f_cell,2"),
         "aggregate name 'f_cell,2' collides with a model fault"),
    ], ids=["fault-in-two-aggregates", "unknown-fault", "aggregate-name-collision"])
    def test_dm_refuses_malformed_aggregation_as_analyze_does(
        self, capsys, tmp_path, mutate, message
    ):
        # dm reports no fault names, but the model file is refused all the same.
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_switched_payload(mutate)))
        results = [
            run_cli(capsys, command, "--model", str(path), "--config", "IB")
            for command in ("analyze", "dm")
        ]
        assert results[0] == results[1]
        code, out, err = results[1]
        assert_input_error(code, err)
        assert err == f"error: {message}\n"
        assert out == ""

    def test_mode_letter_of_two_characters_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_switched_payload(
            _set("template", "mode_letters", {"IB": "forward", "B": "bypass1"})
        )))
        code, _, err = run_cli(capsys, "analyze", "--model", str(path), "--config", "IB")
        assert_input_error(code, err)
        assert "mode letter 'IB' must be one character" in err

    @pytest.mark.parametrize("k", [1, 2])
    def test_aggregate_name_collision_is_input_error(self, capsys, tmp_path, k):
        # A pack fault named like the k-th cell aggregate.
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_switched_payload(_set("global_equations", 1, "fault",
                                                          f"f_cell,{k}"))))
        code, _, err = run_cli(capsys, "analyze", "--model", str(path), "--config", "IB")
        assert_input_error(code, err)
        assert f"aggregate name 'f_cell,{k}' collides with a model fault" in err


class TestMalformedScenario:
    @pytest.mark.parametrize("mutate", [
        _drop("faults", 0, "magnitude"),
        _drop("faults", 0, "signal"),
        _set("faults", 3),
        _set("faults", [3]),
        _set("truth_params", [1]),
        _set("truth_params", {"r_p": 1e-3, "c_p": "x", "r_o": 1e-3, "v_ocv": 4.0}),
        _set("dt", "x"),
        _set("i_out", "amplitude", "x"),
        _set("i_out", "frequency_hz", None),
        _set("i_out", "x"),
        _set("duration", 1e8),
        _set("duration", 1e-4 * (MAX_STEPS + 1)),
        _set("sensors", "cell_current"),
        _set("mode", ["bypass"]),
        _set("dt", math.inf),
        _set("dt", math.nan),
        _set("duration", math.inf),
        _set("faults", 0, "onset", math.nan),
        _set("faults", 0, "magnitude", math.inf),
        _set("faults", 0, "magnitude", True),
        _set("faults", 0, "profile", "ramp"),
        _set("nominal_params", {"r_p": 1e-200, "c_p": 1e-200, "r_o": 1e-3, "v_ocv": 4.0}),
    ], ids=[
        "fault-without-magnitude", "fault-without-signal", "faults-number", "fault-number",
        "truth-params-list", "truth-param-string", "dt-string", "amplitude-string",
        "frequency-null", "i-out-string", "duration-1e8", "steps-over-limit",
        "sensors-string", "mode-list", "dt-inf", "dt-nan", "duration-inf", "onset-nan",
        "magnitude-inf", "magnitude-bool", "ramp-profile", "time-constant-underflow",
    ])
    def test_is_input_error(self, capsys, tmp_path, mutate):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_scenario_payload(mutate)))
        code, _, err = run_cli(capsys, "residual", "--scenario", str(path), "--gains")
        assert code == EXIT_INPUT
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("mutate, build, message", [
        (_set("faults", 0, "signal", "f_vbat"), None, "unknown fault signal 'f_vbat'"),
        (None, lambda: FaultStep("f_iout", math.nan, 1.0),
         "fault onset and magnitude must be finite"),
        (_set("dt", 0), None, "dt must be positive and finite"),
        (_set("duration", 1e-5), None, "duration must be at least one timestep"),
        (_set("sensors", ["cell_current", "v_bus"]), None, "unknown sensors ['v_bus']"),
        (_set("faults", 0, "signal", "f_iout_extra"), None,
         "f_iout_extra injection requires the extra_output_current sensor"),
        (_set("i_out", "kind", "square"), None, "unknown current profile kind 'square'"),
        (_set("truth_params", {"r_p": 1e-3, "c_p": 1.0, "r_o": 1e-3}), None,
         "cell parameters missing field 'v_ocv'"),
    ], ids=[
        "unknown-signal", "onset-nan", "dt-zero", "duration-below-dt", "unknown-sensor",
        "extra-fault-without-sensor", "unknown-profile-kind", "params-without-v-ocv",
    ])
    def test_refusal_names_its_cause(self, capsys, tmp_path, mutate, build, message):
        # JSON numbers are checked finite before a FaultStep sees them, so a
        # non-finite onset can only come from a directly built dataclass.
        if build is not None:
            with pytest.raises(InputError, match=re.escape(message)):
                build()
            return
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_scenario_payload(mutate)))
        code, out, err = run_cli(capsys, "residual", "--scenario", str(path), "--gains")
        assert_input_error(code, err)
        assert message in err
        assert out == ""

    def test_top_level_must_be_an_object(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("[]")
        code, _, err = run_cli(capsys, "residual", "--scenario", str(path), "--gains")
        assert code == EXIT_INPUT
        assert err.startswith("error:")


# -- fuzzed CLI inputs ----------------------------------------------------------

# Replacement values stay small, so no mutated scenario asks for a long run.
_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-2, 5)
    | st.sampled_from([-1.0, 0.0, 0.5, 2.0, 1e8, math.nan, math.inf, -math.inf])
    | st.text(alphabet="IBefx_,1", max_size=4)
)
_json_values = st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(alphabet="abx_", max_size=3), children, max_size=3),
    max_leaves=6,
)


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _paths(child, prefix + (index,))


@st.composite
def _mutated(draw, base):
    # Replace or delete one randomly chosen node of the document, a few times.
    data = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(data))))
        if not path:
            data = draw(_json_values)
            continue
        parent = data
        for step in path[:-1]:
            parent = parent[step]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_json_values)
        if not isinstance(data, (dict, list)):
            break
    return data


_FLAT_MODEL = {
    "equations": [
        {"id": "e1", "unknowns": ["x"], "fault": "f1"},
        {"id": "e2", "unknowns": ["x", "y"], "fault": "f2"},
        {"id": "e3", "unknowns": ["y"]},
    ],
    "unknowns": ["x", "y"],
}
_SWITCHED_MODEL = _switched_payload(lambda data: None)
_SCENARIO = _scenario_payload(lambda data: None)


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestFuzzedInputs:
    """Mutated JSON documents either work or exit 2; no exception escapes."""

    fuzz = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])

    def check(self, path, data, argv):
        path.write_text(json.dumps(data))
        code, out, err = _run_quietly(argv)
        assert code in (EXIT_OK, EXIT_INPUT), err
        if code == EXIT_INPUT:
            assert err.startswith("error:")
        return code, out

    @fuzz
    @given(data=_mutated(_FLAT_MODEL))
    def test_flat_model(self, tmp_path, data):
        path = tmp_path / "model.json"
        self.check(path, data, ["analyze", "--model", str(path), "--matrix"])

    @fuzz
    @given(data=_mutated(_SWITCHED_MODEL))
    def test_switched_model(self, tmp_path, data):
        path = tmp_path / "model.json"
        self.check(path, data, ["analyze", "--model", str(path), "--config", "IB"])

    @fuzz
    @given(data=_mutated(_SCENARIO))
    @example(data=STIFF_OBSERVER)
    @example(data=OVERFLOWING_SENSOR)
    def test_scenario(self, tmp_path, data):
        path = tmp_path / "scenario.json"
        code, out = self.check(path, data, ["residual", "--scenario", str(path), "--gains"])
        if code == EXIT_OK:
            strict_json(out)
