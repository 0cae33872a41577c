import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from torsionlab.cli import main


SCHEMA = json.loads(
    resources.files("torsionlab").joinpath("report.schema.json").read_text()
)


def run_cli(argv, capsys, env_caps=None, monkeypatch=None):
    if env_caps is not None and monkeypatch is not None:
        monkeypatch.setenv("ARITH_MM_CAPS", env_caps)
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def validate(payload: str):
    doc = json.loads(payload)
    jsonschema.validate(doc, SCHEMA)
    return doc


def test_jacobsthal_command(capsys):
    code, out, err = run_cli(["jacobsthal", "30"], capsys)
    assert code == 0
    doc = validate(out)
    assert doc == {"d": 30, "g": 6, "kanold": 8}


def test_jacobsthal_zero_exits_1(capsys):
    code, out, err = run_cli(["jacobsthal", "0"], capsys)
    assert code == 1
    assert err.startswith("error: validation:")


def test_coprime_shift_command(capsys):
    code, out, err = run_cli(["coprime-shift", "2", "3", "10"], capsys)
    assert code == 0
    assert validate(out) == {"k": 3, "value": 11, "bound": 4}


def test_coprime_shift_no_solution(capsys):
    code, out, err = run_cli(["coprime-shift", "2", "2", "4"], capsys)
    assert code == 1
    assert "no solution exists" in err


def test_delta_bound_report(capsys):
    code, out, err = run_cli(
        ["delta-bound", "--D", "1", "--Delta", "1", "--c", "1"], capsys
    )
    assert code == 0
    doc = validate(out)
    assert doc["final_delta"] == 7
    assert doc["x"] == 3 and doc["n"] == 5
    assert doc["lambda"] == [0, 1]


def test_sigma_set_command(capsys):
    code, out, err = run_cli(["sigma-set", "--D", "1", "--c", "1", "--d", "2"], capsys)
    assert code == 0
    doc = validate(out)
    assert doc["elements"] == [1, 3, 5, 7, 9, 11, 13]


def test_lang_orbit_command(capsys):
    code, out, err = run_cli(
        ["lang-orbit", "--N", "5", "--g", "1", "--point", "1,0", "--c", "2"], capsys
    )
    assert code == 0
    doc = validate(out)
    assert doc["orbit"] == [[1, 0], [4, 0]]


def test_special_closure_command(capsys):
    code, out, err = run_cli(
        ["special-closure", "--N", "3", "--g", "1", "--points",
         "0,0;0,1;0,2;1,0;1,1;1,2;2,0;2,1;2,2", "--c", "1"],
        capsys,
    )
    assert code == 0
    doc = validate(out)
    assert doc["component_count"] == 1
    assert doc["total_points"] == 9


def test_keyprop_witness_command(capsys):
    orbit = "1,0;2,0;3,0;4,0"
    code, out, err = run_cli(
        ["keyprop-witness", "--N", "5", "--g", "1", "--set", orbit,
         "--a", "1,0", "--c", "1", "--delta-cap", "10"],
        capsys,
    )
    assert code == 0
    doc = validate(out)
    assert doc["alpha"] == [1, 0] and doc["order"] == 5 and doc["within_cap"]


def test_gl_verify_command(tmp_path, capsys):
    payload = {
        "ell": 3,
        "dim": 2,
        "generators": [[[0, 1], [1, 0]]],
        "a": [1, 0],
        "V": [[1, 0]],
        "C": [2, 1],
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["gl-verify", "--input", str(path)], capsys)
    assert code == 0
    doc = validate(out)
    assert doc["bound"] == [48, 1]
    assert doc["bound_ok"] is True
    assert doc["stab_index"] <= 2


def test_gl_verify_rejects_unknown_fields(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"ell": 3, "dim": 1, "generators": [],
                                "a": [1], "V": [[1]], "extra": 1}))
    code, out, err = run_cli(["gl-verify", "--input", str(path)], capsys)
    assert code == 1
    assert "unknown" in err


def test_idempotent_lift_command(tmp_path, capsys):
    payload = {
        "M": [1],
        "N": [2],
        "embedding": [[[[1, 0], [0, 1]]]],
        "u": [[[1, 0], [0, 0]]],
        "w": [[[0]]],
    }
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["idempotent-lift", "--input", str(path)], capsys)
    assert code == 0
    doc = validate(out)
    assert doc["v"] == [[[[0, 1]]]]


def test_idempotent_lift_central_command(tmp_path, capsys):
    payload = {
        "M": [1],
        "N": [2, 2],
        "embedding": [[[[1, 0], [0, 1]], [[1, 0], [0, 1]]]],
        "pi": [[[1, 0], [0, 1]], [[0, 0], [0, 0]]],
        "u": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]],
        "w": [[[0]]],
    }
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["idempotent-lift-central", "--input", str(path)], capsys)
    assert code == 0
    doc = validate(out)
    assert doc["v"] == [[[[0, 1]]]]


def test_group_cap_env_exit_2(tmp_path, capsys, monkeypatch):
    payload = {
        "ell": 5,
        "dim": 2,
        "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]],
        "a": [1, 0],
        "V": [[1, 0]],
        "C": [500, 1],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(
        ["gl-verify", "--input", str(path)], capsys, env_caps=",10,", monkeypatch=monkeypatch
    )
    assert code == 2
    assert err.startswith("error: cap-exceeded:")


def test_lattice_cap_env_exit_2(tmp_path, capsys, monkeypatch):
    # F_5^2 has 25 points: the lattice slot of ARITH_MM_CAPS refuses it
    payload = {"ell": 5, "dim": 2, "generators": [[[2, 0], [0, 1]]],
               "a": [1, 1], "V": [[1, 0], [0, 1]]}
    path = tmp_path / "f52.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["gl-verify", "--input", str(path)], capsys)
    assert code == 0
    code, out, err = run_cli(
        ["gl-verify", "--input", str(path)], capsys, env_caps=",,10", monkeypatch=monkeypatch
    )
    assert code == 2
    assert err.startswith("error: cap-exceeded: subspace lattice 5^2")
    assert "(required 25)" in err


def test_gl_verify_big_ell_fails_fast(tmp_path):
    # refused by the lattice cap before the group is closed; a child process
    # with a CPU limit turns a slow primality scan into a failure
    import resource

    path = tmp_path / "big-ell.json"
    path.write_text(json.dumps({"ell": 1000000007, "dim": 1, "generators": [[[2]]],
                                "a": [1], "V": [[1]]}))

    def limit():
        resource.setrlimit(resource.RLIMIT_CPU, (2, 3))

    env = {k: v for k, v in os.environ.items() if k != "ARITH_MM_CAPS"}
    proc = subprocess.run([sys.executable, "-m", "torsionlab", "gl-verify", "--input", str(path)],
                          capture_output=True, text=True, timeout=30, preexec_fn=limit, env=env)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: cap-exceeded: subspace lattice 1000000007^1 exceeds cap 3125 "
        "(required 1000000007)"
    ]


def test_gl_verify_huge_dim_refused_without_the_power(tmp_path, capsys):
    path = tmp_path / "huge-dim.json"
    path.write_text(json.dumps({"ell": 3, "dim": 10 ** 12, "generators": [],
                                "a": [1], "V": [[1]]}))
    code, out, err = run_cli(["gl-verify", "--input", str(path)], capsys)
    assert code == 2
    assert err.startswith("error: cap-exceeded:")


@pytest.mark.parametrize("command", ["gl-verify", "idempotent-lift", "idempotent-lift-central"])
@pytest.mark.parametrize("content", ['{"ell": 5, "dim": 1, "generators": [[[2]]', "[1, 2]", ""])
def test_malformed_input_is_a_validation_error(tmp_path, capsys, command, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    code, out, err = run_cli([command, "--input", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: validation:")


@pytest.mark.parametrize("field, value", [("ell", "5"), ("ell", 5.0), ("dim", "1"),
                                          ("dim", True), ("ell", None)])
def test_gl_verify_non_integer_ell_dim(tmp_path, capsys, field, value):
    payload = {"ell": 5, "dim": 1, "generators": [[[2]]], "a": [1], "V": [[1]]}
    payload[field] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["gl-verify", "--input", str(path)], capsys)
    assert code == 1
    assert err.startswith("error: validation: %r must be an integer" % field)


def test_output_byte_identical(capsys):
    code1, out1, _ = run_cli(["delta-bound", "--D", "2", "--Delta", "2", "--c", "1"], capsys)
    code2, out2, _ = run_cli(["delta-bound", "--D", "2", "--Delta", "2", "--c", "1"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_csv_and_text_formats(capsys):
    code, out, _ = run_cli(["--format", "csv", "jacobsthal", "10"], capsys)
    assert code == 0
    assert "d,10" in out and "g,4" in out
    code, out, _ = run_cli(["--format", "text", "jacobsthal", "10"], capsys)
    assert code == 0
    assert "g = 4" in out


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "torsionlab", "jacobsthal", "12"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"d": 12, "g": 4, "kanold": 4}


def test_selftest_single_criterion(capsys):
    code, out, err = run_cli(["selftest", "--criteria", "3"], capsys)
    assert code == 0
    doc = validate(out)
    assert doc["passed"] is True
    assert doc["criteria"][0]["index"] == 3
    assert "criterion 3 [PASS]" in err
