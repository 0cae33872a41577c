"""Cap and error-path coverage across modules and the CLI."""

import pytest

from torsionlab import bounds
from torsionlab.bounds import BoundParams, final_delta
from torsionlab.cosets import ModelAmbient, special_closure
from torsionlab.errors import CapExceededError, ValidationError
from torsionlab.integers import FACTOR_LIMIT, factorize
from torsionlab.cli import main


def test_factorize_cap():
    with pytest.raises(CapExceededError):
        factorize(FACTOR_LIMIT + 1)


def test_ambient_cap_on_closure():
    amb = ModelAmbient(13, 2)  # 13^4 = 28561 > 20736
    with pytest.raises(CapExceededError) as exc:
        special_closure(amb, [(1, 0, 0, 0)], 1)
    assert exc.value.required == 28561


def test_final_delta_bit_budget(monkeypatch):
    monkeypatch.setattr(bounds, "THRESHOLD_BIT_BUDGET", 64)
    with pytest.raises(CapExceededError, match="64-bit budget"):
        final_delta(BoundParams(D=10, Delta=2, c=2))


def test_final_delta_tail_cap(monkeypatch):
    monkeypatch.setattr(bounds, "TAIL_K_CAP", 10)
    with pytest.raises(CapExceededError, match="exceeded 10 primes"):
        final_delta(BoundParams(D=10, Delta=2, c=2))


def test_cli_missing_input_file(capsys):
    code = main(["gl-verify", "--input", "/nonexistent/instance.json"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error: validation:")


def test_cli_bad_vector(capsys):
    code = main(["lang-orbit", "--N", "5", "--g", "1", "--point", "x,y", "--c", "1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "bad vector" in err


def test_cli_bad_caps_env(capsys, monkeypatch):
    monkeypatch.setenv("ARITH_MM_CAPS", "abc")
    code = main(["jacobsthal", "10"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "ARITH_MM_CAPS" in err


def test_cli_unknown_algebra_fields(tmp_path, capsys):
    import json

    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "M": [1],
                "N": [1],
                "embedding": [[[[1]]]],
                "u": [[[1]]],
                "w": [[[1]]],
                "bogus": 1,
            }
        )
    )
    code = main(["idempotent-lift", "--input", str(path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert "unknown input fields" in err


def test_cli_internal_error_exit_3(tmp_path, capsys, monkeypatch):
    # force an internal invariant failure through the selftest path
    import torsionlab.selfcheck as sc

    def broken(**kw):
        return sc.CheckResult(3, "rosser-form prime bound", False, "forced", 0.0)

    monkeypatch.setitem(
        sc.__dict__, "ALL_CRITERIA", [(3, "rosser-form prime bound", broken)]
    )
    code = main(["selftest", "--criteria", "3"])
    out, err = capsys.readouterr()
    assert code == 3
    assert err.splitlines()[-1].startswith("error: internal-invariant:")
