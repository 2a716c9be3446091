"""Tests for the command-line front end and its exit codes."""

import json

import pytest

from opentc import experiments
from opentc.cli import main


def write_config(tmp_path, **values):
    base = dict(length=2, h=0.0, n_periods=2,
                h_grid=[0.0], eta_grid=[0.0, 0.1], l_grid=[2])
    base.update(values)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base))
    return str(path)


def test_trace_success(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "trace.csv"
    code = main(["trace", "--config", cfg, "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("#")
    assert "m_x" in text
    assert "wrote" in capsys.readouterr().out


def test_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", cfg]) == 0
    assert (tmp_path / "sweep.csv").exists()


def test_config_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, length=3)
    assert main(["trace", "--config", cfg]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["trace", "--config", str(tmp_path / "nope.json")]) == 1


@pytest.mark.parametrize("values", [{"beta": -1.0}, {"beta": 0.0}])
def test_non_positive_beta_exit_code(tmp_path, capsys, values):
    cfg = write_config(tmp_path, h=0.5, **values)
    assert main(["trace", "--config", cfg]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("values", [{"length": 4.0}, {"n_periods": 2.5}])
def test_non_integer_config_exit_code(tmp_path, capsys, values):
    cfg = write_config(tmp_path, **values)
    assert main(["trace", "--config", cfg]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, values", [
    ("sweep", {"h_grid": ["a"]}), ("sweep", {"eta_grid": [True]}),
    ("disorder", {"seed": -1})])
def test_bad_grid_entry_or_seed_exit_code(tmp_path, capsys, command, values):
    cfg = write_config(tmp_path, **values)
    out = str(tmp_path / "out.csv")
    assert main([command, "--config", cfg, "--out", out]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "scaling"])
def test_failed_grid_point_exit_code(tmp_path, capsys, monkeypatch, command):
    protocol = experiments._protocol

    def failing(cfg, h, eta, length):
        # fails the sweep point at eta = 0.1 and the scaling point at L = 4
        if eta > 0 or length == 4:
            raise FloatingPointError("injected")
        return protocol(cfg, h, eta, length)

    monkeypatch.setattr(experiments, "_protocol", failing)
    cfg = write_config(tmp_path, l_grid=[2, 4])
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    header, *lines = out.read_text().splitlines()
    assert json.loads(header[1:])["failures"] == 1
    assert sum("error: injected" in line for line in lines) == 1
    assert "1 row(s) failed" in capsys.readouterr().err


def test_unknown_key_exit_code(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"frequency": 2.0}))
    assert main(["trace", "--config", str(path)]) == 1


def test_spectrum_length_guard_exit_code(tmp_path):
    cfg = write_config(tmp_path, length=8)
    assert main(["spectrum", "--config", cfg]) == 1


def test_numeric_failure_exit_code(tmp_path, capsys):
    # gamma fixed off the factorization line breaks the initial product state
    cfg = write_config(tmp_path, gamma=0.5, h=0.0)
    assert main(["trace", "--config", cfg]) == 2
    assert "numeric failure" in capsys.readouterr().err


def test_seed_override(tmp_path):
    cfg = write_config(tmp_path, n_samples=2)
    out = tmp_path / "dis.csv"
    assert main(["disorder", "--config", cfg, "--seed", "42",
                 "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    meta = json.loads(header[1:])
    assert meta["config"]["seed"] == 42


def test_validate_success(tmp_path, capsys):
    out = tmp_path / "validate.csv"
    assert main(["validate", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    checks = [l for l in lines if l.startswith(("pass", "FAIL"))]
    assert len(checks) >= 20
    assert all(l.startswith("pass") for l in checks)
    assert out.exists()


def test_missing_command_is_usage_error():
    with pytest.raises(SystemExit):
        main([])
