"""Tests for the command-line front end and its exit codes."""

import json
import time

import pytest

from opentc import cli, experiments, floquet
from opentc.cli import main
from opentc.operators import Sector


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


@pytest.mark.parametrize("command", ["sweep", "trace"])
def test_finite_temperature_runs(tmp_path, capsys, command):
    # degenerate levels at L=4 have Bohr frequencies of rounding size
    cfg = write_config(tmp_path, beta=1.0, h=0.5, length=4, h_grid=[0.5])
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert "error" not in out.read_text()
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("command, values, message", [
    ("trace", {"eta": float("nan")}, "must be finite"),
    ("sweep", {"kappa0": float("inf")}, "must be finite"),
    ("trace", {"h": 0.5, "gamma": float("nan")}, "must be finite"),
    ("trace", {"jt": 10 ** 400}, "must be finite"),
    ("sweep", {"threads": 2}, "threads must be 1")],
    ids=["nan-eta", "inf-kappa0", "nan-gamma", "huge-jt", "threads-2"])
def test_non_finite_value_or_threads_is_config_error(tmp_path, capsys,
                                                     command, values, message):
    # json writes and reads NaN, Infinity and integers beyond a float's
    # range; only beta may be infinite
    cfg = write_config(tmp_path, **values)
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()


def test_threads_one_still_runs(tmp_path):
    cfg = write_config(tmp_path, threads=1)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads(out.read_text().splitlines()[0][1:])
    assert meta["config"]["threads"] == 1


@pytest.mark.parametrize("command", ["sweep", "scaling"])
def test_failed_grid_point_exit_code(tmp_path, capsys, monkeypatch, command):
    protocol, kicked = experiments._protocol, floquet.kicked

    def failing_protocol(cfg, h, eta, length):
        # fails the scaling point at L = 4
        if length == 4:
            raise FloatingPointError("injected")
        return protocol(cfg, h, eta, length)

    def failing_kick(p, *args):
        # fails the sweep point at eta = 0.1, whose row builds its protocol
        # at eta = 0 and only kicks at 0.1
        if p.error > 0:
            raise FloatingPointError("injected")
        return kicked(p, *args)

    monkeypatch.setattr(experiments, "_protocol", failing_protocol)
    monkeypatch.setattr(floquet, "kicked", failing_kick)
    cfg = write_config(tmp_path, l_grid=[2, 4])
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    header, *lines = out.read_text().splitlines()
    assert json.loads(header[1:])["failures"] == 1
    assert sum("error: injected" in line for line in lines) == 1
    assert "1 row(s) failed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "disorder"])
def test_failed_kick_of_a_single_point_exit_code(tmp_path, capsys,
                                                 monkeypatch, command):
    # spectrum and disorder run one point: the kick's failure, which the
    # block loop stores for its point, is re-raised as a numeric failure
    def failing_kick(p, *args):
        raise FloatingPointError("injected")

    monkeypatch.setattr(floquet, "kicked", failing_kick)
    cfg = write_config(tmp_path)
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "numeric failure: injected" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, values", [
    ("sweep", {"eta_grid": []}), ("sweep", {"h_grid": []}),
    ("scaling", {"l_grid": []})])
def test_empty_grid_exit_code(tmp_path, capsys, command, values):
    cfg = write_config(tmp_path, **values)
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert "must not be empty" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_output_exit_code(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setitem(cli._RUNNERS, "validate", calls.append)
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert main(["validate", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"cannot write {out}" in err
        assert "Traceback" not in err
    assert calls == []   # refused before the runner started


def test_write_failure_exit_code(tmp_path, capsys, monkeypatch):
    def failing(self, path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(experiments.ResultTable, "write", failing)
    out = tmp_path / "trace.csv"
    assert main(["trace", "--config", write_config(tmp_path),
                 "--out", str(out)]) == 1
    assert f"cannot write {out}: [Errno 13] Permission denied" in \
        capsys.readouterr().err


def test_unknown_key_exit_code(tmp_path):
    path = tmp_path / "cfg.json"
    for values in ({"frequency": 2.0}, {"big": True}):
        path.write_text(json.dumps(values))
        assert main(["trace", "--config", str(path)]) == 1


def test_spectrum_length_guard_exit_code(tmp_path, capsys):
    # every dense runner refuses L=10 (a 2^20 x 2^20 map) before building
    cfg = write_config(tmp_path, length=10)
    for command in ("spectrum", "sweep", "disorder"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert "needs the matrix path" in capsys.readouterr().err
        assert not out.exists()


def test_huge_generator_norm_exits_before_the_first_period(tmp_path, capsys):
    # the bound on ||L T||_1 of the k = 0 block is 2.9e7 here: expm_multiply
    # would run for hours, so the stepper refuses the period from the bound
    cfg = write_config(tmp_path, kappa0=1e4, length=8)
    out = tmp_path / "trace.csv"
    start = time.perf_counter()
    assert main(["trace", "--config", cfg, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 30.0
    assert "PERIOD_NORM_MAX" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("length", [4, 6, 8, 10])
def test_default_trace_norms_stay_under_the_bound(length):
    # the default config of trace, and of scaling up to L = 10
    cfg = experiments.ExperimentConfig(length=length)
    _, proto = experiments._protocol(cfg, cfg.h, cfg.eta, length)
    v = Sector(length, k=0, reflection=1).isometry
    bound = proto.period * proto.model.norm_bound((v, v))
    assert bound <= floquet.PERIOD_NORM_MAX


def test_numeric_failure_exit_code(tmp_path, capsys, monkeypatch):
    def failing(*args):
        raise FloatingPointError("injected")

    monkeypatch.setattr(experiments, "_protocol", failing)
    out = tmp_path / "trace.csv"
    assert main(["trace", "--config", write_config(tmp_path),
                 "--out", str(out)]) == 2
    assert "numeric failure: injected" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["trace", "scaling"])
@pytest.mark.parametrize("values", [
    {"gamma": 0.5, "h": 0.5}, {"h": 1.0}, {"h_grid": [1.5]},
    {"h_grid": [-0.5]}], ids=["off-line", "h-one", "h-grid-high",
                              "h-grid-low"])
def test_initial_state_and_h_grid_config_errors(tmp_path, capsys, command,
                                                values):
    # the factorized pair needs h^2 + gamma^2 = 1 and h < 1; h lies in [0, 1]
    cfg = write_config(tmp_path, **values)
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "disorder", "sweep",
                                     "trace", "scaling"])
@pytest.mark.parametrize("values", [
    {"h": 1.0, "dissipator_mode": "independent"},
    {"h": 0.5, "h_grid": [0.5, 1.0], "dissipator_mode": "collective"},
    {"h": 0.5, "gamma": 0.0, "dissipator_mode": "independent",
     "initial_state": "local_plus_x"}],
    ids=["h-one", "h-grid-one", "gamma-zero"])
def test_secular_mode_without_channel_is_config_error(tmp_path, capsys,
                                                      command, values):
    # at gamma = 0 H conserves M_z: the secular dissipators have no channel
    cfg = write_config(tmp_path, **values)
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


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
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--seed", "abc"], "invalid int value"),
    (["sweep", "--bogus"], "unrecognized arguments"),
    (["scaling", "--big"], "unrecognized arguments"),
    (["sweep", "--threads", "2"], "unrecognized arguments"),
    (["banana"], "invalid choice")],
    ids=["bad-seed", "unknown-flag", "big-flag", "threads-flag",
         "unknown-command"])
def test_usage_error_exit_code(capsys, argv, message):
    # 2 is reserved for numeric failure, so argparse must not use it
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert message in capsys.readouterr().err


def test_help_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out
