"""Tests for the configuration-driven experiment runners."""

import json
from pathlib import Path

import numpy as np
import pytest

import opentc
from opentc.experiments import (ConfigError, ExperimentConfig, ResultTable,
                                _initial_state, _protocol, _sweep_point,
                                load_config, run_disorder, run_scaling,
                                run_spectrum, run_sweep, run_trace,
                                run_validate)
from opentc.floquet import floquet_propagator
from opentc.operators import (devectorize, hs_inner, magnetization_per_spin,
                              vectorize)
from opentc.xy import theoretical_amplitude

REPO = Path(__file__).resolve().parents[1]


def small_config(**kw):
    base = dict(length=2, h=0.0, n_periods=3,
                h_grid=(0.0,), eta_grid=(0.0, 0.1), l_grid=(2, 4))
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    for bad in (dict(j=-1.0), dict(jt=0.0), dict(kappa0=-0.1),
                dict(length=3), dict(length=12), dict(h=1.5),
                dict(order=1), dict(n_periods=0), dict(n_samples=0),
                dict(initial_state="banana"), dict(dissipator_mode="banana"),
                dict(threads=0), dict(l_grid=(3,)), dict(l_grid=(12,)),
                dict(length=4.0), dict(n_periods=True), dict(order=2.0),
                dict(n_periods=2.5), dict(n_samples=3.0), dict(seed=1.5),
                dict(threads=1.0), dict(l_grid=(4.0,)), dict(l_grid=(0,)),
                dict(l_grid=(-2,)), dict(h_grid=("a",)), dict(eta_grid=("a",)),
                dict(h_grid=(True,)), dict(eta_grid=(None,)), dict(seed=-1),
                dict(eta="x"), dict(beta="abc"), dict(gamma="x"),
                dict(j=True), dict(beta=-1.0), dict(beta=0.0),
                dict(beta=float("nan")), dict(beta=-np.inf)):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)


def test_config_derived_quantities():
    cfg = ExperimentConfig(j=2.0, jt=10.0, h=0.6)
    assert cfg.period == pytest.approx(5.0)
    assert cfg.resolved_gamma() == pytest.approx(0.8)
    assert cfg.resolved_gamma(0.0) == pytest.approx(1.0)
    cfg = ExperimentConfig(gamma=0.3, h=0.5)
    assert cfg.resolved_gamma() == 0.3
    resolved = cfg.resolved()
    assert resolved["beta"] == "inf"
    assert resolved["gamma"] == 0.3


def test_load_config_file_and_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"length": 4, "h": 0.5, "beta": "inf"}))
    cfg = load_config(str(path), seed=7)
    assert cfg.length == 4
    assert cfg.seed == 7
    assert np.isinf(cfg.beta)
    # None overrides are ignored
    assert load_config(str(path), seed=None).seed == 0


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(str(arr))
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"frequency": 3.0}))
    with pytest.raises(ConfigError):
        load_config(str(unknown))


def test_result_table_roundtrip():
    table = ResultTable(columns=["a", "b"], metadata={"kind": "demo"})
    table.add(1, 2.5)
    table.add(3, -1.0)
    with pytest.raises(ValueError):
        table.add(1)
    assert table.column("b") == [2.5, -1.0]
    text = table.to_csv()
    header, names, *rows = text.strip().split("\n")
    assert header.startswith("#")
    assert json.loads(header[1:]) == {"kind": "demo"}
    assert names == "a,b"
    assert rows == ["1,2.5", "3,-1.0"]


def test_result_table_write(tmp_path):
    table = ResultTable(columns=["x"], metadata={})
    table.add(1.0)
    path = tmp_path / "out.csv"
    table.write(str(path))
    assert path.read_text() == table.to_csv()


def test_run_trace_shape_and_initial_amplitude():
    cfg = small_config()
    table = run_trace(cfg)
    assert table.columns == ["n", "time", "m_x"]
    assert len(table.rows) == cfg.n_periods + 1
    assert table.column("time")[1] == pytest.approx(cfg.period)
    # factorization line at h = 0 starts at the full Ising amplitude
    assert abs(table.column("m_x")[0]) == pytest.approx(
        theoretical_amplitude(1.0), abs=1e-10)


def test_run_trace_period_doubling_sign():
    cfg = small_config(n_periods=4)
    vals = run_trace(cfg).column("m_x")
    for n in range(1, 5):
        assert np.sign(vals[n]) == -np.sign(vals[n - 1])
        assert abs(vals[n]) > 0.9 * abs(vals[0])


@pytest.mark.parametrize("mode", ["independent", "collective"])
def test_run_trace_secular_matches_dense_map(mode):
    cfg = ExperimentConfig(length=4, h=1.0 / np.sqrt(2.0), eta=np.pi / 20,
                           n_periods=4, dissipator_mode=mode)
    values = run_trace(cfg).column("m_x")
    params, proto = _protocol(cfg, cfg.h, cfg.eta, cfg.length)
    ef = floquet_propagator(proto)
    vec = vectorize(_initial_state(cfg, params))
    mx = magnetization_per_spin("X", cfg.length)
    expected = []
    for _ in range(cfg.n_periods + 1):
        expected.append(hs_inner(mx, devectorize(vec)).real)
        vec = ef @ vec
    assert np.max(np.abs(np.array(values) - expected)) < 1e-10
    assert np.sign(values[1]) == -np.sign(values[0])


def test_run_sweep_rows_and_gap():
    cfg = small_config()
    table = run_sweep(cfg)
    assert len(table.rows) == len(cfg.h_grid) * len(cfg.eta_grid)
    assert all(s == "ok" for s in table.column("status"))
    gaps = table.column("floquet_gap")
    # the perfect kick sits exactly on the subharmonic point
    assert gaps[0] < 1e-10
    assert table.metadata["length"] == 2
    assert table.metadata["failures"] == 0


def test_default_sweep_stars_have_nonnegative_imaginary_part():
    # conjugate stars tie; rounding must not pick the Im < 0 side
    table = run_sweep(ExperimentConfig())
    assert table.metadata["failures"] == 0
    assert min(table.column("star_im")) >= 0.0


def test_sweep_point_flags_failures():
    row = _sweep_point((small_config(), 0.0, 0.0, 3))
    assert row[-1].startswith("error:")
    assert np.isnan(row[2])


def test_run_scaling_rows_and_trend():
    cfg = small_config()
    table = run_scaling(cfg)
    assert table.column("length") == [2, 4]
    assert all(s == "ok" for s in table.column("status"))
    assert "trend_nondecreasing" in table.metadata
    assert table.metadata["failures"] == 0
    amps = table.column("amplitude")
    assert all(0.0 <= a <= 1.0 + 1e-9 for a in amps)


def test_run_disorder_zero_sum_exact():
    cfg = small_config(n_samples=4)
    table = run_disorder(cfg)
    assert len(table.rows) == 4
    for s in table.column("single_site"):
        assert s == 0.0
    for f in table.column("full_sum"):
        assert f < 1e-10


def test_run_disorder_seed_reproducible():
    cfg = small_config(n_samples=3, eta=0.05, seed=11)
    a = run_disorder(cfg).rows
    b = run_disorder(cfg).rows
    assert a == b


def test_run_spectrum_contents():
    cfg = small_config()
    table = run_spectrum(cfg)
    dim = 2 ** cfg.length
    assert len(table.rows) == 2 * dim ** 2
    kinds = set(table.column("kind"))
    assert kinds == {"generator", "map"}
    assert "floquet_gap" in table.metadata
    assert "tc_distance" in table.metadata
    with pytest.raises(ConfigError):
        run_spectrum(ExperimentConfig(length=8))


def test_run_validate_all_pass():
    table = run_validate()
    assert table.metadata["failures"] == 0
    assert len(table.rows) >= 20
    assert all(p == 1 for p in table.column("passed"))
    # every check the benchmark's correctness gate names is present and passes
    with open(REPO / "perfbench" / "reference.json") as fh:
        gate = json.load(fh)["validate"]["checks"]
    passed = dict(zip(table.column("name"), table.column("passed")))
    assert {name: passed.get(name) for name in gate} == dict.fromkeys(gate, 1)


def test_metadata_header():
    table = run_trace(small_config(n_periods=1))
    meta = table.metadata
    assert meta["experiment"] == "trace"
    assert meta["version"] == opentc.__version__
    assert meta["config"]["length"] == 2
    assert meta["config"]["beta"] == "inf"
