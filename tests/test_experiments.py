"""Tests for the configuration-driven experiment runners."""

import importlib.util
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import opentc
from opentc import floquet, lindblad, models, operators, spectral, xy
from opentc.experiments import (ConfigError, ExperimentConfig, ResultTable,
                                _classes, _initial_state, _partner,
                                _protocol, _sectors, _sweep_row, load_config,
                                run_disorder, run_scaling, run_spectrum,
                                run_sweep, run_trace, run_validate)
from opentc.floquet import floquet_propagator
from opentc.operators import devectorize, hs_inner, magnetization, vectorize
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
                dict(beta=float("nan")), dict(beta=-np.inf),
                dict(h_grid=()), dict(eta_grid=()), dict(l_grid=()),
                dict(h_grid=(1.5,)), dict(h_grid=(0.5, -0.5)),
                dict(h_grid=(float("nan"),)),
                dict(h=1.0, dissipator_mode="independent"),
                dict(h_grid=(0.5, 1.0), dissipator_mode="collective"),
                dict(gamma=0.0, dissipator_mode="independent"),
                dict(threads=2), dict(eta=float("nan")),
                dict(kappa0=np.inf), dict(h=0.5, gamma=float("nan")),
                dict(j=np.inf), dict(jt=float("nan")), dict(eta=-np.inf),
                dict(gamma=np.inf), dict(h_grid=(np.inf,)),
                dict(eta_grid=(0.0, float("nan"))),
                dict(eta_grid=(np.inf,)), dict(jt=10 ** 400)):
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


@pytest.mark.parametrize("mode, state", [
    ("independent", "gs_superposition"), ("collective", "gs_superposition"),
    ("independent", "local_plus_x")],
    ids=["independent", "collective", "local_plus_x"])
def test_run_trace_secular_matches_dense_map(mode, state):
    cfg = ExperimentConfig(length=4, h=1.0 / np.sqrt(2.0), eta=np.pi / 20,
                           n_periods=4, dissipator_mode=mode,
                           initial_state=state)
    values = run_trace(cfg).column("m_x")
    if state == "local_plus_x":
        assert values[0] == pytest.approx(1.0, abs=1e-14)
    params, proto = _protocol(cfg, cfg.h, cfg.eta, cfg.length)
    ef = floquet_propagator(proto)
    psi = _initial_state(cfg, params)
    vec = vectorize(np.outer(psi, psi.conj()))
    mx = magnetization("X", cfg.length) / cfg.length
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


_RUNNING = []      # the spied functions whose calls are in progress


def spy(monkeypatch, fn, owner=None):
    """Record every call of fn as (arguments, spied functions it ran
    inside), as the traced benchmark does. fn is rebound in each opentc
    module that holds it, and set on `owner` if given: the class of a
    method, or the module its callers look it up in."""
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, tuple(_RUNNING)))
        _RUNNING.append(fn)
        try:
            return fn(*args, **kwargs)
        finally:
            _RUNNING.pop()

    if owner is not None:
        monkeypatch.setattr(owner, fn.__name__, recording)
    for name, mod in list(sys.modules.items()):
        if name == "opentc" or name.startswith("opentc."):
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, recording)
    return calls


def test_default_dense_runners_decompose_momentum_parity_blocks(
        monkeypatch):
    # the default L=4 runners hand decompose and matrix_exp the (k, P)
    # blocks, at most 16 x 16 (a parity block was 64 x 64), one stack per
    # block shape, and build only one block of each reflection class, 24
    # of the 36 blocks a <= b: one matrix_exp per shape and field, and one
    # decompose per shape and field in sweep, every eta at once (per shape
    # and eta in spectrum, with the generator's), plus the star's block
    # with vectors in disorder; spectrum decomposes each generator stack
    # that it exponentiates, so every block is built once
    decomposed = spy(monkeypatch, spectral.decompose)
    exponentiated = spy(monkeypatch, floquet.matrix_exp)
    gen = xy.NumericGenerator
    built = spy(monkeypatch, gen.__init__, gen)
    blocks = spy(monkeypatch, gen.matrix, gen)
    sides = tuple(s.isometry for s in _sectors(4))
    partner = _partner(4)
    shapes = len(_classes(sides, partner)[0])
    assert (len(sides), shapes) == (8, 5)
    for run, calls in ((run_sweep, 5 * shapes), (run_spectrum, 2 * shapes),
                       (run_disorder, shapes + 1)):
        decomposed.clear()
        exponentiated.clear()
        built.clear()
        blocks.clear()
        run(ExperimentConfig())
        assert len(decomposed) == calls, run
        for spied in (decomposed, exponentiated):
            assert max(np.shape(s)[-1] for (s, *_), _ in spied) == 16, run
        # one generator, and one matrix_exp per shape, for each h
        assert len(exponentiated) == len(built) * shapes, run
        per_field = [[np.shape(s)[-1] for (s, *_), _ in
                      exponentiated[k:k + shapes]]
                     for k in range(0, len(exponentiated), shapes)]
        assert all(len(set(n)) == shapes for n in per_field), run
        assert len(built) == (5 if run is run_sweep else 1), run
        # the class representatives only, once per field
        assert sum(len(s) for (s, *_), _ in exponentiated) \
            == 24 * len(built), run
        assert len(blocks) == 24 * len(built), run
    # sweep: each stack holds every eta's kicked blocks of one shape
    decomposed.clear()
    run_sweep(ExperimentConfig())
    sizes = [len(s) for (s, *_), _ in decomposed]
    assert sizes == [5 * len(p) for p in _classes(sides, partner)[0]] * 5


def test_only_disorder_computes_eigenvectors(monkeypatch):
    # sweep and spectrum read eigenvalues alone; disorder searches the star
    # on eigenvalues too and decomposes only the star's block with vectors
    biorthonormalized = spy(monkeypatch, spectral._biorthonormalize)
    eig, wanted = scipy.linalg.eig, []

    def recording(a, *args, left=False, right=True, **kwargs):
        wanted.append((left, right))
        return eig(a, *args, left=left, right=right, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eig", recording)
    for run in (run_sweep, run_spectrum):
        run(ExperimentConfig())
        assert (wanted, biorthonormalized) == ([], []), run
    run_disorder(ExperimentConfig())
    assert len(biorthonormalized) == 1
    assert wanted == [(True, True)]


def test_dense_runners_kick_one_set_up_per_field(monkeypatch):
    # sweep, spectrum and disorder exponentiate each stack of built blocks
    # once per field and kick it per eta; none goes through
    # floquet_propagator or evolution. At L = 2 the (k, P) sides have 2, 1
    # and 1 states, so the blocks a <= b come in 3 shapes
    built = spy(monkeypatch, floquet.floquet_propagator)
    evolved = spy(monkeypatch, floquet.evolution)
    exponentiated = spy(monkeypatch, floquet.matrix_exp)
    kicked = spy(monkeypatch, floquet.kicked)
    for run, etas in ((run_sweep, 2), (run_spectrum, 1), (run_disorder, 1)):
        exponentiated.clear()
        kicked.clear()
        run(small_config())
        assert (len(exponentiated), len(kicked)) == (3, 3 * etas), run
    assert not built and not evolved


def test_default_sweep_restricts_each_side_once_per_field(monkeypatch):
    # per h: H and M_z of the generator and the kick generator M_z / 2, on
    # each of the eight (k, P) sides; the etas only form the kick's phases
    restricted = spy(monkeypatch, lindblad._restrict)
    run_sweep(ExperimentConfig())
    assert len(restricted) == 5 * 8 * 3


def test_default_sweep_compares_no_isometries(monkeypatch):
    # floquet.kicked finds the diagonal blocks of a stack by their rows
    # and cols being one isometry, not by comparing their entries
    compared = spy(monkeypatch, np.array_equal, np)
    run_sweep(ExperimentConfig())
    assert compared == []


def test_dense_runners_build_the_sectors_once_per_length():
    # each (k, P) Sector's isometry is built once per value: one build
    # serves every field of a sweep and the runners after it
    operators._isometry.cache_clear()
    for run in (run_sweep, run_spectrum, run_disorder):
        run(ExperimentConfig())
    assert operators._isometry.cache_info().misses == len(_sectors(4)) == 8
    assert all(s.isometry is operators.Sector(4, s.k, s.parity).isometry
               for s in _sectors(4))


def test_disorder_restricts_each_commutator_once_per_run(monkeypatch):
    # the elements <<l| [Z_r, .] |r>> do not depend on the sample
    restricted = spy(monkeypatch, lindblad._restrict)
    counts = []
    for n_samples in (1, 5):
        restricted.clear()
        run_disorder(ExperimentConfig(n_samples=n_samples))
        counts.append(len(restricted))
    assert counts[0] == counts[1]


def test_trace_path_sees_only_the_momentum_block(monkeypatch):
    # at L = 8 the k = 0, R = +1 block is 30 x 30: the trace runner forms
    # no 256 x 256 state, Cholesky factor or observable
    gen = xy.NumericGenerator
    applied = [spy(monkeypatch, fn, gen)
               for fn in (gen.action, gen.adjoint_action)]
    checked = spy(monkeypatch, lindblad.check_state)
    built = [spy(monkeypatch, fn)
             for fn in (operators.magnetization, operators.site_operator)]
    evolve, yielded = floquet.stroboscopic_evolve, []

    def recording(*args):
        for r in evolve(*args):
            yielded.append(r.shape)
            yield r

    monkeypatch.setattr(floquet, "stroboscopic_evolve", recording)
    run_trace(ExperimentConfig(length=8, n_periods=2))
    assert {args[1].shape[-2:] for calls in applied
            for args, _ in calls} == {(30, 30)}
    assert [args[0].shape for args, _ in checked] == [(30, 30)]
    assert yielded == [(30, 30)] * 3
    assert built == [[], []]


def test_sweep_rows_match_the_map_builder_at_each_point():
    # the sweep kicks one exp(L T) per h and block, and exponentiates,
    # kicks and decomposes the blocks of one shape as one stack; each
    # point's blocks built one at a time from the same inputs, with
    # floquet's builders and decompose, give the same bits
    cfg = ExperimentConfig(h_grid=(0.25, 1.0 / np.sqrt(2.0)),
                           eta_grid=(0.0, np.pi / 40, np.pi / 10))
    table = run_sweep(cfg)
    points = [(h, eta) for h in cfg.h_grid for eta in cfg.eta_grid]
    assert len(table.rows) == len(points)
    sides = tuple(s.isometry for s in _sectors(cfg.length))
    for row, (h, eta) in zip(table.rows, points):
        proto = _protocol(cfg, h, eta, cfg.length)[1]
        g = [lindblad._restrict(proto.kick_generator, v) for v in sides]
        spectra = []
        for a in range(len(sides)):
            for b in range(a, len(sides)):
                block = (sides[a], sides[b])
                s = floquet.kicked(
                    proto, floquet.evolution(proto, block)[None], [block],
                    np.subtract.outer(g[a], g[b]).reshape(1, -1))[0]
                sd = spectral.decompose(s, "map", vectors=False)
                spectra += [sd] if a == b else [sd, spectral.mirror(sd, None)]
        diag = floquet.find_star(*spectra, order=cfg.order,
                                 period=cfg.period)
        assert row == [h, eta, diag.floquet_gap, diag.tc_distance,
                       diag.star_eigenvalue.real, diag.star_eigenvalue.imag,
                       "ok"]


def test_default_sweep_row_matches_the_benchmark_oracle(monkeypatch):
    # perfbench/oracle.py rebuilds each kicked map from NumericGenerator's
    # hamiltonian, dissipator and mz_diag alone; every star of the default
    # h = 1/sqrt(2) row is one of its eigenvalues, within the benchmark's
    # tolerance 1e-8 + 1e-6 |w|
    monkeypatch.setattr(sys, "path", list(sys.path))    # oracle prepends src
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracle", REPO / "perfbench" / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    cfg = ExperimentConfig()
    h = cfg.h_grid[3]
    assert h == 1.0 / np.sqrt(2.0) and cfg.length == 4
    rows = _sweep_row(cfg, h, cfg.length)
    assert len(rows) == len(cfg.eta_grid)
    for row, eta in zip(rows, cfg.eta_grid):
        assert row[:2] == [h, eta] and row[-1] == "ok"
        star = complex(row[4], row[5])
        w = oracle.floquet_eigenvalues(cfg, h, eta)
        match = w[np.argmin(np.abs(w - star))]
        assert abs(match - star) <= 1e-8 + 1e-6 * abs(match)


# perfbench's traced self-test on each workload's seed-0 config, in a
# process of its own: child.install_all wraps opentc's functions for good
_SELFTEST = """
import importlib, importlib.util, json, os, sys
repo, tmp = sys.argv[1:]
sys.path.insert(0, os.path.join(repo, "src"))
import numpy as np


def load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(repo, "perfbench", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


child, run = load("child"), load("run")
modules = {name: importlib.import_module("opentc." + name)
           for name in child.LAYERS}
tracer = child.Tracer()
child.install_all(tracer, modules)
out = {}
for workload, command in run.COMMANDS.items():
    cfg = os.path.join(tmp, workload + ".json")
    with open(cfg, "w") as fh:
        json.dump(run.make_config(workload, 0), fh)
    np.random.seed(0)
    tracer.spans.clear()
    code = modules["cli"].main([command, "--config", cfg, "--out",
                                os.path.join(tmp, workload + ".csv")])
    out[workload] = [code, run.selftest(
        workload, child.layer_metrics(tracer.spans))]
print(json.dumps(out))
"""


def test_benchmark_self_test_passes_on_every_workload(tmp_path):
    # moving a spanned method or dropping a spanned call fails here, not
    # only in the benchmark; -B keeps perfbench/ free of bytecode files
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _SELFTEST, str(REPO), str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(out) == ["sweep-L4", "trace-L8", "trace-secular-L6",
                           "validate"]
    assert out == dict.fromkeys(out, [0, []])


# perfbench's EXERCISED and BYPASSED lists for its four workloads, on
# small runs: (runner, config, functions called, functions called only
# inside expm_multiply, functions never called)
_TRACE = dict(length=4, h=0.9, eta=np.pi / 40, n_periods=1)
_CALL_GRAPHS = {
    "sweep": (run_sweep, ExperimentConfig(h_grid=(0.9,), eta_grid=(0.1,)),
              ["NumericGenerator.__init__", "NumericGenerator.matrix",
               "decompose", "matrix_exp", "find_star", "sandwich"], [],
              ["NumericGenerator.action", "NumericGenerator.adjoint_action",
               "liouvillian_action", "adjoint_liouvillian_action",
               "liouvillian_matrix", "expm_multiply"]),
    "trace": (run_trace, ExperimentConfig(**_TRACE), ["expm_multiply"],
              ["NumericGenerator.action", "NumericGenerator.adjoint_action"],
              ["decompose", "matrix_exp", "sandwich", "liouvillian_action",
               "adjoint_liouvillian_action", "liouvillian_matrix"]),
    "trace-secular": (
        run_trace, ExperimentConfig(**_TRACE, dissipator_mode="independent"),
        ["expm_multiply", "secular_liouvillian"],
        ["liouvillian_action", "adjoint_liouvillian_action"],
        ["decompose", "matrix_exp", "sandwich", "NumericGenerator.action",
         "NumericGenerator.adjoint_action"]),
    "validate": (
        run_validate, None,
        ["dephasing_model", "liouvillian_matrix", "floquet_propagator",
         "susceptibility", "translation_refine", "disorder_susceptibility",
         "decompose", "sandwich"], [],
        ["expm_multiply", "NumericGenerator.adjoint_action"]),
}


@pytest.mark.parametrize("workload", sorted(_CALL_GRAPHS))
def test_runners_keep_the_benchmarked_call_graph(monkeypatch, workload):
    run, cfg, called, in_stepper, bypassed = _CALL_GRAPHS[workload]
    expm = scipy.sparse.linalg.expm_multiply
    gen = xy.NumericGenerator
    spied = {fn.__qualname__: spy(monkeypatch, fn, owner) for fn, owner in (
        (expm, scipy.sparse.linalg), (gen.__init__, gen), (gen.matrix, gen),
        (gen.action, gen), (gen.adjoint_action, gen),
        (xy.secular_liouvillian, None), (lindblad.liouvillian_action, None),
        (lindblad.adjoint_liouvillian_action, None),
        (lindblad.liouvillian_matrix, None), (spectral.decompose, None),
        (floquet.matrix_exp, None), (floquet.find_star, None),
        (operators.sandwich, None), (models.dephasing_model, None),
        (floquet.floquet_propagator, None), (floquet.susceptibility, None),
        (floquet.translation_refine, None),
        (floquet.disorder_susceptibility, None))}
    run(cfg)
    for name in called + in_stepper:
        assert spied[name], name
    for name in in_stepper:
        assert all(expm in outer for _, outer in spied[name]), name
    for name in bypassed:
        assert not spied[name], name


def test_sweep_point_flags_failures(monkeypatch):
    cfg = small_config()
    # no generator at odd length: every eta of the row fails
    rows = _sweep_row(cfg, 0.0, 3)
    assert [row[:2] for row in rows] == [[0.0, eta] for eta in cfg.eta_grid]
    for row in rows:
        assert row[-1] == "error: chain length must be even and >= 2"
        assert np.all(np.isnan(row[2:6]))
    # a failing kick fails its own point only
    kicked = floquet.kicked

    def failing(p, *args):
        if p.error > 0:
            raise FloatingPointError("injected")
        return kicked(p, *args)

    monkeypatch.setattr(floquet, "kicked", failing)
    ok, failed = _sweep_row(cfg, 0.0, 2)
    assert ok[:2] == [0.0, 0.0] and ok[-1] == "ok"
    assert failed[:2] == [0.0, 0.1] and failed[-1] == "error: injected"
    assert np.all(np.isnan(failed[2:6]))


def test_failed_stacked_solve_flags_its_own_row_only(monkeypatch):
    # at L = 2 each row makes 3 decompose calls, one per block shape with
    # every eta in it; the second row's second one fails after its first
    # succeeded: every point of that row is flagged, and the row stops
    # there, while the third row runs in full
    decompose, calls = spectral.decompose, []

    def failing(*args, **kwargs):
        calls.append(args[0].shape)
        if len(calls) == 5:
            raise np.linalg.LinAlgError("injected")
        return decompose(*args, **kwargs)

    monkeypatch.setattr(spectral, "decompose", failing)
    table = run_sweep(small_config(h_grid=(0.0, 0.5, 0.9)))
    assert len(calls) == 8 and all(shape[0] % 2 == 0 for shape in calls)
    status = table.column("status")
    assert status == ["ok"] * 2 + ["error: injected"] * 2 + ["ok"] * 2
    assert np.all(np.isnan(np.array(table.rows)[2:4, 2:6].astype(float)))
    assert table.metadata["failures"] == 2


@pytest.mark.parametrize("mode", ["numeric", "collective"])
def test_eta_stacked_rows_equal_each_eta_alone(mode):
    # one decompose of every eta's kicked blocks gives each point the bits
    # that a row of that eta alone gives
    cfg = ExperimentConfig(dissipator_mode=mode)
    for h in (0.25, 0.9):
        rows = _sweep_row(cfg, h, cfg.length)
        alone = [_sweep_row(replace(cfg, eta_grid=(eta,)), h, cfg.length)[0]
                 for eta in cfg.eta_grid]
        assert rows == alone


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


@pytest.mark.parametrize("seed", [0, 5])
def test_default_disorder_rows_match_the_parity_path(seed):
    # on the parity blocks every default row, seeds 0 and 5, had
    # single_site exactly 0 and full_sum at most 2.6e-15
    table = run_disorder(ExperimentConfig(seed=seed))
    assert len(table.rows) == 20
    assert table.column("single_site") == [0.0] * 20
    assert all(0.0 <= f <= 1e-12 for f in table.column("full_sum"))


def test_run_spectrum_contents():
    cfg = small_config()
    table = run_spectrum(cfg)
    dim = 2 ** cfg.length
    assert len(table.rows) == 2 * dim ** 2
    kinds = set(table.column("kind"))
    assert kinds == {"generator", "map"}
    # one (k, P) block per row, named by the (k, P) of the rows and of the
    # columns of rho: at L = 2 the sides 0+, 0- and 1- have 2, 1 and 1
    # states, and block (a, b) has n_a n_b eigenvalues
    assert table.columns[:3] == ["kind", "sector", "index"]
    size = {"0+": 2, "0-": 1, "1-": 1}
    want = {f"{a}/{b}": size[a] * size[b] for a in size for b in size}
    for kind in kinds:
        sectors = [s for k, s in zip(table.column("kind"),
                                     table.column("sector")) if k == kind]
        assert {s: sectors.count(s) for s in set(sectors)} == want
    assert "floquet_gap" in table.metadata
    assert "tc_distance" in table.metadata
    with pytest.raises(ConfigError):
        run_spectrum(ExperimentConfig(length=10))


@pytest.mark.big
def test_default_spectrum_runs_at_length_8():
    # 76 built (k, P) blocks, one per reflection class, the largest
    # 400 x 400: about 14 s and a peak RSS of about 245 MiB on 2 cores. At
    # eta = 0 the kick is exactly the parity, so the star is -1
    table = run_spectrum(ExperimentConfig(length=8))
    assert len(table.rows) == 2 * 4 ** 8
    assert set(table.column("kind")) == {"generator", "map"}
    assert len(set(table.column("sector"))) == 16 ** 2
    assert table.metadata["tc_distance"] < 1e-10


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


def test_sweep_header_leaves_an_unset_gamma_to_each_row():
    # gamma = sqrt(1 - h^2) of each row's h, not of the unused cfg.h
    for gamma in (None, 0.5):
        table = run_sweep(small_config(gamma=gamma, h_grid=(0.9,)))
        header = json.loads(table.to_csv().splitlines()[0][1:])
        assert header["config"]["gamma"] == gamma
    # the one-point runners resolve it at cfg.h
    table = run_spectrum(small_config(h=0.6))
    assert table.metadata["config"]["gamma"] == pytest.approx(0.8)


def test_metadata_header():
    table = run_trace(small_config(n_periods=1))
    meta = table.metadata
    assert meta["experiment"] == "trace"
    assert meta["version"] == opentc.__version__
    assert meta["config"]["length"] == 2
    assert meta["config"]["beta"] == "inf"
