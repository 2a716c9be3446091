"""Configuration-driven experiments: sweeps, traces, scaling, disorder, validation.

Each run_* function takes an ExperimentConfig and returns a ResultTable that
serializes to CSV with a JSON metadata header. Grid experiments parallelize
over points; rows always come out in grid order.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, floquet, models, spectral, xy
from .lindblad import (LindbladModel, liouvillian_matrix, rk4_evolve,
                       trace_distance)
from .operators import (devectorize, hs_inner, magnetization,
                        magnetization_per_spin, trace_functional, vectorize)

MAX_LENGTH = 10
MATRIX_PATH_MAX = 6

_SQ2 = 1.0 / np.sqrt(2.0)
DEFAULT_H_GRID = (0.0, 0.25, 0.5, _SQ2, 0.9)
DEFAULT_ETA_GRID = (0.0, np.pi / 80, np.pi / 40, np.pi / 20, np.pi / 10)
INTEGER_FIELDS = ("length", "order", "n_periods", "n_samples", "seed",
                  "threads")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved parameters for one experiment run.

    Defaults mirror the paper's figure parameters: JT = 10, zero temperature,
    ohmic bath with kappa0 = 0.01 J, period-doubling kick on M_z/2.
    Factorization-line runs leave gamma unset so it derives as sqrt(1 - h^2).
    """

    j: float = 1.0
    jt: float = 10.0
    kappa0: float = 0.01
    beta: float = np.inf
    length: int = 4
    h: float = 0.0
    gamma: float | None = None
    eta: float = 0.0
    order: int = 2
    n_periods: int = 20
    h_grid: tuple = DEFAULT_H_GRID
    eta_grid: tuple = DEFAULT_ETA_GRID
    l_grid: tuple = (4, 6, 8)
    n_samples: int = 20
    initial_state: str = "gs_superposition"
    dissipator_mode: str = "numeric"
    seed: int = 0
    threads: int = 1
    big: bool = False

    def __post_init__(self):
        ints = [(name, getattr(self, name)) for name in INTEGER_FIELDS]
        ints += [("each l_grid entry", l) for l in self.l_grid]
        for name, value in ints:
            if type(value) is bool or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.j <= 0 or self.jt <= 0:
            raise ConfigError("j and jt must be positive")
        if self.kappa0 < 0:
            raise ConfigError("kappa0 must be non-negative")
        if self.length % 2 != 0 or not 2 <= self.length <= MAX_LENGTH:
            raise ConfigError(f"length must be even and in [2, {MAX_LENGTH}]")
        if not 0.0 <= self.h <= 1.0:
            raise ConfigError("h must lie in [0, 1]")
        if self.order < 2:
            raise ConfigError("subharmonic order must be >= 2")
        if self.n_periods < 1 or self.n_samples < 1:
            raise ConfigError("n_periods and n_samples must be >= 1")
        if self.initial_state not in ("gs_superposition", "local_plus_x"):
            raise ConfigError(f"unknown initial state {self.initial_state!r}")
        if self.dissipator_mode not in ("numeric", "independent", "collective"):
            raise ConfigError(f"unknown dissipator mode {self.dissipator_mode!r}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if any(l % 2 != 0 or not 2 <= l <= MAX_LENGTH for l in self.l_grid):
            raise ConfigError(
                f"l_grid entries must be even and in [2, {MAX_LENGTH}]")
        object.__setattr__(self, "h_grid", tuple(float(x) for x in self.h_grid))
        object.__setattr__(self, "eta_grid",
                           tuple(float(x) for x in self.eta_grid))
        object.__setattr__(self, "l_grid", tuple(int(x) for x in self.l_grid))

    @property
    def period(self) -> float:
        return self.jt / self.j

    def resolved_gamma(self, h: float | None = None) -> float:
        if self.gamma is not None:
            return self.gamma
        hval = self.h if h is None else h
        return float(np.sqrt(max(0.0, 1.0 - hval ** 2)))

    def resolved(self) -> dict:
        out = asdict(self)
        out["gamma"] = self.resolved_gamma()
        out["period"] = self.period
        out["beta"] = "inf" if np.isinf(self.beta) else self.beta
        return out


def load_config(path: str | None, **overrides) -> ExperimentConfig:
    """Build a config from an optional JSON file plus keyword overrides."""
    values = {}
    if path is not None:
        try:
            with open(path) as fh:
                values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(values, dict):
            raise ConfigError("config file must hold a JSON object")
    values.update({k: v for k, v in overrides.items() if v is not None})
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if values.get("beta") in ("inf", "Infinity"):
        values["beta"] = np.inf
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class ResultTable:
    """CSV-serializable result rows with a JSON metadata header line."""

    columns: list
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError("row length differs from column count")
        self.rows.append(list(values))

    def column(self, name: str) -> list:
        k = self.columns.index(name)
        return [row[k] for row in self.rows]

    def to_csv(self) -> str:
        buf = io.StringIO()
        meta = dict(self.metadata)
        buf.write("#" + json.dumps(meta, sort_keys=True) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buf.getvalue()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())


def _metadata(cfg: ExperimentConfig, kind: str) -> dict:
    return {"experiment": kind, "config": cfg.resolved(),
            "version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}


def _protocol(cfg: ExperimentConfig, h: float, eta: float, length: int):
    """XY parameters plus the kicked protocol at one grid point.

    Each period runs the chosen dissipative generator, then the
    period-doubling kick exp(-i (pi + eta) M_z / 2).
    """
    params = xy.XYParams(j=cfg.j, gamma=cfg.resolved_gamma(h), h=h,
                         length=length)
    bath = xy.BathSpec(kappa0=cfg.kappa0 * cfg.j, beta=cfg.beta)
    if cfg.dissipator_mode == "numeric":
        gen = xy.NumericGenerator(params, bath)
    else:
        gen = xy.secular_liouvillian(params, bath, cfg.dissipator_mode)
    return params, floquet.KickedProtocol(
        model=gen, period=cfg.period,
        kick_generator=magnetization("Z", length) / 2, error=eta)


def _initial_state(cfg: ExperimentConfig, params: xy.XYParams) -> np.ndarray:
    if cfg.initial_state == "gs_superposition":
        fact = xy.factorized_states(params)
        psi = fact.parity_states[0] + fact.parity_states[1]
    else:
        psi = np.ones(params.dim, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def _trace_mx(cfg: ExperimentConfig, length: int, n_periods: int) -> list:
    """m_x(nT) for n = 0..n_periods under dissipate-then-kick periods."""
    params, proto = _protocol(cfg, cfg.h, cfg.eta, length)
    mx = magnetization_per_spin("X", length)
    states = floquet.stroboscopic_evolve(proto, _initial_state(cfg, params),
                                         n_periods)
    return [float(np.real(hs_inner(mx, rho))) for rho in states]


def _sweep_point(task):
    cfg, h, eta, length = task
    try:
        ef = floquet.floquet_propagator(_protocol(cfg, h, eta, length)[1])
        sd = spectral.decompose(ef, kind="map")
        diag = floquet.find_star(sd, order=cfg.order, period=cfg.period)
        return [h, eta, diag.floquet_gap, diag.tc_distance,
                diag.star_eigenvalue.real, diag.star_eigenvalue.imag, "ok"]
    except Exception as exc:   # per-point failures flagged, run continues
        return [h, eta, np.nan, np.nan, np.nan, np.nan, f"error: {exc}"]


def run_sweep(cfg: ExperimentConfig) -> ResultTable:
    """Floquet diagnostics over the (h, eta) grid along the factorization line."""
    length = 6 if cfg.big else cfg.length
    tasks = [(cfg, h, eta, length)
             for h in cfg.h_grid for eta in cfg.eta_grid]
    if cfg.threads > 1:
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(t) for t in tasks]
    table = ResultTable(
        columns=["h", "eta", "floquet_gap", "tc_distance",
                 "star_re", "star_im", "status"],
        metadata=_metadata(cfg, "sweep"))
    table.metadata["length"] = length
    for row in results:
        table.add(*row)
    return table


def run_trace(cfg: ExperimentConfig) -> ResultTable:
    """Stroboscopic magnetization m_x(nT) for one parameter point."""
    values = _trace_mx(cfg, cfg.length, cfg.n_periods)
    table = ResultTable(columns=["n", "time", "m_x"],
                        metadata=_metadata(cfg, "trace"))
    for n, v in enumerate(values):
        table.add(n, n * cfg.period, v)
    return table


def run_scaling(cfg: ExperimentConfig) -> ResultTable:
    """|m_x(10T)| against chain length at fixed kick error."""
    lengths = list(cfg.l_grid)
    if cfg.big and MAX_LENGTH not in lengths:
        lengths.append(MAX_LENGTH)
    table = ResultTable(columns=["length", "amplitude", "status"],
                        metadata=_metadata(cfg, "scaling"))
    amps = {}
    for length in lengths:
        try:
            values = _trace_mx(cfg, length, 10)
            amp = abs(values[10])
            amps[length] = amp
            table.add(length, amp, "ok")
        except Exception as exc:
            table.add(length, np.nan, f"error: {exc}")
    probe = sorted(l for l in amps if 4 <= l <= 8)
    table.metadata["trend_nondecreasing"] = bool(
        all(amps[a] <= amps[b] + 1e-12
            for a, b in zip(probe, probe[1:])))
    return table


def run_disorder(cfg: ExperimentConfig) -> ResultTable:
    """Linear disorder susceptibility over seeded zero-sum samples."""
    _, proto = _protocol(cfg, cfg.h, cfg.eta, cfg.length)
    sd = spectral.decompose(floquet.floquet_propagator(proto), kind="map")
    diag = floquet.find_star(sd, order=cfg.order, period=cfg.period)
    mu = int(np.argmin(np.abs(sd.eigenvalues - diag.star_eigenvalue)))
    sd = floquet.translation_refine(sd, cfg.length, mu)
    rng = np.random.default_rng(cfg.seed)
    table = ResultTable(columns=["sample", "single_site", "full_sum"],
                        metadata=_metadata(cfg, "disorder"))
    scale = 1 << 20
    for k in range(cfg.n_samples):
        # dyadic amplitudes make the zero sum exact in floating point
        grains = rng.integers(-scale, scale, cfg.length)
        grains[0] -= grains.sum()
        deltas = grains / float(scale)
        chi = floquet.disorder_susceptibility(sd, deltas, cfg.length, mu)
        table.add(k, chi.single_site, chi.full_sum)
    return table


def run_spectrum(cfg: ExperimentConfig) -> ResultTable:
    """Full generator and Floquet-map spectra at one parameter point."""
    if cfg.length > MATRIX_PATH_MAX:
        raise ConfigError(
            f"spectrum needs the matrix path (length <= {MATRIX_PATH_MAX})")
    _, proto = _protocol(cfg, cfg.h, cfg.eta, cfg.length)
    table = ResultTable(columns=["kind", "index", "re", "im", "peripheral"],
                        metadata=_metadata(cfg, "spectrum"))
    for kind, mat in (("generator", proto.model.matrix()),
                      ("map", floquet.floquet_propagator(proto))):
        sd = spectral.decompose(mat, kind=kind)
        mask = sd.peripheral_mask()
        for i, lam in enumerate(sd.eigenvalues):
            table.add(kind, i, lam.real, lam.imag, int(mask[i]))
        if kind == "map":
            diag = floquet.find_star(sd, order=cfg.order, period=cfg.period)
            table.metadata["floquet_gap"] = diag.floquet_gap
            table.metadata["tc_distance"] = diag.tc_distance
    return table


def _align_error(computed: np.ndarray, target: np.ndarray) -> float:
    """Max-norm distance after a best-fit complex scale."""
    scale = hs_inner(computed, target) / hs_inner(computed, computed)
    return float(np.max(np.abs(scale * computed - target)))


def _dfs_checks(kind: str) -> list:
    model = (models.dfs_independent_model() if kind == "independent"
             else models.dfs_collective_model())
    lmat = liouvillian_matrix(model)
    sd = spectral.decompose(lmat, kind="generator")
    asy = spectral.asymptotic_subspace(sd)
    psi = models.bell_basis()[:2]
    phi = models.bell_basis()[2:]
    targets = [np.outer(psi[a], psi[b].conj()) for a in (0, 1) for b in (0, 1)]
    duals = spectral.dual_basis(asy, targets)
    err = 0.0
    for k, (a, b) in enumerate([(x, y) for x in (0, 1) for y in (0, 1)]):
        expected = np.outer(psi[a], psi[b].conj())
        if kind == "independent":
            if a == b:
                expected = expected + np.outer(phi[a], phi[b].conj())
        else:
            expected = expected + np.outer(phi[a], phi[b].conj())
        err = max(err, float(np.max(np.abs(duals[k] - expected))))
    checks = [(f"dfs_{kind}_conserved", err, 1e-8)]
    proto = floquet.KickedProtocol(model=model, period=1.0,
                                   kick_generator=magnetization("Z", 2) / 2,
                                   kick_angle=np.pi)
    ef = floquet.floquet_propagator(proto)
    kick_err = 0.0
    for a in (0, 1):
        for b in (0, 1):
            v = vectorize(np.outer(psi[a], psi[b].conj()))
            kick_err = max(kick_err, float(np.max(np.abs(
                ef @ v - (-1.0) ** (a + b) * v))))
    checks.append((f"dfs_{kind}_kick_eigenvalue", kick_err, 1e-9))
    sd_f = spectral.decompose(ef, kind="map")
    star = floquet.find_star(sd_f, order=2)
    mu = int(np.argmin(np.abs(sd_f.eigenvalues - star.star_eigenvalue)))
    vmap = floquet.rotation_error_map(proto)
    chi1 = abs(floquet.susceptibility(sd_f, vmap, mu, order=1))
    checks.append((f"dfs_{kind}_chi1", chi1, 1e-8))
    return checks


def _validation_checks() -> list:
    """(name, measured value, tolerance) triples; pass means value <= tol."""
    checks = []
    kappa, period = 1.0, 1.0
    model = models.dephasing_model(h=0.0, kappa=kappa)
    proto = floquet.KickedProtocol(model=model, period=period,
                                   kick_generator=np.array([[0, 0.5],
                                                            [0.5, 0]]))
    ef = floquet.floquet_propagator(proto)
    sd = spectral.decompose(ef, kind="map")
    decay = np.exp(-2.0 * kappa * period)
    expected = np.sort_complex(np.array([1.0, -1.0, decay, -decay]))
    checks.append(("dephasing_floquet_spectrum",
                   float(np.max(np.abs(np.sort_complex(sd.eigenvalues)
                                       - expected))), 1e-10))
    star = floquet.find_star(sd, order=2, period=period)
    mu = int(np.argmin(np.abs(sd.eigenvalues - star.star_eigenvalue)))
    vmap = floquet.rotation_error_map(proto)
    checks.append(("dephasing_chi1",
                   abs(floquet.susceptibility(sd, vmap, mu, order=1)), 1e-9))
    eta = 0.3
    perp = LindbladModel(hamiltonian=0.5 * eta * np.array([[0, 1], [1, 0]]),
                         jumps=model.jumps)
    sd_p = spectral.decompose(liouvillian_matrix(perp), kind="generator")
    expected_p = np.sort_complex(
        models.dephasing_perp_field_spectrum(kappa, eta))
    checks.append(("dephasing_perp_field_spectrum",
                   float(np.max(np.abs(np.sort_complex(sd_p.eigenvalues)
                                       - expected_p))), 1e-9))
    report = floquet.check_observation6(
        spectral.decompose(floquet.matrix_exp(liouvillian_matrix(model),
                                              period), kind="map"),
        proto.kick_unitary, order=2)
    checks.append(("dephasing_observation6",
                   0.0 if report.passed else 1.0, 0.5))
    checks.extend(_dfs_checks("independent"))
    checks.extend(_dfs_checks("collective"))
    for etaj in (0.5, 1.0, 2.0):
        mdl = models.suppression_by_jump_model(etaj)
        asy = spectral.asymptotic_subspace(
            spectral.decompose(liouvillian_matrix(mdl), kind="generator"))
        psi = models.bell_basis()[:2]
        targets = [np.outer(psi[a], psi[b].conj())
                   for a in (0, 1) for b in (0, 1)]
        duals = spectral.dual_basis(asy, targets)
        err = max(float(np.max(np.abs(
            duals[2 * a + b] - models.expected_jump_conserved(etaj, a, b))))
            for a in (0, 1) for b in (0, 1))
        checks.append((f"jump_suppression_eta_{etaj:g}", err, 1e-8))
    for delta in (0.5, 1.0):
        mdl = models.suppression_by_hamiltonian_model(0.3, delta)
        asy = spectral.asymptotic_subspace(
            spectral.decompose(liouvillian_matrix(mdl), kind="generator"))
        psi = models.bell_basis()[:2]
        targets = [np.outer(psi[a], psi[b].conj())
                   for a in (0, 1) for b in (0, 1)]
        duals = spectral.dual_basis(asy, targets)
        err = max(float(np.max(np.abs(
            duals[2 * a + b]
            - models.expected_ham_conserved(0.3, delta, a, b))))
            for a in (0, 1) for b in (0, 1))
        checks.append((f"ham_suppression_delta_{delta:g}", err, 1e-8))
    params = xy.XYParams(j=1.0, gamma=_SQ2, h=_SQ2, length=4)
    err_ff = 0.0
    for sector in ("even", "odd"):
        oracle = xy.free_fermion_sector_energies(params, sector)
        ham = xy.xy_hamiltonian(params)
        par = np.diag(xy.parity_operator(4)).real
        sign = 1.0 if sector == "even" else -1.0
        idx = np.nonzero(par == sign)[0]
        exact = np.linalg.eigvalsh(ham[np.ix_(idx, idx)])
        err_ff = max(err_ff, float(np.max(np.abs(np.sort(exact) - oracle))))
    checks.append(("xy_free_fermion_L4", err_ff, 1e-8))
    _, _, e_plus, e_minus = xy.ground_state_pair(params)
    checks.append(("factorization_degeneracy_L4",
                   abs(e_plus - e_minus), 1e-10))
    fact = xy.factorized_states(params)
    ham = xy.xy_hamiltonian(params)
    resid = max(float(np.linalg.norm(ham @ s - e_plus * s))
                for s in fact.states)
    checks.append(("factorized_state_residual_L4", resid, 1e-8))
    bath = xy.BathSpec(kappa0=0.01, beta=np.inf)
    gen = xy.NumericGenerator(params, bath)
    lmat = gen.matrix()
    tr = trace_functional(params.dim)
    checks.append(("xy_trace_fixed_point_L4",
                   float(np.max(np.abs(tr.conj() @ lmat))), 1e-9))
    plus, minus = fact.parity_states
    coherence = np.outer(plus, minus.conj())
    checks.append(("xy_coherence_protection_L4",
                   float(np.max(np.abs(gen.action(coherence)))), 1e-8))
    cfg = ExperimentConfig(length=4, h=_SQ2, n_samples=5)
    dis = run_disorder(cfg)
    checks.append(("xy_disorder_zero_sum_L4",
                   max(max(dis.column("single_site")),
                       max(dis.column("full_sum"))), 1e-8))
    checks.append(("amplitude_formula_ising",
                   abs(xy.theoretical_amplitude(1.0) - 1.0), 1e-12))
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    ham_r = 0.5 * (a + a.conj().T)
    jump_r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    model_r = LindbladModel(hamiltonian=ham_r, jumps=((jump_r, 0.5),))
    rho0 = np.diag(rng.uniform(0.1, 1.0, 4)).astype(complex)
    rho0 /= np.trace(rho0).real
    t_end = 0.7
    rho_rk4 = rk4_evolve(model_r, rho0, t_end, dt=1e-3)
    rho_exp = devectorize(floquet.matrix_exp(liouvillian_matrix(model_r),
                                             t_end) @ vectorize(rho0))
    checks.append(("rk4_vs_matrix_exponential",
                   trace_distance(rho_rk4, rho_exp), 1e-6))
    return checks


def run_validate(cfg: ExperimentConfig | None = None) -> ResultTable:
    """Run every closed-form and protocol check; one row per check."""
    if cfg is None:
        cfg = ExperimentConfig()
    table = ResultTable(columns=["name", "value", "tolerance", "passed"],
                        metadata=_metadata(cfg, "validate"))
    failures = 0
    for name, value, tol in _validation_checks():
        ok = value <= tol
        failures += 0 if ok else 1
        table.add(name, value, tol, int(ok))
    table.metadata["failures"] = failures
    return table
