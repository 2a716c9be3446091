"""Configuration-driven experiments: sweeps, traces, scaling, disorder, validation.

Each run_* function takes an ExperimentConfig and returns a ResultTable that
serializes to CSV with a JSON metadata header. Grid rows come out in grid
order.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import numbers
import sys
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__, floquet, models, spectral, xy
from .lindblad import (SECTOR_TOL, LindbladModel, _restrict,
                       liouvillian_matrix, rk4_evolve, trace_distance)
from .operators import (Sector, _reversal, _serial_blas, devectorize,
                        hs_inner, pauli, trace_functional, vectorize, z_signs)
from .spectral import SpectralData

MAX_LENGTH = 10
# spectrum, sweep and disorder build the 4^L x 4^L map as its (k, P)
# blocks: at L = 8 the largest is 400 x 400, and the blocks a <= b hold
# 9.1e6 entries (139 MiB); at L = 10 the largest is 3136 x 3136 and they
# hold 1.4e9 (22 GiB)
MATRIX_PATH_MAX = 8
# sweep, spectrum and disorder run on one BLAS thread throughout
# (operators._serial_blas): up to MATRIX_PATH_MAX no block has more than
# operators.SERIAL_BLAS_DIM rows
TREND_SLACK = 1e-12           # absolute; README "Tolerances"

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

    def __post_init__(self):
        ints = [(name, getattr(self, name)) for name in INTEGER_FIELDS]
        ints += [("each l_grid entry", l) for l in self.l_grid]
        for name, value in ints:
            if type(value) is bool or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        finite = [self.j, self.jt, self.kappa0, self.h, self.eta,
                  0.0 if self.gamma is None else self.gamma,
                  *self.h_grid, *self.eta_grid]
        if any(type(x) is bool or not isinstance(x, numbers.Real)
               for x in (*finite, self.beta)):
            raise ConfigError("real fields and grid entries must be numbers")
        # also false for NaN, and for JSON integers too large for a float
        if not all(abs(x) <= sys.float_info.max for x in finite):
            raise ConfigError("j, jt, kappa0, h, gamma, eta and every h_grid "
                              "and eta_grid entry must be finite")
        if self.j <= 0 or self.jt <= 0:
            raise ConfigError("j and jt must be positive")
        if self.kappa0 < 0:
            raise ConfigError("kappa0 must be non-negative")
        if not self.beta > 0:   # also rejects NaN
            raise ConfigError("beta must be positive, or inf")
        if self.length % 2 != 0 or not 2 <= self.length <= MAX_LENGTH:
            raise ConfigError(f"length must be even and in [2, {MAX_LENGTH}]")
        if not all(0.0 <= h <= 1.0 for h in (self.h, *self.h_grid)):
            raise ConfigError("h and every h_grid entry must lie in [0, 1]")
        if self.order < 2:
            raise ConfigError("subharmonic order must be >= 2")
        if self.n_periods < 1 or self.n_samples < 1:
            raise ConfigError("n_periods and n_samples must be >= 1")
        if self.initial_state not in ("gs_superposition", "local_plus_x"):
            raise ConfigError(f"unknown initial state {self.initial_state!r}")
        if self.dissipator_mode not in ("numeric", "independent", "collective"):
            raise ConfigError(f"unknown dissipator mode {self.dissipator_mode!r}")
        if self.dissipator_mode != "numeric" and any(
                self.resolved_gamma(h) == 0 for h in (self.h, *self.h_grid)):
            raise ConfigError(
                f"dissipator_mode {self.dissipator_mode!r} needs gamma != 0 "
                "at h and every h_grid entry: at gamma = 0 H conserves M_z, "
                "so no Bohr frequency couples to it")
        if self.threads != 1 or self.seed < 0:
            raise ConfigError("seed must be >= 0, and threads must be 1: "
                              "grid points run one after another")
        if not all(len(g) for g in (self.h_grid, self.eta_grid, self.l_grid)):
            raise ConfigError("h_grid, eta_grid and l_grid must not be empty")
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
        return float(np.sqrt(1.0 - hval ** 2))

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
    period-doubling kick exp(-i (pi + eta) M_z / 2). Both keep the parity
    P = prod Z_r of each side of rho and commute with the translation T
    and the reflection R.
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
        kick_generator=z_signs(length).sum(0) / 2, error=eta)


def _sectors(length: int) -> tuple:
    """The (k, P) Sectors of the dense runners: k = 0..L-1, P = +1 before
    P = -1, an empty one (k = 1, P = +1 at L = 2) left out."""
    sectors = (Sector(length, k=k, parity=p)
               for k in range(length) for p in (1, -1))
    return tuple(s for s in sectors if s.isometry.shape[1])


def _partner(length: int) -> tuple:
    """partner[a]: the side of _sectors(L) that R maps side a onto.

    R maps site r to L - 1 - r. It sends the orbit sum of V_k over the
    orbit of s to that of V_{-k} over the reversed orbit, times a phase,
    so R V_a = V_{partner[a]} Q_a with Q_a monomial: side (k, P) goes to
    ((-k) mod L, P).
    """
    sectors = _sectors(length)
    return tuple(sectors.index(replace(s, k=-s.k % length)) for s in sectors)


def _classes(sides: tuple, partner: tuple) -> tuple:
    """(groups, sources): which blocks the dense runners build, and where
    each block's spectrum comes from.

    The class of block (x, y) is {(x, y), (Rx, Ry), (y, x), (Ry, Rx)},
    with Rx = partner[x] (_partner; the identity table on sides that R
    maps onto themselves). Block (Rx, Ry) is block (x, y) after the change
    of basis Q_x r Q_y^dag, so it has the same spectrum; (y, x) and
    (Ry, Rx) have the conjugate one (spectral.mirror). Only the first
    member of each class in row-major order is built; it has x <= y.
    groups: the built blocks grouped by the shape of their matrices,
    n x n with n = n_x n_y the size of r = sides[x]^dag rho sides[y], one
    tuple of pairs per shape, in row-major order. sources: for each block
    in row-major order, (a, b, conj): its spectrum is that of built block
    (a, b), mirrored if conj.
    """
    return _class_table(tuple(v.shape[1] for v in sides), partner)


@functools.cache
def _class_table(sizes: tuple, partner: tuple) -> tuple:
    """_classes of sides with sizes[x] columns, once per sizes."""
    r = partner
    groups, sources = {}, []
    for x, nx in enumerate(sizes):
        for y, ny in enumerate(sizes):
            a, b = min((x, y), (y, x), (r[x], r[y]), (r[y], r[x]))
            sources.append((a, b, (x, y) not in ((a, b), (r[a], r[b]))))
            if (a, b) == (x, y):
                groups.setdefault(nx * ny, []).append((x, y))
    return tuple(map(tuple, groups.values())), tuple(sources)


def _map_spectra(setup: tuple, length: int, kicks: list) -> list:
    """The Floquet map's block spectra, eigenvalues only, at each kick of
    `kicks`: one build(pairs) per kick error, _kick of `setup` (a
    _field_setup at chain length `length`).

    Each group of _classes, kicked by every kick, goes to decompose as one
    stack: one call per shape. For each kick: every block's spectrum in
    row-major order (_assemble), or the exception that its kick raised;
    a kick that failed on one group is left out of the later ones. A
    failed eigenvalue solve raises.
    """
    groups, sources = _classes(setup[1], _partner(length))
    built = [{} for _ in kicks]
    for pairs in groups:
        m = len(pairs)
        stack = np.empty((len(kicks) * m, *setup[3][pairs].shape[1:]),
                         dtype=complex)
        done = []       # the kicks applied, in stack order
        for k, kick in enumerate(kicks):
            if isinstance(built[k], dict):
                try:
                    stack[len(done) * m:(len(done) + 1) * m] = kick(pairs)
                    done.append(k)
                except Exception as exc:   # fails its own kick only
                    built[k] = exc
        if done:
            spectra = list(_with_mirrors(stack[:len(done) * m], "map"))
            for j, k in enumerate(done):
                built[k].update(zip(pairs, spectra[j * m:(j + 1) * m]))
    return [b if isinstance(b, Exception) else _assemble(b, sources)
            for b in built]


def _with_mirrors(stack: np.ndarray, kind: str) -> zip:
    """(spectrum, mirror) of each matrix of a stack, eigenvalues only, from
    one decompose call."""
    sd = spectral.decompose(stack, kind=kind, vectors=False)
    count = len(stack)
    return zip(spectral.split(sd, count),
               spectral.split(spectral.mirror(sd, None, count), count))


def _assemble(built: dict, sources: tuple) -> list:
    """Every block's spectrum, by the sources of _classes, from `built`:
    (spectrum, mirror) of each built block, from _with_mirrors."""
    return [built[a, b][conj] for a, b, conj in sources]


def _block_spectrum(sides: tuple, build, a: int, b: int,
                    partner: tuple) -> SpectralData:
    """The spectrum of block (a, b) of the map alone, with vectors: a
    block a > b is the spectral.mirror of block (b, a). Block
    (min(a, b), max(a, b)) is one that _classes(sides, partner) builds."""
    if a > b:
        sd = _block_spectrum(sides, build, b, a, partner)
        return spectral.mirror(sd, (sides[b].shape[1], sides[a].shape[1]))
    pairs = next(p for p in _classes(sides, partner)[0] if (a, b) in p)
    return spectral.decompose(build(pairs)[pairs.index((a, b))], kind="map")


def _check_reflection(model, length: int) -> None:
    """Raise ValueError unless the model commutes with the reflection R.

    H, and each jump operator of a LindbladModel, is compared with its
    bit-reversed gather f[rev][:, rev] by _restrict's rule: an entry of
    the difference above SECTOR_TOL * max(1, max|f|) raises. That is
    sufficient, not necessary: a jump that R maps to a phase times itself
    leaves the generator R-invariant and is refused all the same.
    NumericGenerator's D derives from H and M_z, and M_z and the kick are
    R-invariant by construction.
    """
    rev = _reversal(length)
    for f in (model.hamiltonian,
              *(j.operator for j in getattr(model, "jumps", ()))):
        leak = np.abs(f - f[np.ix_(rev, rev)]).max(initial=0.0)
        bound = SECTOR_TOL * max(1.0, np.abs(f).max(initial=0.0))
        if leak > bound:
            raise ValueError(f"the model does not commute with the "
                             f"reflection R (entry {leak:.2e} > SECTOR_TOL "
                             f"* max(1, max|f|) = {bound:.2e})")


def _field_setup(cfg: ExperimentConfig, h: float, length: int,
                 generator: dict | None = None) -> tuple:
    """(protocol, sides, kicks, evolved) at field h, for _kick.

    The protocol at field h, the isometries of the Sectors of _sectors(L),
    and for each group of _classes with the sides' partner table, one
    block per reflection class: the diagonal of the kick's commutator
    [M_z / 2, .] on each block (`kicks`, see floquet.kicked), from M_z / 2
    restricted once per side, and each block's exp(L T) (`evolved`), the
    group exponentiated as one stack.
    Neither depends on the kick error, so one set-up serves every eta.
    Given a dict `generator`, each group's generator stack is also
    decomposed, eigenvalues only, into it as _assemble's table of built
    blocks, so no generator block is built twice. The classes rest
    on the model commuting with R; _check_reflection raises ValueError
    where it does not.
    """
    _, proto = _protocol(cfg, h, 0.0, length)
    _check_reflection(proto.model, length)
    sides = tuple(s.isometry for s in _sectors(length))
    # M_z / 2 stays diagonal on every side: each column is one orbit's sum
    g = [_restrict(proto.kick_generator, v) for v in sides]
    kicks, evolved = {}, {}
    for pairs in _classes(sides, _partner(length))[0]:
        kicks[pairs] = np.stack([np.subtract.outer(g[a], g[b]).reshape(-1)
                                 for a, b in pairs])
        stack = np.stack([proto.model.matrix((sides[a], sides[b]))
                          for a, b in pairs])
        if generator is not None:
            generator.update(zip(pairs, _with_mirrors(stack, "generator")))
        evolved[pairs] = floquet.matrix_exp(stack, proto.period)
    return proto, sides, kicks, evolved


def _kick(proto: floquet.KickedProtocol, sides: tuple, kicks: dict,
          evolved: dict, eta: float):
    """build(pairs) of the Floquet map's blocks at kick error eta, for
    _map_spectra, from a _field_setup: the blocks of a group of _classes
    are kicked as one stack."""
    at_eta = replace(proto, error=eta)
    return lambda pairs: floquet.kicked(
        at_eta, evolved[pairs], [(sides[a], sides[b]) for a, b in pairs],
        kicks[pairs])


def _initial_state(cfg: ExperimentConfig, params: xy.XYParams) -> np.ndarray:
    """The normalized state vector psi of cfg.initial_state."""
    if cfg.initial_state == "gs_superposition":
        fact = xy.factorized_states(params)
        psi = fact.parity_states[0] + fact.parity_states[1]
    else:
        psi = np.ones(params.dim, dtype=complex)
    return psi / np.linalg.norm(psi)


def _trace_mx(cfg: ExperimentConfig, length: int, n_periods: int) -> list:
    """m_x(nT) for n = 0..n_periods under dissipate-then-kick periods.

    Both initial states are invariant under the translation and the
    reflection of the chain, so the stepper evolves their k = 0, R = +1
    block r = v^dag rho v only, v the isometry of that Sector, and
    m_x = tr(v^dag M_x v r) / L.
    """
    params, proto = _protocol(cfg, cfg.h, cfg.eta, length)
    v = Sector(length, k=0, reflection=1).isometry
    psi = v.conj().T @ _initial_state(cfg, params)
    # X_r |i> = |i ^ (1 << r)>, so row i of X_r v is row i ^ (1 << r) of v
    i = np.arange(2 ** length)
    mx = v.conj().T @ sum(v[i ^ (1 << r)] for r in range(length)) / length
    states = floquet.stroboscopic_evolve(
        proto, np.outer(psi, psi.conj()), n_periods, (v, v))
    return [float(np.real(hs_inner(mx, r))) for r in states]


def _require_matrix_path(cfg: ExperimentConfig, command: str) -> None:
    if cfg.length > MATRIX_PATH_MAX:
        raise ConfigError(f"{command} needs the matrix path "
                          f"(length <= {MATRIX_PATH_MAX})")


def _require_initial_state(cfg: ExperimentConfig, command: str) -> None:
    """gs_superposition needs the factorized pair: h^2 + gamma^2 = 1, h < 1."""
    if cfg.initial_state != "gs_superposition":
        return
    try:
        xy.factorized_states(xy.XYParams(gamma=cfg.resolved_gamma(), h=cfg.h,
                                         length=2))
    except ValueError as exc:
        raise ConfigError(f"{command} from gs_superposition: {exc}") from exc


def _sweep_row(cfg: ExperimentConfig, h: float, length: int) -> list:
    """The sweep rows at field h, one per eta of cfg.eta_grid.

    Every eta kicks the row's one _field_setup, and _map_spectra hands
    decompose every eta's kicked blocks of one shape as one stack: one
    call per shape and field. A failure to build the generator or an
    exponential, or a failed eigenvalue solve of such a stack, flags every
    point of the row; a failed kick, or a failure after the solve, only
    its own point.
    """
    etas = cfg.eta_grid
    try:
        setup = _field_setup(cfg, h, length)
        maps = _map_spectra(setup, length,
                            [_kick(*setup, eta) for eta in etas])
    except Exception as exc:   # row failures flagged, run continues
        return [_failed_point(h, eta, exc) for eta in etas]
    rows = []
    for eta, spectra in zip(etas, maps):
        try:
            if isinstance(spectra, Exception):
                raise spectra
            diag = floquet.find_star(*spectra, order=cfg.order,
                                     period=cfg.period)
            rows.append([h, eta, diag.floquet_gap, diag.tc_distance,
                         diag.star_eigenvalue.real,
                         diag.star_eigenvalue.imag, "ok"])
        except Exception as exc:   # per-point failures flagged
            rows.append(_failed_point(h, eta, exc))
    return rows


def _failed_point(h: float, eta: float, exc: Exception) -> list:
    return [h, eta, np.nan, np.nan, np.nan, np.nan, f"error: {exc}"]


def run_sweep(cfg: ExperimentConfig) -> ResultTable:
    """Floquet diagnostics over the (h, eta) grid along the factorization line."""
    _require_matrix_path(cfg, "sweep")
    table = ResultTable(
        columns=["h", "eta", "floquet_gap", "tc_distance",
                 "star_re", "star_im", "status"],
        metadata=_metadata(cfg, "sweep"))
    table.metadata["length"] = cfg.length
    # an unset gamma resolves per row, as sqrt(1 - h^2) of its own h
    table.metadata["config"]["gamma"] = cfg.gamma
    with _serial_blas():
        for h in cfg.h_grid:
            for row in _sweep_row(cfg, h, cfg.length):
                table.add(*row)
    table.metadata["failures"] = sum(s != "ok" for s in table.column("status"))
    return table


def run_trace(cfg: ExperimentConfig) -> ResultTable:
    """Stroboscopic magnetization m_x(nT) for one parameter point."""
    _require_initial_state(cfg, "trace")
    values = _trace_mx(cfg, cfg.length, cfg.n_periods)
    table = ResultTable(columns=["n", "time", "m_x"],
                        metadata=_metadata(cfg, "trace"))
    for n, v in enumerate(values):
        table.add(n, n * cfg.period, v)
    return table


def run_scaling(cfg: ExperimentConfig) -> ResultTable:
    """|m_x(10T)| against chain length at fixed kick error."""
    _require_initial_state(cfg, "scaling")
    table = ResultTable(columns=["length", "amplitude", "status"],
                        metadata=_metadata(cfg, "scaling"))
    amps = {}
    for length in cfg.l_grid:
        try:
            values = _trace_mx(cfg, length, 10)
            amp = abs(values[10])
            amps[length] = amp
            table.add(length, amp, "ok")
        except Exception as exc:
            table.add(length, np.nan, f"error: {exc}")
    table.metadata["failures"] = sum(s != "ok" for s in table.column("status"))
    probe = sorted(l for l in amps if 4 <= l <= 8)
    table.metadata["trend_nondecreasing"] = bool(
        all(amps[a] <= amps[b] + TREND_SLACK
            for a, b in zip(probe, probe[1:])))
    return table


def run_disorder(cfg: ExperimentConfig) -> ResultTable:
    """Linear disorder susceptibility over seeded zero-sum samples."""
    _require_matrix_path(cfg, "disorder")
    with _serial_blas():
        setup = _field_setup(cfg, cfg.h, cfg.length)
        sides = setup[1]
        # the star is searched on eigenvalues; only its block is
        # decomposed with the vectors that its refinement and
        # susceptibility read, from its stack as kicked for the search
        partner = _partner(cfg.length)
        build = functools.cache(_kick(*setup, cfg.eta))
        spectra, = _map_spectra(setup, cfg.length, [build])
        if isinstance(spectra, Exception):
            raise spectra
        star = floquet.find_star(*spectra, order=cfg.order,
                                 period=cfg.period)
        # the built block of the star's class that has the star's spectrum
        a, b, conj = _classes(sides, partner)[1][star.block]
        a, b = (b, a) if conj else (a, b)
        sd = _block_spectrum(sides, build, a, b, partner)
        mu = floquet.find_star(sd, order=cfg.order, period=cfg.period).index
        block = (sides[a], sides[b])
        sd = floquet.translation_refine(sd, cfg.length, mu, block)
    rng = np.random.default_rng(cfg.seed)
    scale = 1 << 20
    grains = np.array([rng.integers(-scale, scale, cfg.length)
                       for _ in range(cfg.n_samples)])
    # dyadic amplitudes make the zero sum exact in floating point
    grains[:, 0] -= grains.sum(1)
    chis = floquet.disorder_susceptibility(sd, grains / float(scale),
                                           cfg.length, mu, block)
    table = ResultTable(columns=["sample", "single_site", "full_sum"],
                        metadata=_metadata(cfg, "disorder"))
    for k, chi in enumerate(chis):
        table.add(k, chi.single_site, chi.full_sum)
    return table


def run_spectrum(cfg: ExperimentConfig) -> ResultTable:
    """Full generator and Floquet-map spectra at one parameter point.

    Each is the union of its (k, P) blocks; `sector` names the block by
    the labels of the Sectors of the rows and of the columns of rho, e.g.
    "0+/1-", and `index` counts within it. Only one block of each
    reflection class is decomposed (_classes): a block that R maps onto
    another lists that one's eigenvalues, which are its own up to
    rounding. Each generator block is built once, in _field_setup.
    """
    _require_matrix_path(cfg, "spectrum")
    partner = _partner(cfg.length)
    built = {}
    with _serial_blas():
        setup = _field_setup(cfg, cfg.h, cfg.length, built)
        sides = setup[1]
        generator = _assemble(built, _classes(sides, partner)[1])
        maps, = _map_spectra(setup, cfg.length, [_kick(*setup, cfg.eta)])
        if isinstance(maps, Exception):
            raise maps
    table = ResultTable(
        columns=["kind", "sector", "index", "re", "im", "peripheral"],
        metadata=_metadata(cfg, "spectrum"))
    # in row-major block order, over the sides of _field_setup
    labels = [f"{s.k}{'+' if s.parity > 0 else '-'}"
              for s in _sectors(cfg.length)]
    names = [f"{rows}/{cols}" for rows in labels for cols in labels]
    for kind, spectra in (("generator", generator), ("map", maps)):
        for name, sd in zip(names, spectra, strict=True):
            mask = sd.peripheral_mask()
            for i, lam in enumerate(sd.eigenvalues):
                table.add(kind, name, i, lam.real, lam.imag, int(mask[i]))
    diag = floquet.find_star(*maps, order=cfg.order, period=cfg.period)
    table.metadata["floquet_gap"] = diag.floquet_gap
    table.metadata["tc_distance"] = diag.tc_distance
    return table


# Closed-form checks: (name, value, tolerance) rows per acceptance criterion
# plus validate-only rows. Library functions are looked up when called.

_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _max_err(got, expected) -> float:
    return float(np.max(np.abs(got - expected)))


def _dephasing_protocol(kappa_t: float) -> floquet.KickedProtocol:
    return floquet.KickedProtocol(
        model=models.dephasing_model(h=0.0, kappa=kappa_t), period=1.0,
        kick_generator=0.5 * pauli("X"))


def _star_chi1(proto: floquet.KickedProtocol) -> float:
    """|chi1| of the order-2 star under a kick-angle error."""
    sd = spectral.decompose(floquet.floquet_propagator(proto), kind="map")
    mu = floquet.find_star(sd, order=2).index
    return abs(floquet.susceptibility(sd, floquet.rotation_error_map(proto), mu))


def _outers(vecs) -> list:
    """|v_a><v_b| for (a, b) in _PAIRS."""
    return [np.outer(vecs[a], vecs[b].conj()) for a, b in _PAIRS]


def _conserved_err(model: LindbladModel, expected: list) -> float:
    """Distance of the duals of |psi_a><psi_b| from expected, in _PAIRS order."""
    asy = spectral.asymptotic_subspace(
        spectral.decompose(liouvillian_matrix(model), kind="generator"))
    duals = spectral.dual_basis(asy, _outers(models.bell_basis()[:2]))
    return max(_max_err(dual, e) for dual, e in zip(duals, expected))


def _sector_err(params: xy.XYParams, ham: np.ndarray) -> float:
    """Exact parity-sector spectra of ham against the free-fermion oracle."""
    return max(_max_err(np.sort(np.linalg.eigvalsh(_restrict(
        ham, Sector(params.length, parity=p).isometry))),
        xy.free_fermion_sector_energies(params, sector))
        for sector, p in (("even", 1), ("odd", -1)))


def _dephasing_spectrum_checks() -> list:
    """Criterion 1: the kicked dephasing spectrum {+-1, +-e^(-2 kappa T)}."""
    err = 0.0
    for kappa_t in (0.1, 1.0, 5.0):
        sd = spectral.decompose(floquet.floquet_propagator(
            _dephasing_protocol(kappa_t)), kind="map")
        decay = np.exp(-2.0 * kappa_t)
        err = max(err, _max_err(np.sort_complex(sd.eigenvalues),
                                np.sort_complex([1.0, -1.0, decay, -decay])))
    return [("dephasing_floquet_spectrum", err, 1e-10)]


def _dephasing_rigidity_checks() -> list:
    """Criterion 2: a rigid star, and the perpendicular-field spectrum."""
    proto = _dephasing_protocol(1.0)
    err = 0.0
    for eta in (0.3, 0.5):
        perp = LindbladModel(hamiltonian=0.5 * eta * pauli("X"),
                             jumps=proto.model.jumps)
        sd = spectral.decompose(liouvillian_matrix(perp), kind="generator")
        err = max(err, _max_err(
            np.sort_complex(sd.eigenvalues),
            np.sort_complex(models.dephasing_perp_field_spectrum(1.0, eta))))
    return [("dephasing_chi1", _star_chi1(proto), 1e-9),
            ("dephasing_perp_field_spectrum", err, 1e-9)]


def _decoherence_free_checks() -> list:
    """Criterion 3: DFS conserved quantities, kick phases, a rigid star."""
    psi, phi = map(_outers, (models.bell_basis()[:2], models.bell_basis()[2:]))
    rows = []
    for kind, model in (("independent", models.dfs_independent_model()),
                        ("collective", models.dfs_collective_model())):
        expected = [c + (p if kind == "collective" or a == b else 0.0)
                    for (a, b), c, p in zip(_PAIRS, psi, phi)]
        proto = floquet.KickedProtocol(
            model=model, period=1.0,
            kick_generator=z_signs(2).sum(0) / 2)
        ef = floquet.floquet_propagator(proto)
        kick_err = max(_max_err(ef @ vectorize(c),
                                (-1.0) ** (a + b) * vectorize(c))
                       for (a, b), c in zip(_PAIRS, psi))
        rows += [(f"dfs_{kind}_conserved", _conserved_err(model, expected),
                  1e-8),
                 (f"dfs_{kind}_kick_eigenvalue", kick_err, 1e-9),
                 (f"dfs_{kind}_chi1", _star_chi1(proto), 1e-8)]
    return rows


def _suppression_checks() -> list:
    """Criterion 4: suppression factors of the conserved quantities."""
    rows = [(f"jump_suppression_eta_{eta:g}", _conserved_err(
        models.suppression_by_jump_model(eta),
        [models.expected_jump_conserved(eta, a, b) for a, b in _PAIRS]), 1e-8)
        for eta in (0.5, 1.0, 2.0)]
    return rows + [(f"ham_suppression_delta_{delta:g}", _conserved_err(
        models.suppression_by_hamiltonian_model(0.3, delta),
        [models.expected_ham_conserved(0.3, delta, a, b) for a, b in _PAIRS]),
        1e-8) for delta in (0.5, 1.0)]


def _free_fermion_checks() -> list:
    """Criterion 5: free-fermion oracle and factorized ground pair."""
    rng = np.random.default_rng(5)
    chains = [xy.XYParams(j=float(rng.uniform(0.5, 1.5)),
                          gamma=float(rng.uniform(0.1, 1.0)),
                          h=float(rng.uniform(0.0, 1.5)), length=length)
              for length in (2, 4, 6) for _ in range(2)]
    rows = [("xy_free_fermion_random",
             max(_sector_err(p, xy.xy_hamiltonian(p)) for p in chains), 1e-8)]
    for length in (4, 6):
        params = xy.XYParams(j=1.0, gamma=_SQ2, h=_SQ2, length=length)
        _, _, e_plus, e_minus = xy.ground_state_pair(params)
        ham = xy.xy_hamiltonian(params)
        resid = max(float(np.linalg.norm(ham @ s - e_plus * s))
                    for s in xy.factorized_states(params).states)
        rows += [(f"xy_free_fermion_L{length}", _sector_err(params, ham), 1e-8),
                 (f"factorization_degeneracy_L{length}",
                  abs(e_plus - e_minus), 1e-10),
                 (f"factorized_state_residual_L{length}", resid, 1e-8)]
    return rows


def _disorder_checks() -> list:
    """Criterion 8: zero-sum disorder does not move the star."""
    dis = run_disorder(ExperimentConfig(length=4, h=_SQ2, n_samples=20))
    return [("xy_disorder_zero_sum_L4", max(dis.column("full_sum")), 1e-8),
            ("xy_disorder_single_site_L4",
             max(abs(v) for v in dis.column("single_site")), 0.0)]


def _protocol_checks() -> list:
    """Checks outside the acceptance criteria."""
    proto = _dephasing_protocol(1.0)
    static = spectral.decompose(floquet.matrix_exp(
        liouvillian_matrix(proto.model), proto.period), kind="map")
    obs6 = floquet.check_observation6(static, proto.kick_unitary, order=2)
    params = xy.XYParams(j=1.0, gamma=_SQ2, h=_SQ2, length=4)
    gen = xy.NumericGenerator(params, xy.BathSpec(kappa0=0.01, beta=np.inf))
    plus, minus = xy.factorized_states(params).parity_states
    rows = [("dephasing_observation6", 0.0 if obs6.passed else 1.0, 0.5),
            ("xy_trace_fixed_point_L4", _max_err(
                trace_functional(params.dim).conj() @ gen.matrix(), 0.0), 1e-9),
            ("xy_coherence_protection_L4", _max_err(
                gen.action(np.outer(plus, minus.conj())), 0.0), 1e-8),
            ("amplitude_formula_ising",
             abs(xy.theoretical_amplitude(1.0) - 1.0), 1e-12)]
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    jump = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    model = LindbladModel(hamiltonian=0.5 * (a + a.conj().T),
                          jumps=((jump, 0.5),))
    rho0 = np.diag(rng.uniform(0.1, 1.0, 4)).astype(complex)
    rho0 /= np.trace(rho0).real
    rho_exp = devectorize(floquet.matrix_exp(liouvillian_matrix(model), 0.7)
                          @ vectorize(rho0))
    return rows + [("rk4_vs_matrix_exponential", trace_distance(
        rk4_evolve(model, rho0, 0.7, dt=1e-3), rho_exp), 1e-6)]


CHECKS = {
    "criterion 1": _dephasing_spectrum_checks,
    "criterion 2": _dephasing_rigidity_checks,
    "criterion 3": _decoherence_free_checks,
    "criterion 4": _suppression_checks,
    "criterion 5": _free_fermion_checks,
    "criterion 8": _disorder_checks,
    "validate only": _protocol_checks,
}


def run_validate(cfg: ExperimentConfig | None = None) -> ResultTable:
    """Run every closed-form and protocol check; one row per check."""
    table = ResultTable(columns=["name", "value", "tolerance", "passed"],
                        metadata=_metadata(cfg or ExperimentConfig(), "validate"))
    for entry in CHECKS.values():
        for name, value, tol in entry():
            table.add(name, value, tol, int(value <= tol))
    table.metadata["failures"] = table.column("passed").count(0)
    return table
