"""Open XY chain: Hamiltonian, parity sectors, free-fermion oracles, dissipators.

The spin-basis exact diagonalization is the computational backbone; the
free-fermion dispersion formulas serve as independent cross-checks. The
dissipators couple the chain to an ohmic bath through the total magnetization
M_z, either through the numerically tractable operator-D form or through
secular Bohr-frequency groupings (independent or collective jumps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lindblad import JumpChannel, LindbladModel, _restrict, _SectorGenerator
from .operators import Sector, _dot, z_signs

BOHR_CLUSTER_TOL = 1e-6       # times |J|; README "Tolerances" has them all
ENERGY_CLUSTER_TOL = 1e-8     # times max(1, max |E|)
COUPLING_TOL = 1e-12
FACTORIZATION_TOL = 1e-10
MOMENTUM_TOL = 1e-12


@dataclass(frozen=True)
class XYParams:
    """Couplings of the periodic XY chain of even length."""

    j: float = 1.0
    gamma: float = 1.0
    h: float = 0.0
    length: int = 4

    def __post_init__(self):
        if self.length < 2 or self.length % 2 != 0:
            raise ValueError("chain length must be even and >= 2")

    @property
    def dim(self) -> int:
        return 2 ** self.length


@dataclass(frozen=True)
class BathSpec:
    """Ohmic bath J(omega) = kappa0 * omega at inverse temperature beta.

    The full rate is kappa(omega) = J(omega)(1 + n(omega)) with n the Bose
    function, kappa0 omega / (1 - exp(-beta omega)); at beta = inf this is
    kappa0*omega for omega > 0 and zero otherwise. It obeys detailed balance,
    kappa(-omega) = exp(-beta omega) kappa(omega). At omega = 0 the rate is
    its continuous limit kappa0 / beta, which is 0 at beta = inf;
    NumericGenerator's D counts Bohr frequencies below BOHR_CLUSTER_TOL |J|
    as 0, and the secular dissipators keep only those above it. kappa0
    must be finite and non-negative, beta positive (inf included).
    """

    kappa0: float = 0.01
    beta: float = np.inf

    def __post_init__(self):
        if not (np.isfinite(self.kappa0) and self.kappa0 >= 0):
            raise ValueError(f"kappa0 must be finite and >= 0: {self.kappa0}")
        if not self.beta > 0:   # also rejects NaN
            raise ValueError(f"beta must be positive, or inf: {self.beta}")

    def rate(self, omega):
        """kappa(omega) for a float or, elementwise, an array of them."""
        omega = np.asarray(omega, dtype=float)
        zero = omega == 0.0
        # 1 in place of omega = 0 keeps inf * 0 and 0 / 0 out of the formula
        o = np.where(zero, 1.0, omega)
        w = np.abs(o)
        # kappa0 |w| e^(-beta |w|) / (1 - e^(-beta |w|)) for w < 0: no overflow
        rate = (self.kappa0 * w * np.exp(np.minimum(self.beta * o, 0.0))
                / -np.expm1(-self.beta * w))
        return np.where(zero, self.kappa0 / self.beta, rate)[()]


@dataclass(frozen=True)
class FactorizationState:
    """Product ground states on the line h^2 + gamma^2 = 1."""

    zeta: float
    states: tuple          # (|0,GS>, |1,GS>), product states, P-exchanged
    parity_states: tuple   # (|+,GS>, |-,GS>), normalized combinations


def xy_hamiltonian(p: XYParams) -> np.ndarray:
    """-J sum_r [(1+g)/2 X_r X_{r+1} + (1-g)/2 Y_r Y_{r+1} + h Z_r], periodic."""
    z = z_signs(p.length)
    idx = np.arange(p.dim)
    ham = np.zeros((p.dim, p.dim), dtype=complex)
    for r in range(p.length):
        # X_r X_s flips bits r and s of the index; Y_r Y_s = -Z_r Z_s X_r X_s
        s = (r + 1) % p.length
        flip = idx ^ (1 << (p.length - 1 - r)) ^ (1 << (p.length - 1 - s))
        ham[flip, idx] += (0.5 * (1.0 + p.gamma)
                           - 0.5 * (1.0 - p.gamma) * z[r] * z[s])
    ham[idx, idx] = (p.h * z).sum(0)
    return -p.j * ham


def brillouin_zone(length: int, sector: str) -> np.ndarray:
    """Quasi-momenta: half-integers (even sector) or integers (odd sector)."""
    if length % 2 != 0:
        raise ValueError("chain length must be even")
    m = np.arange(-length // 2, length // 2)
    if sector == "even":
        return m + 0.5
    if sector == "odd":
        return m.astype(float)
    raise ValueError(f"sector must be 'even' or 'odd', got {sector!r}")


def _check_momentum(p: XYParams, q: float) -> None:
    if (abs(2 * q - round(2 * q)) > MOMENTUM_TOL
            or not -p.length / 2 <= q < p.length / 2):
        raise ValueError(f"momentum {q} lies in neither Brillouin zone")


def dispersion(p: XYParams, q: float) -> float:
    """E_q = 2J sqrt((h - cos(2 pi q / L))^2 + (gamma sin(2 pi q / L))^2)."""
    _check_momentum(p, q)
    phase = 2.0 * np.pi * q / p.length
    return 2.0 * abs(p.j) * np.hypot(p.h - np.cos(phase),
                                     p.gamma * np.sin(phase))


def free_fermion_sector_energies(p: XYParams, sector: str) -> np.ndarray:
    """Sorted many-body spectrum of one parity sector from mode occupations.

    Each paired mode contributes E_q (s_q - 1/2). The two unpaired odd-sector
    modes carry signed energies 2J(h-1) at q = 0 and 2J(h+1) at q = -L/2, and
    the total occupation number is even (odd) in the even (odd) sector.
    """
    qs = brillouin_zone(p.length, sector)
    energies = []
    for q in qs:
        if sector == "odd" and q == 0.0:
            energies.append(2.0 * p.j * (p.h - 1.0))
        elif sector == "odd" and q == -p.length / 2:
            energies.append(2.0 * p.j * (p.h + 1.0))
        else:
            energies.append(dispersion(p, q))
    energies = np.array(energies)
    want_odd = 1 if sector == "odd" else 0
    out = []
    for occ in range(2 ** p.length):
        bits = [(occ >> k) & 1 for k in range(p.length)]
        if sum(bits) % 2 != want_odd:
            continue
        out.append(np.sum(energies * (np.array(bits) - 0.5)))
    return np.sort(np.array(out))


def ground_state_pair(p: XYParams):
    """Lowest state and energy of each parity sector of the exact Hamiltonian.

    Returns (state_plus, state_minus, e_plus, e_minus); phases fixed by making
    the largest-magnitude amplitude real and positive. Each sector's block
    is lindblad._restrict's, so an H that couples them raises ValueError.
    """
    ham = xy_hamiltonian(p)
    out = []
    for parity in (1, -1):
        v = Sector(p.length, parity=parity).isometry
        evals, vecs = np.linalg.eigh(_restrict(ham, v))
        state = v @ vecs[:, 0]
        k = np.argmax(np.abs(state))
        state *= np.abs(state[k]) / state[k]
        out.append((state, float(evals[0])))
    (plus, e_plus), (minus, e_minus) = out
    return plus, minus, e_plus, e_minus


def factorized_states(p: XYParams) -> FactorizationState:
    """Product ground states on the factorization line h^2 + gamma^2 = 1.

    |k,GS> = prod_r (cos(zeta)|0> + (-)^k sin(zeta)|1>) with
    cos^2(2 zeta) = (1 - gamma)/(1 + gamma); parity maps one onto the other.
    They need gamma > 0: at gamma = 0 (h = 1) both are |0...0>.
    """
    if abs(p.h ** 2 + p.gamma ** 2 - 1.0) > FACTORIZATION_TOL:
        raise ValueError("parameters are off the factorization line")
    if not p.gamma > 0.0:
        raise ValueError("the factorized states need gamma > 0; at gamma = 0 "
                         "(h = 1) they coincide")
    c2 = np.sqrt((1.0 - p.gamma) / (1.0 + p.gamma))
    zeta = 0.5 * np.arccos(c2)
    z = z_signs(p.length)
    states = [np.where(z > 0, np.cos(zeta), sign * np.sin(zeta)).prod(0)
              .astype(complex) for sign in (1.0, -1.0)]
    parity_states = []
    for sign in (1.0, -1.0):
        combo = states[0] + sign * states[1]
        parity_states.append(combo / np.linalg.norm(combo))
    return FactorizationState(zeta=float(zeta), states=tuple(states),
                              parity_states=tuple(parity_states))


def _runs(joined: np.ndarray) -> list:
    """Clusters of sorted values as slices; joined[i]: values i, i+1 close."""
    cuts = [0, *(np.flatnonzero(~joined) + 1), joined.size + 1]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def energy_eigenbasis(p: XYParams):
    """Eigenbasis of H with M_z diagonalized inside degenerate clusters.

    Returns (energies, vectors). The cluster rotation removes the gauge
    freedom that would otherwise make the M_z matrix elements ambiguous.
    """
    return _eigenbasis(xy_hamiltonian(p), z_signs(p.length).sum(0))[:2]


def _eigenbasis(ham: np.ndarray, mz: np.ndarray):
    """(energies, vectors, m): energy_eigenbasis of the Hamiltonian ham
    with magnetization mz, and m = vectors^dag mz vectors, the M_z couplings.

    mz is a matrix, or its diagonal as a 1-D array; ham and mz may be the
    restrictions of H and M_z to a sector that both keep.
    """
    evals, vecs = np.linalg.eigh(ham)
    scale = max(1.0, float(np.max(np.abs(evals))))
    for run in _runs(np.diff(evals) < ENERGY_CLUSTER_TOL * scale):
        if run.stop - run.start > 1:
            block = vecs[:, run]
            _, w = np.linalg.eigh(block.conj().T @ _dot(mz, block))
            vecs[:, run] = block @ w
    return evals, vecs, vecs.conj().T @ _dot(mz, vecs)


def _dissipator(ham: np.ndarray, mz: np.ndarray, bath: BathSpec,
                j: float) -> np.ndarray:
    """D = 1/2 sum_kl kappa(E_k - E_l) m_kl |k><l| of ham and mz, coupling j.

    ham and mz are as in _eigenbasis. For an isometry v onto a subspace
    that H and M_z both keep (a sector of the translation and the parity),
    D from v^dag H v and v^dag M_z v is v^dag D v.
    """
    evals, vecs, m = _eigenbasis(ham, mz)
    omega = evals[:, None] - evals[None, :]
    omega[np.abs(omega) < BOHR_CLUSTER_TOL * abs(j)] = 0.0
    d_eig = 0.5 * bath.rate(omega) * m
    return vecs @ d_eig @ vecs.conj().T


class NumericGenerator(_SectorGenerator):
    """Generator rho -> -i[H, rho] + [M_z, rho D] + [D^dag rho, M_z].

    Implements the generator interface shared with lindblad.LindbladModel:
    action, adjoint_action, matrix, trace and norm_bound. It is the sum of
    the sandwiches (K, 1), (1, K^dag), (M_z, D) and (D^dag, M_z) with
    K = -iH - M_z D^dag, and M_z kept as its diagonal, so the action costs
    four dense matrix products plus diagonal scalings; matrix() expands the
    superoperator, or one block of it, for small chains. Every method takes
    a block of rho as lindblad.Generator describes.

    Construction keeps H and the M_z diagonal only. Each side of a block,
    an isometry v, gets v^dag H v and v^dag M_z v (lindblad._restrict
    checks that v spans a sector of both) and its own D, built from the
    eigenbasis of v^dag H v: the d x d D is never formed for a block.
    Sides are built and blocks assembled by lindblad._SectorGenerator;
    None is the whole space, whose D is the `dissipator` property.
    """

    def __init__(self, p: XYParams, bath: BathSpec):
        self.params = p
        self.bath = bath
        self.hamiltonian = xy_hamiltonian(p)
        self.mz_diag = z_signs(p.length).sum(0)

    @property
    def dissipator(self) -> np.ndarray:
        """The whole-space operator D, built on first use."""
        return self._side(None)[2][0]    # the right factor of (M_z, D)

    def _parts(self, v) -> tuple:
        h = _restrict(self.hamiltonian, v)
        z = _restrict(self.mz_diag, v)
        d = _dissipator(h, z, self.bath, self.params.j)
        d_dag = d.conj().T
        return -1j * h - _dot(z, d_dag), (z, d_dag), (d, z)

    def action(self, rho: np.ndarray, block=None) -> np.ndarray:
        return self._terms(block).action(rho)

    def adjoint_action(self, a: np.ndarray, block=None) -> np.ndarray:
        return self._terms(block).adjoint_action(a)

    def matrix(self, block=None) -> np.ndarray:
        return self._terms(block).matrix()

    def covariant_split(self, block=None) -> None:
        """None: the Redfield dissipator does not commute with -i[H, .]
        (||[H, D]||_2 / (||H||_2 ||D||_2) of the two superoperators is 0.22
        on the L = 8 trace block), so the stepper takes the whole
        generator."""
        return None


def secular_liouvillian(p: XYParams, bath: BathSpec,
                        mode: str = "independent") -> LindbladModel:
    """Jump-operator form from Bohr-frequency groupings of M_z.

    Independent mode: one jump A(omega) per positive Bohr-frequency cluster
    at rate kappa(omega), plus the conjugate channel at kappa(-omega).
    Collective mode: the single jump sum_omega A(omega) at the rate of the
    mean contributing frequency, plus its conjugate.
    """
    if mode not in ("independent", "collective"):
        raise ValueError(f"mode must be 'independent' or 'collective', got {mode!r}")
    ham = xy_hamiltonian(p)
    evals, vecs, m = _eigenbasis(ham, z_signs(p.length).sum(0))
    tol = BOHR_CLUSTER_TOL * abs(p.j)
    omega = evals[None, :] - evals[:, None]      # E_l - E_k at [k, l]
    k, l = np.nonzero((omega > tol) & (np.abs(m) > COUPLING_TOL))
    if k.size == 0:
        raise ValueError("no nonzero Bohr frequency couples to M_z")
    order = np.argsort(omega[k, l], kind="stable")
    k, l = k[order], l[order]
    w = omega[k, l]
    channels = []
    for run in _runs(np.diff(w) < tol):
        a_eig = np.zeros_like(m)
        a_eig[k[run], l[run]] = m[k[run], l[run]]
        channels.append((vecs @ a_eig @ vecs.conj().T,
                         float(np.mean(w[run]))))
    if mode == "collective":
        channels = [(sum(a for a, _ in channels),
                     float(np.mean([wbar for _, wbar in channels])))]
    jumps = []
    for a, wbar in channels:
        for op, rate in ((a, bath.rate(wbar)), (a.conj().T, bath.rate(-wbar))):
            if rate > 0:
                jumps.append(JumpChannel(op, rate))
    return LindbladModel(hamiltonian=ham, jumps=tuple(jumps))


def theoretical_amplitude(gamma: float) -> float:
    """|m_x| oscillation amplitude sqrt(2 gamma / (1 + gamma)) on the line."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    return float(np.sqrt(2.0 * gamma / (1.0 + gamma)))
