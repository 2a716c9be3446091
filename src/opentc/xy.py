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

from .lindblad import JumpChannel, LindbladModel, _Terms
from .operators import magnetization, site_operator

BOHR_CLUSTER_TOL = 1e-6
FACTORIZATION_TOL = 1e-10


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
    function; at beta = inf this is kappa0*omega for omega > 0 and zero
    otherwise. The zero-frequency channel carries no dissipation.
    """

    kappa0: float = 0.01
    beta: float = np.inf

    def __post_init__(self):
        if self.kappa0 < 0:
            raise ValueError("kappa0 must be non-negative")

    def rate(self, omega: float) -> float:
        if omega == 0.0 or self.kappa0 == 0.0:
            return 0.0
        if np.isinf(self.beta):
            return self.kappa0 * omega if omega > 0 else 0.0
        return self.kappa0 * omega / (1.0 - np.exp(-self.beta * omega))


@dataclass(frozen=True)
class FactorizationState:
    """Product ground states on the line h^2 + gamma^2 = 1."""

    zeta: float
    states: tuple          # (|0,GS>, |1,GS>), product states, P-exchanged
    parity_states: tuple   # (|+,GS>, |-,GS>), normalized combinations


def xy_hamiltonian(p: XYParams) -> np.ndarray:
    """-J sum_r [(1+g)/2 X_r X_{r+1} + (1-g)/2 Y_r Y_{r+1} + h Z_r], periodic."""
    ham = np.zeros((p.dim, p.dim), dtype=complex)
    for r in range(p.length):
        # P_a P_b as a kron of two site operators: no d x d matmul
        a, b = sorted((r, (r + 1) % p.length))
        xx, yy = (np.kron(site_operator(k, a, b),
                          site_operator(k, 0, p.length - b)) for k in "XY")
        ham += 0.5 * (1.0 + p.gamma) * xx + 0.5 * (1.0 - p.gamma) * yy
        ham += p.h * site_operator("Z", r, p.length)
    return -p.j * ham


def parity_operator(length: int) -> np.ndarray:
    """P = prod_r Z_r, diagonal with entries (-1)^popcount."""
    idx = np.arange(2 ** length)
    signs = 1.0 - 2.0 * (np.array([bin(i).count("1") for i in idx]) % 2)
    return np.diag(signs.astype(complex))


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
    if abs(2 * q - round(2 * q)) > 1e-12 or not -p.length / 2 <= q < p.length / 2:
        raise ValueError(f"momentum {q} lies in neither Brillouin zone")


def dispersion(p: XYParams, q: float) -> float:
    """E_q = 2J sqrt((h - cos(2 pi q / L))^2 + (gamma sin(2 pi q / L))^2)."""
    _check_momentum(p, q)
    phase = 2.0 * np.pi * q / p.length
    return 2.0 * abs(p.j) * np.hypot(p.h - np.cos(phase),
                                     p.gamma * np.sin(phase))


def bogoliubov_angle(p: XYParams, q: float) -> float:
    """Rotation angle from the two-argument arctangent; odd in q."""
    _check_momentum(p, q)
    phase = 2.0 * np.pi * q / p.length
    y = p.gamma * np.sin(phase)
    x = p.h - np.cos(phase)
    if abs(x) < 1e-14 and abs(y) < 1e-14:
        raise ValueError(f"Bogoliubov angle indeterminate at gapless momentum {q}")
    return float(np.arctan2(y, x))


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
    the largest-magnitude amplitude real and positive.
    """
    ham = xy_hamiltonian(p)
    par = np.diag(parity_operator(p.length)).real
    comm = ham * (par[None, :] - par[:, None])   # [H, P] for diagonal P
    if np.max(np.abs(comm)) > 1e-10:
        raise RuntimeError("Hamiltonian does not commute with parity")
    out = {}
    for sign in (1.0, -1.0):
        idx = np.nonzero(par == sign)[0]
        block = ham[np.ix_(idx, idx)]
        evals, vecs = np.linalg.eigh(block)
        state = np.zeros(p.dim, dtype=complex)
        state[idx] = vecs[:, 0]
        k = np.argmax(np.abs(state))
        state *= np.abs(state[k]) / state[k]
        out[sign] = (state, float(evals[0]))
    return out[1.0][0], out[-1.0][0], out[1.0][1], out[-1.0][1]


def factorized_states(p: XYParams) -> FactorizationState:
    """Product ground states on the factorization line h^2 + gamma^2 = 1.

    |k,GS> = prod_r (cos(zeta)|0> + (-)^k sin(zeta)|1>) with
    cos^2(2 zeta) = (1 - gamma)/(1 + gamma); parity maps one onto the other.
    """
    if abs(p.h ** 2 + p.gamma ** 2 - 1.0) > FACTORIZATION_TOL:
        raise ValueError("parameters are off the factorization line")
    c2 = np.sqrt((1.0 - p.gamma) / (1.0 + p.gamma))
    zeta = 0.5 * np.arccos(c2)
    states = []
    for k in (0, 1):
        local = np.array([np.cos(zeta), (-1.0) ** k * np.sin(zeta)],
                         dtype=complex)
        vec = np.array([1.0], dtype=complex)
        for _ in range(p.length):
            vec = np.kron(vec, local)
        states.append(vec)
    parity_states = []
    for sign in (1.0, -1.0):
        combo = states[0] + sign * states[1]
        parity_states.append(combo / np.linalg.norm(combo))
    return FactorizationState(zeta=float(zeta), states=tuple(states),
                              parity_states=tuple(parity_states))


def energy_eigenbasis(p: XYParams, cluster_tol: float = 1e-8):
    """Eigenbasis of H with M_z diagonalized inside degenerate clusters.

    Returns (energies, vectors). The cluster rotation removes the gauge
    freedom that would otherwise make the M_z matrix elements ambiguous.
    """
    ham = xy_hamiltonian(p)
    evals, vecs = np.linalg.eigh(ham)
    mz_diag = np.diag(magnetization("Z", p.length)).real
    scale = max(1.0, float(np.max(np.abs(evals))))
    start = 0
    while start < evals.size:
        stop = start + 1
        while stop < evals.size and evals[stop] - evals[stop - 1] < cluster_tol * scale:
            stop += 1
        if stop - start > 1:
            block = vecs[:, start:stop]
            mz_block = block.conj().T @ (mz_diag[:, None] * block)
            _, w = np.linalg.eigh(mz_block)
            vecs[:, start:stop] = block @ w
        start = stop
    return evals, vecs


def numerical_dissipator(p: XYParams, bath: BathSpec) -> np.ndarray:
    """Operator D = 1/2 sum_kl kappa(E_k - E_l) m_kl |k><l|, in the spin basis."""
    evals, vecs = energy_eigenbasis(p)
    mz_diag = np.diag(magnetization("Z", p.length)).real
    m = vecs.conj().T @ (mz_diag[:, None] * vecs)
    omega = evals[:, None] - evals[None, :]
    rates = np.vectorize(bath.rate)(omega)
    d_eig = 0.5 * rates * m
    return vecs @ d_eig @ vecs.conj().T


class NumericGenerator:
    """Generator rho -> -i[H, rho] + [M_z, rho D] + [D^dag rho, M_z].

    Implements the generator interface shared with lindblad.LindbladModel:
    action, adjoint_action, matrix and trace. It is built once as the
    sandwiches (-iH - M_z D^dag, 1), (1, iH - D M_z), (M_z, D) and
    (D^dag, M_z), with M_z kept as its diagonal, so the action costs four
    dense matrix products plus diagonal scalings; matrix() expands the
    superoperator for small chains.
    """

    def __init__(self, p: XYParams, bath: BathSpec):
        self.params = p
        self.bath = bath
        self.hamiltonian = h = xy_hamiltonian(p)
        self.dissipator = d = numerical_dissipator(p, bath)
        self.mz_diag = z = np.diag(magnetization("Z", p.length)).real
        d_dag = d.conj().T
        one = np.ones(p.dim)
        self._terms = _Terms([(-1j * h - z[:, None] * d_dag, one),
                              (one, 1j * h - d * z[None, :]),
                              (z, d), (d_dag, z)])

    @property
    def dim(self) -> int:
        return self.params.dim

    def action(self, rho: np.ndarray) -> np.ndarray:
        return self._terms.action(rho)

    def adjoint_action(self, a: np.ndarray) -> np.ndarray:
        return self._terms.adjoint_action(a)

    def matrix(self) -> np.ndarray:
        return self._terms.matrix()

    def trace(self) -> complex:
        """Trace of matrix(), without building it."""
        return self._terms.trace()


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
    evals, vecs = energy_eigenbasis(p)
    mz_diag = np.diag(magnetization("Z", p.length)).real
    m = vecs.conj().T @ (mz_diag[:, None] * vecs)
    pairs = []
    for k in range(evals.size):
        for l in range(evals.size):
            omega = evals[l] - evals[k]
            if omega > BOHR_CLUSTER_TOL * max(abs(p.j), 1e-12) \
                    and abs(m[k, l]) > 1e-12:
                pairs.append((omega, k, l))
    if not pairs:
        raise ValueError("no nonzero Bohr frequency couples to M_z")
    pairs.sort(key=lambda t: t[0])
    clusters = []
    tol = BOHR_CLUSTER_TOL * max(abs(p.j), 1e-12)
    for omega, k, l in pairs:
        if clusters and omega - clusters[-1][-1][0] < tol:
            clusters[-1].append((omega, k, l))
        else:
            clusters.append([(omega, k, l)])
    jumps = []
    ops = []
    freqs = []
    for group in clusters:
        a_eig = np.zeros_like(m)
        for omega, k, l in group:
            a_eig[k, l] = m[k, l]
        a = vecs @ a_eig @ vecs.conj().T
        wbar = float(np.mean([g[0] for g in group]))
        ops.append(a)
        freqs.append(wbar)
        if mode == "independent":
            down = bath.rate(wbar)
            up = bath.rate(-wbar)
            if down > 0:
                jumps.append(JumpChannel(a, down))
            if up > 0:
                jumps.append(JumpChannel(a.conj().T, up))
    if mode == "collective":
        total = sum(ops)
        wbar = float(np.mean(freqs))
        down = bath.rate(wbar)
        up = bath.rate(-wbar)
        if down > 0:
            jumps.append(JumpChannel(total, down))
        if up > 0:
            jumps.append(JumpChannel(total.conj().T, up))
    return LindbladModel(hamiltonian=xy_hamiltonian(p), jumps=tuple(jumps))


def theoretical_amplitude(gamma: float) -> float:
    """|m_x| oscillation amplitude sqrt(2 gamma / (1 + gamma)) on the line."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    return float(np.sqrt(2.0 * gamma / (1.0 + gamma)))
