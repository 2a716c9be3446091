"""Few-body analytic models: constructors plus closed-form expected values.

Every constructor comes with the matching closed-form spectrum or conserved
quantity so the formulas can serve as oracles in tests.
"""

from __future__ import annotations

import numpy as np

from .lindblad import JumpChannel, LindbladModel
from .operators import pauli

UNIT_VECTOR_TOL = 1e-10       # absolute; README "Tolerances"


def _basis_ket(index: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def bell_basis() -> tuple:
    """The two-qubit frame (psi_0, psi_1, phi_0, phi_1).

    psi_a = (|0,a> + |1,1^a>)/sqrt(2) and phi_a = (|0,a> - |1,1^a>)/sqrt(2),
    with basis index 2*first + second.
    """
    psi = []
    phi = []
    for a in (0, 1):
        up = _basis_ket(a, 4)            # |0, a>
        down = _basis_ket(2 + (1 ^ a), 4)  # |1, 1^a>
        psi.append((up + down) / np.sqrt(2.0))
        phi.append((up - down) / np.sqrt(2.0))
    return psi[0], psi[1], phi[0], phi[1]


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.outer(a, b.conj())


def dephasing_model(h: float, kappa: float) -> LindbladModel:
    """Single qubit, H = (h/2) Z with a Z jump at rate kappa.

    At h = 0 the generator spectrum is {0, 0, -2 kappa, -2 kappa}.
    """
    if kappa < 0:
        raise ValueError("dephasing rate must be non-negative")
    return LindbladModel(hamiltonian=0.5 * h * pauli("Z"),
                         jumps=(JumpChannel(pauli("Z"), kappa),))


def dfs_independent_model() -> LindbladModel:
    """Two qubits, H = 0, separate unit-rate jumps |psi_a><phi_a|."""
    p0, p1, f0, f1 = bell_basis()
    return LindbladModel(hamiltonian=np.zeros((4, 4)),
                         jumps=(JumpChannel(_outer(p0, f0)),
                                JumpChannel(_outer(p1, f1))))


def dfs_collective_model() -> LindbladModel:
    """Two qubits, H = 0, one unit-rate collective jump sum_a |psi_a><phi_a|."""
    p0, p1, f0, f1 = bell_basis()
    return LindbladModel(hamiltonian=np.zeros((4, 4)),
                         jumps=(JumpChannel(_outer(p0, f0) + _outer(p1, f1)),))


def _phi_pauli_vector(n) -> np.ndarray:
    """n . sigma restricted to the phi subspace, n a unit Bloch vector."""
    n = np.asarray(n, dtype=float)
    if n.shape != (3,) or abs(np.linalg.norm(n) - 1.0) > UNIT_VECTOR_TOL:
        raise ValueError("n must be a unit 3-vector")
    _, _, f0, f1 = bell_basis()
    sx = _outer(f0, f1) + _outer(f1, f0)
    sy = -1j * _outer(f0, f1) + 1j * _outer(f1, f0)
    sz = _outer(f0, f0) - _outer(f1, f1)
    return n[0] * sx + n[1] * sy + n[2] * sz


def suppression_by_jump_model(eta: complex, n=(0.0, 0.0, 1.0)) -> LindbladModel:
    """Collective DFS jump deformed inside the decay space.

    L(eta) = sum_a |psi_a><phi_a| + eta n.sigma_phi with n a unit Bloch vector.
    """
    p0, p1, f0, f1 = bell_basis()
    jump = _outer(p0, f0) + _outer(p1, f1) + eta * _phi_pauli_vector(n)
    return LindbladModel(hamiltonian=np.zeros((4, 4)),
                         jumps=(JumpChannel(jump),))


def expected_jump_conserved(eta: complex, alpha: int, beta: int,
                            n=(0.0, 0.0, 1.0)) -> np.ndarray:
    """Closed-form conserved quantity of the deformed collective jump.

    j_ab = |psi_a><psi_b|
         + |eta|^2/(1+2|eta|^2) (n.sigma) |phi_a><phi_b| (n.sigma)
         + (1+|eta|^2)/(1+2|eta|^2) |phi_a><phi_b|.
    """
    if alpha not in (0, 1) or beta not in (0, 1):
        raise ValueError("alpha and beta must be 0 or 1")
    psi = bell_basis()[:2]
    phi = bell_basis()[2:]
    e2 = abs(eta) ** 2
    ns = _phi_pauli_vector(n)
    phi_block = _outer(phi[alpha], phi[beta])
    return (_outer(psi[alpha], psi[beta])
            + (e2 / (1 + 2 * e2)) * ns @ phi_block @ ns
            + ((1 + e2) / (1 + 2 * e2)) * phi_block)


def suppression_by_hamiltonian_model(h: float, delta: float) -> LindbladModel:
    """Collective DFS jump plus independent Z Hamiltonians in the two subspaces.

    H = (h/2) Z_psi + ((h+delta)/2) Z_phi with Z_psi = sum_a (-)^a |psi_a><psi_a|
    and likewise for Z_phi.
    """
    p0, p1, f0, f1 = bell_basis()
    z_psi = _outer(p0, p0) - _outer(p1, p1)
    z_phi = _outer(f0, f0) - _outer(f1, f1)
    ham = 0.5 * h * z_psi + 0.5 * (h + delta) * z_phi
    return LindbladModel(hamiltonian=ham,
                         jumps=(JumpChannel(_outer(p0, f0) + _outer(p1, f1)),))


def expected_ham_conserved(h: float, delta: float, alpha: int,
                           beta: int) -> np.ndarray:
    """j_ab = |psi_a><psi_b| + |phi_a><phi_b| / (1 - (-)^a (1-delta_ab) i delta)."""
    if alpha not in (0, 1) or beta not in (0, 1):
        raise ValueError("alpha and beta must be 0 or 1")
    psi = bell_basis()[:2]
    phi = bell_basis()[2:]
    sign = 1.0 if alpha == 0 else -1.0
    denom = 1.0 - sign * (0.0 if alpha == beta else 1.0) * 1j * delta
    return _outer(psi[alpha], psi[beta]) + _outer(phi[alpha], phi[beta]) / denom


def dephasing_perp_field_spectrum(kappa: float, eta: float) -> np.ndarray:
    """Generator spectrum of dephasing plus a perpendicular field eta X / 2.

    {0, -kappa + sqrt(kappa^2 - eta^2), -kappa - sqrt(kappa^2 - eta^2),
     -2 kappa}; the square root is complex for eta > kappa.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    root = np.sqrt(complex(kappa ** 2 - eta ** 2))
    return np.array([0.0, -kappa + root, -kappa - root, -2.0 * kappa],
                    dtype=complex)
