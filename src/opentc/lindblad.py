"""Lindblad generators as superoperator matrices and direct actions, plus RK4."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, Union

import numpy as np

from .operators import hermitize, identity, sandwich

HERMITICITY_TOL = 1e-10
STATE_PSD_TOL = 1e-8
TRACE_TOL = 1e-8


class Generator(Protocol):
    """A Markovian generator L on d x d operators, as floquet uses it.

    Implemented by LindbladModel and xy.NumericGenerator. matrix() acts on
    row-major vectorized states, its conjugate transpose is the adjoint
    action, and trace() equals np.trace(matrix()) without building it.
    """

    def action(self, rho: np.ndarray) -> np.ndarray: ...
    def adjoint_action(self, a: np.ndarray) -> np.ndarray: ...
    def matrix(self) -> np.ndarray: ...
    def trace(self) -> complex: ...


@dataclass(frozen=True)
class JumpChannel:
    """A jump operator together with its non-negative rate."""

    operator: np.ndarray
    rate: float = 1.0

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError(f"jump rate must be non-negative, got {self.rate}")
        op = np.asarray(self.operator, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError("jump operator must be a square matrix")
        object.__setattr__(self, "operator", op)


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus weighted jump channels defining a Markovian generator.

    Implements the generator interface shared with xy.NumericGenerator:
    action, adjoint_action, matrix and trace.
    """

    hamiltonian: np.ndarray
    jumps: tuple = field(default_factory=tuple)

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if np.max(np.abs(h - h.conj().T)) >= HERMITICITY_TOL:
            raise ValueError("Hamiltonian is not Hermitian within tolerance")
        object.__setattr__(self, "hamiltonian", h)
        jumps = tuple(j if isinstance(j, JumpChannel) else JumpChannel(*j)
                      for j in self.jumps)
        for j in jumps:
            if j.operator.shape != h.shape:
                raise ValueError("jump operator dimension differs from Hamiltonian")
        object.__setattr__(self, "jumps", jumps)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def action(self, rho: np.ndarray) -> np.ndarray:
        return liouvillian_action(self, rho)

    def adjoint_action(self, a: np.ndarray) -> np.ndarray:
        return adjoint_liouvillian_action(self, a)

    def matrix(self) -> np.ndarray:
        return liouvillian_matrix(self)

    def trace(self) -> complex:
        """Trace of matrix(), sum_a k_a (|tr L|^2 - d tr L^dag L), unbuilt."""
        total = 0.0 + 0.0j
        for j in self.jumps:
            l = j.operator
            total += j.rate * (abs(np.trace(l)) ** 2
                               - self.dim * np.trace(l.conj().T @ l))
        return total


GeneratorLike = Union[LindbladModel, Callable[[np.ndarray], np.ndarray]]


def liouvillian_action(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """-i[H, rho] + sum_a k_a (L rho L^dag - {L^dag L, rho}/2), in operator space."""
    rho = np.asarray(rho, dtype=complex)
    h = model.hamiltonian
    if rho.shape != h.shape:
        raise ValueError("state dimension differs from model dimension")
    out = -1j * (h @ rho - rho @ h)
    for j in model.jumps:
        l = j.operator
        ldl = l.conj().T @ l
        out += j.rate * (l @ rho @ l.conj().T - 0.5 * (ldl @ rho + rho @ ldl))
    return out


def liouvillian_matrix(model: LindbladModel) -> np.ndarray:
    """Vectorized generator matrix acting on row-major vectorized states."""
    h = model.hamiltonian
    eye = identity(model.dim)
    lmat = -1j * (sandwich(h, eye) - sandwich(eye, h))
    for j in model.jumps:
        l = j.operator
        ldl = l.conj().T @ l
        lmat += j.rate * (sandwich(l, l.conj().T)
                          - 0.5 * sandwich(ldl, eye)
                          - 0.5 * sandwich(eye, ldl))
    return lmat


def adjoint_liouvillian_action(model: LindbladModel, a: np.ndarray) -> np.ndarray:
    """Heisenberg-picture action i[H, A] + sum_a k_a (L^dag A L - {L^dag L, A}/2)."""
    a = np.asarray(a, dtype=complex)
    h = model.hamiltonian
    if a.shape != h.shape:
        raise ValueError("observable dimension differs from model dimension")
    out = 1j * (h @ a - a @ h)
    for j in model.jumps:
        l = j.operator
        ldl = l.conj().T @ l
        out += j.rate * (l.conj().T @ a @ l - 0.5 * (ldl @ a + a @ ldl))
    return out


def check_state(rho: np.ndarray, psd_tol: float = STATE_PSD_TOL) -> None:
    """Raise if rho is not Hermitian, unit trace and PSD within tolerance."""
    rho = np.asarray(rho)
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError("state is not Hermitian")
    if abs(np.trace(rho) - 1.0) > TRACE_TOL:
        raise ValueError(f"state trace {np.trace(rho)} differs from 1")
    if np.linalg.eigvalsh(hermitize(rho)).min() < -psd_tol:
        raise ValueError("state has a negative eigenvalue beyond tolerance")


def default_dt(model: LindbladModel) -> float:
    """Step resolving the fastest coherent and dissipative scales by ~1e2."""
    hscale = np.linalg.norm(model.hamiltonian, 1)
    kmax = max((j.rate for j in model.jumps), default=0.0)
    scale = max(hscale, kmax)
    if scale == 0.0:
        return 1e-2
    return 1e-2 / scale


def rk4_evolve(model: GeneratorLike, rho0: np.ndarray, t_total: float,
               dt: float | None = None) -> np.ndarray:
    """Classic fourth-order integration of d rho/dt = L(rho) in operator space.

    `model` is a LindbladModel or any callable rho -> d rho/dt. The state is
    hermitized after every step; the d^2 x d^2 matrix is never materialized.
    """
    if isinstance(model, LindbladModel):
        action = lambda r: liouvillian_action(model, r)
        if dt is None:
            dt = default_dt(model)
    else:
        action = model
        if dt is None:
            raise ValueError("dt is required when evolving a bare action")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    check_state(rho0)
    rho = np.asarray(rho0, dtype=complex).copy()
    if t_total == 0:
        return rho
    n_steps = max(1, int(np.ceil(t_total / dt)))
    step = t_total / n_steps
    for _ in range(n_steps):
        k1 = action(rho)
        k2 = action(rho + 0.5 * step * k1)
        k3 = action(rho + 0.5 * step * k2)
        k4 = action(rho + step * k3)
        rho = rho + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        rho = hermitize(rho)
    drift = abs(np.trace(rho) - 1.0)
    if drift > TRACE_TOL:
        raise RuntimeError(f"trace drifted by {drift:.2e} during integration")
    return rho


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """D(a, b) = ||a - b||_1 / 2."""
    return 0.5 * float(np.sum(np.linalg.svd(a - b, compute_uv=False)))
