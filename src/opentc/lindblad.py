"""Lindblad generators as superoperator matrices and direct actions, plus RK4."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .operators import hermitize, sandwich

HERMITICITY_TOL = 1e-10       # absolute, as all four; README "Tolerances"
STATE_PSD_TOL = 1e-8
TRACE_TOL = 1e-8
SECTOR_TOL = 1e-10


class Generator(Protocol):
    """A Markovian generator L on d x d operators, as floquet uses it.

    Implemented by LindbladModel and xy.NumericGenerator. matrix() acts on
    row-major vectorized states, its conjugate transpose is the adjoint
    action, and trace() equals np.trace(matrix()) without building it.
    matrix(block) is the generator on one block (rows, cols) of rho, built
    from restricted factors (see _Terms.restrict).
    """

    def action(self, rho: np.ndarray) -> np.ndarray: ...
    def adjoint_action(self, a: np.ndarray) -> np.ndarray: ...
    def matrix(self, block=None) -> np.ndarray: ...
    def trace(self) -> complex: ...


class _Terms:
    """A superoperator as a sum of sandwiches, L(rho) = sum_k A_k rho B_k.

    A factor is a d x d matrix, its length-d diagonal as a 1-D array when it
    is diagonal, or None for the identity, which the actions skip.
    Generators, kicks and the other superoperators only build their factor
    pairs; the action, adjoint, matrix and trace are written once here. The
    actions also take a stack of operators, shape (..., d, d).
    """

    def __init__(self, pairs):
        self.pairs = tuple((_factor(a), _factor(b)) for a, b in pairs)
        self.dim = next(f.shape[0] for pair in self.pairs for f in pair
                        if f is not None)

    def _apply(self, pairs, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape[-2:] != (self.dim, self.dim):
            raise ValueError("operator dimension differs from superoperator "
                             "dimension")
        out = np.zeros_like(x)
        for a, b in pairs:
            ax = x if a is None else a[:, None] * x if a.ndim == 1 else a @ x
            out += ax if b is None else ax * b if b.ndim == 1 else ax @ b
        return out

    def action(self, rho) -> np.ndarray:
        return self._apply(self.pairs, rho)

    def adjoint_action(self, a) -> np.ndarray:
        """sum_k A_k^dag a B_k^dag, as conj(sum_k A_k^T conj(a) B_k^T)."""
        out = self._apply(((_transpose(l), _transpose(r))
                           for l, r in self.pairs), np.conj(a))
        return np.conj(out, out=out)

    def columns(self, m) -> np.ndarray:
        """matrix() @ m, reading each column of m as a vectorized operator."""
        d = self.dim
        m = np.asarray(m, dtype=complex)
        return self.action(m.T.reshape(-1, d, d)).reshape(-1, d * d).T

    def matrix(self) -> np.ndarray:
        full = lambda f: (np.eye(self.dim) if f is None
                          else np.diag(f) if f.ndim == 1 else f)
        out = np.zeros((self.dim ** 2,) * 2, dtype=complex)
        for a, b in self.pairs:
            out += sandwich(full(a), full(b))
        return out

    def trace(self) -> complex:
        """sum_k tr(A_k) tr(B_k), the trace of matrix()."""
        tr = lambda f: (self.dim if f is None
                        else np.sum(f) if f.ndim == 1 else np.trace(f))
        return complex(sum(tr(a) * tr(b) for a, b in self.pairs))

    def restrict(self, block) -> _Terms:
        """The superoperator on the block rho[rows][:, cols], block = (rows, cols).

        Each left factor becomes A[rows, rows] and each right factor
        B[cols, cols]. That is exact when every factor keeps rows, and cols,
        apart from the other indices; a dropped entry above SECTOR_TOL
        raises ValueError. None is the whole of rho.
        """
        if block is None:
            return self
        rows, cols = block
        return _Terms([(_restrict(a, rows), _restrict(b, cols))
                       for a, b in self.pairs])


def _factor(f):
    return None if f is None else np.asarray(f, dtype=complex)


def _transpose(f):
    return None if f is None else f.T


def _restrict(f, idx: np.ndarray):
    """f on the indices idx; checks the entries that couple them to the rest."""
    if f is None:
        return None
    if f.ndim == 1:
        return f[idx]
    rest = np.ones(f.shape[0], dtype=bool)
    rest[idx] = False
    leak = max(np.abs(f[np.ix_(idx, rest)]).max(initial=0.0),
               np.abs(f[np.ix_(rest, idx)]).max(initial=0.0))
    if leak > SECTOR_TOL:
        raise ValueError(f"a factor couples the sector to its complement "
                         f"(entry {leak:.2e} > SECTOR_TOL)")
    return f[np.ix_(idx, idx)]


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
    action, adjoint_action, matrix and trace. The generator is built once as
    the sandwiches (K, 1), (1, K^dag) and (k_a L_a, L_a^dag) with
    K = -iH - 1/2 sum_a k_a L_a^dag L_a.
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
        k = -1j * h - 0.5 * sum(j.rate * (j.operator.conj().T @ j.operator)
                                for j in jumps)
        object.__setattr__(self, "_terms", _Terms(
            [(k, None), (None, k.conj().T)]
            + [(j.rate * j.operator, j.operator.conj().T) for j in jumps]))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def action(self, rho: np.ndarray) -> np.ndarray:
        return liouvillian_action(self, rho)

    def adjoint_action(self, a: np.ndarray) -> np.ndarray:
        return adjoint_liouvillian_action(self, a)

    def matrix(self, block=None) -> np.ndarray:
        return liouvillian_matrix(self, block)

    def trace(self) -> complex:
        """Trace of matrix(), without building it."""
        return self._terms.trace()


def liouvillian_action(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """-i[H, rho] + sum_a k_a (L rho L^dag - {L^dag L, rho}/2), in operator space."""
    return model._terms.action(rho)


def liouvillian_matrix(model: LindbladModel, block=None) -> np.ndarray:
    """Vectorized generator matrix acting on row-major vectorized states.

    With block = (rows, cols), the generator on rho[rows][:, cols] only.
    """
    return model._terms.restrict(block).matrix()


def adjoint_liouvillian_action(model: LindbladModel, a: np.ndarray) -> np.ndarray:
    """Heisenberg-picture action i[H, A] + sum_a k_a (L^dag A L - {L^dag L, A}/2)."""
    return model._terms.adjoint_action(a)


def check_state(rho: np.ndarray) -> None:
    """Raise if rho is not Hermitian, unit trace and PSD within tolerance."""
    rho = np.asarray(rho)
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError("state is not Hermitian")
    if abs(np.trace(rho) - 1.0) > TRACE_TOL:
        raise ValueError(f"state trace {np.trace(rho)} differs from 1")
    if np.linalg.eigvalsh(hermitize(rho)).min() < -STATE_PSD_TOL:
        raise ValueError("state has a negative eigenvalue beyond tolerance")


def rk4_evolve(model: Generator, rho0: np.ndarray, t_total: float,
               dt: float) -> np.ndarray:
    """Classic fourth-order integration of d rho/dt = L(rho) in operator space.

    `model` is any Generator; only its action is used, so the d^2 x d^2
    matrix is never materialized. The state is hermitized after every step.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    check_state(rho0)
    rho = np.asarray(rho0, dtype=complex).copy()
    if t_total == 0:
        return rho
    n_steps = max(1, int(np.ceil(t_total / dt)))
    step = t_total / n_steps
    for _ in range(n_steps):
        k1 = model.action(rho)
        k2 = model.action(rho + 0.5 * step * k1)
        k3 = model.action(rho + 0.5 * step * k2)
        k4 = model.action(rho + step * k3)
        rho = rho + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        rho = hermitize(rho)
    drift = abs(np.trace(rho) - 1.0)
    if drift > TRACE_TOL:
        raise RuntimeError(f"trace drifted by {drift:.2e} during integration")
    return rho


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """D(a, b) = ||a - b||_1 / 2."""
    return 0.5 * float(np.sum(np.linalg.svd(a - b, compute_uv=False)))
