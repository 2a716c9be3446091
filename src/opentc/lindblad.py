"""Lindblad generators as superoperator matrices and direct actions, plus RK4."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .operators import _kron_transposed, hermitize, sandwich

HERMITICITY_TOL = 1e-10       # absolute, as all four; README "Tolerances"
STATE_PSD_TOL = 1e-8
TRACE_TOL = 1e-8
SECTOR_TOL = 1e-10
# A superoperator on blocks of at most this many entries (rows * cols)
# applies as one dense matrix product, larger ones as sandwiches (_Terms);
# README "BLAS threads" has the timings that chose it. It covers the L = 6
# trace block (13 x 13) and leaves the L = 8 one (30 x 30) to sandwiches.
DENSE_ACTION_DIM = 256


class Generator(Protocol):
    """A Markovian generator L on d x d operators, as floquet uses it.

    Implemented by LindbladModel and xy.NumericGenerator. matrix() acts on
    row-major vectorized states, its conjugate transpose is the adjoint
    action, trace() equals np.trace(matrix()) and norm_bound() bounds the
    1-norm of matrix() from above, both without building it.
    Each method also takes a block (rows, cols) of isometries and is then
    the generator on r = rows^dag rho cols, built from restricted factors
    (see _SectorGenerator); the actions take and return that r, or a stack
    of them, shape (..., *r.shape), in one call.
    """

    def action(self, rho: np.ndarray, block=None) -> np.ndarray: ...
    def adjoint_action(self, a: np.ndarray, block=None) -> np.ndarray: ...
    def matrix(self, block=None) -> np.ndarray: ...
    def trace(self, block=None) -> complex: ...
    def norm_bound(self, block=None) -> float: ...


class _Terms:
    """A superoperator as a sum of sandwiches, L(rho) = sum_k A_k rho B_k.

    A factor is a square matrix, its diagonal as a 1-D array when it is
    diagonal, or None for the identity, which the actions skip. Generators,
    kicks and the other superoperators only build their factor pairs; the
    action, adjoint, matrix and trace are written once here. `shape` is
    that of the operators it acts on, (d, d) unless it is restricted to a
    rectangular block. The actions also take a stack of operators, shape
    (..., *shape).

    The actions follow one of two plans, by the size of the block. Up to
    DENSE_ACTION_DIM entries, rows * cols = n, the superoperator is its
    n x n matrix M = sum_k kron(A_k, B_k^T), and an action is one product
    x M^T of the operators read as rows of n entries; the transposed
    factors' superoperator is M^T, so the adjoint is x M and one M serves
    both. Above it the actions are sandwiches (_sandwiches): two or more
    pairs whose factors are both dense are applied together as two matrix
    products, Z = x [B_1 ... B_K], read without a copy as the (r K) x c
    matrix with row (j, k), and then A_hat Z with A_hat[i, j K + k] =
    A_k[i, j]; the other pairs follow one at a time. A plan is built on
    the first action that needs it (M on the first action of either
    direction, the transposed stack on the first adjoint action) and kept;
    matrix, trace and restrict never build one.
    """

    def __init__(self, pairs, shape=None):
        self.pairs = tuple((_factor(a), _factor(b)) for a, b in pairs)
        d = next(f.shape[0] for pair in self.pairs for f in pair
                 if f is not None)
        self.shape = shape or (d, d)
        self._plans = {}

    def _plan(self, transposed: bool):
        """The action's plan, of the transposed factors if asked: the
        matrix that right-multiplies the flattened operators, or
        _stacked's (stack, pairs)."""
        plan = self._plans.get(transposed)
        if plan is None:
            rows, cols = self.shape
            if rows * cols > DENSE_ACTION_DIM:
                plan = self._stacked(transposed)
            elif (not transposed) in self._plans:
                plan = self._plans[not transposed].T
            else:
                # M, not through operators.sandwich: the traced benchmark
                # counts its calls, and the trace workloads must make none
                m = self._summed(_kron_transposed)
                plan = m if transposed else m.T
            self._plans[transposed] = plan
        return plan

    def _stacked(self, transposed: bool):
        """(stack, pairs) for _sandwiches, of the transposed factors if asked.

        stack is (A_hat, [B_1 ... B_K]) of the dense pairs, or None when
        there are fewer than two; pairs are the ones applied one at a time.
        """
        pairs = [(_transpose(a), _transpose(b)) if transposed else (a, b)
                 for a, b in self.pairs]
        dense = [all(f is not None and f.ndim == 2 for f in pair)
                 for pair in pairs]
        stack = None
        if sum(dense) >= 2:
            left, right = zip(*(p for p, s in zip(pairs, dense) if s))
            stack = (np.stack(left, axis=-1).reshape(self.shape[0], -1),
                     np.concatenate(right, axis=1))
            pairs = [p for p, s in zip(pairs, dense) if not s]
        return stack, pairs

    def _apply(self, x, transposed: bool) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape[-2:] != self.shape:
            raise ValueError("operator dimension differs from superoperator "
                             "dimension")
        plan = self._plan(transposed)
        if isinstance(plan, np.ndarray):
            n = plan.shape[0]
            return (x.reshape(-1, n) @ plan).reshape(x.shape)
        return self._sandwiches(x, *plan)

    def _sandwiches(self, x, stack, pairs) -> np.ndarray:
        """sum_k A_k x B_k over _stacked's (stack, pairs)."""
        if stack is None:
            out = np.zeros_like(x)
        else:
            a_hat, b_cat = stack
            cols = self.shape[1]
            z = x.reshape(-1, cols) @ b_cat
            out = a_hat @ z.reshape(*x.shape[:-2], a_hat.shape[1], cols)
        for a, b in pairs:
            ax = x if a is None else a[:, None] * x if a.ndim == 1 else a @ x
            out += ax if b is None else ax * b if b.ndim == 1 else ax @ b
        return out

    def action(self, rho) -> np.ndarray:
        return self._apply(rho, False)

    def adjoint_action(self, a) -> np.ndarray:
        """sum_k A_k^dag a B_k^dag, as conj(sum_k A_k^T conj(a) B_k^T)."""
        out = self._apply(np.conj(a), True)
        return np.conj(out, out=out)

    def columns(self, m) -> np.ndarray:
        """matrix() @ m, reading each column of m as a vectorized operator."""
        m = np.asarray(m, dtype=complex)
        return self.action(m.T.reshape(-1, *self.shape)).reshape(
            -1, m.shape[0]).T

    def matrix(self) -> np.ndarray:
        # sandwich takes the factors of a square rho only
        return self._summed(sandwich if self.shape[0] == self.shape[1]
                            else _kron_transposed)

    def _summed(self, kron) -> np.ndarray:
        """sum_k kron(A_k, B_k^T), each term built by kron(A_k, B_k)."""
        rows, cols = self.shape
        full = lambda f, n: (np.eye(n) if f is None
                             else np.diag(f) if f.ndim == 1 else f)
        out = np.zeros((rows * cols,) * 2, dtype=complex)
        for a, b in self.pairs:
            out += kron(full(a, rows), full(b, cols))
        return out

    def trace(self) -> complex:
        """sum_k tr(A_k) tr(B_k), the trace of matrix()."""
        tr = lambda f, n: (n if f is None
                           else np.sum(f) if f.ndim == 1 else np.trace(f))
        rows, cols = self.shape
        return complex(sum(tr(a, rows) * tr(b, cols) for a, b in self.pairs))

    def norm_bound(self) -> float:
        """sum_k ||A_k||_1 ||B_k||_inf, at least the 1-norm of matrix().

        matrix() is sum_k kron(A_k, B_k^T), and the 1-norm (largest column
        sum) of a Kronecker product is the product of the factors' 1-norms.
        """
        def norm(f, axis):
            if f is None:
                return 1.0
            return float(np.abs(f).max() if f.ndim == 1
                         else np.abs(f).sum(axis).max())

        return sum(norm(a, 0) * norm(b, 1) for a, b in self.pairs)

    def restrict(self, block) -> _Terms:
        """The superoperator on r = rows^dag rho cols, block = (rows, cols).

        rows and cols are isometries (d x n matrices with orthonormal
        columns). Each left factor becomes rows^dag A rows and each right
        factor cols^dag B cols, checked by _restrict. None is the whole of
        rho.
        """
        if block is None:
            return self
        rows, cols = block
        return _Terms([(_restrict(a, rows), _restrict(b, cols))
                       for a, b in self.pairs],
                      shape=(rows.shape[1], cols.shape[1]))


def _factor(f):
    return None if f is None else np.asarray(f, dtype=complex)


def _transpose(f):
    return None if f is None else f.T


def _restrict(f, v):
    """v^dag f v for the isometry v, or f itself for v = None.

    That is exact when f keeps the span of v: an entry above
    SECTOR_TOL * max(1, max|f|) in f v - v (v^dag f v) or
    v^dag f - (v^dag f v) v^dag raises ValueError. A diagonal f, given as
    its 1-D array, stays 1-D when its restriction is diagonal.
    """
    if f is None or v is None:
        return f
    v_dag = v.conj().T
    fv = f[:, None] * v if f.ndim == 1 else f @ v
    vf = v_dag * f if f.ndim == 1 else v_dag @ f
    out = _sector_part(v, fv, vf, np.abs(f).max(initial=0.0))
    if f.ndim == 1 and np.count_nonzero(out) == np.count_nonzero(
            np.diagonal(out)):
        return np.diagonal(out).copy()
    return out


def _sector_part(v, fv, vf, scale: float) -> np.ndarray:
    """v^dag f v from fv = f v and vf = v^dag f, with _restrict's leak
    check; scale is max|f|."""
    v_dag = v.conj().T
    out = v_dag @ fv
    leak = max(np.abs(fv - v @ out).max(initial=0.0),
               np.abs(vf - out @ v_dag).max(initial=0.0))
    bound = SECTOR_TOL * max(1.0, scale)
    if leak > bound:
        raise ValueError(f"a factor couples the sector to its complement "
                         f"(entry {leak:.2e} > SECTOR_TOL * max(1, max|f|)"
                         f" = {bound:.2e})")
    return out


@dataclass(frozen=True)
class JumpChannel:
    """A jump operator together with its non-negative rate."""

    operator: np.ndarray
    rate: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.rate) and self.rate >= 0):
            raise ValueError(f"jump rate must be finite and >= 0: {self.rate}")
        op = np.asarray(self.operator, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError("jump operator must be a square matrix")
        object.__setattr__(self, "operator", op)


class _SectorGenerator:
    """The block plumbing of a generator K rho + rho K^dag + sum_k A_k rho B_k.

    A generator supplies _parts(v): K and the factors (A_k) and (B_k) on
    one side, the isometry v (None is the whole space), built from its own
    factors restricted by _restrict. Each side is built once per isometry
    object, so once per operators.Sector, whose equal values share one; a
    block (rows, cols) is the pairs (K on rows, 1), (1, K^dag on cols) and
    (A_k on rows, B_k on cols), and the last block's are kept by identity,
    so a caller passing one block assembles it once.
    """

    def _side(self, v) -> tuple:
        """_parts(v), built once per isometry object."""
        # id(v) -> (v, parts); holding v keeps its id unique. vars() also
        # writes to a frozen dataclass.
        sides = vars(self).setdefault("_sides", {})
        if id(v) not in sides:
            sides[id(v)] = (v, self._parts(v))
        return sides[id(v)][1]

    def _terms(self, block) -> _Terms:
        """The factor pairs on block = (rows, cols); None is all of rho."""
        last, terms = vars(self).get("_last", (None, None))
        if terms is None or block is not last:
            rows, cols = (None, None) if block is None else block
            k, lefts, _ = self._side(rows)
            kc, _, rights = self._side(cols)
            terms = _Terms([(k, None), (None, kc.conj().T),
                            *zip(lefts, rights)],
                           shape=(k.shape[0], kc.shape[0]))
            vars(self)["_last"] = (block, terms)
        return terms

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def trace(self, block=None) -> complex:
        """Trace of matrix(block), without building it."""
        return self._terms(block).trace()

    def norm_bound(self, block=None) -> float:
        """Upper bound on the 1-norm of matrix(block), without building it."""
        return self._terms(block).norm_bound()


@dataclass(frozen=True)
class LindbladModel(_SectorGenerator):
    """Hamiltonian plus weighted jump channels defining a Markovian generator.

    Implements the generator interface shared with xy.NumericGenerator:
    action, adjoint_action, matrix, trace and norm_bound. The generator is
    the sandwiches (K, 1), (1, K^dag) and (k_a L_a, L_a^dag) with
    K = -iH - 1/2 sum_a k_a L_a^dag L_a. A side v restricts H and each L_a
    once and forms K from them, so no whole-space K is built for a block.
    An action on a block of at most DENSE_ACTION_DIM entries is one matrix
    product; on a larger one, two or more jumps' sandwiches are applied as
    two stacked matrix products (see _Terms). Either way an action costs
    the same few BLAS calls for any number of jumps.
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

    def _parts(self, v) -> tuple:
        ops = [_restrict(j.operator, v) for j in self.jumps]
        k = -1j * _restrict(self.hamiltonian, v) - 0.5 * sum(
            j.rate * (op.conj().T @ op) for j, op in zip(self.jumps, ops))
        return (k, [j.rate * op for j, op in zip(self.jumps, ops)],
                [op.conj().T for op in ops])

    def action(self, rho: np.ndarray, block=None) -> np.ndarray:
        return liouvillian_action(self, rho, block)

    def adjoint_action(self, a: np.ndarray, block=None) -> np.ndarray:
        return adjoint_liouvillian_action(self, a, block)

    def matrix(self, block=None) -> np.ndarray:
        return liouvillian_matrix(self, block)


def liouvillian_action(model: LindbladModel, rho: np.ndarray,
                       block=None) -> np.ndarray:
    """-i[H, rho] + sum_a k_a (L rho L^dag - {L^dag L, rho}/2), in operator space.

    With block = (rows, cols), rho is the block rows^dag rho cols.
    """
    return model._terms(block).action(rho)


def liouvillian_matrix(model: LindbladModel, block=None) -> np.ndarray:
    """Vectorized generator matrix acting on row-major vectorized states.

    With block = (rows, cols), the generator on rows^dag rho cols only.
    """
    return model._terms(block).matrix()


def adjoint_liouvillian_action(model: LindbladModel, a: np.ndarray,
                               block=None) -> np.ndarray:
    """Heisenberg-picture action i[H, A] + sum_a k_a (L^dag A L - {L^dag L, A}/2)."""
    return model._terms(block).adjoint_action(a)


def check_state(rho: np.ndarray) -> None:
    """Raise if rho is not Hermitian, unit trace and PSD within tolerance.

    The smallest eigenvalue lies above -STATE_PSD_TOL exactly when
    hermitize(rho) + STATE_PSD_TOL * I is positive definite, which a
    Cholesky factorization tests at a fraction of the eigenvalues' cost.
    """
    rho = np.asarray(rho)
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError("state is not Hermitian")
    if abs(np.trace(rho) - 1.0) > TRACE_TOL:
        raise ValueError(f"state trace {np.trace(rho)} differs from 1")
    try:
        np.linalg.cholesky(hermitize(rho)
                           + STATE_PSD_TOL * np.eye(rho.shape[0]))
    except np.linalg.LinAlgError:
        raise ValueError("state has a negative eigenvalue beyond "
                         "tolerance") from None


def rk4_evolve(model: Generator, rho0: np.ndarray, t_total: float,
               dt: float) -> np.ndarray:
    """Classic fourth-order integration of d rho/dt = L(rho) in operator space.

    `model` is any Generator; only its action is used, so the d^2 x d^2
    matrix is built only where the action's own plan builds it, for
    d^2 <= DENSE_ACTION_DIM (_Terms). The state is hermitized after every
    step.
    A negative or non-finite t_total raises ValueError.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not 0 <= t_total < np.inf:       # also rejects NaN
        raise ValueError(f"t_total must be >= 0 and finite, got {t_total}")
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
