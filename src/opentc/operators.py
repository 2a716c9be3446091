"""Dense operator algebra, spin-chain site operators and vectorization.

Conventions used everywhere in this package:

* operators on a d-dimensional Hilbert space are (d, d) complex arrays,
* vectorization is row-major: component i*d + j of vectorize(A) is A[i, j],
  so the product A @ rho @ B becomes kron(A, B.T) @ vectorize(rho),
* on a chain of L qubits, site 0 is the most significant bit of the basis
  index and Z|0> = +|0>.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass

import numpy as np

UNITARITY_TOL = 1e-10         # absolute; README "Tolerances"
# Dense kernels on matrices up to this dimension run on one BLAS thread;
# README "BLAS threads" has the timings that chose it. It is the largest
# block of the dense runners, 400 x 400 at L = 8.
SERIAL_BLAS_DIM = 400

_openblas = None              # [(get, set)] per loaded OpenBLAS, looked up once

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli(kind: str) -> np.ndarray:
    """Return a copy of the single-qubit Pauli matrix I, X, Y or Z."""
    try:
        return _PAULI[kind.upper()].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli kind {kind!r}") from None


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product, (a o b)[i*db+k, j*db+l] = a[i,j] b[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def hermitize(a: np.ndarray) -> np.ndarray:
    """(A + A^dag)/2; a fixed point for Hermitian input."""
    return 0.5 * (a + a.conj().T)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, where either factor may be a diagonal kept as its 1-D array."""
    if a.ndim == 1:
        return a[:, None] * b
    return a * b if b.ndim == 1 else a @ b


def vectorize(a: np.ndarray) -> np.ndarray:
    """Row-major stacking of a d x d operator into a length-d^2 vector."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("vectorize expects a square matrix")
    return a.reshape(-1)


def devectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of vectorize; fails if the length is not a perfect square."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"length {v.size} is not a perfect square")
    return v.reshape(d, d)


def sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator matrix of rho -> a @ rho @ b."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return _kron_transposed(a, b)


def _kron_transposed(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(a, b^T) of two square matrices, as one broadcast product: the
    same entries as np.kron, without its per-call overhead."""
    bt = np.ascontiguousarray(np.asarray(b).T)
    (m, _), (n, _) = a.shape, bt.shape
    return (a[:, None, :, None] * bt[None, :, None, :]).reshape(m * n, m * n)


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt product tr(A^dag B)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def trace_functional(dim: int) -> np.ndarray:
    """vectorize(identity): the left fixed point <<1| of any trace-preserving map."""
    return vectorize(identity(dim))


def is_unitary(u: np.ndarray) -> bool:
    """U^dag U = I entrywise within UNITARITY_TOL; a 1-D u is a diagonal,
    whose U^dag U - I is diag(|u_i|^2 - 1), so no d x d product is formed."""
    u = np.asarray(u)
    if u.ndim == 1:
        return bool(np.max(np.abs((u.conj() * u).real - 1.0)) < UNITARITY_TOL)
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
                < UNITARITY_TOL)


def _openblas_threads() -> list:
    """(get, set) thread-count functions of each OpenBLAS in the process.

    numpy and scipy each bundle their own, with prefixed symbols
    (scipy_openblas, suffix 64_ for numpy's 64-bit-integer build); a system
    build has the bare openblas names. Found through /proc/self/maps on the
    first call and cached; [] where there is none (another OS or BLAS).
    """
    global _openblas
    if _openblas is None:
        try:
            with open("/proc/self/maps") as fh:
                paths = sorted({line.split()[-1] for line in fh
                                if "openblas" in line.lower()
                                and line.split()[-1].startswith("/")})
        except OSError:
            paths = []
        found = []
        for path in paths:
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for name in ("scipy_openblas{}64_", "scipy_openblas{}",
                         "openblas{}64_", "openblas{}"):
                get = getattr(lib, name.format("_get_num_threads"), None)
                put = getattr(lib, name.format("_set_num_threads"), None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = (), ctypes.c_int
                    put.argtypes, put.restype = (ctypes.c_int,), None
                    found.append((get, put))
                    break
        _openblas = found
    return _openblas


@contextlib.contextmanager
def _serial_blas(dim: int = 0):
    """Run the body on one BLAS thread when dim <= SERIAL_BLAS_DIM; with no
    dim, always.

    numpy and scipy each keep an OpenBLAS pool of nproc threads, and on
    small matrices the two pools stall each other; large matrices gain from
    the threads, so they keep them. Each library's previous count is
    restored on exit, also from a nested use or an exception. The counts
    are per process, so threads must not use this concurrently.
    """
    libs = _openblas_threads() if dim <= SERIAL_BLAS_DIM else []
    saved = [get() for get, _ in libs]
    for _, put in libs:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(libs, saved):
            put(count)


@contextlib.contextmanager
def _fixed_probes():
    """Yield reseed(), which puts numpy's global random state at a fixed
    seed, and give the caller's state back on exit, also from an
    exception.

    scipy's onenormest, which expm_multiply calls on a LinearOperator,
    draws its probe columns from that global state, so without reseed()
    before each call its estimate, and with it the Taylor degree, the
    scaling and the rounding of the result, would change from run to run.
    Saving and restoring the state takes about 0.1 ms and seeding it a few
    microseconds, so a caller with several calls in a row reseeds before
    each inside one body. The state is per process, like _serial_blas's
    thread counts, so threads must not use this concurrently.
    """
    saved = np.random.get_state()
    try:
        yield functools.partial(np.random.seed, 0)
    finally:
        np.random.set_state(saved)


def unitary_conjugation(u: np.ndarray) -> np.ndarray:
    """Superoperator matrix of rho -> U rho U^dag, i.e. kron(U, conj(U))."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or not is_unitary(u):
        raise ValueError("input is not unitary within tolerance "
                         f"{UNITARITY_TOL:g}")
    return np.kron(u, u.conj())


def site_operator(kind: str, site: int, length: int) -> np.ndarray:
    """Pauli `kind` acting on `site` of a length-`length` qubit chain.

    Site 0 is the most significant qubit of the computational basis index.
    """
    if not 0 <= site < length:
        raise ValueError(f"site {site} out of range for chain of length {length}")
    p = pauli(kind)
    left = identity(2 ** site)
    right = identity(2 ** (length - site - 1))
    return np.kron(np.kron(left, p), right)


def z_signs(length: int) -> np.ndarray:
    """(L, 2^L) array of +-1 whose row r is the diagonal of Z_r."""
    if length < 1:
        raise ValueError("chain length must be >= 1")
    bits = np.arange(2 ** length) >> np.arange(length)[::-1, None] & 1
    return 1.0 - 2.0 * bits


@dataclass(frozen=True)
class Sector:
    """A symmetry sector of the chain of `length` qubits, by its labels.

    k: the momentum, T = e^(2 pi i k / L) with T the cyclic shift by one
    site (_shift); parity: P = prod_r Z_r = +1 or -1; reflection: R = +1,
    with R the bit reversal of the basis index (_reversal), built for k = 0
    only. An unset label puts no condition. Other labels raise ValueError.
    `isometry` is the d x n matrix of the sector's orthonormal basis.
    """

    length: int
    k: int | None = None
    parity: int | None = None
    reflection: int | None = None

    def __post_init__(self):
        if (self.length < 1
                or (self.k is not None and self.k not in range(self.length))
                or self.parity not in (None, 1, -1)
                or self.reflection not in (None, 1)
                or (self.reflection is not None and self.k != 0)):
            raise ValueError(f"no such sector: {self}; reflection is "
                             f"built for R = +1 at k = 0 only")

    @property
    def isometry(self) -> np.ndarray:
        """Built once per value and read-only: equal sectors share it."""
        return _isometry(self)


@functools.cache
def _isometry(sector: Sector) -> np.ndarray:
    """Sector.isometry: one column per group of basis states, ordered by
    its smallest index.

    A group is a single state with k unset; with k, an orbit of T whose p
    states satisfy k p = 0 (mod L), with entries e^(-2 pi i k j / L) /
    sqrt(p) on T^j |s>, |s> its smallest state; with R = +1, an orbit
    together with its reversed orbit, with entries 1 / sqrt(p) or
    1 / sqrt(2 p) when the two differ. A parity keeps its states only. No
    d x d array is formed; an empty sector has no columns.
    """
    length, k = sector.length, sector.k
    d = 2 ** length
    if k is None:
        group, amp, keep = np.arange(d), np.ones(d), np.ones(d, dtype=bool)
    else:
        group, offset, period = _orbits(length)
        keep = (k * period) % length == 0
        if sector.reflection is None:
            amp = np.exp(-2j * np.pi * k * offset / length) / np.sqrt(period)
        else:
            mirror = group[_reversal(length)]
            amp = 1.0 / np.sqrt(period * np.where(group == mirror, 1, 2))
            group = np.minimum(group, mirror)
    if sector.parity is not None:
        keep &= z_signs(length).prod(0) == sector.parity
    firsts, col = np.unique(group[keep], return_inverse=True)
    v = np.zeros((d, firsts.size), dtype=complex)
    v[keep, col] = amp[keep]
    v.flags.writeable = False
    return v


def _shift(length: int) -> np.ndarray:
    """The basis index of T|i> for every basis index i."""
    i = np.arange(2 ** length)
    return (i >> 1) | ((i & 1) << (length - 1))


def _orbits(length: int) -> tuple:
    """(rep, offset, period) of every basis index i under the cyclic shift.

    rep[i] is the smallest basis index of the orbit of i, T^offset[i] |rep>
    = |i>, and period[i] the number of states in the orbit.
    """
    d = 2 ** length
    shift = _shift(length)
    orbit = [np.arange(d)]                  # orbit[j][i]: index of T^j |i>
    for _ in range(length - 1):
        orbit.append(shift[orbit[-1]])
    orbit = np.array(orbit)
    period = length // np.sum(orbit == orbit[0], axis=0)
    rep = orbit.min(axis=0)
    offset = np.argmax(orbit[:, rep] == orbit[0], axis=0)  # T^offset rep = i
    return rep, offset, period


@functools.cache
def _reversal(length: int) -> np.ndarray:
    """The basis index of R|i> for every basis index i: R maps site r to
    L - 1 - r, so i to its bit reversal. Cached, so read-only."""
    i = np.arange(2 ** length)
    rev = sum(((i >> r) & 1) << (length - 1 - r) for r in range(length))
    rev.flags.writeable = False
    return rev


def magnetization(kind: str, length: int) -> np.ndarray:
    """Total magnetization, the sum of one Pauli over every site."""
    if length < 1:
        raise ValueError("chain length must be >= 1")
    total = np.zeros((2 ** length, 2 ** length), dtype=complex)
    for r in range(length):
        total += site_operator(kind, r, length)
    return total
