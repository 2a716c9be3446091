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

import numpy as np

UNITARITY_TOL = 1e-10         # absolute; README "Tolerances"
# Dense kernels on matrices up to this dimension run on one BLAS thread;
# README "BLAS threads" has the timings that chose it.
SERIAL_BLAS_DIM = 256

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
    return np.kron(a, b.T)


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
    u = np.asarray(u)
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
def _serial_blas(dim: int):
    """Run the body on one BLAS thread when dim <= SERIAL_BLAS_DIM.

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


def unitary_conjugation(u: np.ndarray) -> np.ndarray:
    """Superoperator matrix of rho -> U rho U^dag, i.e. kron(U, conj(U))."""
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
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


def magnetization(kind: str, length: int) -> np.ndarray:
    """Total magnetization, the sum of one Pauli over every site."""
    if length < 1:
        raise ValueError("chain length must be >= 1")
    total = np.zeros((2 ** length, 2 ** length), dtype=complex)
    for r in range(length):
        total += site_operator(kind, r, length)
    return total


def magnetization_per_spin(kind: str, length: int) -> np.ndarray:
    return magnetization(kind, length) / length
