"""Biorthogonal spectral analysis of superoperators.

Eigen-decomposes a generator or CPTP map into left/right eigenvector pairs,
classifies peripheral versus decaying modes, and extracts the asymptotic
subspace with its conserved quantities.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .lindblad import HERMITICITY_TOL
from .operators import _serial_blas, devectorize, vectorize

SPECTRAL_TOL = 1e-8           # clusters and peripheral modes; README table
DEFECTIVE_COND = 1e10         # a condition number
# decompose(stack, vectors=False) works through a stack in parts of at
# most this many bytes, so its temporaries do not grow with the stack
STACK_PART_BYTES = 1 << 24


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues with biorthonormal left/right eigenvector pairs.

    Columns of `right` and `left` are matched index-by-index and normalized
    so that left[:, m].conj() @ right[:, n] = delta_mn except inside clusters
    flagged as defective. `clusters` labels each eigenvalue with its
    degenerate cluster, the connected components of eigenvalues closer than
    peripheral_tolerance; it is the one degeneracy test downstream. A
    spectrum from decompose(..., vectors=False) has `right`, `left`,
    `defective` and `clusters` None; whatever reads them calls
    require_vectors first.
    """

    eigenvalues: np.ndarray
    right: np.ndarray | None
    left: np.ndarray | None
    kind: str
    defective: np.ndarray | None
    clusters: np.ndarray | None
    peripheral_tolerance = SPECTRAL_TOL     # a class constant, not a field

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    def peripheral_mask(self) -> np.ndarray:
        tol = self.peripheral_tolerance
        if self.kind == "generator":
            return self.eigenvalues.real >= -tol
        return np.abs(self.eigenvalues) >= 1.0 - tol

    def cluster(self, mu: int) -> np.ndarray:
        """Indices of the eigenvalues in the degenerate cluster of mu."""
        self.require_vectors()
        return np.nonzero(self.clusters == self.clusters[mu])[0]

    def require_vectors(self) -> None:
        """Raise ValueError if this spectrum was computed without vectors."""
        if self.right is None:
            raise ValueError("spectrum has no eigenvectors: compute it with "
                             "decompose(..., vectors=True)")

    def right_operator(self, mu: int) -> np.ndarray:
        self.require_vectors()
        return devectorize(self.right[:, mu])

    def left_operator(self, mu: int) -> np.ndarray:
        self.require_vectors()
        return devectorize(self.left[:, mu])


@dataclass(frozen=True)
class AsymptoticSubspace:
    """Peripheral modes with their conserved-quantity left partners."""

    eigenvalues: np.ndarray
    states: list          # right eigenvectors, as d x d operators
    conserved: list       # matched biorthonormal left partners, as operators
    kind: str

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def decompose(s: np.ndarray, kind: str = "generator",
              vectors: bool = True) -> SpectralData:
    """Full biorthonormal eigendecomposition of a superoperator matrix.

    Left vectors come from the adjoint problem (scipy's `left=True`), matched
    to right vectors by index. Degenerate clusters (eigenvalues joined by
    steps < SPECTRAL_TOL) are re-mixed so the cross-Gram matrix is the
    identity; clusters whose cross-Gram is numerically singular are flagged
    defective. A superoperator that preserves Hermiticity is decomposed in
    real arithmetic (see _real_form), and again on complex eig should that
    leave a defective cluster: real eig can return dependent vectors for
    exactly equal eigenvalues, such as a generator's zeros. Runs on one
    BLAS thread up to operators.SERIAL_BLAS_DIM.

    With vectors=False only the eigenvalues are computed (?geev without
    vectors, on the real form of each matrix that has one), in the same
    order; `right`, `left`, `defective` and `clusters` are None. s may then
    also be a stack of equal-size matrices, shape (m, n, n): the matrices
    with a real form go to one LAPACK stack, the others to another, and the
    one spectrum lists the eigenvalues matrix by matrix, each matrix's in
    decompose's order. `split` cuts it into one per matrix.
    """
    if kind not in ("generator", "map"):
        raise ValueError(f"kind must be 'generator' or 'map', got {kind!r}")
    s = np.asarray(s, dtype=complex)
    if s.ndim not in (2, 3) or s.shape[-1] != s.shape[-2]:
        raise ValueError("superoperator must be square, or a stack of "
                         "square ones")
    if s.ndim == 3 and vectors:
        raise ValueError("a stack is decomposed without vectors only")
    with _serial_blas(s.shape[-1]):
        if not vectors:
            return _eigenvalues(s.reshape(-1, *s.shape[-2:]), kind)
        real = _real_eig(s)
        parts = None if real is None else _biorthonormal(*real)
        if parts is None or parts[-1].any():
            parts = _biorthonormal(*scipy.linalg.eig(s, left=True,
                                                     right=True))
    w, vl, vr, clusters, defective = parts
    return SpectralData(eigenvalues=w, right=vr, left=vl, kind=kind,
                        defective=defective, clusters=clusters)


def _eigenvalues(stack: np.ndarray, kind: str) -> SpectralData:
    """decompose(..., vectors=False) of a stack (m, n, n) of matrices,
    in parts of at most STACK_PART_BYTES."""
    w = np.empty(stack.shape[:2], dtype=complex)
    step = max(1, STACK_PART_BYTES // max(1, stack[:1].nbytes))
    for start in range(0, len(stack), step):
        part, out = stack[start:start + step], w[start:start + step]
        real = _preserves_hermiticity(part)
        if real.any():
            out[real] = np.linalg.eigvals(_to_real(part[real]))
        if not real.all():
            out[~real] = np.linalg.eigvals(part[~real])
    return _unlabelled(w, kind)


def _unlabelled(w: np.ndarray, kind: str) -> SpectralData:
    """The spectrum without vectors, and so without clusters, of the
    matrices whose eigenvalues are the rows of w, each row put in
    decompose's order."""
    return SpectralData(
        eigenvalues=np.take_along_axis(w, _order(w), -1).reshape(-1),
        right=None, left=None, kind=kind, defective=None, clusters=None)


def split(sd: SpectralData, count: int) -> list:
    """The spectra of the `count` matrices of a stack, from the one
    spectrum that decompose(stack, vectors=False) returned, in stack
    order; each as decompose gives it for its matrix alone."""
    if sd.right is not None:
        raise ValueError("only a spectrum without vectors is split")
    return [SpectralData(eigenvalues=w, right=None, left=None, kind=sd.kind,
                         defective=None, clusters=None)
            for w in sd.eigenvalues.reshape(count, -1)]


def mirror(sd: SpectralData, shape: tuple, count: int = 1) -> SpectralData:
    """The spectrum of block (b, a) from sd, that of block (a, b).

    For a superoperator S that preserves Hermiticity, S(r^dag) = S(r)^dag,
    the block on r^dag (shape (n_b, n_a)) is the block on r (shape
    (n_a, n_b) = `shape`) conjugated by r -> r^dag. So its eigenvalues are
    the conjugates of sd's, and each right and left eigenvector is the
    vectorized conjugate transpose of one of sd's. The result keeps every
    invariant of decompose: its order rule, cluster labels in first-member
    order, biorthonormal pairs and defective flags. A spectrum without
    vectors gives one without vectors; it may also be that of a stack of
    `count` blocks of one shape from decompose(stack, vectors=False), and
    gives that of the stack of their mirrors.
    """
    if sd.right is None:
        return _unlabelled(sd.eigenvalues.conj().reshape(count, -1), sd.kind)
    if count != 1:
        raise ValueError("only a spectrum without vectors is a stack")
    w = sd.eigenvalues.conj()
    order = _order(w)
    w = w[order]
    # conjugation keeps every distance, so the clusters are sd's
    clusters = _first_member_labels(sd.clusters[order])
    # entry (j, i) of a vector of block (b, a) is entry (i, j) of one of sd's
    rows = np.arange(sd.size).reshape(shape).T.reshape(-1)
    return SpectralData(eigenvalues=w,
                        right=sd.right[np.ix_(rows, order)].conj(),
                        left=sd.left[np.ix_(rows, order)].conj(),
                        kind=sd.kind, defective=sd.defective[order],
                        clusters=clusters)


def _first_member_labels(labels: np.ndarray) -> np.ndarray:
    """Cluster labels 0, 1, ... renumbered in order of first member."""
    _, first = np.unique(labels, return_index=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[labels]


def _order(w: np.ndarray) -> np.ndarray:
    """decompose's order: by real part, then imaginary part, descending.

    The keys are rounded to SPECTRAL_TOL first, so rounding noise cannot
    swap rows. w may have more axes; each row of the last is ordered.
    """
    tol = SPECTRAL_TOL
    return np.lexsort((-w.imag, -w.real, -np.round(w.imag / tol),
                       -np.round(w.real / tol)))


def _biorthonormal(w: np.ndarray, vl: np.ndarray, vr: np.ndarray) -> tuple:
    """scipy eig's output in decompose's order, biorthonormalized:
    (w, vl, vr, clusters, defective)."""
    order = _order(w)
    w, vl, vr = w[order], vl[:, order], vr[:, order]
    clusters = _clusters(w)[1]
    return w, vl, vr, clusters, _biorthonormalize(vl, vr, clusters)


@functools.cache
def _transposition(n: int) -> np.ndarray | None:
    """The permutation r -> r^T of row-major vectorized d x d operators,
    n = d^2; None if n is not a square."""
    d = int(round(np.sqrt(n)))
    if d * d != n:
        return None
    perm = np.arange(n).reshape(d, d).T.reshape(-1)
    perm.flags.writeable = False        # cached, so shared
    return perm


def _preserves_hermiticity(s: np.ndarray) -> np.ndarray:
    """Whether each matrix of s, shape (..., n, n), preserves Hermiticity
    within HERMITICITY_TOL: S(r^dag) = S(r)^dag, i.e. S equals its
    conjugate with rows and columns permuted by the transpose r -> r^T.
    All False when n is not a square."""
    perm = _transposition(s.shape[-1])
    if perm is None:
        return np.zeros(s.shape[:-2], dtype=bool)
    flipped = s[..., perm, :][..., perm].conj()
    return np.max(np.abs(s - flipped), axis=(-2, -1)) <= HERMITICITY_TOL


def _real_form(s: np.ndarray) -> tuple | None:
    """s, shape (..., n, n), as real matrices and the map back, (m, back);
    None if a matrix of s does not preserve Hermiticity.

    An n x n superoperator on d x d operators (n = d^2) that preserves
    Hermiticity (_preserves_hermiticity) is real in the orthonormal
    Hermitian operator basis
    {|i><i|, (|i><j| + |j><i|)/sqrt(2), i(|i><j| - |j><i|)/sqrt(2)},
    i < j, the columns of a unitary T. m = T^dag S T then goes to real eig
    (dgeev), whose conjugate pairs are exactly conjugate, and back(v) = T v
    maps the left and right vectors of one such m to those of its s. T has
    at most two entries in a row or column, so both changes of basis are
    index arithmetic.
    """
    if not _preserves_hermiticity(s).all():
        return None
    perm = _transposition(s.shape[-1])
    alpha, beta = _hermitian_basis(int(round(np.sqrt(s.shape[-1]))))
    # (T v)[p] = alpha[p] v[p] + beta[perm[p]] v[perm[p]]
    return (_to_real(s),
            lambda v: alpha[:, None] * v + beta[perm, None] * v[perm])


def _to_real(s: np.ndarray) -> np.ndarray:
    """T^dag S T of _real_form, for matrices s that preserve Hermiticity."""
    perm = _transposition(s.shape[-1])
    alpha, beta = _hermitian_basis(int(round(np.sqrt(s.shape[-1]))))
    # T[p, p] = alpha[p] and T[perm[p], p] = beta[p]
    st = s * alpha + s[..., perm] * beta
    return (alpha.conj()[:, None] * st
            + beta.conj()[:, None] * st[..., perm, :]).real


def _real_eig(s: np.ndarray) -> tuple | None:
    """scipy's eig of s in real arithmetic, (w, vl, vr); None if it can't be."""
    real = _real_form(s)
    if real is None:
        return None
    m, back = real
    w, vl, vr = scipy.linalg.eig(m, left=True, right=True)
    return w, back(vl), back(vr)


@functools.cache
def _hermitian_basis(d: int) -> tuple:
    """The entries (alpha, beta) of _real_form's T for operators on C^d.

    Column p = (i, j) of T is |i><i| for i = j, (|i><j| + |j><i|)/sqrt(2)
    for i < j and i(|j><i| - |i><j|)/sqrt(2) for i > j; alpha[p] is its
    entry at p and beta[p] at the transposed index. A diagonal p splits
    its 1 as 1/2 + 1/2, so the formulas need no case for it.
    """
    i, j = np.divmod(np.arange(d * d), d)
    r = np.sqrt(0.5)
    alpha = np.where(i < j, r, np.where(i > j, -1j * r, 0.5))
    beta = np.where(i < j, r, np.where(i > j, 1j * r, 0.5))
    alpha.flags.writeable = beta.flags.writeable = False   # cached
    return alpha, beta


def _biorthonormalize(vl: np.ndarray, vr: np.ndarray,
                      clusters: np.ndarray) -> np.ndarray:
    """Mix vl within each cluster so vl^dag vr = 1 there; return the defective.

    A cluster is defective when its Gram matrix vl^dag vr has a condition
    number above DEFECTIVE_COND; its columns are left as they are. vl is
    changed in place. A singleton's Gram is the number g = <l|r>, with the
    one singular value |g| and the inverse 1/g, so it is done in closed
    form; all larger clusters of one size go in one stacked Gram, svd and
    inverse.
    """
    sizes = np.bincount(clusters)
    defective = np.zeros(clusters.size, dtype=bool)
    single = np.flatnonzero(sizes[clusters] == 1)
    g = np.einsum("ni,ni->i", vl[:, single].conj(), vr[:, single])
    bad = np.abs(g) < np.maximum(1.0, np.abs(g)) / DEFECTIVE_COND
    defective[single[bad]] = True
    vl[:, single[~bad]] /= g[~bad].conj()
    by_cluster = np.argsort(clusters, kind="stable")
    starts = np.cumsum(sizes) - sizes
    for size in np.unique(sizes[sizes > 1]):
        # idx[c]: the members of the c-th cluster of this size
        idx = by_cluster[starts[sizes == size, None] + np.arange(size)]
        left, right = vl[:, idx], vr[:, idx]
        gram = np.einsum("nci,ncj->cij", left.conj(), right)
        svals = np.linalg.svd(gram, compute_uv=False)
        # columns are unit norm, so a healthy cluster has an O(1) Gram
        bad = svals[:, -1] < np.maximum(1.0, svals[:, 0]) / DEFECTIVE_COND
        defective[idx[bad]] = True
        # L_new = L @ inv(gram)^dag gives L_new^dag R = identity
        vl[:, idx[~bad]] = np.einsum("nci,cji->ncj", left[:, ~bad],
                                     np.linalg.inv(gram[~bad]).conj())
    return defective


def _clusters(w: np.ndarray) -> tuple:
    """Connected components of |w_i - w_j| < SPECTRAL_TOL: (count, labels).

    Labels are in order of each cluster's first member.
    Neighbours are looked for after a sort by real part, among the values
    whose real parts lie within 2 SPECTRAL_TOL (room for rounding), so no
    n x n array is formed. Each component is then labelled by its smallest
    index: the larger root of every pair with two roots is hooked onto the
    smaller, then every index jumps to the root of its root until it
    points at one.
    """
    order = np.argsort(w.real, kind="stable")
    ws = w[order]
    # pair each i with every j > i in the sorted order up to end[i]
    end = np.searchsorted(ws.real, ws.real + 2 * SPECTRAL_TOL, side="right")
    count = end - np.arange(w.size) - 1
    i = np.repeat(np.arange(w.size), count)
    j = i + 1 + np.arange(i.size) - np.repeat(np.cumsum(count) - count, count)
    near = np.abs(ws[j] - ws[i]) < SPECTRAL_TOL
    if not near.any():
        return w.size, np.arange(w.size)
    i, j = order[i[near]], order[j[near]]
    root = np.arange(w.size)        # root[x] <= x, in the component of x
    while not np.array_equal(root[i], root[j]):
        np.minimum.at(root, np.maximum(root[i], root[j]),
                      np.minimum(root[i], root[j]))
        while not np.array_equal(root, root[root]):
            root = root[root]
    # the roots, in index order, are the first members
    first = root == np.arange(w.size)
    return int(first.sum()), (np.cumsum(first) - 1)[root]


def asymptotic_subspace(sd: SpectralData) -> AsymptoticSubspace:
    """Peripheral modes and their conserved quantities j_mu = left partners."""
    sd.require_vectors()
    mask = sd.peripheral_mask() & ~sd.defective
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        raise ValueError("no peripheral eigenvalue found; input is not a "
                         "trace-preserving generator or map")
    states = [sd.right_operator(i) for i in idx]
    conserved = [sd.left_operator(i) for i in idx]
    return AsymptoticSubspace(eigenvalues=sd.eigenvalues[idx], states=states,
                              conserved=conserved, kind=sd.kind)


def dual_basis(asy: AsymptoticSubspace, targets) -> list:
    """Conserved quantities matched to a chosen basis of asymptotic states.

    Given target right operators spanning the same space as asy.states, the
    duals d_k with tr(d_k^dag t_l) = delta_kl are unique, so they can be
    compared entrywise to closed forms without any phase freedom.
    """
    jmat = np.column_stack([vectorize(j) for j in asy.conserved])
    tmat = np.column_stack([vectorize(np.asarray(t, dtype=complex))
                            for t in targets])
    coeff = jmat.conj().T @ tmat
    if coeff.shape[0] != coeff.shape[1]:
        raise ValueError("targets must have the same count as asymptotic modes")
    if np.linalg.cond(coeff) > DEFECTIVE_COND:
        raise ValueError("targets do not span the asymptotic subspace")
    duals = jmat @ np.linalg.inv(coeff).conj().T
    return [devectorize(duals[:, k]) for k in range(duals.shape[1])]
