"""Biorthogonal spectral analysis of superoperators.

Eigen-decomposes a generator or CPTP map into left/right eigenvector pairs,
classifies peripheral versus decaying modes, and extracts the asymptotic
subspace with its conserved quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from .operators import devectorize, hs_inner, vectorize

SPECTRAL_TOL = 1e-8           # clusters and peripheral modes; README table
DEFECTIVE_COND = 1e10         # a condition number


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues with biorthonormal left/right eigenvector pairs.

    Columns of `right` and `left` are matched index-by-index and normalized
    so that left[:, m].conj() @ right[:, n] = delta_mn except inside clusters
    flagged as defective. `clusters` labels each eigenvalue with its
    degenerate cluster, the connected components of eigenvalues closer than
    peripheral_tolerance; it is the one degeneracy test downstream.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    kind: str
    defective: np.ndarray
    clusters: np.ndarray
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
        return np.nonzero(self.clusters == self.clusters[mu])[0]

    def right_operator(self, mu: int) -> np.ndarray:
        return devectorize(self.right[:, mu])

    def left_operator(self, mu: int) -> np.ndarray:
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


def decompose(s: np.ndarray, kind: str = "generator") -> SpectralData:
    """Full biorthonormal eigendecomposition of a superoperator matrix.

    Left vectors come from the adjoint problem (scipy's `left=True`), matched
    to right vectors by index. Degenerate clusters (eigenvalues joined by
    steps < SPECTRAL_TOL) are re-mixed so the cross-Gram matrix is the
    identity; clusters whose cross-Gram is numerically singular are flagged
    defective.
    """
    if kind not in ("generator", "map"):
        raise ValueError(f"kind must be 'generator' or 'map', got {kind!r}")
    s = np.asarray(s, dtype=complex)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("superoperator must be square")
    w, vl, vr = scipy.linalg.eig(s, left=True, right=True)
    tol = SPECTRAL_TOL
    # keys rounded to tol first, so rounding noise cannot swap rows
    order = np.lexsort((-w.imag, -w.real, -np.round(w.imag / tol),
                        -np.round(w.real / tol)))
    w, vl, vr = w[order], vl[:, order], vr[:, order]
    defective = np.zeros(w.size, dtype=bool)
    n_clusters, clusters = _clusters(w)
    for label in range(n_clusters):
        idx = np.nonzero(clusters == label)[0]
        gram = vl[:, idx].conj().T @ vr[:, idx]
        # columns are unit norm, so a healthy cluster has an O(1) Gram
        svals = np.linalg.svd(gram, compute_uv=False)
        if svals.min() < max(1.0, svals.max()) / DEFECTIVE_COND:
            defective[idx] = True
            continue
        # L_new = L @ inv(gram)^dag gives L_new^dag R = identity
        vl[:, idx] = vl[:, idx] @ np.linalg.inv(gram).conj().T
    return SpectralData(eigenvalues=w, right=vr, left=vl, kind=kind,
                        defective=defective, clusters=clusters)


def _clusters(w: np.ndarray) -> tuple:
    """Connected components of |w_i - w_j| < SPECTRAL_TOL: (count, labels).

    Labels are in order of each cluster's first member. Neighbours are
    looked for after a sort by real part, offset by offset, until no pair
    at an offset has real parts within the tolerance, so no n x n array
    is formed.
    """
    order = np.argsort(w.real, kind="stable")
    ws = w[order]
    pairs = [np.empty((2, 0), dtype=int)]
    for k in range(1, w.size):
        # real gaps grow with the offset; 2 tol leaves room for rounding
        near = np.flatnonzero(ws[k:].real - ws[:-k].real <= 2 * SPECTRAL_TOL)
        if near.size == 0:
            break
        near = near[np.abs(ws[near + k] - ws[near]) < SPECTRAL_TOL]
        pairs.append(order[np.stack((near, near + k))])
    i, j = np.concatenate(pairs, axis=1)
    graph = scipy.sparse.csr_array((np.ones(i.size, dtype=bool), (i, j)),
                                   shape=(w.size, w.size))
    return connected_components(graph, directed=False)


def asymptotic_subspace(sd: SpectralData) -> AsymptoticSubspace:
    """Peripheral modes and their conserved quantities j_mu = left partners."""
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


def dissipative_gap(sd: SpectralData) -> float:
    """Smallest decay rate min |Re lambda| over decaying modes; inf if none."""
    if sd.kind != "generator":
        raise ValueError("dissipative gap is defined for generator spectra")
    decaying = sd.eigenvalues[sd.eigenvalues.real < -sd.peripheral_tolerance]
    if decaying.size == 0:
        return np.inf
    return float(np.min(np.abs(decaying.real)))


def asymptotic_state(asy: AsymptoticSubspace, rho0: np.ndarray,
                     t: float = 0.0) -> np.ndarray:
    """sum_mu e^{i phi_mu t} tr(j_mu^dag rho0) Psi_mu, phi_mu = Im lambda_mu."""
    rho0 = np.asarray(rho0, dtype=complex)
    out = np.zeros_like(rho0)
    for lam, psi, j in zip(asy.eigenvalues, asy.states, asy.conserved):
        phi = lam.imag
        out = out + np.exp(1j * phi * t) * hs_inner(j, rho0) * psi
    return out
