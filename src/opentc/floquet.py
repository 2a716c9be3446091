"""Kicked-protocol Floquet propagators and time-crystal diagnostics."""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .lindblad import (HERMITICITY_TOL, SECTOR_TOL, TRACE_TOL, Generator,
                       _Terms, check_state)
from .operators import (UNITARITY_TOL, _serial_blas, devectorize, hermitize,
                        is_unitary, trace_functional, vectorize, z_signs)
from .spectral import SpectralData

PROPAGATOR_TRACE_TOL = 1e-9   # times the dimension d; README "Tolerances"
ROOT_OF_UNITY_TOL = 1e-6


@dataclass(frozen=True)
class KickedProtocol:
    """Dissipative evolution for a period, interrupted by a unitary kick.

    The kick unitary is exp(-i (pi + error) * kick_generator). A
    1-D kick generator is a diagonal, and its kick unitary is 1-D too. The
    model is a generator (lindblad.LindbladModel or xy.NumericGenerator);
    floquet_propagator uses its matrix, stroboscopic_evolve its actions.
    `sectors` are isometries (d x n matrices, n may differ between them)
    whose columns together form an orthonormal basis, spanning subspaces
    that the model and the kick keep apart; the map is then block-diagonal
    over `blocks`. An index array stands for the identity columns it
    selects. The default is one sector, the whole space.
    """

    model: Generator
    period: float
    kick_generator: np.ndarray
    error: float = 0.0
    sectors: tuple | None = None

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        g = np.asarray(self.kick_generator, dtype=complex)
        g_dag = g.conj() if g.ndim == 1 else g.conj().T
        if np.max(np.abs(g - g_dag)) > HERMITICITY_TOL:
            raise ValueError("kick generator must be Hermitian")
        object.__setattr__(self, "kick_generator", g)
        d = g.shape[0]
        given = [np.asarray(s, dtype=int if np.ndim(s) == 1 else complex)
                 for s in (self.sectors or (np.arange(d),))]
        if not _orthonormal_basis(given, d):
            raise ValueError("sectors must be isometries whose columns "
                             "together form an orthonormal basis")
        object.__setattr__(self, "sectors", tuple(
            np.eye(d, dtype=complex)[:, s] if s.ndim == 1 else s
            for s in given))

    @property
    def blocks(self) -> list:
        """Every block (rows, cols) of rho, rows and cols running over sectors."""
        return [(rows, cols) for rows in self.sectors for cols in self.sectors]

    @property
    def kick_unitary(self) -> np.ndarray:
        angle = np.pi + self.error
        g = self.kick_generator
        if g.ndim == 1:
            return np.exp(-1j * angle * g.real)
        evals, vecs = np.linalg.eigh(g)
        return (vecs * np.exp(-1j * angle * evals)) @ vecs.conj().T


def _orthonormal_basis(sectors: list, d: int) -> bool:
    """Whether the sectors' columns together form an orthonormal basis of C^d.

    Index sectors must be a permutation of 0..d-1. Otherwise the Gram
    matrix of all columns is formed sparse: a momentum sector has at most L
    nonzeros in a row, so no dense d x d product is needed.
    """
    if all(s.ndim == 1 for s in sectors):
        return np.array_equal(np.sort(np.concatenate(sectors)), np.arange(d))
    basis = np.hstack([np.eye(d)[:, s] if s.ndim == 1 else s
                       for s in sectors])
    if basis.shape != (d, d):
        return False
    basis = scipy.sparse.csc_array(basis)
    gram = basis.conj().T @ basis - scipy.sparse.eye_array(d)
    return bool(abs(gram).max() < UNITARITY_TOL)


@dataclass(frozen=True)
class FloquetDiagnostics:
    """Subharmonic diagnostics read off a Floquet-map spectrum."""

    star_eigenvalue: complex
    block: int            # which of the spectra given to find_star holds it
    index: int            # position of the star in that one's eigenvalues
    floquet_gap: float
    tc_distance: float
    subharmonic_order: int


@dataclass(frozen=True)
class Observation6Report:
    """Per-condition result of the subharmonic-protocol check."""

    static_peripheral_trivial: bool
    kick_block_preserving: bool
    kick_subharmonic: bool
    kick_asymptotic_eigenvalues: np.ndarray

    @property
    def passed(self) -> bool:
        return (self.static_peripheral_trivial and self.kick_block_preserving
                and self.kick_subharmonic)


@dataclass(frozen=True)
class DisorderSusceptibility:
    """Linear disorder response, via the single-site reduction and the full sum."""

    single_site: float
    full_sum: float


def matrix_exp(s: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(s t) via Pade scaling-and-squaring, on one BLAS thread if small."""
    s = np.asarray(s, dtype=complex)
    with _serial_blas(s.shape[-1]):
        out = scipy.linalg.expm(s * t)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("matrix exponential overflowed")
    return out


def _conjugation(u: np.ndarray) -> _Terms:
    """rho -> U rho U^dag as one sandwich; a 1-D u is a diagonal."""
    u = np.asarray(u, dtype=complex)
    if not is_unitary(np.diag(u) if u.ndim == 1 else u):
        raise ValueError("input is not unitary within tolerance "
                         f"{UNITARITY_TOL:g}")
    return _Terms([(u, u.conj() if u.ndim == 1 else u.conj().T)])


def floquet_propagator(p: KickedProtocol, block=None) -> np.ndarray:
    """(U_K o U_K^*) exp(L T) on the block rows^dag rho cols; None is all.

    The generator block is exponentiated and the kick, restricted the same
    way, applied to it; a block of p.blocks is exact, and a model or kick
    that couples the sectors raises ValueError. The trace functional is a
    left fixed point of the whole map and of every diagonal block.
    """
    prop = _conjugation(p.kick_unitary).restrict(block).columns(
        matrix_exp(p.model.matrix(block), p.period))
    if block is None or np.array_equal(*block):
        tr = trace_functional(int(round(np.sqrt(prop.shape[0]))))
        resid = np.max(np.abs(tr.conj() @ prop - tr.conj()))
        if resid > PROPAGATOR_TRACE_TOL * p.kick_generator.shape[0]:
            raise RuntimeError(f"propagator is not trace preserving "
                               f"(residual {resid:.2e})")
    return prop


def find_star(*spectra: SpectralData, order: int = 2,
              period: float = 1.0) -> FloquetDiagnostics:
    """Eigenvalue closest to exp(2 pi i / order) and the derived diagnostics.

    Searches the union of the given spectra, e.g. the blocks of one map.
    Distances, and then moduli, that agree within the spectra's cluster
    tolerance tie. Among the nearest, largest eigenvalues the star is one
    with Im >= 0, then the nearest, then the smallest |Im|, so rounding
    never picks the side of a conjugate pair, not even across blocks.
    """
    if not spectra or any(sd.kind != "map" for sd in spectra):
        raise ValueError("find_star expects map-kind spectra")
    if order < 2:
        raise ValueError("subharmonic order must be >= 2")
    target = np.exp(2j * np.pi / order)
    w = np.concatenate([sd.eigenvalues for sd in spectra])
    tol = SpectralData.peripheral_tolerance
    dist = np.abs(w - target)
    tied = dist <= dist.min() + tol
    tied &= np.abs(w) >= np.abs(w[tied]).max() - tol
    best = np.lexsort((np.abs(w.imag), dist, w.imag < 0, ~tied))[0]
    sizes = [sd.size for sd in spectra]
    block = int(np.searchsorted(np.cumsum(sizes), best, side="right"))
    star = complex(w[best])
    gap = max(0.0, -np.log(max(abs(star), 1e-300)) / period)
    return FloquetDiagnostics(star_eigenvalue=star, block=block,
                              index=int(best - sum(sizes[:block])),
                              floquet_gap=gap, tc_distance=float(dist[best]),
                              subharmonic_order=order)


def rotation_error_map(p: KickedProtocol) -> np.ndarray:
    """First-order deformation of the propagator under a kick-angle error.

    For U_K(error) = exp(-i (pi + error) G) the propagator expands as
    E_F(error) = E_F + error * V + O(error^2) with V = -i [G, E_F(.)].
    """
    ef = floquet_propagator(dataclasses.replace(p, error=0.0))
    g = p.kick_generator
    return -1j * _Terms([(g, None), (None, -g)]).columns(ef)


def susceptibility(sd: SpectralData, v: np.ndarray, mu: int,
                   order: int = 1) -> complex:
    """k-th Taylor coefficient of the eigenvalue eps_mu under S -> S + eta V.

    Uses the biorthogonal perturbation recurrence
    eps_k = <<l0| V |r_{k-1}>> - sum_{l=1}^{k-1} eps_l <<l0|r_{k-l}>>.
    For a degenerate target (more than one eigenvalue in its decompose
    cluster) only the first order is defined, via the eigenvalues of the
    cluster matrix (the largest in magnitude is returned).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    w = sd.eigenvalues
    eps0 = w[mu]
    cluster = sd.cluster(mu)
    if cluster.size > 1:
        if order > 1:
            raise ValueError("target eigenvalue is degenerate; higher-order "
                             "susceptibilities are undefined")
        cmat = sd.left[:, cluster].conj().T @ v @ sd.right[:, cluster]
        cw = np.linalg.eigvals(cmat)
        return complex(cw[np.argmax(np.abs(cw))])
    l0 = sd.left[:, mu]
    rvecs = {0: sd.right[:, mu]}
    eps = {}
    others = np.array([i for i in range(w.size) if i != mu])
    for k in range(1, order + 1):
        vr = v @ rvecs[k - 1]
        eps[k] = np.vdot(l0, vr) - sum(
            eps[l] * np.vdot(l0, rvecs[k - l]) for l in range(1, k))
        if k < order:
            rhs = vr - sum(eps[l] * rvecs[k - l] for l in range(1, k + 1))
            coeff = (sd.left[:, others].conj().T @ rhs) / (w[others] - eps0)
            rvecs[k] = sd.right[:, others] @ coeff
    return complex(eps[order])


def stroboscopic_evolve(p: KickedProtocol, rho0: np.ndarray,
                        n: int) -> Iterator[np.ndarray]:
    """Yield the states rho(kT) for k = 0..n under E_F, without building it.

    Only the sectors of p that rho0 touches are evolved: with U the union
    of those whose s^dag rho0 has an entry above SECTOR_TOL, the stepper
    evolves r = U^dag rho U and yields U r U^dag. When rho0 touches every
    sector, r is rho itself. Each period is one scipy expm_multiply on the
    generator's action and adjoint action on r, with traceA from its
    trace(), followed by the kick; r is hermitized after every period.
    Arguments are checked when called; a non-finite trace, or one drifting
    from 1 by more than TRACE_TOL, raises RuntimeError.
    """
    if n < 0:
        raise ValueError("number of periods must be >= 0")
    check_state(rho0)
    return _stroboscopic_states(p, np.asarray(rho0, dtype=complex).copy(), n)


def _stroboscopic_states(p: KickedProtocol, rho: np.ndarray,
                         n: int) -> Iterator[np.ndarray]:
    yield rho
    if n == 0:
        return
    touched = [s for s in p.sectors
               if np.abs(s.conj().T @ rho).max() > SECTOR_TOL]
    block = None
    if len(touched) < len(p.sectors):
        u = np.hstack(touched)
        block = (u, u)
        rho = u.conj().T @ rho @ u
    gen = p.model
    d = rho.shape[0]
    op = p.period * scipy.sparse.linalg.LinearOperator(
        shape=(d * d, d * d), dtype=complex,
        matvec=lambda v: gen.action(v.reshape(d, d), block).reshape(-1),
        rmatvec=lambda v: gen.adjoint_action(v.reshape(d, d),
                                             block).reshape(-1))
    tra = complex(gen.trace(block)) * p.period
    kick = _conjugation(p.kick_unitary).restrict(block)
    vec = vectorize(rho)
    for _ in range(n):
        vec = scipy.sparse.linalg.expm_multiply(op, vec, traceA=tra)
        rho = hermitize(kick.action(devectorize(vec)))
        trace = np.trace(rho)
        if not (np.isfinite(trace) and abs(trace - 1.0) <= TRACE_TOL):
            raise RuntimeError(f"trace {trace} drifted during stroboscopic "
                               f"evolution")
        yield rho if block is None else u @ rho @ u.conj().T
        vec = vectorize(rho)


def check_observation6(map_sd: SpectralData, u_kick: np.ndarray,
                       order: int = 2) -> Observation6Report:
    """Test the three conditions of the subharmonic-response protocol.

    (i) the static map is multistable with all peripheral eigenvalues 1,
    (ii) the kick acts block-diagonally on asymptotic vs decay spans,
    (iii) the kick restricted to the asymptotic block has eigenvalues that are
    order-th roots of unity, at least one different from 1.
    With tol the spectrum's peripheral_tolerance, (i) allows a spread of
    sqrt(tol) around 1 and (ii) couplings below tol.
    """
    if map_sd.kind != "map":
        raise ValueError("observation-6 check expects a map-kind spectrum")
    mask = map_sd.peripheral_mask() & ~map_sd.defective
    asy = np.nonzero(mask)[0]
    dec = np.nonzero(~mask)[0]
    tol = map_sd.peripheral_tolerance
    cond1 = asy.size > 0 and bool(
        np.max(np.abs(map_sd.eigenvalues[asy] - 1.0)) < np.sqrt(tol))
    # the kick in the map's biorthogonal eigenbasis
    kick = map_sd.left.conj().T @ _conjugation(u_kick).columns(map_sd.right)
    cross = 0.0
    if asy.size and dec.size:
        cross = max(np.max(np.abs(kick[np.ix_(dec, asy)])),
                    np.max(np.abs(kick[np.ix_(asy, dec)])))
    cond2 = cross < tol
    block = kick[np.ix_(asy, asy)]
    uvals = np.linalg.eigvals(block)
    roots = np.exp(2j * np.pi * np.arange(order) / order)
    on_roots = bool(np.max(np.min(np.abs(uvals[:, None] - roots[None, :]),
                                  axis=1)) < ROOT_OF_UNITY_TOL)
    nontrivial = bool(np.max(np.abs(uvals - 1.0)) > ROOT_OF_UNITY_TOL)
    return Observation6Report(static_peripheral_trivial=cond1,
                              kick_block_preserving=cond2,
                              kick_subharmonic=on_roots and nontrivial,
                              kick_asymptotic_eigenvalues=uvals)


def _shift(length: int) -> np.ndarray:
    """The basis index of T|i> for every basis index i."""
    i = np.arange(2 ** length)
    return (i >> 1) | ((i & 1) << (length - 1))


def translation_operator(length: int) -> np.ndarray:
    """One-site cyclic shift T with T Z_r T^dag = Z_{r+1 mod L}."""
    d = 2 ** length
    t = np.zeros((d, d), dtype=complex)
    t[_shift(length), np.arange(d)] = 1.0
    return t


def momentum_sectors(length: int) -> tuple:
    """The eigenspaces of T as isometries V_k, T V_k = e^(2 pi i k / L) V_k.

    One V_k for each k = 0..L-1. Each column is the Fourier sum over one
    orbit of the cyclic shift, sum_j e^(-2 pi i k j / L) T^j |s> / sqrt(p)
    over the orbit's p states, |s> its smallest basis state; an orbit has a
    column in V_k when k p is a multiple of L. Columns are ordered by s.
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
    sectors = []
    for k in range(length):
        keep = (k * period) % length == 0
        _, col = np.unique(rep[keep], return_inverse=True)
        v = np.zeros((d, col.max() + 1), dtype=complex)
        v[keep, col] = (np.exp(-2j * np.pi * k * offset[keep] / length)
                        / np.sqrt(period[keep]))
        sectors.append(v)
    return tuple(sectors)


def translation_refine(sd: SpectralData, length: int, mu: int,
                       block=None) -> SpectralData:
    """Rotate the degenerate cluster of eps_mu into translation eigenvectors.

    For a translation-invariant map the refined left/right pairs make matrix
    elements of site operators independent of the site, which the single-site
    disorder reduction relies on. Non-degenerate targets pass through. sd
    is the spectrum of the map's block (rows, cols); None is the whole map.
    T keeps parity, so restricting it to a parity block is exact.
    """
    cluster = sd.cluster(mu)
    if cluster.size == 1:
        return sd
    tmat = sd.left[:, cluster].conj().T @ _conjugation(
        translation_operator(length)).restrict(block).columns(
        sd.right[:, cluster])
    tvals, tvecs = np.linalg.eig(tmat)
    right = sd.right.copy()
    left = sd.left.copy()
    right[:, cluster] = right[:, cluster] @ tvecs
    left[:, cluster] = left[:, cluster] @ np.linalg.inv(tvecs).conj().T
    return dataclasses.replace(sd, right=right, left=left)


def disorder_susceptibility(sd: SpectralData, deltas, length: int, mu: int,
                            block=None) -> DisorderSusceptibility:
    """Linear susceptibility of eps_mu to a site-dependent kick error.

    Reports the permutation-invariant single-site reduction
    (|eps|/2) |<<l| Z_0 (.) - (.) Z_0 |r>>| sum_r delta_r, together with the
    full sum over -(i/2) delta_r <<l| [Z_r, .] E_F |r>>. sd is the spectrum
    of the map's block (rows, cols); None is the whole map.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.size != length:
        raise ValueError("one disorder amplitude per site is required")
    eps = sd.eigenvalues[mu]
    elements = np.empty(length, dtype=complex)
    for site, z in enumerate(z_signs(length)):
        commutator = _Terms([(z, None), (None, -z)]).restrict(block)
        elements[site] = np.vdot(sd.left[:, mu],
                                 commutator.columns(sd.right[:, mu:mu + 1]))
    single = 0.5 * abs(eps) * abs(elements[0]) * float(np.sum(deltas))
    full = 0.5 * abs(eps) * abs(np.sum(deltas * elements))
    return DisorderSusceptibility(single_site=float(single),
                                  full_sum=float(full))
