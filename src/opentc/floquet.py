"""Kicked-protocol Floquet propagators and time-crystal diagnostics."""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .lindblad import TRACE_TOL, Generator, check_state
from .operators import (devectorize, hermitize, identity, sandwich,
                        site_operator, trace_functional, unitary_conjugation,
                        vectorize)
from .spectral import SpectralData


@dataclass(frozen=True)
class KickedProtocol:
    """Dissipative evolution for a period, interrupted by a unitary kick.

    The kick unitary is exp(-i (kick_angle + error) * kick_generator). The
    model is a generator (lindblad.LindbladModel or xy.NumericGenerator);
    floquet_propagator uses its matrix, stroboscopic_evolve its actions.
    """

    model: Generator
    period: float
    kick_generator: np.ndarray
    kick_angle: float = np.pi
    error: float = 0.0

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        g = np.asarray(self.kick_generator, dtype=complex)
        if np.max(np.abs(g - g.conj().T)) > 1e-10:
            raise ValueError("kick generator must be Hermitian")
        object.__setattr__(self, "kick_generator", g)

    @property
    def kick_unitary(self) -> np.ndarray:
        angle = self.kick_angle + self.error
        g = self.kick_generator
        if np.max(np.abs(g - np.diag(np.diag(g)))) < 1e-14:
            return np.diag(np.exp(-1j * angle * np.diag(g).real))
        evals, vecs = np.linalg.eigh(g)
        return (vecs * np.exp(-1j * angle * evals)) @ vecs.conj().T


@dataclass(frozen=True)
class FloquetDiagnostics:
    """Subharmonic diagnostics read off a Floquet-map spectrum."""

    star_eigenvalue: complex
    index: int            # position of the star in sd.eigenvalues
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
    """exp(s t) via Pade scaling-and-squaring."""
    s = np.asarray(s, dtype=complex)
    out = scipy.linalg.expm(s * t)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("matrix exponential overflowed")
    return out


def _kick_map(p: KickedProtocol):
    """x -> (U_K o U_K^*) x for x a stack of vectorized operators (columns).

    A diagonal U_K scales row i d + j by u_i conj(u_j). A general one costs
    two gemms on x reshaped to (d, d, columns), never the d^2 x d^2 kron.
    """
    u = p.kick_unitary
    d = u.shape[0]
    if not np.count_nonzero(u - np.diag(np.diag(u))):
        u = np.diag(u)
        kd = (u[:, None] * u.conj()[None, :]).reshape(-1, 1)
        return lambda x: kd * x

    def kick(x):
        t = (u @ x.reshape(d, -1)).reshape(d, d, -1)
        return np.matmul(u.conj(), t).reshape(d * d, -1)
    return kick


def floquet_propagator(p: KickedProtocol) -> np.ndarray:
    """(U_K o U_K^*) exp(L T); the trace functional is a left fixed point."""
    prop = _kick_map(p)(matrix_exp(p.model.matrix(), p.period))
    tr = trace_functional(int(round(np.sqrt(prop.shape[0]))))
    resid = np.max(np.abs(tr.conj() @ prop - tr.conj()))
    if resid > 1e-9 * np.sqrt(prop.shape[0]):
        raise RuntimeError(f"propagator is not trace preserving (residual "
                           f"{resid:.2e})")
    return prop


def find_star(sd: SpectralData, order: int = 2,
              period: float = 1.0) -> FloquetDiagnostics:
    """Eigenvalue closest to exp(2 pi i / order) and the derived diagnostics.

    Distances, and then moduli, that agree within the spectrum's cluster
    tolerance tie. Among the nearest, largest eigenvalues the star is one
    with Im >= 0, then the nearest, then the smallest |Im|, so rounding
    never picks the side of a conjugate pair.
    """
    if sd.kind != "map":
        raise ValueError("find_star expects a map-kind spectrum")
    if order < 2:
        raise ValueError("subharmonic order must be >= 2")
    target = np.exp(2j * np.pi / order)
    w = sd.eigenvalues
    dist = np.abs(w - target)
    tied = dist <= dist.min() + sd.peripheral_tolerance
    tied &= np.abs(w) >= np.abs(w[tied]).max() - sd.peripheral_tolerance
    best = np.lexsort((np.abs(w.imag), dist, w.imag < 0, ~tied))[0]
    star = complex(w[best])
    gap = max(0.0, -np.log(max(abs(star), 1e-300)) / period)
    return FloquetDiagnostics(star_eigenvalue=star, index=int(best),
                              floquet_gap=gap, tc_distance=float(dist[best]),
                              subharmonic_order=order)


def rotation_error_map(p: KickedProtocol) -> np.ndarray:
    """First-order deformation of the propagator under a kick-angle error.

    For U_K(error) = exp(-i (theta + error) G) the propagator expands as
    E_F(error) = E_F + error * V + O(error^2) with V = -i [G, E_F(.)].
    """
    p0 = dataclasses.replace(p, error=0.0)
    ef = floquet_propagator(p0)
    g = p.kick_generator
    eye = identity(g.shape[0])
    return -1j * (sandwich(g, eye) - sandwich(eye, g)) @ ef


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

    Each period is one scipy expm_multiply on the generator's action and
    adjoint action, with traceA from its trace(), followed by the kick; the
    state is hermitized after every period. Arguments are checked when
    called; a non-finite trace, or one drifting from 1 by more than
    TRACE_TOL, raises RuntimeError.
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
    gen = p.model
    d = rho.shape[0]
    op = p.period * scipy.sparse.linalg.LinearOperator(
        shape=(d * d, d * d), dtype=complex,
        matvec=lambda v: gen.action(v.reshape(d, d)).reshape(-1),
        rmatvec=lambda v: gen.adjoint_action(v.reshape(d, d)).reshape(-1))
    tra = complex(gen.trace()) * p.period
    kick = _kick_map(p)
    vec = vectorize(rho)
    for _ in range(n):
        vec = scipy.sparse.linalg.expm_multiply(op, vec, traceA=tra)
        rho = hermitize(devectorize(kick(vec[:, None])))
        trace = np.trace(rho)
        if not (np.isfinite(trace) and abs(trace - 1.0) <= TRACE_TOL):
            raise RuntimeError(f"trace {trace} drifted during stroboscopic "
                               f"evolution")
        yield rho
        vec = vectorize(rho)


def check_observation6(map_sd: SpectralData, u_kick: np.ndarray,
                       order: int = 2, tol: float = 1e-8) -> Observation6Report:
    """Test the three conditions of the subharmonic-response protocol.

    (i) the static map is multistable with all peripheral eigenvalues 1,
    (ii) the kick acts block-diagonally on asymptotic vs decay spans,
    (iii) the kick restricted to the asymptotic block has eigenvalues that are
    order-th roots of unity, at least one different from 1.
    """
    if map_sd.kind != "map":
        raise ValueError("observation-6 check expects a map-kind spectrum")
    mask = map_sd.peripheral_mask()
    if map_sd.defective is not None:
        mask = mask & ~map_sd.defective
    asy = np.nonzero(mask)[0]
    dec = np.nonzero(~mask)[0]
    cond1 = asy.size > 0 and bool(
        np.max(np.abs(map_sd.eigenvalues[asy] - 1.0)) < np.sqrt(tol))
    uk = unitary_conjugation(u_kick)
    cross = 0.0
    if asy.size and dec.size:
        c1 = map_sd.left[:, dec].conj().T @ uk @ map_sd.right[:, asy]
        c2 = map_sd.left[:, asy].conj().T @ uk @ map_sd.right[:, dec]
        cross = max(np.max(np.abs(c1)), np.max(np.abs(c2)))
    cond2 = cross < tol
    block = map_sd.left[:, asy].conj().T @ uk @ map_sd.right[:, asy]
    uvals = np.linalg.eigvals(block)
    roots = np.exp(2j * np.pi * np.arange(order) / order)
    on_roots = bool(np.max(np.min(np.abs(uvals[:, None] - roots[None, :]),
                                  axis=1)) < 1e-6)
    nontrivial = bool(np.max(np.abs(uvals - 1.0)) > 1e-6)
    return Observation6Report(static_peripheral_trivial=cond1,
                              kick_block_preserving=cond2,
                              kick_subharmonic=on_roots and nontrivial,
                              kick_asymptotic_eigenvalues=uvals)


def translation_operator(length: int) -> np.ndarray:
    """One-site cyclic shift T with T Z_r T^dag = Z_{r+1 mod L}."""
    d = 2 ** length
    t = np.zeros((d, d), dtype=complex)
    for i in range(d):
        t[(i >> 1) | ((i & 1) << (length - 1)), i] = 1.0
    return t


def translation_refine(sd: SpectralData, length: int,
                       mu: int) -> SpectralData:
    """Rotate the degenerate cluster of eps_mu into translation eigenvectors.

    For a translation-invariant map the refined left/right pairs make matrix
    elements of site operators independent of the site, which the single-site
    disorder reduction relies on. Non-degenerate targets pass through.
    """
    cluster = sd.cluster(mu)
    if cluster.size == 1:
        return sd
    tsup = unitary_conjugation(translation_operator(length))
    block = sd.left[:, cluster].conj().T @ tsup @ sd.right[:, cluster]
    tvals, tvecs = np.linalg.eig(block)
    right = sd.right.copy()
    left = sd.left.copy()
    right[:, cluster] = right[:, cluster] @ tvecs
    left[:, cluster] = left[:, cluster] @ np.linalg.inv(tvecs).conj().T
    return dataclasses.replace(sd, right=right, left=left)


def disorder_susceptibility(sd: SpectralData, deltas, length: int,
                            mu: int) -> DisorderSusceptibility:
    """Linear susceptibility of eps_mu to a site-dependent kick error.

    Reports the permutation-invariant single-site reduction
    (|eps|/2) |<<l| Z_0 (.) - (.) Z_0 |r>>| sum_r delta_r, together with the
    full sum over -(i/2) delta_r <<l| [Z_r, .] E_F |r>>.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.size != length:
        raise ValueError("one disorder amplitude per site is required")
    eps = sd.eigenvalues[mu]
    l = devectorize(sd.left[:, mu])
    r = devectorize(sd.right[:, mu])
    elements = np.empty(length, dtype=complex)
    for site in range(length):
        z = np.diag(site_operator("Z", site, length)).real
        weight = z[:, None] - z[None, :]
        elements[site] = np.vdot(l, weight * r)
    single = 0.5 * abs(eps) * abs(elements[0]) * float(np.sum(deltas))
    full = 0.5 * abs(eps) * abs(np.sum(deltas * elements))
    return DisorderSusceptibility(single_site=float(single),
                                  full_sum=float(full))
