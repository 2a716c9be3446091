"""Kicked-protocol Floquet propagators and time-crystal diagnostics."""

from __future__ import annotations

import dataclasses
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .lindblad import (HERMITICITY_TOL, TRACE_TOL, Generator, _sector_part,
                       _Terms, check_state)
from .operators import (UNITARITY_TOL, _fixed_probes, _serial_blas, _shift,
                        devectorize, hermitize, is_unitary, trace_functional,
                        vectorize, z_signs)
from .spectral import SpectralData

PROPAGATOR_TRACE_TOL = 1e-9   # times the dimension d; README "Tolerances"
ROOT_OF_UNITY_TOL = 1e-6
# The stepper refuses a period whose bound on ||L T||_1, taken in the
# evolved block's own basis, is larger: its sub-steps, and so its
# generator applications, grow in proportion to it; README "Tolerances"
PERIOD_NORM_MAX = 1e5
# The stepper splits a period into the fewest sub-steps t = T / k whose
# bound on ||t (L - mu)||_1, mu = tr L / n^2 the shift expm_multiply
# applies, is at most this. It is the right-hand side of eq. (3.13) of
# Al-Mohy & Higham (2011), 2 ell p_max (p_max + 3) theta_m_max / (n0 m_max),
# at scipy's ell = 2, p_max = 8, m_max = 55, theta_55 = 9.9 and one column
# n0 = 1: below it expm_multiply picks its Taylor degree and scaling from
# ||A||_1 alone and estimates no norm of a power of A. Evaluated in scipy's
# order, so that its own test of (3.13) holds at the constant; README
# "Tolerances"
STEP_NORM = 2 * 2 * 8 * (8 + 3) * (9.9 / 55)


@dataclass(frozen=True)
class KickedProtocol:
    """Dissipative evolution for a period, interrupted by a unitary kick.

    The kick unitary is exp(-i (pi + error) * kick_generator). A
    1-D kick generator is a diagonal, and its kick unitary is 1-D too. The
    model is a generator (lindblad.LindbladModel or xy.NumericGenerator);
    floquet_propagator uses its matrix, stroboscopic_evolve its actions.
    Both, like the generator, take a block (rows, cols) of isometries
    spanning sectors that the model and the kick keep apart.
    """

    model: Generator
    period: float
    kick_generator: np.ndarray
    error: float = 0.0

    def __post_init__(self):
        if not 0 < self.period < np.inf:    # also rejects NaN
            raise ValueError("period must be positive and finite")
        g = np.asarray(self.kick_generator, dtype=complex)
        g_dag = g.conj() if g.ndim == 1 else g.conj().T
        if np.max(np.abs(g - g_dag)) > HERMITICITY_TOL:
            raise ValueError("kick generator must be Hermitian")
        object.__setattr__(self, "kick_generator", g)

    @property
    def kick_unitary(self) -> np.ndarray:
        return _kick_unitary(self.kick_generator, self.error)


def _kick_unitary(g: np.ndarray, error: float) -> np.ndarray:
    """exp(-i (pi + error) g) of a Hermitian g; a 1-D g is a diagonal."""
    if g.ndim == 1:
        return _phases(g, error)
    evals, vecs = np.linalg.eigh(g)
    return (vecs * _phases(evals, error)) @ vecs.conj().T


def _phases(g: np.ndarray, error: float) -> np.ndarray:
    """exp(-i (pi + error) g) entrywise, for the diagonal entries g of a
    Hermitian kick generator."""
    return np.exp(-1j * (np.pi + error) * np.real(g))


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
    if not is_unitary(u):
        raise ValueError("input is not unitary within tolerance "
                         f"{UNITARITY_TOL:g}")
    return _Terms([(u, u.conj() if u.ndim == 1 else u.conj().T)])


def floquet_propagator(p: KickedProtocol, block=None) -> np.ndarray:
    """(U_K o U_K^*) exp(L T) on the block rows^dag rho cols; None is all.

    kicked(p, evolution(p, block), block): the generator block is
    exponentiated and the kick, restricted the same way, applied to it; a
    model or kick that couples the block's sectors to the rest raises
    ValueError. A caller that varies only the kick error can keep the
    evolution and call kicked for each error itself.
    """
    return kicked(p, evolution(p, block), block)


def evolution(p: KickedProtocol, block=None) -> np.ndarray:
    """exp(L T) on the block rows^dag rho cols; None is all.

    It does not depend on the kick, so not on p.error either.
    """
    return matrix_exp(p.model.matrix(block), p.period)


def kicked(p: KickedProtocol, evolved: np.ndarray, block=None,
           generators=None) -> np.ndarray:
    """The kick (U_K o U_K^*), restricted to the block, applied to `evolved`.

    `evolved` is the block's evolution(p, block). With `generators` it is
    a stack (m, n, n) of the evolutions of m blocks of n entries each,
    kicked at once, for a kick generator G that is diagonal on every side:
    `block` is then the list of the m blocks and `generators` the
    diagonal of the commutator [G, .] on each, an (m, n) array whose entry
    for r_ij is g_i - g_j, with g the diagonals of G restricted to the
    block's rows and cols (lindblad._restrict). They do not depend on
    p.error: a caller that kicks its blocks at many errors restricts G
    once per side, and only the phases exp(-i (pi + error) (g_i - g_j))
    are formed here.

    The trace functional is a left fixed point of the whole map and of
    every diagonal block, a block whose rows and cols are one object (as
    the one isometry of a Sector): a residual above PROPAGATOR_TRACE_TOL *
    d on any of them raises RuntimeError.
    """
    if generators is None:
        kick = _conjugation(p.kick_unitary).restrict(block)
        prop = kick.columns(evolved)
        blocks = [block]
    else:
        prop = _phases(generators, p.error)[:, :, None] * evolved
        blocks = block
    diagonal = [k for k, b in enumerate(blocks) if b is None or b[0] is b[1]]
    if diagonal:
        d = int(round(np.sqrt(prop.shape[-1])))
        # <<1| x sums the d rows of the diagonal entries: no BLAS call
        ones = prop.reshape(-1, d * d, d * d)[diagonal, ::d + 1].sum(1)
        resid = np.max(np.abs(ones - trace_functional(d)))
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
    V is first order only: E_F(error) = exp(-i error [G, .]) E_F(0) also
    has the error^2 term -1/2 [G, [G, E_F(0)(.)]], so susceptibility(...,
    order=2) on this V is the second-order shift of S + error V, not the
    map's error^2 coefficient (see susceptibility).
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
    The perturbation is linear in eta. A map that is not, such as the
    kicked map under a kick-angle error, whose V is rotation_error_map's,
    has a second-order coefficient with terms that order=2 leaves out:
    there it misses <<l0| -1/2 [G, [G, S r0]] >>, and the star it predicts
    was measured off by about 0.65 eta^2 at L = 4 and 0.92 eta^2 at L = 6
    (numeric generator, h = 0.9).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    sd.require_vectors()
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
    others = np.delete(np.arange(w.size), mu)
    for k in range(1, order + 1):
        vr = v @ rvecs[k - 1]
        eps[k] = np.vdot(l0, vr) - sum(
            eps[l] * np.vdot(l0, rvecs[k - l]) for l in range(1, k))
        if k < order:
            rhs = vr - sum(eps[l] * rvecs[k - l] for l in range(1, k + 1))
            # (S - eps0) r_k = -rhs, projected on each other left vector
            coeff = (sd.left[:, others].conj().T @ rhs) / (eps0 - w[others])
            rvecs[k] = sd.right[:, others] @ coeff
    return complex(eps[order])


def stroboscopic_evolve(p: KickedProtocol, rho0: np.ndarray, n: int,
                        block=None) -> Iterator[np.ndarray]:
    """Yield the states rho(kT) for k = 0..n under E_F, without building it.

    With block = (v, v), v an isometry onto a sector that the model and the
    kick keep, rho0 and every yielded state are the block r = v^dag rho v;
    None is the whole of rho. Each period is k sub-steps of t = T / k,
    each one scipy expm_multiply on the generator's action and adjoint
    action on the block, scaled by t, with traceA from its trace(),
    followed by the kick; the state is hermitized after every period. k is
    the fewest sub-steps whose bound on the shifted ||t L||_1 is at most
    STEP_NORM, so that expm_multiply estimates no norm of a power of t L.
    Each call draws the same probes for its 1-norm estimate of t L
    (operators._fixed_probes, entered once a period), so the states are
    the same in every run.
    A block of columns, such as the norm estimator's probes, reaches the
    generator as one stack of operators in one call. Arguments are checked
    when called: n must be an int >= 0 (not a bool), rho0 passes
    check_state. A non-finite trace, or one drifting from 1 by more than
    TRACE_TOL, raises RuntimeError.
    """
    if type(n) is bool or not isinstance(n, numbers.Integral):
        raise TypeError(f"number of periods must be an integer, got {n!r}")
    if n < 0:
        raise ValueError("number of periods must be >= 0")
    check_state(rho0)
    return _stroboscopic_states(p, np.asarray(rho0, dtype=complex).copy(), n,
                                block)


def _stroboscopic_states(p: KickedProtocol, rho: np.ndarray, n: int,
                         block) -> Iterator[np.ndarray]:
    yield rho
    if n == 0:
        return
    gen = p.model
    norm = p.period * gen.norm_bound(block)
    if not norm <= PERIOD_NORM_MAX:
        raise RuntimeError(f"||L T||_1 of the evolved block may reach "
                           f"{norm:.3g}, above PERIOD_NORM_MAX = "
                           f"{PERIOD_NORM_MAX:g}: a period would take too "
                           f"many generator applications")
    d = rho.shape[0]
    tra = complex(gen.trace(block)) * p.period
    steps = max(1, math.ceil((norm + abs(tra) / d ** 2) / STEP_NORM))
    op = _period_operator(gen, p.period / steps, block, d)
    kick = _conjugation(p.kick_unitary).restrict(block)
    vec = vectorize(rho)
    for _ in range(n):
        with _fixed_probes() as reseed:
            for _ in range(steps):
                reseed()
                vec = scipy.sparse.linalg.expm_multiply(op, vec,
                                                        traceA=tra / steps)
        rho = hermitize(kick.action(devectorize(vec)))
        trace = np.trace(rho)
        if not (np.isfinite(trace) and abs(trace - 1.0) <= TRACE_TOL):
            raise RuntimeError(f"trace {trace} drifted during stroboscopic "
                               f"evolution")
        yield rho
        vec = vectorize(rho)


def _period_operator(gen: Generator, t: float, block,
                     d: int) -> scipy.sparse.linalg.LinearOperator:
    """t L on row-major vectorized d x d operators, L the generator's block,
    t the stepper's sub-step.

    rmatvec is t times the adjoint action. matmat and rmatmat hand the
    columns to the generator as one stack of d x d operators, one call.
    """

    def columns(apply, m):
        out = apply(m.T.reshape(-1, d, d), block)
        return t * out.reshape(-1, d * d).T

    return scipy.sparse.linalg.LinearOperator(
        shape=(d * d, d * d), dtype=complex,
        matvec=lambda v: t * gen.action(v.reshape(d, d), block).reshape(-1),
        rmatvec=lambda v: t * gen.adjoint_action(v.reshape(d, d),
                                                 block).reshape(-1),
        matmat=lambda m: columns(gen.action, m),
        rmatmat=lambda m: columns(gen.adjoint_action, m))


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
    map_sd.require_vectors()
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
    # with no asymptotic eigenvalue, (iii) fails: nothing is nontrivial
    on_roots = bool(np.max(np.min(np.abs(uvals[:, None] - roots[None, :]),
                                  axis=1), initial=0.0) < ROOT_OF_UNITY_TOL)
    nontrivial = bool(np.max(np.abs(uvals - 1.0), initial=0.0)
                      > ROOT_OF_UNITY_TOL)
    return Observation6Report(static_peripheral_trivial=cond1,
                              kick_block_preserving=cond2,
                              kick_subharmonic=on_roots and nontrivial,
                              kick_asymptotic_eigenvalues=uvals)


def translation_refine(sd: SpectralData, length: int, mu: int,
                       block=None) -> SpectralData:
    """Rotate the degenerate cluster of eps_mu into translation eigenvectors.

    For a translation-invariant map the refined left/right pairs make matrix
    elements of site operators independent of the site, which the single-site
    disorder reduction relies on. Non-degenerate targets pass through. sd
    is the spectrum of the map's block (rows, cols); None is the whole map.
    T permutes the basis (_shift), so T rho T^dag is a gather of rho, and
    on the block it is t_rows r t_cols^dag, t_v = v^dag T v restricted
    from the gathers T v and v^dag T with lindblad._restrict's leak check.
    T keeps parity and momentum, so that is exact on their blocks.
    """
    sd.require_vectors()
    cluster = sd.cluster(mu)
    if cluster.size == 1:
        return sd
    shift = _shift(length)
    back = np.argsort(shift)            # T |back[i]> = |i>
    cols = sd.right[:, cluster].T
    if block is None:
        d = 2 ** length
        # (T rho T^dag)[i, j] = rho[back[i], back[j]]
        moved = cols.reshape(-1, d, d)[:, back][:, :, back]
    else:
        t_rows, t_cols = (_sector_part(v, v[back], v.conj().T[:, shift], 1.0)
                          for v in block)
        moved = t_rows @ cols.reshape(-1, t_rows.shape[0], t_cols.shape[0]) \
            @ t_cols.conj().T
    tmat = sd.left[:, cluster].conj().T @ moved.reshape(cluster.size, -1).T
    tvals, tvecs = np.linalg.eig(tmat)
    right = sd.right.copy()
    left = sd.left.copy()
    right[:, cluster] = right[:, cluster] @ tvecs
    left[:, cluster] = left[:, cluster] @ np.linalg.inv(tvecs).conj().T
    return dataclasses.replace(sd, right=right, left=left)


def disorder_susceptibility(sd: SpectralData, deltas, length: int, mu: int,
                            block=None) -> DisorderSusceptibility | list:
    """Linear susceptibility of eps_mu to a site-dependent kick error.

    Reports the permutation-invariant single-site reduction
    (|eps|/2) |<<l| Z_0 (.) - (.) Z_0 |r>>| sum_r delta_r, together with the
    full sum over -(i/2) delta_r <<l| [Z_r, .] E_F |r>>. sd is the spectrum
    of the map's block (rows, cols); None is the whole map. deltas is one
    sample of L amplitudes, which gives one DisorderSusceptibility, or an
    (n, L) array of n samples, which gives a list of n: the elements
    <<l| [Z_r, .] |r>> do not depend on the sample and are computed once.
    Z_r keeps the parity but not a momentum sector, so each element is
    taken between the whole-space operators rows l cols^dag and
    rows r cols^dag, one site at a time.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim not in (1, 2) or deltas.shape[-1] != length:
        raise ValueError("one disorder amplitude per site is required")
    sd.require_vectors()
    half = 0.5 * abs(sd.eigenvalues[mu])
    left, right = sd.left[:, mu], sd.right[:, mu]
    if block is None:
        left, right = devectorize(left), devectorize(right)
    else:
        rows, cols = block
        left, right = (rows @ x.reshape(rows.shape[1], cols.shape[1])
                       @ cols.conj().T for x in (left, right))
    elements = np.empty(length, dtype=complex)
    for site, z in enumerate(z_signs(length)):
        # [Z_r, R] = Z_r R - R Z_r, with Z_r diagonal
        elements[site] = np.vdot(left, z[:, None] * right - right * z)
    out = [DisorderSusceptibility(
        single_site=float(half * abs(elements[0]) * float(np.sum(row))),
        full_sum=float(half * abs(np.sum(row * elements))))
        for row in np.atleast_2d(deltas)]
    return out if deltas.ndim == 2 else out[0]
