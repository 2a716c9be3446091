"""Tests for the biorthogonal spectral analysis."""

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from opentc import floquet, spectral
from opentc.experiments import (ExperimentConfig, _field_setup, _kick,
                                _classes, _partner, _protocol)
from opentc.floquet import floquet_propagator
from opentc.lindblad import (HERMITICITY_TOL, JumpChannel, LindbladModel,
                             liouvillian_matrix)
from opentc.models import dfs_independent_model
from opentc.operators import Sector, devectorize, pauli, vectorize
from opentc.spectral import (DEFECTIVE_COND, SPECTRAL_TOL, _biorthonormal,
                             _biorthonormalize, _clusters, _hermitian_basis,
                             _real_eig, _real_form, asymptotic_subspace,
                             decompose, dual_basis, mirror, split)


def dephasing_generator(h=0.0, kappa=0.5):
    model = LindbladModel(hamiltonian=0.5 * h * pauli("Z"),
                          jumps=((pauli("Z"), kappa),))
    return liouvillian_matrix(model)


def random_generator(rng, d, n_jumps=2):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    jumps = tuple(JumpChannel(rng.normal(size=(d, d))
                              + 1j * rng.normal(size=(d, d)),
                              float(rng.uniform(0.1, 1.0)))
                  for _ in range(n_jumps))
    model = LindbladModel(hamiltonian=0.5 * (a + a.conj().T), jumps=jumps)
    return liouvillian_matrix(model)


def test_input_validation():
    with pytest.raises(ValueError):
        decompose(np.eye(4), kind="banana")
    with pytest.raises(ValueError):
        decompose(np.ones((2, 3)))


def test_dephasing_spectrum():
    kappa = 0.5
    sd = decompose(dephasing_generator(0.0, kappa), kind="generator")
    expected = np.sort_complex(np.array([0, 0, -2 * kappa, -2 * kappa],
                                        dtype=complex))
    assert np.max(np.abs(np.sort_complex(sd.eigenvalues) - expected)) < 1e-12


def test_unitary_qubit_spectrum():
    h = 0.8
    model = LindbladModel(hamiltonian=0.5 * h * pauli("Z"))
    sd = decompose(liouvillian_matrix(model), kind="generator")
    expected = np.sort_complex(np.array([0, 0, -1j * h, 1j * h]))
    assert np.max(np.abs(np.sort_complex(sd.eigenvalues) - expected)) < 1e-12


def test_biorthonormality_and_reconstruction():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mat = random_generator(rng, 3)
        sd = decompose(mat, kind="generator")
        gram = sd.left.conj().T @ sd.right
        assert np.max(np.abs(gram - np.eye(9))) < 1e-8
        recon = (sd.right * sd.eigenvalues) @ sd.left.conj().T
        assert np.max(np.abs(recon - mat)) < 1e-7 * np.max(np.abs(mat))


def test_generator_spectrum_properties():
    rng = np.random.default_rng(1)
    for _ in range(20):
        sd = decompose(random_generator(rng, 3), kind="generator")
        w = sd.eigenvalues
        assert np.max(w.real) < 1e-9
        # complex eigenvalues come in conjugate pairs
        for lam in w[np.abs(w.imag) > 1e-8]:
            assert np.min(np.abs(w - lam.conjugate())) < 1e-8


def test_trace_functional_left_eigenvector():
    rng = np.random.default_rng(2)
    mat = random_generator(rng, 4)
    tr = vectorize(np.eye(4, dtype=complex))
    assert np.linalg.norm(tr.conj() @ mat) < 1e-9 * np.linalg.norm(mat)


def test_asymptotic_subspace_dephasing():
    sd = decompose(dephasing_generator(), kind="generator")
    asy = asymptotic_subspace(sd)
    assert asy.dim == 2
    # conserved quantities span the Z-diagonal projectors
    duals = dual_basis(asy, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert np.max(np.abs(duals[0] - np.diag([1.0, 0.0]))) < 1e-8
    assert np.max(np.abs(duals[1] - np.diag([0.0, 1.0]))) < 1e-8


def test_asymptotic_subspace_empty_is_error():
    sd = decompose(np.diag([-1.0, -2.0, -3.0, -4.0]), kind="generator")
    with pytest.raises(ValueError):
        asymptotic_subspace(sd)


def test_map_kind_and_peripheral():
    mat = scipy.linalg.expm(dephasing_generator(0.4, 0.5))
    sd = decompose(mat, kind="map")
    assert np.max(np.abs(sd.eigenvalues)) < 1 + 1e-9
    mask = sd.peripheral_mask()
    assert mask.sum() == 2
    asy = asymptotic_subspace(sd)
    assert asy.dim == 2


def test_defective_cluster_flagged():
    mat = np.array([[0.0, 1.0], [0.0, 0.0]])
    sd = decompose(mat, kind="generator")
    assert sd.defective is not None and sd.defective.all()


def test_cluster_labels_at_decompose_tolerance():
    w = np.array([0.5, 0.5 + 1e-9, 0.5 + 5e-7, 0.1], dtype=complex)
    sd = decompose(np.diag(w), kind="map")
    for mu, lam in enumerate(sd.eigenvalues):
        near = np.nonzero(np.abs(sd.eigenvalues - lam) < sd.peripheral_tolerance)
        assert sd.cluster(mu).tolist() == near[0].tolist()
    assert sorted(len(sd.cluster(mu)) for mu in range(4)) == [1, 1, 2, 2]


def breadth_first_clusters(values, tol):
    """The former cluster search, kept as the reference for the labels."""
    n = values.size
    close = np.abs(values[:, None] - values[None, :]) < tol
    seen = np.zeros(n, dtype=bool)
    labels = np.empty(n, dtype=int)
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        while stack:
            i = stack.pop()
            labels[i] = count
            for j in np.nonzero(close[i] & ~seen)[0]:
                seen[j] = True
                stack.append(j)
        count += 1
    return labels


def test_clusters_match_breadth_first_reference():
    # chains of eigenvalues with steps below the tolerance: a cluster may
    # spread wider than the tolerance, and it still is one cluster
    rng = np.random.default_rng(11)
    for _ in range(30):
        centers = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
        w = np.concatenate([
            c + np.cumsum(SPECTRAL_TOL * rng.uniform(0.2, 0.9, k)
                          * np.exp(2j * np.pi * rng.uniform(size=k)))
            for c, k in zip(centers, rng.integers(1, 5, 8))])
        q, _ = np.linalg.qr(rng.normal(size=(w.size, w.size))
                            + 1j * rng.normal(size=(w.size, w.size)))
        sd = decompose((q * w) @ q.conj().T, kind="map")
        assert np.array_equal(sd.clusters,
                              breadth_first_clusters(sd.eigenvalues,
                                                     SPECTRAL_TOL))
        assert sd.clusters.max() + 1 < w.size


def test_eigenvalue_order_ignores_rounding_noise():
    # equal real parts (a conjugate pair and a third value) split by noise
    # of 1e-14; the order must follow the rounded keys, not the noise
    rng = np.random.default_rng(7)
    w = np.array([1.0, -0.5 + 0.3j, -0.5 - 0.3j, -0.5 + 0.1j, -0.2, 0.4j,
                  -0.4j, -0.9])
    v = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    s = v @ np.diag(w) @ np.linalg.inv(v)
    ref = decompose(s, kind="map").eigenvalues
    for _ in range(5):
        noise = 1e-14 * (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        got = decompose(s + noise, kind="map").eigenvalues
        assert np.max(np.abs(got - ref)) < 1e-10


def test_clusters_with_shared_real_parts_match_breadth_first_reference():
    # exact values: conjugate pairs, a column of equal real parts (so the
    # sorted neighbour search runs past the first offset), duplicates and
    # a chain wider than the tolerance
    rng = np.random.default_rng(12)
    column = -0.3 + 1j * SPECTRAL_TOL * np.arange(-20, 21) * 0.7
    chain = 0.2 + np.cumsum(np.full(6, 0.8 * SPECTRAL_TOL))
    pairs = rng.uniform(-1, 1, 10) + 1j * rng.uniform(0.1, 1, 10)
    for w in (np.concatenate([column, chain, pairs, pairs.conj(),
                              np.zeros(5), np.full(3, 1j)]),
              np.full(7, 0.5), np.array([0.25]), 1j * np.arange(30.0)):
        w = w[rng.permutation(w.size)]
        count, labels = _clusters(w)
        assert np.array_equal(labels, breadth_first_clusters(w, SPECTRAL_TOL))
        assert count == labels.max() + 1


def graph_components(w):
    """scipy's connected components of |w_i - w_j| < SPECTRAL_TOL."""
    close = np.abs(w[:, None] - w[None, :]) < SPECTRAL_TOL
    return connected_components(scipy.sparse.csr_array(close),
                                directed=False)


# a cluster: its first value, then steps of a chain (fractions of the
# tolerance, below 1 joins, above 1 may not), then near-duplicates
CLUSTER = st.tuples(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                       allow_infinity=False),
    st.lists(st.tuples(st.floats(0.05, 1.5), st.floats(0.0, 2 * np.pi)),
             max_size=5),
    st.integers(0, 3))


@settings(max_examples=100, deadline=None)
@given(st.lists(CLUSTER, min_size=1, max_size=12), st.randoms())
def test_clusters_match_graph_components(clusters, rnd):
    w = []
    for start, steps, duplicates in clusters:
        chain = start + np.cumsum([0.0] + [
            frac * SPECTRAL_TOL * np.exp(1j * angle) for frac, angle in steps])
        w += list(chain)
        w += [chain[-1] + 1e-15 * (k + 1) * (1 - 1j) for k in range(duplicates)]
    w = np.array(w, dtype=complex)
    rnd.shuffle(w)
    count, labels = _clusters(w)
    want_count, want = graph_components(w)
    assert count == want_count
    assert np.array_equal(labels, want)
    # labels count up in the order of each cluster's first member
    first = np.unique(labels, return_index=True)[1]
    assert np.array_equal(labels[np.sort(first)], np.arange(count))


def per_cluster_biorthonormalize(vl, vr, clusters):
    """decompose's former loop: one svd and one inv per cluster, also 1 x 1."""
    vl = vl.copy()
    defective = np.zeros(clusters.size, dtype=bool)
    for label in range(clusters.max() + 1):
        idx = np.nonzero(clusters == label)[0]
        gram = vl[:, idx].conj().T @ vr[:, idx]
        svals = np.linalg.svd(gram, compute_uv=False)
        if svals.min() < max(1.0, svals.max()) / DEFECTIVE_COND:
            defective[idx] = True
            continue
        vl[:, idx] = vl[:, idx] @ np.linalg.inv(gram).conj().T
    return vl, defective


def parity_sides(length):
    """The isometries of the P = +1 and P = -1 Sectors."""
    return tuple(Sector(length, parity=p).isometry for p in (1, -1))


def l4_map_block():
    cfg = ExperimentConfig()
    _, proto = _protocol(cfg, 1.0 / np.sqrt(2.0), np.pi / 20, 4)
    plus, minus = parity_sides(4)
    return floquet_propagator(proto, (plus, minus))


def test_singleton_step_matches_per_cluster_loop():
    rng = np.random.default_rng(21)
    v = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    repeated = v @ np.diag([0.5, 0.5, 0.5, -0.2, -0.2, 1.0, 0.3j, -0.3j,
                            0.7, 0.1, -0.9, 0.2]) @ np.linalg.inv(v)
    # a 4 x 4 Jordan block: exact, one defective cluster; in a random
    # basis, rounding splits it into four defective singletons
    jordan = np.diag(np.full(4, 0.3 + 0.2j)) + np.diag(np.ones(3), 1)
    jordan = scipy.linalg.block_diag(jordan, np.diag(rng.normal(size=3)))
    v = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    cases = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
             for n in (2, 7, 40)]
    # clusters of size 2: two Jordan blocks among healthy pairs
    pairs = [np.array([[0.3 + 0.1j, 1.0], [0.0, 0.3 + 0.1j]]),
             np.array([[-0.4, 1.0], [0.0, -0.4]])]
    for value in (0.5, -0.7j):
        basis = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        pairs.append(basis @ np.diag([value, value, value + 0.2])
                     @ np.linalg.inv(basis))
    cases += [rng.normal(size=(30, 30)), repeated, jordan,
              v @ jordan @ np.linalg.inv(v), l4_map_block(),
              scipy.linalg.block_diag(*pairs)]
    seen = set()
    for s in cases:
        w, vl, vr = scipy.linalg.eig(s, left=True, right=True)
        clusters = _clusters(w)[1]
        ref_vl, ref_defective = per_cluster_biorthonormalize(vl, vr, clusters)
        got_vl = vl.copy()
        got_defective = _biorthonormalize(got_vl, vr, clusters)
        assert np.array_equal(got_defective, ref_defective)
        assert (np.max(np.abs(got_vl - ref_vl))
                <= 1e-14 * np.max(np.abs(ref_vl)))
        seen |= set(zip(np.bincount(clusters)[clusters], got_defective))
    # healthy and defective clusters of several sizes, both kinds of
    # size 2 in the last case
    assert {(1, True), (1, False), (2, True), (2, False), (3, False),
            (4, True)} <= seen


def _matched_distance(a, b) -> float:
    """Largest distance between two multisets of eigenvalues, best matched."""
    rows, cols = scipy.optimize.linear_sum_assignment(
        np.abs(a[:, None] - b[None, :]))
    return float(np.max(np.abs(a[rows] - b[cols])))


def _residual(vl, vr) -> float:
    return float(np.max(np.abs(vl.conj().T @ vr - np.eye(vr.shape[1]))))


@pytest.mark.parametrize("length", [2, 4])
@pytest.mark.parametrize("mode", ["numeric", "independent", "collective"])
def test_real_path_matches_complex_path_on_parity_blocks(length, mode):
    cfg = ExperimentConfig(dissipator_mode=mode)
    _, proto = _protocol(cfg, 0.5, np.pi / 20, length)
    sides = parity_sides(length)
    for kind in ("generator", "map"):
        for a, b in ((0, 0), (0, 1), (1, 1)):
            block = (sides[a], sides[b])
            s = (proto.model.matrix(block) if kind == "generator"
                 else floquet_propagator(proto, block))
            real = _real_eig(s)
            # only the diagonal blocks preserve Hermiticity
            assert (real is not None) == (a == b), (kind, a, b)
            if real is None:
                continue
            w, vl, vr, _, defective = _biorthonormal(*real)
            cw, cvl, cvr, _, cdefective = _biorthonormal(
                *scipy.linalg.eig(s, left=True, right=True))
            assert _matched_distance(w, cw) < 1e-12, (kind, a)
            assert np.array_equal(defective, cdefective), (kind, a)
            assert not defective.any(), (kind, a)
            # the vectors mapped back are eigenvectors of s itself
            scale = np.max(np.abs(s))
            assert np.max(np.abs(s @ vr - vr * w)) < 1e-12 * scale
            assert (np.max(np.abs(vl.conj().T @ s - w[:, None] * vl.conj().T))
                    < 1e-12 * scale * np.max(np.abs(vl)))
            # no worse than the complex path's; at L = 2 that reaches 2e-9
            # on the generator's (-, -) block, with left vectors of norm 1e7
            assert (_residual(vl, vr)
                    < max(1e-12, _residual(cvl, cvr))), (kind, a)
            # decompose takes the real path on these blocks
            sd = decompose(s, kind=kind)
            assert np.array_equal(sd.eigenvalues, w), (kind, a)
            assert np.array_equal(sd.right, vr), (kind, a)


def test_real_path_needs_hermiticity_preservation(monkeypatch):
    cfg = ExperimentConfig()
    _, proto = _protocol(cfg, 1.0 / np.sqrt(2.0), np.pi / 20, 4)
    plus = parity_sides(4)[0]
    s = floquet_propagator(proto, (plus, plus))
    # entry (1, 2) is rho_01 -> rho_02; its partner is rho_10 -> rho_20
    kick = np.zeros_like(s)
    kick[1, 2] = 1j * HERMITICITY_TOL
    rng = np.random.default_rng(5)
    random = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    eig = scipy.linalg.eig
    seen = []

    def recording(m, *args, **kwargs):
        seen.append(m.dtype)
        return eig(m, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eig", recording)
    for m in (s, s + 0.5 * kick, s + 10 * kick, random):
        sd = decompose(m, kind="map")
        assert _residual(sd.left, sd.right) < 1e-10
    assert seen == [np.float64, np.float64, np.complex128, np.complex128]


def test_real_path_gives_exact_conjugate_pairs():
    cfg = ExperimentConfig()
    _, proto = _protocol(cfg, 1.0 / np.sqrt(2.0), np.pi / 20, 4)
    plus = parity_sides(4)[0]
    w = decompose(floquet_propagator(proto, (plus, plus)),
                  kind="map").eigenvalues
    pairs = w[w.imag != 0]
    assert pairs.size >= 2
    assert np.all(np.isin(pairs.conj(), w))


def test_hermitian_basis_is_unitary_and_hermitian():
    d = 3
    alpha, beta = _hermitian_basis(d)
    perm = np.arange(d * d).reshape(d, d).T.reshape(-1)
    t = np.zeros((d * d, d * d), dtype=complex)
    t[np.arange(d * d), np.arange(d * d)] += alpha
    t[perm, np.arange(d * d)] += beta
    assert np.max(np.abs(t.conj().T @ t - np.eye(d * d))) < 1e-15
    for col in t.T:
        op = devectorize(col)
        assert np.array_equal(op, op.conj().T)
    s = random_generator(np.random.default_rng(2), d)
    assert np.max(np.abs((t.conj().T @ s @ t).imag)) < 1e-12


def assert_eigenvalues_only_matches(s, kind):
    """decompose(s, vectors=False) against decompose(s): the same
    eigenvalues within 1e-12, in the same order, and no vectors or
    cluster labels."""
    full = decompose(s, kind=kind)
    bare = decompose(s, kind=kind, vectors=False)
    assert bare.right is None and bare.left is None
    assert bare.defective is None and bare.clusters is None
    assert bare.kind == kind
    assert np.max(np.abs(bare.eigenvalues - full.eigenvalues)) < 1e-12


@pytest.fixture
def eigvals_inputs(monkeypatch):
    """The dtype of every matrix, or stack of them, that decompose hands
    to numpy's eigvals."""
    eigvals, seen = np.linalg.eigvals, []

    def recording(a, *args, **kwargs):
        seen.append(a.dtype)
        return eigvals(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    return seen


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(0, 3),
       st.sampled_from(["generator", "map"]))
def test_eigenvalues_only_matches_full_on_the_real_path(seed, d, n_jumps,
                                                        kind):
    # Lindblad generators and their exponentials preserve Hermiticity
    s = random_generator(np.random.default_rng(seed), d, n_jumps)
    if kind == "map":
        s = floquet.matrix_exp(s, 0.3)
    assert _real_form(s) is not None
    assert_eigenvalues_only_matches(s, kind)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12))
def test_eigenvalues_only_matches_full_on_the_complex_path(seed, n):
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert _real_form(s) is None
    assert_eigenvalues_only_matches(s, "map")


def test_eigenvalues_only_stays_real_where_full_falls_back(monkeypatch,
                                                           eigvals_inputs):
    # the DFS generator's four exact zeros leave real eig a defective
    # cluster, so the full decompose runs complex eig as well; eigenvalues
    # alone need no vectors and stay on the real path
    s = liouvillian_matrix(dfs_independent_model())
    eig, eig_inputs = scipy.linalg.eig, []

    def recording(a, *args, **kwargs):
        eig_inputs.append(a.dtype)
        return eig(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eig", recording)
    assert_eigenvalues_only_matches(s, "generator")
    assert eig_inputs == [np.float64, np.complex128]
    assert eigvals_inputs == [np.float64]
    assert np.sum(np.abs(decompose(s, vectors=False).eigenvalues) < 1e-12) == 4


def test_eigenvalues_only_takes_the_real_path_on_diagonal_blocks(
        eigvals_inputs):
    cfg = ExperimentConfig()
    _, proto = _protocol(cfg, 1.0 / np.sqrt(2.0), np.pi / 20, 4)
    plus, minus = parity_sides(4)
    for block in ((plus, plus), (plus, minus), (minus, minus)):
        decompose(floquet_propagator(proto, block), kind="map", vectors=False)
    assert eigvals_inputs == [np.float64, np.complex128, np.float64]


def test_stack_decomposes_as_each_matrix_alone(eigvals_inputs):
    # the default L = 4 map's (k, P) blocks of 4 x 4 matrices mix diagonal
    # blocks, which have a real form, with off-diagonal ones: one stack
    # splits into each block's own eigenvalues, bit for bit
    cfg = ExperimentConfig()
    setup = _field_setup(cfg, 0.5, 4)
    sides = setup[1]
    pairs = next(p for p in _classes(sides, _partner(4))[0]
                 if len({a == b for a, b in p}) == 2)
    stack = _kick(*setup, np.pi / 20)(pairs)
    sd = decompose(stack, kind="map", vectors=False)
    assert eigvals_inputs == [np.float64, np.complex128]
    assert sd.right is None and sd.defective is None
    assert sd.size == stack.shape[0] * stack.shape[1]
    parts = split(sd, len(pairs))
    mirrored = split(mirror(sd, None, len(pairs)), len(pairs))
    for s, part, m in zip(stack, parts, mirrored, strict=True):
        alone = decompose(s, kind="map", vectors=False)
        assert np.array_equal(part.eigenvalues, alone.eigenvalues)
        assert np.array_equal(m.eigenvalues, mirror(alone, None).eigenvalues)
        assert part.clusters is None and m.clusters is None


def test_stack_in_parts_gives_the_same_bits(monkeypatch, eigvals_inputs):
    # a stack larger than STACK_PART_BYTES goes to LAPACK in parts, each
    # with its own real and complex stacks; the eigenvalues do not change
    cfg = ExperimentConfig()
    setup = _field_setup(cfg, 0.5, 4)
    pairs = next(p for p in _classes(setup[1], _partner(4))[0]
                 if len({a == b for a, b in p}) == 2)
    stack = np.concatenate([_kick(*setup, eta)(pairs)
                            for eta in (0.0, np.pi / 40, np.pi / 20)])
    whole = decompose(stack, kind="map", vectors=False).eigenvalues
    assert len(eigvals_inputs) == 2
    monkeypatch.setattr(spectral, "STACK_PART_BYTES", 5 * stack[0].nbytes)
    eigvals_inputs.clear()
    parts = decompose(stack, kind="map", vectors=False).eigenvalues
    assert len(eigvals_inputs) > 2 * (len(stack) // 5)
    assert np.array_equal(parts, whole)
    assert decompose(stack[:0], kind="map", vectors=False).size == 0


def test_stack_lists_each_matrix_in_decompose_order():
    s = np.diag([0.5, 1.0, 0.5 + 1e-12])
    sd = decompose(np.stack([s, 1j * s]), kind="map", vectors=False)
    assert np.array_equal(sd.eigenvalues,
                          [1.0, 0.5 + 1e-12, 0.5, 1j, 0.5j + 1e-12j, 0.5j])
    first, second = split(sd, 2)
    assert np.array_equal(first.eigenvalues, [1.0, 0.5 + 1e-12, 0.5])
    assert np.array_equal(second.eigenvalues, [1j, 0.5j + 1e-12j, 0.5j])
    # the mirror of the stack orders each matrix's conjugates
    assert np.array_equal(mirror(sd, None, 2).eigenvalues,
                          [1.0, 0.5 + 1e-12, 0.5, -0.5j, -0.5j - 1e-12j, -1j])
    with pytest.raises(ValueError, match="without vectors"):
        decompose(np.stack([s, s]), kind="map")
    with pytest.raises(ValueError, match="without vectors"):
        split(decompose(s, kind="map"), 1)


_VECTOR_READERS = {
    "susceptibility": lambda sd: floquet.susceptibility(sd, np.eye(4), 0),
    "translation_refine": lambda sd: floquet.translation_refine(sd, 1, 0),
    "disorder_susceptibility": lambda sd: floquet.disorder_susceptibility(
        sd, [0.0], 1, 0),
    "check_observation6": lambda sd: floquet.check_observation6(
        sd, np.eye(2)),
    "asymptotic_subspace": asymptotic_subspace,
    "right_operator": lambda sd: sd.right_operator(0),
    "left_operator": lambda sd: sd.left_operator(0),
}


@pytest.mark.parametrize("reader", sorted(_VECTOR_READERS))
def test_vector_readers_reject_an_eigenvalues_only_spectrum(reader):
    s = floquet.matrix_exp(dephasing_generator(0.3), 1.0)
    read = _VECTOR_READERS[reader]
    read(decompose(s, kind="map"))      # runs on the full spectrum
    with pytest.raises(ValueError, match=r"decompose\(\.\.\., vectors=True\)"):
        read(decompose(s, kind="map", vectors=False))
