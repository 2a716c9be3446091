"""Tests for the biorthogonal spectral analysis."""

import numpy as np
import pytest
import scipy.linalg

from opentc.experiments import ExperimentConfig, _protocol
from opentc.floquet import floquet_propagator
from opentc.lindblad import JumpChannel, LindbladModel, liouvillian_matrix
from opentc.operators import devectorize, pauli, vectorize
from opentc.spectral import (DEFECTIVE_COND, SPECTRAL_TOL, _biorthonormalize,
                             _clusters, asymptotic_state, asymptotic_subspace,
                             decompose, dissipative_gap, dual_basis)


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
    assert dissipative_gap(sd) == np.inf


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


def test_dissipative_gap():
    kappa = 0.3
    sd = decompose(dephasing_generator(0.0, kappa), kind="generator")
    assert dissipative_gap(sd) == pytest.approx(2 * kappa)
    rng = np.random.default_rng(3)
    mat = random_generator(rng, 3)
    sd = decompose(mat, kind="generator")
    w = np.linalg.eigvals(mat)
    brute = np.min(np.abs(w.real[w.real < -1e-8]))
    assert dissipative_gap(sd) == pytest.approx(brute, rel=1e-6)


def test_asymptotic_state_dephasing_diagonal():
    sd = decompose(dephasing_generator(), kind="generator")
    asy = asymptotic_subspace(sd)
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    out = asymptotic_state(asy, rho0)
    assert np.max(np.abs(out - rho0)) < 1e-10


def test_asymptotic_state_matches_long_time_evolution():
    rng = np.random.default_rng(4)
    mat = random_generator(rng, 3)
    sd = decompose(mat, kind="generator")
    asy = asymptotic_subspace(sd)
    gap = dissipative_gap(sd)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0)
    t = 20.0 / gap
    evolved = devectorize(scipy.linalg.expm(mat * t) @ vectorize(rho0))
    asym = asymptotic_state(asy, rho0, t)
    diff = 0.5 * np.sum(np.linalg.svd(evolved - asym, compute_uv=False))
    assert diff < np.exp(-gap * t) + 1e-8


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


def l4_map_block():
    cfg = ExperimentConfig()
    _, proto = _protocol(cfg, 1.0 / np.sqrt(2.0), np.pi / 20, 4)
    return floquet_propagator(proto, proto.blocks[1])


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
    cases += [rng.normal(size=(30, 30)), repeated, jordan,
              v @ jordan @ np.linalg.inv(v), l4_map_block()]
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
        single = np.bincount(clusters)[clusters] == 1
        seen |= set(zip(single, got_defective))
    # healthy and defective, singletons and larger clusters
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
