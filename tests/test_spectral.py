"""Tests for the biorthogonal spectral analysis."""

import numpy as np
import pytest
import scipy.linalg

from opentc.lindblad import JumpChannel, LindbladModel, liouvillian_matrix
from opentc.operators import devectorize, pauli, vectorize
from opentc.spectral import (asymptotic_state, asymptotic_subspace, decompose,
                             dissipative_gap, dual_basis)


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
        decompose(np.eye(4), tol=0.0)
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
