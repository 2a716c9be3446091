"""Tests for Lindblad generators and RK4 time evolution."""

import numpy as np
import pytest
import scipy.linalg

from opentc.lindblad import (JumpChannel, LindbladModel,
                             adjoint_liouvillian_action, check_state,
                             liouvillian_action, liouvillian_matrix,
                             rk4_evolve, trace_distance)
from opentc.operators import devectorize, hs_inner, pauli, vectorize


def random_model(rng, d, n_jumps=1):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    jumps = []
    for _ in range(n_jumps):
        l = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        jumps.append(JumpChannel(l, float(rng.uniform(0.1, 1.0))))
    return LindbladModel(hamiltonian=0.5 * (a + a.conj().T),
                         jumps=tuple(jumps))


def random_state(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_model_validation():
    with pytest.raises(ValueError):
        LindbladModel(hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]))
    for rate in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            JumpChannel(pauli("Z"), rate)
    with pytest.raises(ValueError):
        LindbladModel(hamiltonian=pauli("Z"), jumps=((np.eye(3), 1.0),))


def test_action_trivial_and_trace():
    model = LindbladModel(hamiltonian=np.zeros((2, 2)))
    rng = np.random.default_rng(0)
    rho = random_state(rng, 2)
    assert np.max(np.abs(liouvillian_action(model, rho))) == 0
    for _ in range(20):
        model = random_model(rng, 3, n_jumps=2)
        out = liouvillian_action(model, random_state(rng, 3))
        assert abs(np.trace(out)) < 1e-12


def test_action_dephasing_coherence():
    # on |0><1| pure dephasing with field gives (-i h - 2 kappa) |0><1|
    h, kappa = 0.7, 0.3
    model = LindbladModel(hamiltonian=0.5 * h * pauli("Z"),
                          jumps=((pauli("Z"), kappa),))
    coh = np.zeros((2, 2), dtype=complex)
    coh[0, 1] = 1.0
    out = liouvillian_action(model, coh)
    assert np.allclose(out, (-1j * h - 2 * kappa) * coh)


def test_action_preserves_hermiticity():
    rng = np.random.default_rng(1)
    model = random_model(rng, 4, n_jumps=2)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    lhs = liouvillian_action(model, a.conj().T)
    rhs = liouvillian_action(model, a).conj().T
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_matrix_matches_action():
    rng = np.random.default_rng(2)
    for _ in range(20):
        model = random_model(rng, 4, n_jumps=2)
        mat = liouvillian_matrix(model)
        rho = random_state(rng, 4)
        lhs = mat @ vectorize(rho)
        rhs = vectorize(liouvillian_action(model, rho))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_trace_functional_annihilates_generator():
    rng = np.random.default_rng(3)
    model = random_model(rng, 3, n_jumps=2)
    mat = liouvillian_matrix(model)
    tr = vectorize(np.eye(3, dtype=complex))
    assert np.max(np.abs(tr.conj() @ mat)) < 1e-12 * np.max(np.abs(mat))


def test_adjoint_conserves_identity_and_pairing():
    rng = np.random.default_rng(5)
    model = LindbladModel(hamiltonian=pauli("X"))
    out = adjoint_liouvillian_action(model, np.eye(2, dtype=complex))
    assert np.max(np.abs(out)) < 1e-14
    model = random_model(rng, 3, n_jumps=1)
    mat = liouvillian_matrix(model)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    lhs = hs_inner(a, devectorize(mat @ vectorize(b)))
    rhs = hs_inner(adjoint_liouvillian_action(model, a), b)
    assert lhs == pytest.approx(rhs)


def test_dephasing_self_adjoint_at_zero_field():
    model = LindbladModel(hamiltonian=np.zeros((2, 2)),
                          jumps=((pauli("Z"), 0.4),))
    mat = liouvillian_matrix(model)
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-14


def test_check_state():
    check_state(np.diag([0.5, 0.5]).astype(complex))
    with pytest.raises(ValueError):
        check_state(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        check_state(np.diag([0.9, 0.9]))
    with pytest.raises(ValueError):
        check_state(np.diag([1.5, -0.5]))


@pytest.mark.parametrize("d", [4, 256])
@pytest.mark.parametrize("smallest, accepted", [(-2e-8, False),
                                                (-0.5e-8, True)])
def test_check_state_psd_threshold(d, smallest, accepted):
    # STATE_PSD_TOL = 1e-8: an eigenvalue of -2e-8 is rejected, -0.5e-8 not
    rng = np.random.default_rng(d)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    u, _ = np.linalg.qr(a)
    evals = rng.uniform(0.5, 1.0, d)
    evals[0] = 0.0
    evals *= (1.0 - smallest) / evals.sum()
    evals[0] = smallest
    rho = (u * evals) @ u.conj().T
    if accepted:
        check_state(rho)
    else:
        with pytest.raises(ValueError, match="negative eigenvalue"):
            check_state(rho)


def test_rk4_zero_model_identity():
    model = LindbladModel(hamiltonian=np.zeros((2, 2)))
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    out = rk4_evolve(model, rho0, 1.0, dt=0.1)
    assert np.array_equal(out, rho0)


def test_rk4_dephasing_analytic():
    kappa = 1.0
    model = LindbladModel(hamiltonian=np.zeros((2, 2)),
                          jumps=((pauli("Z"), kappa),))
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    out = rk4_evolve(model, plus, 1.0 / kappa, dt=1e-3 / kappa)
    assert abs(out[0, 1] - 0.5 * np.exp(-2.0)) < 1e-6


def test_rk4_matches_matrix_exponential():
    rng = np.random.default_rng(6)
    model = random_model(rng, 4, n_jumps=2)
    rho0 = random_state(rng, 4)
    t = 0.5
    out = rk4_evolve(model, rho0, t, dt=1e-3)
    ref = devectorize(scipy.linalg.expm(liouvillian_matrix(model) * t)
                      @ vectorize(rho0))
    assert trace_distance(out, ref) < 1e-6


def test_rk4_rejects_bad_input():
    model = LindbladModel(hamiltonian=pauli("Z"))
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ValueError):
        rk4_evolve(model, rho0, 1.0, dt=-0.1)
    with pytest.raises(ValueError):
        rk4_evolve(model, np.diag([0.9, 0.9]), 1.0, dt=0.1)
    # a negative time took one backward step to a state that is not PSD
    for t_total in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="t_total"):
            rk4_evolve(model, rho0, t_total, dt=0.1)


def test_evolution_invariants_along_trajectory():
    rng = np.random.default_rng(7)
    model = random_model(rng, 4, n_jumps=2)
    rho = random_state(rng, 4)
    for _ in range(5):
        rho = rk4_evolve(model, rho, 0.2, dt=1e-3)
        assert abs(np.trace(rho) - 1.0) < 1e-8
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-7


def test_contractivity():
    rng = np.random.default_rng(8)
    model = random_model(rng, 3, n_jumps=2)
    prop = scipy.linalg.expm(liouvillian_matrix(model) * 0.7)
    for _ in range(20):
        rho = random_state(rng, 3)
        sigma = random_state(rng, 3)
        d0 = trace_distance(rho, sigma)
        d1 = trace_distance(devectorize(prop @ vectorize(rho)),
                            devectorize(prop @ vectorize(sigma)))
        assert d1 <= d0 + 1e-8
