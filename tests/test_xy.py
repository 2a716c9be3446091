"""Tests for the XY chain, free-fermion oracles and bath dissipators."""

import numpy as np
import pytest
import scipy.linalg

from opentc.lindblad import liouvillian_matrix, rk4_evolve
from opentc.operators import magnetization, pauli, site_operator
from opentc.xy import (BathSpec, NumericGenerator, XYParams,
                       bogoliubov_angle, brillouin_zone, dispersion,
                       energy_eigenbasis, factorized_states,
                       free_fermion_sector_energies, ground_state_pair,
                       numerical_dissipator, parity_operator,
                       secular_liouvillian, theoretical_amplitude,
                       xy_hamiltonian)


def test_params_validation():
    with pytest.raises(ValueError):
        XYParams(length=3)
    with pytest.raises(ValueError):
        XYParams(length=0)
    assert XYParams(length=4).dim == 16


def test_hamiltonian_two_sites_ising():
    # L = 2, gamma = 1, h = 0: H = -J(XX + XX) = -2J XX by periodic wrap
    p = XYParams(j=1.0, gamma=1.0, h=0.0, length=2)
    ham = xy_hamiltonian(p)
    xx = np.kron(pauli("X"), pauli("X"))
    assert np.max(np.abs(ham + 2.0 * xx)) < 1e-12


@pytest.mark.parametrize("length", [2, 4, 6])
def test_hamiltonian_matches_site_operator_products(length):
    # reference: every bond as a product of two site operators
    p = XYParams(j=0.8, gamma=0.35, h=0.6, length=length)
    ref = np.zeros((p.dim, p.dim), dtype=complex)
    for r in range(length):
        s = (r + 1) % length
        xx = site_operator("X", r, length) @ site_operator("X", s, length)
        yy = site_operator("Y", r, length) @ site_operator("Y", s, length)
        ref += 0.5 * (1.0 + p.gamma) * xx + 0.5 * (1.0 - p.gamma) * yy
        ref += p.h * site_operator("Z", r, length)
    assert np.array_equal(xy_hamiltonian(p), -p.j * ref)


def test_hamiltonian_field_term():
    p0 = XYParams(j=0.7, gamma=0.3, h=0.0, length=4)
    p1 = XYParams(j=0.7, gamma=0.3, h=0.9, length=4)
    diff = xy_hamiltonian(p1) - xy_hamiltonian(p0)
    assert np.max(np.abs(diff + 0.7 * 0.9 * magnetization("Z", 4))) < 1e-12


def test_hamiltonian_hermitian_and_parity():
    rng = np.random.default_rng(0)
    for _ in range(5):
        p = XYParams(j=float(rng.uniform(0.5, 2.0)),
                     gamma=float(rng.uniform(0.0, 1.0)),
                     h=float(rng.uniform(0.0, 1.5)), length=4)
        ham = xy_hamiltonian(p)
        assert np.max(np.abs(ham - ham.conj().T)) < 1e-12
        par = parity_operator(4)
        assert np.max(np.abs(ham @ par - par @ ham)) < 1e-12


def test_parity_operator():
    par = parity_operator(2)
    assert np.allclose(np.diag(par), [1, -1, -1, 1])
    assert np.allclose(par @ par, np.eye(4))


def test_brillouin_zone():
    assert np.allclose(brillouin_zone(4, "even"), [-1.5, -0.5, 0.5, 1.5])
    assert np.allclose(brillouin_zone(4, "odd"), [-2.0, -1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        brillouin_zone(4, "both")
    with pytest.raises(ValueError):
        brillouin_zone(3, "even")


def test_dispersion_closed_points():
    p = XYParams(j=1.0, gamma=1.0, h=0.0, length=4)
    # Ising chain at zero field: E_q = 2|sin'| with unit gap structure
    assert dispersion(p, 1.0) == pytest.approx(2.0)
    assert dispersion(p, -2.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        dispersion(p, 0.3)
    with pytest.raises(ValueError):
        dispersion(p, 5.0)


def test_dispersion_symmetry_and_angle_oddness():
    p = XYParams(j=1.3, gamma=0.6, h=0.4, length=8)
    for q in brillouin_zone(8, "even"):
        assert dispersion(p, q) == pytest.approx(dispersion(p, -q))
        assert bogoliubov_angle(p, q) == pytest.approx(-bogoliubov_angle(p, -q))


def test_bogoliubov_angle_gapless():
    p = XYParams(j=1.0, gamma=0.5, h=1.0, length=4)
    with pytest.raises(ValueError):
        bogoliubov_angle(p, 0.0)


@pytest.mark.parametrize("length", [2, 4, 6])
def test_free_fermion_matches_exact_diagonalization(length):
    rng = np.random.default_rng(length)
    for _ in range(3):
        p = XYParams(j=float(rng.uniform(0.5, 1.5)),
                     gamma=float(rng.uniform(0.1, 1.0)),
                     h=float(rng.uniform(0.0, 1.5)), length=length)
        ham = xy_hamiltonian(p)
        par = np.diag(parity_operator(length)).real
        exact = np.linalg.eigvalsh(ham)
        merged = np.sort(np.concatenate([
            free_fermion_sector_energies(p, "even"),
            free_fermion_sector_energies(p, "odd")]))
        assert np.max(np.abs(np.sort(exact) - merged)) < 1e-10
        # sector-resolved comparison
        for sector, sign in (("even", 1.0), ("odd", -1.0)):
            idx = np.nonzero(par == sign)[0]
            block = np.linalg.eigvalsh(ham[np.ix_(idx, idx)])
            oracle = free_fermion_sector_energies(p, sector)
            assert np.max(np.abs(np.sort(block) - oracle)) < 1e-10


def test_ground_state_pair_properties():
    p = XYParams(j=1.0, gamma=0.8, h=0.4, length=4)
    sp, sm, ep, em = ground_state_pair(p)
    ham = xy_hamiltonian(p)
    par = parity_operator(4)
    assert np.linalg.norm(ham @ sp - ep * sp) < 1e-10
    assert np.linalg.norm(ham @ sm - em * sm) < 1e-10
    assert np.vdot(sp, par @ sp).real == pytest.approx(1.0)
    assert np.vdot(sm, par @ sm).real == pytest.approx(-1.0)


def test_factorization_line_degeneracy():
    for gamma in (0.4, 1.0 / np.sqrt(2.0)):
        h = np.sqrt(1.0 - gamma ** 2)
        p = XYParams(j=1.0, gamma=gamma, h=h, length=6)
        fs = factorized_states(p)
        ham = xy_hamiltonian(p)
        sp, sm, ep, em = ground_state_pair(p)
        # exact two-fold ground degeneracy across parity sectors
        assert abs(ep - em) < 1e-10
        # the product states are exact eigenstates at the ground energy
        for vec in fs.states:
            assert np.linalg.norm(ham @ vec - ep * vec) < 1e-8
        # parity exchanges the two product states
        par = parity_operator(6)
        assert np.linalg.norm(par @ fs.states[0] - fs.states[1]) < 1e-12
    with pytest.raises(ValueError):
        factorized_states(XYParams(gamma=0.5, h=0.5, length=4))


def test_factorized_magnetization_amplitude():
    gamma = 0.6
    p = XYParams(j=1.0, gamma=gamma, h=np.sqrt(1.0 - gamma ** 2), length=4)
    fs = factorized_states(p)
    mx = magnetization("X", 4) / 4.0
    val = np.vdot(fs.states[0], mx @ fs.states[0]).real
    assert abs(val) == pytest.approx(theoretical_amplitude(gamma), abs=1e-12)
    assert theoretical_amplitude(1.0) == pytest.approx(1.0)
    assert theoretical_amplitude(0.0) == 0.0
    with pytest.raises(ValueError):
        theoretical_amplitude(1.5)


def test_energy_eigenbasis_diagonalizes_mz_in_clusters():
    p = XYParams(j=1.0, gamma=1.0, h=0.0, length=4)
    evals, vecs = energy_eigenbasis(p)
    ham = xy_hamiltonian(p)
    assert np.max(np.abs(vecs.conj().T @ ham @ vecs
                         - np.diag(evals))) < 1e-10
    mz = magnetization("Z", 4)
    m = vecs.conj().T @ mz @ vecs
    # inside each degenerate cluster the M_z block must be diagonal
    for i in range(evals.size):
        for j in range(evals.size):
            if i != j and abs(evals[i] - evals[j]) < 1e-8:
                assert abs(m[i, j]) < 1e-8


def test_bath_rates():
    bath = BathSpec(kappa0=0.02, beta=np.inf)
    assert bath.rate(0.0) == 0.0
    assert bath.rate(-1.0) == 0.0
    assert bath.rate(2.0) == pytest.approx(0.04)
    warm = BathSpec(kappa0=0.02, beta=2.0)
    # detailed balance: rate(w) / rate(-w) = exp(beta w)
    ratio = warm.rate(1.0) / warm.rate(-1.0)
    assert ratio == pytest.approx(np.exp(2.0))
    with pytest.raises(ValueError):
        BathSpec(kappa0=-0.1)


def test_numeric_generator_matrix_matches_action():
    p = XYParams(j=1.0, gamma=0.7, h=0.3, length=2)
    gen = NumericGenerator(p, BathSpec(0.05, np.inf))
    lmat = gen.matrix()
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    from opentc.operators import devectorize, vectorize
    lhs = devectorize(lmat @ vectorize(rho))
    assert np.max(np.abs(lhs - gen.action(rho))) < 1e-12
    # adjoint action pairs with the matrix conjugate transpose
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    lhs = devectorize(lmat.conj().T @ vectorize(b))
    assert np.max(np.abs(lhs - gen.adjoint_action(b))) < 1e-12


def test_numeric_generator_trace_preserving():
    p = XYParams(j=1.0, gamma=0.5, h=0.6, length=2)
    gen = NumericGenerator(p, BathSpec(0.05, 3.0))
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    assert abs(np.trace(gen.action(rho))) < 1e-12


def test_numeric_dissipator_protects_ground_coherence():
    # at zero temperature the ground-space coherence is exactly preserved
    gamma = 0.8
    p = XYParams(j=1.0, gamma=gamma, h=np.sqrt(1.0 - gamma ** 2), length=4)
    gen = NumericGenerator(p, BathSpec(0.05, np.inf))
    sp, sm, _, _ = ground_state_pair(p)
    rho = np.outer(sp, sm.conj())
    out = gen.action(rho)
    ham = gen.hamiltonian
    coherent = -1j * (ham @ rho - rho @ ham)
    assert np.max(np.abs(out - coherent)) < 1e-10


def test_numeric_dissipator_relaxes_to_ground_space():
    # start from the bright symmetric excited state; the antisymmetric
    # excited combination is dark under the collective M_z coupling
    p = XYParams(j=1.0, gamma=1.0, h=0.0, length=2)
    gen = NumericGenerator(p, BathSpec(0.5, np.inf))
    px = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    mx = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
    psi = (np.kron(px, mx) + np.kron(mx, px)) / np.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    for _ in range(8):
        rho = rk4_evolve(gen, rho, 5.0, dt=1e-2)
    sp, sm, ep, _ = ground_state_pair(p)
    proj = np.outer(sp, sp.conj()) + np.outer(sm, sm.conj())
    assert np.trace(proj @ rho).real > 1.0 - 1e-6


def test_secular_modes_match_numeric_spectrum_weakly():
    p = XYParams(j=1.0, gamma=0.7, h=0.2, length=2)
    bath = BathSpec(0.01, np.inf)
    sec = secular_liouvillian(p, bath, mode="independent")
    col = secular_liouvillian(p, bath, mode="collective")
    for model in (sec, col):
        w = np.linalg.eigvals(liouvillian_matrix(model))
        assert np.max(w.real) < 1e-10
    with pytest.raises(ValueError):
        secular_liouvillian(p, bath, mode="banana")


def test_secular_jumps_lower_energy_at_zero_temperature():
    p = XYParams(j=1.0, gamma=0.6, h=0.3, length=2)
    model = secular_liouvillian(p, BathSpec(0.05, np.inf), mode="independent")
    evals, vecs = energy_eigenbasis(p)
    for ch in model.jumps:
        a = vecs.conj().T @ ch.operator @ vecs
        for k in range(evals.size):
            for l in range(evals.size):
                if abs(a[k, l]) > 1e-10:
                    assert evals[l] > evals[k]


def test_secular_flat_cluster_equals_collective():
    # with a single Bohr cluster the two modes give the same generator
    p = XYParams(j=1.0, gamma=1.0, h=0.0, length=2)
    bath = BathSpec(0.05, np.inf)
    lhs = liouvillian_matrix(secular_liouvillian(p, bath, "independent"))
    rhs = liouvillian_matrix(secular_liouvillian(p, bath, "collective"))
    if lhs.shape == rhs.shape:
        pass
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_symmetry_breaking_content_of_parity_states():
    # parity eigenstates carry zero m_x; the product states carry the full
    # symmetry-breaking amplitude
    gamma = 1.0
    p = XYParams(j=1.0, gamma=gamma, h=0.0, length=2)
    fs = factorized_states(p)
    mx = magnetization("X", 2) / 2.0
    for vec in fs.parity_states:
        assert abs(np.vdot(vec, mx @ vec).real) < 1e-12
    val = np.vdot(fs.states[0], mx @ fs.states[0]).real
    assert abs(val) == pytest.approx(theoretical_amplitude(gamma), abs=1e-10)
