"""Tests for the kicked protocol, diagnostics and susceptibilities."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from opentc import floquet
from opentc.floquet import (KickedProtocol, _period_operator,
                            check_observation6,
                            disorder_susceptibility, find_star,
                            floquet_propagator, matrix_exp,
                            rotation_error_map, stroboscopic_evolve,
                            susceptibility, translation_refine)
from opentc.lindblad import (JumpChannel, LindbladModel, liouvillian_matrix,
                             rk4_evolve, trace_distance)
from opentc.models import bell_basis, dfs_collective_model
from opentc.operators import (Sector, _shift, devectorize, magnetization,
                              pauli, sandwich, site_operator,
                              unitary_conjugation, vectorize, z_signs)
from opentc.spectral import decompose
from opentc.xy import (BathSpec, NumericGenerator, XYParams,
                       secular_liouvillian)


def dephasing(h=0.0, kappa=0.5):
    return LindbladModel(hamiltonian=0.5 * h * pauli("Z"),
                         jumps=((pauli("Z"), kappa),))


def x_kick_protocol(kappa=0.5, period=1.0, error=0.0):
    return KickedProtocol(model=dephasing(0.0, kappa), period=period,
                          kick_generator=0.5 * pauli("X"), error=error)


def random_model(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    jump = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return LindbladModel(hamiltonian=0.5 * (a + a.conj().T),
                         jumps=(JumpChannel(jump, float(rng.uniform(0.1, 1.0))),))


def random_kick(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


def random_state(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class UniformDecay:
    """L(rho) = -rho on a qubit: the generator interface, not trace preserving."""

    def action(self, rho, block=None):
        return -rho

    def adjoint_action(self, a, block=None):
        return -a

    def matrix(self, block=None):
        n = 2 if block is None else block[0].shape[1]
        return -np.eye(n * n, dtype=complex)

    def trace(self, block=None):
        return -self.matrix(block).shape[0]

    def norm_bound(self, block=None):
        return 1.0

    def covariant_split(self, block=None):
        return None


def test_protocol_validation():
    with pytest.raises(ValueError):
        KickedProtocol(model=dephasing(), period=0.0,
                       kick_generator=pauli("X"))
    with pytest.raises(ValueError):
        KickedProtocol(model=dephasing(), period=1.0,
                       kick_generator=np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):   # a 1-D generator is a diagonal
        KickedProtocol(model=dephasing(), period=1.0,
                       kick_generator=np.array([0.5, 0.5j]))


@pytest.mark.parametrize("period", [np.nan, np.inf, -np.inf])
def test_protocol_rejects_non_finite_period(period):
    # they would fail later, as an overflowed matrix exponential
    with pytest.raises(ValueError, match="finite"):
        KickedProtocol(model=dephasing(), period=period,
                       kick_generator=pauli("X"))


def test_matrix_exp():
    assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3))
    kappa = 0.4
    lmat = liouvillian_matrix(dephasing(0.0, kappa))
    coh = np.zeros((2, 2), dtype=complex)
    coh[0, 1] = 1.0
    out = matrix_exp(lmat, 0.7) @ vectorize(coh)
    assert abs(devectorize(out)[0, 1] - np.exp(-2 * kappa * 0.7)) < 1e-12
    # semigroup law
    lhs = matrix_exp(lmat, 0.3) @ matrix_exp(lmat, 0.4)
    assert np.max(np.abs(lhs - matrix_exp(lmat, 0.7))) < 1e-9


def test_propagator_trivial():
    proto = KickedProtocol(model=LindbladModel(hamiltonian=np.zeros((2, 2))),
                           period=1.0, kick_generator=np.zeros((2, 2)))
    assert np.allclose(floquet_propagator(proto), np.eye(4))


def test_dephasing_floquet_spectrum():
    kappa, period = 0.5, 1.0
    ef = floquet_propagator(x_kick_protocol(kappa, period))
    w = np.sort_complex(np.linalg.eigvals(ef))
    decay = np.exp(-2 * kappa * period)
    expected = np.sort_complex(np.array([1, -1, decay, -decay], dtype=complex))
    assert np.max(np.abs(w - expected)) < 1e-10


def test_find_star():
    sd = decompose(floquet_propagator(x_kick_protocol()), kind="map")
    diag = find_star(sd, order=2, period=1.0)
    assert sd.eigenvalues[diag.index] == diag.star_eigenvalue
    assert abs(diag.star_eigenvalue + 1.0) < 1e-12
    assert diag.floquet_gap == pytest.approx(0.0, abs=1e-12)
    assert diag.tc_distance < 1e-12
    ident = decompose(np.eye(4, dtype=complex), kind="map")
    diag = find_star(ident, order=2)
    assert ident.eigenvalues[diag.index] == diag.star_eigenvalue
    assert diag.star_eigenvalue == pytest.approx(1.0)
    assert diag.tc_distance == pytest.approx(2.0)


def test_find_star_ties_prefer_nonnegative_imaginary_part():
    # a conjugate pair around -1 ties within decompose's tolerance even when
    # rounding puts the Im < 0 member nearer; a clearly nearer one still wins
    pair = -0.99 - 0.02j
    sd = decompose(np.diag([pair, pair.conjugate() + 1e-12, 1.0, 0.5]),
                   kind="map")
    star = find_star(sd, order=2).star_eigenvalue
    assert star == pytest.approx(pair.conjugate(), abs=1e-11)
    assert star.imag > 0
    sd = decompose(np.diag([pair, -0.98 + 0.02j, 1.0]), kind="map")
    assert find_star(sd, order=2).star_eigenvalue == pair


def test_susceptibility_near_degenerate_pair():
    # eigenvalues 5e-7 apart are distinct clusters of decompose (tolerance
    # 1e-8), so chi1 is <<l|V|r>>, not an eigenvalue of the pair's block
    rng = np.random.default_rng(11)
    r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    s = r @ np.diag([0.5, 0.5 + 5e-7, 0.1, -0.3]) @ np.linalg.inv(r)
    v = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    sd = decompose(s, kind="map")
    mu = int(np.argmin(np.abs(sd.eigenvalues - 0.5)))
    assert sd.cluster(mu).tolist() == [mu]
    exact = (np.linalg.inv(r) @ v @ r)[0, 0]

    def eig_at(eta):
        w = np.linalg.eigvals(s + eta * v)
        return w[np.argmin(np.abs(w - 0.5))]

    fd = (eig_at(1e-11) - eig_at(-1e-11)) / 2e-11
    assert abs(fd - exact) < 1e-3 * abs(exact)
    assert abs(susceptibility(sd, v, mu) - exact) < 1e-8 * abs(exact)


def test_rotation_error_map_finite_difference():
    eta = 1e-4
    proto = x_kick_protocol()
    vmap = rotation_error_map(proto)
    ef0 = floquet_propagator(proto)
    ef1 = floquet_propagator(x_kick_protocol(error=eta))
    fd = (ef1 - ef0) / eta
    assert np.max(np.abs(fd - vmap)) < 10 * eta


def test_dephasing_chi1_vanishes():
    sd = decompose(floquet_propagator(x_kick_protocol()), kind="map")
    vmap = rotation_error_map(x_kick_protocol())
    mu = int(np.argmin(np.abs(sd.eigenvalues + 1.0)))
    assert abs(susceptibility(sd, vmap, mu, order=1)) < 1e-9


def test_susceptibility_matches_finite_difference():
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(20):
        model = random_model(rng, 2)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        proto = KickedProtocol(model=model, period=0.7,
                               kick_generator=0.5 * (g + g.conj().T))
        sd = decompose(floquet_propagator(proto), kind="map")
        vmap = rotation_error_map(proto)
        # pick the best isolated eigenvalue as the target
        w = sd.eigenvalues
        seps = [np.min(np.abs(np.delete(w, i) - w[i])) for i in range(w.size)]
        mu = int(np.argmax(seps))
        if seps[mu] < 1e-4:
            continue
        chi = susceptibility(sd, vmap, mu, order=1)
        eta = 1e-5
        wp = np.linalg.eigvals(floquet_propagator(
            KickedProtocol(model=model, period=0.7,
                           kick_generator=proto.kick_generator, error=eta)))
        wm = np.linalg.eigvals(floquet_propagator(
            KickedProtocol(model=model, period=0.7,
                           kick_generator=proto.kick_generator, error=-eta)))
        fd = (wp[np.argmin(np.abs(wp - w[mu]))]
              - wm[np.argmin(np.abs(wm - w[mu]))]) / (2 * eta)
        assert abs(chi - fd) < 1e-4 * max(1.0, abs(fd))
        hits += 1
    assert hits >= 15


def test_susceptibility_second_order():
    # second derivative of an isolated decaying eigenvalue of S + eta V, by
    # central difference; the kicked map at error eta has an O(eta^2) kick
    # term besides, which susceptibility does not model
    proto = x_kick_protocol(kappa=0.8)
    ef = floquet_propagator(proto)
    sd = decompose(ef, kind="map")
    vmap = rotation_error_map(proto)
    w = sd.eigenvalues
    # the decaying mode with the smallest real part, -0.2019; the other
    # one, +0.2019, and the stationary mode have chi2 = 0
    mu = int(np.flatnonzero(~sd.peripheral_mask())[-1])
    assert sd.cluster(mu).size == 1
    chi2 = susceptibility(sd, vmap, mu, order=2)
    eta = 1e-4

    def eig_at(err):
        wp = np.linalg.eigvals(ef + err * vmap)
        return wp[np.argmin(np.abs(wp - w[mu]))]

    fd2 = (eig_at(eta) - 2 * w[mu] + eig_at(-eta)) / eta ** 2
    assert abs(chi2) > 0.1
    assert abs(chi2 - fd2 / 2.0) < 1e-6


def test_susceptibility_closed_form_two_level():
    # S = diag(a, b), V = [[0, c], [e, 0]]: the eigenvalue at a is
    # a + eta^2 ce/(a - b) - eta^4 (ce)^2/(a - b)^3 + O(eta^6)
    a, b, c, e = 0.5, -0.3 + 0.1j, 0.7 + 0.2j, 1.3
    sd = decompose(np.diag([a, b]), kind="map")
    mu = int(np.argmin(np.abs(sd.eigenvalues - a)))
    v = np.array([[0.0, c], [e, 0.0]])
    expected = {1: 0.0, 2: c * e / (a - b), 3: 0.0,
                4: -(c * e) ** 2 / (a - b) ** 3}
    for order, value in expected.items():
        assert abs(susceptibility(sd, v, mu, order) - value) < 1e-12, order


def test_susceptibility_of_a_one_eigenvalue_map():
    # S -> S + eta V on a 1 x 1 map moves its eigenvalue by eta V exactly
    sd = decompose(np.array([[0.5]]), kind="map")
    v = np.array([[0.3 - 0.2j]])
    assert susceptibility(sd, v, 0, order=1) == pytest.approx(0.3 - 0.2j)
    assert susceptibility(sd, v, 0, order=2) == 0.0


def test_observation2_one_sided_kick_changes_spectrum():
    model = dephasing(h=0.9, kappa=0.5)
    static = np.sort_complex(np.linalg.eigvals(
        matrix_exp(liouvillian_matrix(model), 1.0)))
    proto = KickedProtocol(model=model, period=1.0,
                           kick_generator=0.5 * pauli("X"))
    kicked = np.sort_complex(np.linalg.eigvals(floquet_propagator(proto)))
    assert np.max(np.abs(static - kicked)) > 1e-3


def test_observation3_conjugation_preserves_spectrum():
    rng = np.random.default_rng(1)
    for _ in range(10):
        model = random_model(rng, 3)
        ef = matrix_exp(liouvillian_matrix(model), 1.0)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3))
                            + 1j * rng.normal(size=(3, 3)))
        u = unitary_conjugation(q)
        conj = u @ ef @ u.conj().T
        a = np.linalg.eigvals(ef)
        b = np.linalg.eigvals(conj)
        # set distance: lexicographic sorting is unstable for conjugate pairs
        assert np.max(np.min(np.abs(a[:, None] - b[None, :]), axis=1)) < 1e-9


def test_stroboscopic_evolution():
    proto = x_kick_protocol()
    rho0 = np.diag([0.8, 0.2]).astype(complex)
    states = list(stroboscopic_evolve(proto, rho0, 6))
    assert len(states) == 7
    for n, rho in enumerate(states):
        z = np.real(np.trace(pauli("Z") @ rho))
        assert z == pytest.approx(0.6 * (-1.0) ** n, abs=1e-9)
    assert np.array_equal(list(stroboscopic_evolve(proto, rho0, 0))[0], rho0)


def test_stroboscopic_matches_rk4_plus_kick():
    rng = np.random.default_rng(2)
    model = random_model(rng, 2)
    proto = KickedProtocol(model=model, period=0.5,
                           kick_generator=0.5 * pauli("X"))
    rho0 = np.diag([0.7, 0.3]).astype(complex)
    strobo = list(stroboscopic_evolve(proto, rho0, 1))[1]
    u = proto.kick_unitary
    direct = u @ rk4_evolve(model, rho0, 0.5, dt=1e-4) @ u.conj().T
    assert trace_distance(strobo, direct) < 1e-6


@pytest.mark.parametrize("d", [2, 3, 4])
def test_propagator_matches_kron_formula(d):
    # the dense kron(U, U*) product the gemm kick replaced
    rng = np.random.default_rng(10 + d)
    proto = KickedProtocol(model=random_model(rng, d), period=0.6,
                           kick_generator=random_kick(rng, d), error=0.1)
    expected = (unitary_conjugation(proto.kick_unitary)
                @ matrix_exp(liouvillian_matrix(proto.model), 0.6))
    assert np.max(np.abs(floquet_propagator(proto) - expected)) < 1e-12


def assert_stepper_matches_dense_map(proto, rho0, n=5):
    # the dense E_F @ vec loop the matrix-free stepper replaced
    ef = floquet_propagator(proto)
    states = list(stroboscopic_evolve(proto, rho0, n))
    assert len(states) == n + 1
    vec = vectorize(rho0)
    for rho in states:
        assert np.max(np.abs(rho - devectorize(vec))) < 1e-10
        vec = ef @ vec


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stepper_matches_dense_map_general_kick(d):
    rng = np.random.default_rng(20 + d)
    proto = KickedProtocol(model=random_model(rng, d), period=0.6,
                           kick_generator=random_kick(rng, d))
    assert_stepper_matches_dense_map(proto, random_state(rng, d))


def test_stepper_matches_dense_map_numeric_generator():
    p = XYParams(j=1.0, gamma=0.6, h=0.8, length=2)
    proto = KickedProtocol(model=NumericGenerator(p, BathSpec(0.05, np.inf)),
                           period=10.0,
                           kick_generator=magnetization("Z", 2) / 2, error=0.1)
    assert_stepper_matches_dense_map(
        proto, random_state(np.random.default_rng(30), 4))


@pytest.mark.parametrize("mode", ["secular", "numeric"])
def test_period_operator_blocks_match_columns(mode):
    rng = np.random.default_rng(31)
    params = XYParams(j=1.0, gamma=0.6, h=0.8, length=4)
    bath = BathSpec(0.05, np.inf)
    if mode == "secular":   # many jumps, on the even parity block
        gen = secular_liouvillian(params, bath, "independent")
        even = np.eye(16)[:, [bin(i).count("1") % 2 == 0 for i in range(16)]]
        block, d = (even, even), 8
    else:
        gen, block, d = NumericGenerator(params, bath), None, 16
    t = 0.7
    op = _period_operator(gen, t, block, d)
    m = rng.normal(size=(d * d, 3)) + 1j * rng.normal(size=(d * d, 3))
    for stacked, column, apply in ((op.matmat, op.matvec, gen.action),
                                   (op.rmatmat, op.rmatvec,
                                    gen.adjoint_action)):
        got = stacked(m)
        want = np.stack([column(v) for v in m.T], axis=1)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-14 * scale
        direct = t * apply(devectorize(m[:, 0]), block)
        assert np.max(np.abs(want[:, 0] - vectorize(direct))) \
            <= 1e-14 * scale


def test_stroboscopic_checks_arguments_when_called():
    proto = x_kick_protocol()
    rho0 = np.diag([0.8, 0.2])
    with pytest.raises(ValueError):
        stroboscopic_evolve(proto, rho0, -1)
    with pytest.raises(ValueError):
        stroboscopic_evolve(proto, np.diag([0.8, 0.3]), 2)
    for n in (2.5, 2.0, True, None):
        with pytest.raises(TypeError):
            stroboscopic_evolve(proto, rho0, n)
    assert len(list(stroboscopic_evolve(proto, rho0, np.int64(2)))) == 3


def test_step_norm_is_the_bound_of_condition_3_13():
    # the one private scipy name the stepper relies on: below STEP_NORM
    # expm_multiply takes (3.13) to hold and estimates no power's norm
    from scipy.sparse.linalg._expm_multiply import _condition_3_13
    assert _condition_3_13(floquet.STEP_NORM, 1, 55, 2)
    assert not _condition_3_13(1.01 * floquet.STEP_NORM, 1, 55, 2)


def test_period_under_step_norm_is_one_expm_multiply(monkeypatch):
    proto = x_kick_protocol()
    assert proto.period * proto.model.norm_bound() < floquet.STEP_NORM
    calls, expm = [], scipy.sparse.linalg.expm_multiply

    def counting(*args, **kwargs):
        calls.append(None)
        return expm(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", counting)
    assert len(list(stroboscopic_evolve(proto, np.diag([0.8, 0.2]), 4))) == 5
    assert len(calls) == 4


def test_trace_loss_is_reported():
    proto = KickedProtocol(model=UniformDecay(), period=1.0,
                           kick_generator=0.5 * pauli("X"))
    with pytest.raises(RuntimeError):
        floquet_propagator(proto)
    # the diagonal blocks are checked, the off-diagonal ones have no trace
    blocked = KickedProtocol(model=UniformDecay(), period=1.0,
                             kick_generator=np.array([0.5, -0.5]))
    sides = (np.eye(2)[:, :1], np.eye(2)[:, 1:])
    for rows in sides:
        for cols in sides:
            if rows is cols:
                with pytest.raises(RuntimeError):
                    floquet_propagator(blocked, (rows, cols))
            else:
                assert abs(floquet_propagator(blocked, (rows, cols))[0, 0]) \
                    == pytest.approx(np.exp(-1.0))
    states = stroboscopic_evolve(proto, np.diag([0.8, 0.2]), 2)
    next(states)
    with pytest.raises(RuntimeError):
        next(states)


def test_observation6_dephasing_x_kick():
    sd = decompose(matrix_exp(liouvillian_matrix(dephasing()), 1.0),
                   kind="map")
    report = check_observation6(sd, x_kick_protocol().kick_unitary, order=2)
    assert report.passed
    # identity kick keeps the block structure but is not subharmonic
    report = check_observation6(sd, np.eye(2, dtype=complex), order=2)
    assert report.static_peripheral_trivial
    assert not report.kick_subharmonic


def test_observation6_without_peripheral_eigenvalue_fails():
    sd = decompose(0.5 * np.eye(4), kind="map")
    report = check_observation6(sd, x_kick_protocol().kick_unitary, order=2)
    assert not report.passed
    assert not report.static_peripheral_trivial
    assert not report.kick_subharmonic
    assert report.kick_asymptotic_eigenvalues.size == 0


def translation_operator(length):
    """The one-site cyclic shift T, T|i> = |_shift(L)[i]>, as a dense
    d x d matrix."""
    d = 2 ** length
    t = np.zeros((d, d), dtype=complex)
    t[_shift(length), np.arange(d)] = 1.0
    return t


def test_translation_operator():
    # the shift that translation_refine gathers by moves Z_r to Z_{r+1}
    t = translation_operator(3)
    for r in range(3):
        z = site_operator("Z", r, 3)
        shifted = site_operator("Z", (r + 1) % 3, 3)
        assert np.max(np.abs(t @ z @ t.conj().T - shifted)) < 1e-12


def test_disorder_susceptibility_uniform_equals_global():
    # uniform disorder is the global rotation error times c L
    kappa, period, length = 0.05, 2.0, 2
    ham = np.zeros((4, 4), dtype=complex)
    jumps = tuple((site_operator("Z", r, length), kappa) for r in range(length))
    model = LindbladModel(hamiltonian=ham, jumps=jumps)
    gen = 0.5 * sum(site_operator("Z", r, length) for r in range(length))
    proto = KickedProtocol(model=model, period=period, kick_generator=gen)
    sd = decompose(floquet_propagator(proto), kind="map")
    w = sd.eigenvalues
    seps = [np.min(np.abs(np.delete(w, i) - w[i])) for i in range(w.size)]
    mu = int(np.argmax(seps))
    sd = translation_refine(sd, length, mu)
    c = 0.37
    chi = disorder_susceptibility(sd, [c, c], length, mu)
    vmap = rotation_error_map(proto)
    element = sd.left[:, mu].conj() @ vmap @ sd.right[:, mu]
    assert chi.full_sum == pytest.approx(abs(c * element), abs=1e-10)
    assert chi.single_site == pytest.approx(chi.full_sum, abs=1e-10)
    with pytest.raises(ValueError):
        disorder_susceptibility(sd, [0.1], length, mu)


def test_disorder_susceptibility_of_many_samples_is_each_sample_alone():
    # an (n, L) deltas gives, bit for bit, the n single-sample results
    length = 4
    params = XYParams(gamma=np.sqrt(0.5), h=np.sqrt(0.5), length=length)
    proto = KickedProtocol(model=NumericGenerator(params, BathSpec()),
                           period=10.0, error=0.05,
                           kick_generator=z_signs(length).sum(0) / 2)
    block = tuple(Sector(length, parity=p).isometry for p in (1, -1))
    sd = decompose(floquet_propagator(proto, block), kind="map")
    mu = find_star(sd, order=2).index
    sd = translation_refine(sd, length, mu, block)
    deltas = np.random.default_rng(3).normal(size=(6, length))
    many = disorder_susceptibility(sd, deltas, length, mu, block)
    assert many == [disorder_susceptibility(sd, row, length, mu, block)
                    for row in deltas]
    for bad in (deltas[:, :3], deltas[None]):
        with pytest.raises(ValueError):
            disorder_susceptibility(sd, bad, length, mu, block)


# The kick, the rotation-error map and the observation-6 check go through
# one sandwich evaluator, and the translation refinement gathers by the
# shift. Their former kron(U, U*) and sandwich formulas are kept here as
# references, for a diagonal kick given as 1-D and for a dense one.

def full(f):
    return np.diag(f) if f.ndim == 1 else f


def kicked(kind, error=0.1):
    rng = np.random.default_rng(40)
    model = random_model(rng, 4)
    g = rng.normal(size=4) if kind == "diagonal" else random_kick(rng, 4)
    return KickedProtocol(model=model, period=0.6, kick_generator=g,
                          error=error)


def random_unitary(rng, d, kind):
    if kind == "diagonal":
        return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=d))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


def kron_propagator(p):
    return (unitary_conjugation(full(p.kick_unitary))
            @ matrix_exp(p.model.matrix(), p.period))


def test_diagonal_kick_generator_as_1d_or_dense():
    p = kicked("diagonal")
    dense = dataclasses.replace(p, kick_generator=np.diag(p.kick_generator))
    assert p.kick_unitary.shape == (4,)
    assert np.max(np.abs(np.diag(p.kick_unitary) - dense.kick_unitary)) < 1e-14
    assert np.max(np.abs(floquet_propagator(p)
                         - floquet_propagator(dense))) < 1e-12
    assert np.max(np.abs(floquet_propagator(p) - kron_propagator(p))) < 1e-12


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_rotation_error_map_matches_kron_formula(kind):
    p = kicked(kind)
    g = full(p.kick_generator)
    eye = np.eye(4)
    expected = -1j * ((sandwich(g, eye) - sandwich(eye, g))
                      @ kron_propagator(dataclasses.replace(p, error=0.0)))
    assert np.max(np.abs(rotation_error_map(p) - expected)) < 1e-12


def dfs_phi_rotation():
    """Identity on the psi pair, exp(-0.7i sigma_x) on the phi pair.

    On the collective-DFS map it couples the asymptotic modes into the decay
    modes (about 0.36) but not back (rounding), so it tests the
    asymptotic-to-decay block of condition (ii) alone.
    """
    p0, p1, f0, f1 = bell_basis()
    rot = scipy.linalg.expm(-0.7j * pauli("X"))
    return (np.outer(p0, p0.conj()) + np.outer(p1, p1.conj())
            + sum(rot[a, b] * np.outer(fa, fb.conj())
                  for a, fa in enumerate((f0, f1))
                  for b, fb in enumerate((f0, f1))))


@pytest.mark.parametrize("kind", ["diagonal", "dense", "dfs"])
def test_observation6_matches_kron_formula(kind):
    sd = decompose(matrix_exp(liouvillian_matrix(dfs_collective_model()),
                              1.0), kind="map")
    u = (dfs_phi_rotation() if kind == "dfs"
         else random_unitary(np.random.default_rng(41), 4, kind))
    report = check_observation6(sd, u, order=2)
    mask = sd.peripheral_mask() & ~sd.defective
    asy, dec = np.nonzero(mask)[0], np.nonzero(~mask)[0]
    assert asy.size > 1 and dec.size > 0
    uk = unitary_conjugation(full(u))
    cross = max(np.max(np.abs(sd.left[:, i].conj().T @ uk @ sd.right[:, j]))
                for i, j in ((dec, asy), (asy, dec)))
    assert report.kick_block_preserving == (cross < 1e-8)
    block = sd.left[:, asy].conj().T @ uk @ sd.right[:, asy]
    got = report.kick_asymptotic_eigenvalues
    expected = np.linalg.eigvals(block)
    assert np.max(np.min(np.abs(got[:, None] - expected[None, :]),
                         axis=1)) < 1e-12
    with pytest.raises(ValueError):
        check_observation6(sd, 2.0 * u, order=2)


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_translation_refine_matches_kron_formula(kind):
    # independent Z dephasing on two sites: translation-invariant, with
    # degenerate clusters that the refinement must diagonalize
    length = 2
    model = LindbladModel(hamiltonian=np.zeros((4, 4)), jumps=tuple(
        (site_operator("Z", r, length), 0.05) for r in range(length)))
    g = 0.5 * np.diag(magnetization("Z", length)).real
    proto = KickedProtocol(model=model, period=2.0,
                           kick_generator=g if kind == "diagonal" else
                           np.diag(g) + 0.3 * magnetization("X", length))
    sd = decompose(floquet_propagator(proto), kind="map")
    tsup = unitary_conjugation(translation_operator(length))
    degenerate = [mu for mu in range(sd.size) if sd.cluster(mu).size > 1]
    assert degenerate
    for mu in degenerate:
        cluster = sd.cluster(mu)
        ref = translation_refine(sd, length, mu)
        block = ref.left[:, cluster].conj().T @ tsup @ ref.right[:, cluster]
        assert np.max(np.abs(block - np.diag(np.diag(block)))) < 1e-12
        gram = ref.left[:, cluster].conj().T @ ref.right[:, cluster]
        assert np.max(np.abs(gram - np.eye(cluster.size))) < 1e-12


@pytest.mark.parametrize("pair", [None, (0, 0), (0, 1), (1, 1)])
def test_translation_refine_matches_the_dense_shift(pair):
    # the refinement restricts T by gathers; restricting the dense d x d T
    # by products, as before, gives the same vectors. Independent Z
    # dephasing on four sites keeps T and P and has degenerate clusters in
    # the whole map and in each parity block
    length = 4
    model = LindbladModel(
        hamiltonian=0.3 * magnetization("X", length) @ magnetization(
            "X", length),
        jumps=tuple((site_operator("Z", r, length), 0.05)
                    for r in range(length)))
    proto = KickedProtocol(model=model, period=2.0,
                           kick_generator=z_signs(length).sum(0) / 2)
    sides = tuple(Sector(length, parity=p).isometry for p in (1, -1))
    block = None if pair is None else (sides[pair[0]], sides[pair[1]])
    sd = decompose(floquet_propagator(proto, block), kind="map")
    tsup = floquet._conjugation(translation_operator(length)).restrict(block)
    degenerate = {tuple(sd.cluster(mu)) for mu in range(sd.size)
                  if sd.cluster(mu).size > 1}
    assert degenerate
    for cluster in map(list, degenerate):
        ref = translation_refine(sd, length, cluster[0], block)
        tmat = sd.left[:, cluster].conj().T @ tsup.columns(
            sd.right[:, cluster])
        tvecs = np.linalg.eig(tmat)[1]
        right = sd.right[:, cluster] @ tvecs
        left = sd.left[:, cluster] @ np.linalg.inv(tvecs).conj().T
        assert np.max(np.abs(ref.right[:, cluster] - right)) < 1e-12
        assert np.max(np.abs(ref.left[:, cluster] - left)) < 1e-12
    if pair == (0, 0):
        # a side that T does not keep fails _restrict's leak check
        half = np.eye(2 ** length)[:, :8]
        with pytest.raises(ValueError, match="couples the sector"):
            translation_refine(sd, length, cluster[0], (half, half))
