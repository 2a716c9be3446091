"""Tests for the operator algebra and vectorization layer."""

import numpy as np
import pytest
import scipy.linalg

from opentc import operators
from opentc.floquet import matrix_exp
from opentc.operators import (SERIAL_BLAS_DIM, devectorize, hs_inner,
                              identity, is_unitary, kron, magnetization,
                              magnetization_per_spin, pauli, sandwich,
                              site_operator, trace_functional,
                              unitary_conjugation, vectorize, z_signs)
from opentc.spectral import decompose


def random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def test_pauli_algebra():
    x, y, z = pauli("X"), pauli("Y"), pauli("Z")
    assert np.allclose(x @ y, 1j * z)
    assert np.allclose(y @ z, 1j * x)
    assert np.allclose(z @ x, 1j * y)
    assert np.allclose(x @ x, np.eye(2))
    with pytest.raises(ValueError):
        pauli("Q")


def test_kron_basics():
    assert np.allclose(kron(identity(2), identity(2)), identity(4))
    xx = kron(pauli("X"), pauli("X"))
    v = np.zeros(4)
    v[0] = 1.0
    assert np.allclose(xx @ v, [0, 0, 0, 1])
    zz = kron(pauli("Z"), pauli("Z"))
    assert np.allclose(np.diag(zz), [1, -1, -1, 1])


def test_vectorize_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        d = rng.integers(2, 6)
        a = random_matrix(rng, d)
        assert np.array_equal(devectorize(vectorize(a)), a)


def test_vectorize_conventions():
    assert np.allclose(vectorize(identity(2)), [1, 0, 0, 1])
    coh = np.zeros((2, 2), dtype=complex)
    coh[0, 1] = 1.0
    assert np.allclose(vectorize(coh), [0, 1, 0, 0])
    with pytest.raises(ValueError):
        devectorize(np.arange(5))


def test_sandwich_against_direct_product():
    rng = np.random.default_rng(2)
    for d in (2, 3, 4):
        for _ in range(20):
            a = random_matrix(rng, d)
            b = random_matrix(rng, d)
            rho = random_matrix(rng, d)
            lhs = sandwich(a, b) @ vectorize(rho)
            assert np.max(np.abs(lhs - vectorize(a @ rho @ b))) < 1e-12


def test_sandwich_trivial_cases():
    assert np.allclose(sandwich(identity(2), identity(2)), identity(4))
    v = sandwich(pauli("X"), pauli("X")) @ vectorize(np.diag([1.0, 0.0]))
    assert np.allclose(devectorize(v), np.diag([0.0, 1.0]))
    with pytest.raises(ValueError):
        sandwich(identity(2), identity(3))


def test_hs_inner():
    assert hs_inner(identity(2), identity(2)) == pytest.approx(2)
    assert hs_inner(pauli("X"), pauli("Z")) == pytest.approx(0)
    assert hs_inner(pauli("X"), pauli("X")) == pytest.approx(2)
    rng = np.random.default_rng(3)
    a = random_matrix(rng, 3)
    b = random_matrix(rng, 3)
    assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))


def test_sandwich_adjoint_consistency():
    # A(.) = B . C implies the adjoint acts as B^dag . C^dag
    rng = np.random.default_rng(4)
    b1 = random_matrix(rng, 3)
    c1 = random_matrix(rng, 3)
    a = random_matrix(rng, 3)
    b = random_matrix(rng, 3)
    lhs = hs_inner(a, devectorize(sandwich(b1, c1) @ vectorize(b)))
    adj = devectorize(sandwich(b1.conj().T, c1.conj().T) @ vectorize(a))
    assert lhs == pytest.approx(hs_inner(adj, b))


def test_site_operator():
    assert np.allclose(site_operator("Z", 0, 1), np.diag([1, -1]))
    v = np.zeros(4)
    v[0] = 1.0
    assert np.allclose(site_operator("X", 1, 2) @ v, [0, 1, 0, 0])
    total = sum(site_operator("Z", r, 2) for r in range(2))
    assert np.allclose(np.diag(total), [2, 0, 0, -2])
    with pytest.raises(ValueError):
        site_operator("X", 2, 2)


def test_site_operators_commute_on_distinct_sites():
    rng = np.random.default_rng(5)
    for _ in range(10):
        kinds = rng.choice(["X", "Y", "Z"], size=2)
        a = site_operator(kinds[0], 0, 3)
        b = site_operator(kinds[1], 2, 3)
        assert np.max(np.abs(a @ b - b @ a)) < 1e-12


def test_magnetization():
    assert np.allclose(magnetization("Z", 1), pauli("Z"))
    plus = np.ones(4) / 2.0
    mx = magnetization_per_spin("X", 2)
    assert plus @ mx @ plus == pytest.approx(1.0)
    evals = np.sort(np.linalg.eigvalsh(magnetization("Z", 3)))
    assert np.allclose(evals, [-3, -1, -1, -1, 1, 1, 1, 3])


def test_unitary_conjugation():
    assert np.allclose(unitary_conjugation(identity(2)), identity(4))
    v = unitary_conjugation(pauli("X")) @ vectorize(np.diag([1.0, 0.0]))
    assert np.allclose(devectorize(v), np.diag([0.0, 1.0]))
    with pytest.raises(ValueError):
        unitary_conjugation(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_unitary_conjugation_preserves_trace_functional():
    rng = np.random.default_rng(6)
    for _ in range(20):
        q, _ = np.linalg.qr(random_matrix(rng, 3))
        assert is_unitary(q)
        tr = trace_functional(3)
        resid = tr.conj() @ unitary_conjugation(q) - tr.conj()
        assert np.max(np.abs(resid)) < 1e-12


def test_z_signs_match_dense_operators():
    for length in range(1, 9):
        z = z_signs(length)
        assert z.shape == (length, 2 ** length)
        for r in range(length):
            assert np.array_equal(z[r], np.diag(site_operator("Z", r, length)))
        assert np.array_equal(z.sum(0), np.diag(magnetization("Z", length)))
        # reference: the parity (-1)^popcount from a loop over basis indices
        idx = np.arange(2 ** length)
        popcount = np.array([bin(i).count("1") for i in idx])
        assert np.array_equal(z.prod(0), 1.0 - 2.0 * (popcount % 2))
    with pytest.raises(ValueError):
        z_signs(0)


@pytest.fixture
def blas():
    """Every loaded OpenBLAS, at counts 2, 3, ... so each is told apart."""
    libs = operators._openblas_threads()
    if not libs:
        pytest.skip("no OpenBLAS loaded")
    before = [get() for get, _ in libs]
    for k, (_, put) in enumerate(libs):
        put(k + 2)
    yield libs
    for (_, put), count in zip(libs, before):
        put(count)


def counts(libs):
    return [get() for get, _ in libs]


def test_serial_blas_restores_each_count(blas):
    default = counts(blas)
    assert len(set(default)) == len(blas)
    with operators._serial_blas(SERIAL_BLAS_DIM):
        assert counts(blas) == [1] * len(blas)
        with operators._serial_blas(1):
            assert counts(blas) == [1] * len(blas)
        assert counts(blas) == [1] * len(blas)
        with operators._serial_blas(SERIAL_BLAS_DIM + 1):
            assert counts(blas) == [1] * len(blas)
    assert counts(blas) == default
    with pytest.raises(RuntimeError, match="body"):
        with operators._serial_blas(2):
            raise RuntimeError("body")
    assert counts(blas) == default
    with operators._serial_blas(SERIAL_BLAS_DIM + 1):
        assert counts(blas) == default


@pytest.mark.parametrize("offset", [0, 1], ids=["at-limit", "above"])
def test_kernels_run_serial_up_to_the_limit(blas, monkeypatch, offset):
    n = SERIAL_BLAS_DIM + offset
    expected = [1] * len(blas) if offset == 0 else counts(blas)
    seen = {}

    def probe(name, kernel):
        def wrapped(*args, **kwargs):
            seen[name] = counts(blas)
            return kernel(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(scipy.linalg, "expm",
                        probe("expm", lambda s: np.eye(s.shape[0])))
    monkeypatch.setattr(scipy.linalg, "eig", probe("eig", scipy.linalg.eig))
    s = np.diag(np.arange(n, dtype=complex))
    matrix_exp(s)
    decompose(s, kind="map")
    assert seen == {"expm": expected, "eig": expected}


def test_serial_blas_without_openblas(monkeypatch):
    def no_maps(*args, **kwargs):
        raise FileNotFoundError("/proc/self/maps")

    libs = operators._openblas_threads()
    before = counts(libs)
    # another OS: no maps file, so the lookup finds nothing
    monkeypatch.setattr(operators, "_openblas", None)
    monkeypatch.setattr(operators, "open", no_maps, raising=False)
    assert operators._openblas_threads() == []
    with operators._serial_blas(1):
        assert counts(libs) == before
    s = np.diag([0.5, -1.0 + 0j])
    assert np.allclose(matrix_exp(s), np.diag(np.exp([0.5, -1.0])))
    assert np.allclose(decompose(s, kind="map").eigenvalues, [0.5, -1.0])
