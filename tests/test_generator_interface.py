"""Conformance of every generator to the shared interface.

LindbladModel and NumericGenerator both provide action, adjoint_action,
matrix and trace; the matrix-free stepper relies on the three that avoid
the d^2 x d^2 matrix, so each is checked against matrix() here.
"""

import numpy as np
import pytest

from opentc.lindblad import JumpChannel, LindbladModel
from opentc.operators import devectorize, vectorize
from opentc.xy import BathSpec, NumericGenerator, XYParams, secular_liouvillian

_SQ2 = 1.0 / np.sqrt(2.0)


def random_model(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    jumps = tuple(JumpChannel(rng.normal(size=(d, d))
                              + 1j * rng.normal(size=(d, d)),
                              float(rng.uniform(0.1, 1.0)))
                  for _ in range(2))
    return LindbladModel(hamiltonian=0.5 * (a + a.conj().T), jumps=jumps)


def chain(length):
    return XYParams(j=1.0, gamma=_SQ2, h=_SQ2, length=length)


GENERATORS = {
    "lindblad-d2": lambda: random_model(2, 0),
    "lindblad-d4": lambda: random_model(4, 1),
    "secular-independent-L4": lambda: secular_liouvillian(
        chain(4), BathSpec(0.01, np.inf), "independent"),
    "secular-collective-L4": lambda: secular_liouvillian(
        chain(4), BathSpec(0.01, np.inf), "collective"),
    "numeric-L2": lambda: NumericGenerator(chain(2), BathSpec(0.05, np.inf)),
    "numeric-L4": lambda: NumericGenerator(chain(4), BathSpec(0.01, np.inf)),
}


@pytest.fixture(params=sorted(GENERATORS), scope="module")
def generator(request):
    return GENERATORS[request.param]()


def random_operator(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a / np.linalg.norm(a)


def test_action_matches_matrix(generator):
    rng = np.random.default_rng(2)
    mat = generator.matrix()
    d = int(round(np.sqrt(mat.shape[0])))
    rho = random_operator(rng, d)
    out = generator.action(rho)
    assert np.max(np.abs(mat @ vectorize(rho) - vectorize(out))) < 1e-12


def test_adjoint_action_matches_conjugate_transpose(generator):
    rng = np.random.default_rng(3)
    mat = generator.matrix()
    d = int(round(np.sqrt(mat.shape[0])))
    a = random_operator(rng, d)
    out = devectorize(mat.conj().T @ vectorize(a))
    assert np.max(np.abs(out - generator.adjoint_action(a))) < 1e-12


def test_trace_matches_matrix_trace(generator):
    expected = np.trace(generator.matrix())
    assert abs(generator.trace() - expected) < 1e-12 * abs(expected)
