"""Conformance of every generator to the shared interface.

LindbladModel and NumericGenerator both provide action, adjoint_action,
matrix and trace; the matrix-free stepper relies on the three that avoid
the d^2 x d^2 matrix, so each is checked against matrix() here. Both are
evaluated as sums of sandwiches A rho B with regrouped factors, so their
actions are also checked against the textbook formulas, written out below.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opentc.lindblad import JumpChannel, LindbladModel, _Terms
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


def chain_h09(length):
    return XYParams(j=1.0, gamma=float(np.sqrt(1.0 - 0.81)), h=0.9,
                    length=length)


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


REFERENCE_ONLY = {
    "lindblad-d3-three-jumps": lambda: LindbladModel(
        hamiltonian=random_model(3, 4).hamiltonian,
        jumps=random_model(3, 5).jumps + random_model(3, 6).jumps[:1]),
    "secular-independent-L6-h0.9": lambda: secular_liouvillian(
        chain_h09(6), BathSpec(0.01, np.inf), "independent"),
    "numeric-L6-h0.9": lambda: NumericGenerator(chain_h09(6),
                                                BathSpec(0.01, np.inf)),
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


def lindblad_reference(model, rho):
    """-i[H, rho] + sum_a k_a (L rho L^dag - {L^dag L, rho}/2)."""
    h = model.hamiltonian
    out = -1j * (h @ rho - rho @ h)
    for j in model.jumps:
        l = j.operator
        ldl = l.conj().T @ l
        out += j.rate * (l @ rho @ l.conj().T - 0.5 * (ldl @ rho + rho @ ldl))
    return out


def lindblad_adjoint_reference(model, a):
    """i[H, A] + sum_a k_a (L^dag A L - {L^dag L, A}/2)."""
    h = model.hamiltonian
    out = 1j * (h @ a - a @ h)
    for j in model.jumps:
        l = j.operator
        ldl = l.conj().T @ l
        out += j.rate * (l.conj().T @ a @ l - 0.5 * (ldl @ a + a @ ldl))
    return out


def numeric_reference(gen, rho):
    """-i[H, rho] + [M_z, rho D] + [D^dag rho, M_z]."""
    h, d, z = gen.hamiltonian, gen.dissipator, gen.mz_diag
    rd = rho @ d
    dr = d.conj().T @ rho
    return (-1j * (h @ rho - rho @ h) + z[:, None] * rd - rd * z[None, :]
            + dr * z[None, :] - z[:, None] * dr)


def numeric_adjoint_reference(gen, a):
    """i[H, A] + [M_z, A] D^dag - D [M_z, A]."""
    h, d, z = gen.hamiltonian, gen.dissipator, gen.mz_diag
    za = z[:, None] * a - a * z[None, :]
    return 1j * (h @ a - a @ h) + za @ d.conj().T - d @ za


@pytest.mark.parametrize("name", sorted({**GENERATORS, **REFERENCE_ONLY}))
def test_actions_match_textbook_formulas(name):
    gen = {**GENERATORS, **REFERENCE_ONLY}[name]()
    if isinstance(gen, LindbladModel):
        refs = (lindblad_reference, lindblad_adjoint_reference)
    else:
        refs = (numeric_reference, numeric_adjoint_reference)
    rng = np.random.default_rng(4)
    for _ in range(3):
        x = random_operator(rng, gen.dim)
        for got, ref in zip((gen.action(x), gen.adjoint_action(x)), refs):
            expected = ref(gen, x)
            assert np.max(np.abs(got - expected)) \
                <= 1e-12 * np.max(np.abs(expected))


def test_dimension_mismatch_raises(generator):
    wrong = np.eye(generator.dim + 1, dtype=complex)
    for apply in (generator.action, generator.adjoint_action):
        with pytest.raises(ValueError):
            apply(wrong)


@st.composite
def sandwich_sums(draw):
    """A _Terms of 1 to 3 pairs on d <= 4, each factor 1-D or dense."""
    d = draw(st.integers(1, 4))
    diagonal = draw(st.lists(st.tuples(st.booleans(), st.booleans()),
                             min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def factor(is_diagonal):
        shape = (d,) if is_diagonal else (d, d)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    return _Terms([(factor(a), factor(b)) for a, b in diagonal]), rng


@settings(max_examples=60, deadline=None)
@given(sandwich_sums(), st.integers(1, 5))
def test_sandwich_sum_columns_stacks_and_adjoint(terms_and_rng, n):
    terms, rng = terms_and_rng
    d = terms.dim
    mat = terms.matrix()
    m = rng.normal(size=(d * d, n)) + 1j * rng.normal(size=(d * d, n))
    expected = mat @ m
    scale = max(1.0, np.max(np.abs(expected)))
    assert np.max(np.abs(terms.columns(m) - expected)) <= 1e-13 * scale
    stack = m.T.reshape(n, d, d)
    got = terms.action(stack)
    for k in range(n):
        assert np.max(np.abs(got[k] - terms.action(stack[k]))) <= 1e-13 * scale
        adj = devectorize(mat.conj().T @ vectorize(stack[k]))
        assert np.max(np.abs(terms.adjoint_action(stack[k]) - adj)) \
            <= 1e-13 * max(1.0, np.max(np.abs(adj)))
