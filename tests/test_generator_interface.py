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

from opentc.lindblad import DENSE_ACTION_DIM, JumpChannel, LindbladModel, _Terms
from opentc.operators import Sector, _kron_transposed, devectorize, vectorize
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
    d, _ = terms.shape
    mat = terms.matrix()
    m = rng.normal(size=(d * d, n)) + 1j * rng.normal(size=(d * d, n))
    expected = mat @ m
    scale = max(1.0, np.max(np.abs(expected)))
    assert np.max(np.abs(terms.columns(m) - expected)) <= 1e-13 * scale
    stack = m.T.reshape(n, d, d)
    # d <= 4 takes the dense plan, whose M is summed like matrix(): the
    # sandwich evaluator is checked against matrix() as well
    sandwiches = terms._sandwiches(stack, *terms._stacked(False))
    assert np.max(np.abs(sandwiches.reshape(n, -1).T - expected)) \
        <= 1e-13 * scale
    got = terms.action(stack)
    for k in range(n):
        assert np.max(np.abs(got[k] - terms.action(stack[k]))) <= 1e-13 * scale
        adj = devectorize(mat.conj().T @ vectorize(stack[k]))
        assert np.max(np.abs(terms.adjoint_action(stack[k]) - adj)) \
            <= 1e-13 * max(1.0, np.max(np.abs(adj)))


@settings(max_examples=60, deadline=None)
@given(sandwich_sums())
def test_norm_bound_bounds_the_matrix_one_norm(terms_and_rng):
    # the 1-norm of kron(A, B^T) is ||A||_1 ||B||_inf, so one pair is exact
    terms, _ = terms_and_rng
    norm = np.abs(terms.matrix()).sum(0).max()
    bound = terms.norm_bound()
    assert norm <= bound * (1.0 + 1e-12)
    if len(terms.pairs) == 1:
        assert bound == pytest.approx(norm, rel=1e-12)


def former_action(terms, x):
    """The evaluator before identity factors were skipped: each identity
    factor was multiplied in as the diagonal ones(d). Two or more pairs of
    dense factors are first summed as the two stacked products, as the
    evaluator does; the identity-bearing pairs then follow in order."""
    rows, cols = terms.shape
    is_dense = [a is not None and b is not None and a.ndim == b.ndim == 2
                for a, b in terms.pairs]
    dense = [pair for pair, s in zip(terms.pairs, is_dense) if s]
    others = [pair for pair, s in zip(terms.pairs, is_dense) if not s]
    if len(dense) < 2:
        out, others = np.zeros_like(x), terms.pairs
    else:
        a_hat = np.stack([a for a, _ in dense], axis=-1).reshape(rows, -1)
        b_cat = np.concatenate([b for _, b in dense], axis=1)
        out = a_hat @ (x @ b_cat).reshape(-1, cols)
    ones = {n: np.ones(n, dtype=complex) for n in (rows, cols)}
    for a, b in others:
        a = ones[rows] if a is None else a
        b = ones[cols] if b is None else b
        ax = a[:, None] * x if a.ndim == 1 else a @ x
        out += ax * b if b.ndim == 1 else ax @ b
    return out


@pytest.mark.parametrize("name", ["secular-independent-L4", "numeric-L4"])
def test_skipped_identity_factors_are_bitwise_unchanged(name):
    gen = GENERATORS[name]()
    par = np.array([bin(i).count("1") % 2 for i in range(gen.dim)])
    even, odd = (np.eye(gen.dim)[:, par == p] for p in (0, 1))
    rng = np.random.default_rng(8)
    for terms in (gen._terms(None), gen._terms((even, odd))):
        assert any(f is None for pair in terms.pairs for f in pair)
        x = random_operator(rng, terms.shape[0])
        # both blocks are small enough for the dense plan, so the sandwich
        # evaluator is called directly
        assert np.array_equal(terms._sandwiches(x, *terms._stacked(False)),
                              former_action(terms, x))


BLOCK_GENERATORS = ["numeric-L4", "secular-independent-L4",
                    "secular-collective-L4"]


@pytest.mark.parametrize("name", BLOCK_GENERATORS)
def test_restricted_block_matches_full_matrix(name):
    gen = GENERATORS[name]()
    par = np.array([bin(i).count("1") % 2 for i in range(16)])
    rows, cols = np.flatnonzero(par == 0), np.flatnonzero(par == 1)
    full = gen.matrix()
    keep = (rows[:, None] * 16 + cols[None, :]).reshape(-1)
    rows, cols = np.eye(16)[:, rows], np.eye(16)[:, cols]
    block = gen.matrix((rows, cols))
    assert np.max(np.abs(block - full[np.ix_(keep, keep)])) < 1e-14
    assert abs(gen.trace((rows, cols)) - np.trace(block)) < 1e-12


@pytest.mark.parametrize("name", BLOCK_GENERATORS)
def test_block_methods_match_block_matrix(name):
    gen = GENERATORS[name]()
    sectors = [Sector(4, k=k).isometry for k in range(4)]
    rng = np.random.default_rng(9)
    for rows, cols in ((sectors[0], sectors[1]), (sectors[2], sectors[2])):
        mat = gen.matrix((rows, cols))
        x = rng.normal(size=(rows.shape[1], cols.shape[1])) + 0j
        for got, want in ((gen.action(x, (rows, cols)), mat @ x.reshape(-1)),
                          (gen.adjoint_action(x, (rows, cols)),
                           mat.conj().T @ x.reshape(-1))):
            assert np.max(np.abs(got.reshape(-1) - want)) < 1e-12
        assert abs(gen.trace((rows, cols)) - np.trace(mat)) < 1e-12


def loop_reference(pairs, x, adjoint):
    """sum_k A_k x B_k (or A_k^dag x B_k^dag), one pair at a time, with
    every factor written out as a full matrix."""
    rows, cols = x.shape[-2:]

    def full(f, n):
        f = np.eye(n) if f is None else np.diag(f) if f.ndim == 1 else f
        return f.conj().T if adjoint else f

    return sum(full(a, rows) @ x @ full(b, cols) for a, b in pairs)


def mixed_pairs(rng, shape, n_dense):
    """n_dense pairs of dense factors among identity and diagonal ones."""
    def dense(n):
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    def diagonal(n):
        return rng.normal(size=n) + 1j * rng.normal(size=n)

    rows, cols = shape
    pairs = [(dense(rows), None), (None, dense(cols)),
             (diagonal(rows), dense(cols)), (dense(rows), diagonal(cols))]
    for k in range(n_dense):    # interleaved with the others
        pairs.insert(1 + 2 * k % len(pairs), (dense(rows), dense(cols)))
    return pairs


@pytest.mark.parametrize("n_dense", [0, 1, 2, 7])
@pytest.mark.parametrize("shape", [(5, 5), (4, 6)])
@pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
def test_stacked_dense_pairs_match_pair_loop(n_dense, shape, lead):
    rng = np.random.default_rng(10 + n_dense)
    pairs = mixed_pairs(rng, shape, n_dense)
    terms = _Terms(pairs, shape=shape)
    x = rng.normal(size=(*lead, *shape)) + 1j * rng.normal(size=(*lead, *shape))
    # these blocks take the dense plan, so the sandwiches are called too
    sandwiches = (terms._sandwiches(x, *terms._stacked(False)),
                  terms._sandwiches(x.conj(), *terms._stacked(True)).conj())
    for got, adjoint in ((terms.action(x), False),
                         (terms.adjoint_action(x), True),
                         (sandwiches[0], False), (sandwiches[1], True)):
        want = loop_reference(pairs, x, adjoint)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_stacked_factors_are_built_by_the_actions_only():
    rng = np.random.default_rng(11)
    terms = _Terms(mixed_pairs(rng, (4, 4), 3))
    # a unitary keeps the span of every factor, so any factors restrict
    q = np.linalg.qr(rng.normal(size=(4, 4)) + 0j)[0]
    block = (q, q[:, ::-1])
    terms.matrix(), terms.trace()
    part = terms.restrict(block)
    part.matrix(), part.trace()
    assert not terms._plans and not part._plans
    terms.action(np.eye(4))
    assert list(terms._plans) == [False] and not part._plans
    part.adjoint_action(np.eye(4))
    assert list(part._plans) == [True]


def plan_results(terms, x):
    """(action, adjoint action) of x by the dense plan and by the sandwich
    plan, each called directly, whichever one the size rule picks."""
    n = x.shape[-2] * x.shape[-1]
    m = terms._summed(_kron_transposed)
    flat = x.reshape(-1, n)
    dense = ((flat @ m.T).reshape(x.shape),
             (flat.conj() @ m).conj().reshape(x.shape))
    stacked = (terms._sandwiches(x, *terms._stacked(False)),
               terms._sandwiches(x.conj(), *terms._stacked(True)).conj())
    return dense, stacked, np.abs(m).max()


@pytest.mark.parametrize("n_dense", [2, 7])
@pytest.mark.parametrize("shape", [(4, 4), (4, 6), (16, 16), (16, 17),
                                   (17, 17)])
@pytest.mark.parametrize("lead", [(), (3,)])
def test_dense_and_sandwich_plans_agree(n_dense, shape, lead):
    rng = np.random.default_rng(12 + n_dense)
    terms = _Terms(mixed_pairs(rng, shape, n_dense), shape=shape)
    x = rng.normal(size=(*lead, *shape)) + 1j * rng.normal(size=(*lead, *shape))
    x /= np.linalg.norm(x, axis=(-2, -1), keepdims=True)
    dense, stacked, scale = plan_results(terms, x)
    picked = dense if shape[0] * shape[1] <= DENSE_ACTION_DIM else stacked
    for got, d, s in zip((terms.action(x), terms.adjoint_action(x)), dense,
                         stacked):
        assert np.max(np.abs(d - s)) <= 1e-14 * max(1.0, scale)
    assert np.array_equal(terms.action(x), picked[0])
    assert np.array_equal(terms.adjoint_action(x), picked[1])


@pytest.mark.parametrize("length, dense", [(6, True), (8, False)])
def test_trace_block_plan_follows_its_size(length, dense):
    # the stepper's k = 0, R = +1 block is 13 x 13 at L = 6, 30 x 30 at L = 8
    gen = NumericGenerator(chain_h09(length), BathSpec(0.01, np.inf))
    v = Sector(length, k=0, reflection=1).isometry
    block = (v, v)
    terms = gen._terms(block)
    gen.action(np.eye(v.shape[1]), block)
    gen.adjoint_action(np.eye(v.shape[1]), block)
    plans = [terms._plans[t] for t in (False, True)]
    if dense:
        assert all(isinstance(p, np.ndarray) for p in plans)
        # one M serves both directions: the adjoint's plan is its transpose
        assert np.shares_memory(*plans)
        assert np.array_equal(plans[0], plans[1].T)
    else:
        assert all(isinstance(p, tuple) for p in plans)
