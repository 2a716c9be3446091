"""Symmetry sectors of the chain, and the blocks of the Floquet map and of
the stepper on them.

Every sector is an operators.Sector. The XY generators and the M_z kick
keep the parity of each side of rho, and commute with the translation T
and the reflection R, so the dense runners build, exponentiate and
decompose the map one (k, P) block at a time, as stacks of blocks of one
shape, and the trace runner steps the k = 0, R = +1 block of its state
only. Here the Sectors are checked against the symmetries, the blocks
against the parity blocks and the full map, which is the same builder
with no block, and the block steppers against the whole-space stepper and
each other.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.optimize import linear_sum_assignment

from opentc import experiments, floquet, lindblad, xy
from opentc.experiments import (ExperimentConfig, _assemble, _classes,
                                _field_setup, _initial_state, _kick,
                                _map_spectra, _partner, _protocol, _trace_mx)
from opentc.floquet import (KickedProtocol, find_star, floquet_propagator,
                            kicked, stroboscopic_evolve)
from opentc.lindblad import LindbladModel
from opentc.operators import (Sector, _isometry, _reversal, _shift,
                              magnetization, pauli, site_operator, z_signs)
from opentc.spectral import _clusters, _order, decompose, mirror
from opentc.xy import BathSpec, NumericGenerator, XYParams, factorized_states

_SQ2 = 1.0 / np.sqrt(2.0)


def translation_operator(length):
    """The one-site cyclic shift T, T|i> = |_shift(L)[i]>, as a dense
    d x d matrix."""
    d = 2 ** length
    t = np.zeros((d, d), dtype=complex)
    t[_shift(length), np.arange(d)] = 1.0
    return t


def parity_sides(length):
    """The isometries of the P = +1 and P = -1 Sectors."""
    return tuple(Sector(length, parity=p).isometry for p in (1, -1))


def momentum_sides(length):
    """The isometries of the Sectors k = 0..L-1."""
    return tuple(Sector(length, k=k).isometry for k in range(length))


def runner_sides(length):
    """The isometries of the dense runners' (k, P) Sectors."""
    return tuple(s.isometry for s in experiments._sectors(length))


def blocks(sides):
    """Every block (rows, cols), in row-major order."""
    return [(rows, cols) for rows in sides for cols in sides]


def with_vectors(sides, build, kind):
    """Every block's spectrum with vectors, in row-major order, from
    build(block) of one block: a block a <= b decomposed alone, a block
    a > b the mirror of block (b, a)."""
    n = len(sides)
    built = {(a, b): decompose(build((sides[a], sides[b])), kind=kind)
             for a in range(n) for b in range(a, n)}
    return [built[a, b] if a <= b else
            mirror(built[b, a], (sides[b].shape[1], sides[a].shape[1]))
            for a in range(n) for b in range(n)]


def runner_spectra(cfg, h, length, eta):
    """The generator's and the map's block spectra, eigenvalues only, as
    spectrum builds them on the (k, P) sides: the _field_setup and a dict
    of two lists, one spectrum per block in row-major order."""
    built = {}
    setup = _field_setup(cfg, h, length, built)
    sides = setup[1]
    maps, = _map_spectra(setup, length, [_kick(*setup, eta)])
    generator = _assemble(built, _classes(sides, _partner(length))[1])
    return setup, {"generator": generator, "map": maps}


def to_block(rho, v):
    return v.conj().T @ rho @ v


def assert_block_evolves_as_whole(proto, rho, n, v, model=None, tol=1e-12):
    """The stepper on block (v, v) of rho, lifted back, against the
    whole-space stepper; `model` replaces the block stepper's model."""
    block = replace(proto, model=model or proto.model)
    got = stroboscopic_evolve(block, to_block(rho, v), n, (v, v))
    want = stroboscopic_evolve(proto, rho, n)
    for r, x in zip(got, want, strict=True):
        assert np.max(np.abs(v @ r @ v.conj().T - x)) < tol


def multiset_distance(a, b):
    """Largest distance of a one-to-one matching of a onto b."""
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max()


# At h = 0, L = 4 the secular maps are ill-conditioned: blocks against the
# full map differ by 3e-9, and a relative perturbation of 1e-16 of the full
# map's entries alone moves its eigenvalues by 4e-9 to 9e-9.
@pytest.mark.parametrize("mode, length, h, eta, tol", [
    ("numeric", 2, 0.0, 0.0, 1e-10), ("numeric", 2, 0.5, np.pi / 20, 1e-10),
    ("numeric", 2, 0.9, np.pi / 10, 1e-10),
    ("numeric", 4, 0.0, 0.0, 1e-10), ("numeric", 4, _SQ2, np.pi / 20, 1e-10),
    ("independent", 4, 0.5, np.pi / 20, 1e-10),
    ("collective", 4, 0.9, 0.0, 1e-10),
    ("independent", 4, 0.0, 0.0, 1e-7), ("collective", 4, 0.0, 0.0, 1e-7)])
def test_block_spectra_match_full_map(mode, length, h, eta, tol):
    cfg = ExperimentConfig(length=length, dissipator_mode=mode)
    _, proto = _protocol(cfg, h, eta, length)
    full = decompose(floquet_propagator(proto), kind="map")
    spectra = [decompose(floquet_propagator(proto, b), kind="map")
               for b in blocks(parity_sides(length))]
    assert len(spectra) == 4
    assert all(sd.size == full.size // 4 for sd in spectra)
    union = np.concatenate([sd.eigenvalues for sd in spectra])
    assert multiset_distance(union, full.eigenvalues) < tol
    star = find_star(*spectra, order=2, period=cfg.period)
    assert abs(star.star_eigenvalue
               - find_star(full, order=2).star_eigenvalue) < 1e-12
    assert star.star_eigenvalue.imag >= 0.0
    assert (spectra[star.block].eigenvalues[star.index]
            == star.star_eigenvalue)


@pytest.mark.parametrize("kind", ["map", "generator"])
@pytest.mark.parametrize("mode", ["numeric", "independent", "collective"])
@pytest.mark.parametrize("length", [2, 4])
def test_mirrored_block_matches_direct_block(length, mode, kind):
    cfg = ExperimentConfig(length=length, dissipator_mode=mode)
    _, proto = _protocol(cfg, 0.5, np.pi / 20, length)
    sides = parity_sides(length)

    def build(block):
        return (floquet_propagator(proto, block) if kind == "map"
                else proto.model.matrix(block))

    mirrored = with_vectors(sides, build, kind)[2]
    s = build((sides[1], sides[0]))
    direct = decompose(s, kind=kind)
    w = mirrored.eigenvalues
    assert multiset_distance(w, direct.eigenvalues) < 1e-12
    scale = max(1.0, np.max(np.abs(s)))
    assert np.max(np.abs(s @ mirrored.right - mirrored.right * w)) \
        < 1e-12 * scale
    assert np.max(np.abs(mirrored.left.conj().T @ s
                         - w[:, None] * mirrored.left.conj().T)) \
        < 1e-12 * scale
    healthy = ~mirrored.defective
    gram = mirrored.left[:, healthy].conj().T @ mirrored.right[:, healthy]
    assert np.max(np.abs(gram - np.eye(healthy.sum()))) < 1e-12
    # decompose's order rule and first-member cluster labels
    assert np.array_equal(_order(w), np.arange(w.size))
    assert np.array_equal(mirrored.clusters, _clusters(w)[1])
    first = np.unique(mirrored.clusters, return_index=True)[1]
    assert np.all(np.diff(first) > 0)
    # without vectors: the eigenvalues of the explicitly built (-, +) block
    bare = mirror(decompose(build((sides[0], sides[1])), kind=kind,
                            vectors=False), None)
    assert bare.right is None and bare.left is None and bare.defective is None
    direct = decompose(s, kind=kind, vectors=False).eigenvalues
    assert multiset_distance(bare.eigenvalues, direct) < 1e-12
    assert bare.clusters is None


def test_mirror_of_rectangular_momentum_blocks():
    # momentum sectors differ in size, so blocks (a, b) and (b, a) are
    # rectangular and differently shaped
    cfg = ExperimentConfig(length=4)
    _, proto = _protocol(cfg, 0.9, np.pi / 40, 4)
    sides = momentum_sides(4)
    n = len(sides)
    spectra = with_vectors(
        sides, lambda block: floquet_propagator(proto, block), "map")
    mirrored = 0
    for k, (rows, cols) in enumerate(blocks(sides)):
        a, b = divmod(k, n)
        if a <= b:
            continue
        mirrored += rows.shape[1] != cols.shape[1]
        s = floquet_propagator(proto, (rows, cols))
        sd = spectra[k]
        assert multiset_distance(sd.eigenvalues,
                                 decompose(s, kind="map").eigenvalues) < 1e-12
        assert np.max(np.abs(s @ sd.right - sd.right * sd.eigenvalues)) \
            < 1e-12
    assert mirrored > 0
    with pytest.raises(ValueError):     # a shape of another size
        mirror(spectra[1], (spectra[1].size, 2))


def test_block_maps_match_stepper_at_length_6():
    cfg = ExperimentConfig(length=6)
    _, proto = _protocol(cfg, _SQ2, np.pi / 20, 6)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    states = stroboscopic_evolve(proto, rho, 1)
    next(states)
    stepped = next(states)
    for rows, cols in blocks(parity_sides(6)):
        got = floquet_propagator(proto, (rows, cols)) @ (
            rows.conj().T @ rho @ cols).reshape(-1)
        want = (rows.conj().T @ stepped @ cols).reshape(-1)
        assert np.max(np.abs(got - want)) < 1e-11


# Eigenvalues alone, against the full decompose: README "Tolerances". An
# eigenvalue of condition number cond = 1/|<l|r>| (unit l and r) may move
# with the algorithm by EIGENVALUES_ONLY_TOL * cond. At h = 0 the L = 6
# secular generators have eigenvalues of cond up to 8e7 that move by 2.7e-8.
EIGENVALUES_ONLY_TOL = 1e-12


def assert_classes_match_direct_blocks(length, mode, h, eta):
    """Every block's spectrum, as runner_spectra reports it without
    vectors, one block per reflection class built, against that block
    built from its own sides and decomposed with vectors: the same
    multiset within EIGENVALUES_ONLY_TOL * cond, for the generator and the
    map. Returns the two lists of map spectra."""
    cfg = ExperimentConfig(length=length, dissipator_mode=mode)
    (proto, sides, *_), spectra = runner_spectra(cfg, h, length, eta)
    at_eta = replace(proto, error=eta)
    directs = {"generator": proto.model.matrix,
               "map": lambda block: floquet_propagator(at_eta, block)}
    for kind, direct in directs.items():
        bare = spectra[kind]
        full = [decompose(direct(block), kind=kind)
                for block in blocks(sides)]
        for f, b in zip(full, bare, strict=True):
            cond = (np.linalg.norm(f.left, axis=0)
                    * np.linalg.norm(f.right, axis=0))
            cost = np.abs(f.eigenvalues[:, None] - b.eigenvalues[None, :])
            rows, cols = linear_sum_assignment(cost)
            assert np.all(cost[rows, cols]
                          <= EIGENVALUES_ONLY_TOL * cond[rows]), kind
    return full, bare


@pytest.mark.parametrize("mode", ["numeric", "independent", "collective"])
def test_eigenvalues_only_blocks_match_full_blocks_at_length_6(mode):
    # sweep's and spectrum's point h = 0, eta = pi/20, both ways, on the
    # (k, P) blocks of _field_setup: 46 of the 78 blocks a <= b are built
    cfg = ExperimentConfig(length=6, dissipator_mode=mode)
    full, bare = assert_classes_match_direct_blocks(6, mode, 0.0, np.pi / 20)
    # the sweep row's diagnostics
    want = find_star(*full, order=cfg.order, period=cfg.period)
    got = find_star(*bare, order=cfg.order, period=cfg.period)
    assert abs(got.star_eigenvalue - want.star_eigenvalue) < 1e-12
    assert abs(got.floquet_gap - want.floquet_gap) < 1e-12
    assert abs(got.tc_distance - want.tc_distance) < 1e-12


@pytest.mark.parametrize("h, eta", [(0.5, np.pi / 20), (0.9, np.pi / 40)])
@pytest.mark.parametrize("mode", ["numeric", "independent", "collective"])
@pytest.mark.parametrize("length", [2, 4])
def test_reflection_classes_match_each_block_built_directly(length, mode, h,
                                                            eta):
    assert_classes_match_direct_blocks(length, mode, h, eta)


def test_reflection_images_are_the_partner_sides():
    # R V_a = V_{partner[a]} Q_a with Q_a monomial: each column of R V_a
    # is one column of the partner side times a phase
    for length in (2, 4, 6, 8):
        sectors = experiments._sectors(length)
        sides = runner_sides(length)
        partner = experiments._partner(length)
        rev = _reversal(length)
        assert [(sectors[b].k, sectors[b].parity) for b in partner] == [
            (-s.k % length, s.parity) for s in sectors]
        for v, w in zip(sides, (sides[b] for b in partner)):
            q = w.conj().T @ v[rev]
            assert np.max(np.abs(w @ q - v[rev])) < 1e-12
            assert np.array_equal(np.count_nonzero(np.abs(q) > 1e-12, 0),
                                  np.ones(v.shape[1]))
            assert np.allclose(np.abs(q).max(0), 1.0)
        assert not any(v.flags.writeable for v in sides)
    # the built blocks: one per class, 24 of 36, 46 of 78 and 76 of 136
    for length, count, total in ((4, 24, 36), (6, 46, 78), (8, 76, 136)):
        sides, partner = runner_sides(length), experiments._partner(length)
        identity = tuple(range(len(sides)))
        assert sum(map(len, _classes(sides, partner)[0])) == count
        assert sum(map(len, _classes(sides, identity)[0])) == total


def chiral_model(length, part):
    """A LindbladModel that keeps T and P but not R: the chiral term
    C = sum_r (X_r Y_{r+1} - Y_r X_{r+1}), which R maps to -C, as its
    Hamiltonian, or its one jump C + M_z next to an R-invariant Ising
    Hamiltonian."""
    bonds = [(r, (r + 1) % length) for r in range(length)]
    chiral = sum(site_operator("X", r, length) @ site_operator("Y", s, length)
                 - site_operator("Y", r, length) @ site_operator("X", s, length)
                 for r, s in bonds)
    ising = sum(site_operator("Z", r, length) @ site_operator("Z", s, length)
                for r, s in bonds)
    mz = magnetization("Z", length)
    if part == "hamiltonian":
        return LindbladModel(hamiltonian=chiral, jumps=((mz, 0.1),))
    return LindbladModel(hamiltonian=ising, jumps=((chiral + mz, 0.1),))


@pytest.mark.parametrize("part", ["hamiltonian", "jump"])
@pytest.mark.parametrize("length", [4, 6])
def test_dense_set_up_refuses_a_model_that_breaks_reflection(
        monkeypatch, length, part):
    model = chiral_model(length, part)
    sides = runner_sides(length)
    # it keeps every (k, P) side, so no leak check of _restrict sees it
    for f in (model.hamiltonian, model.jumps[0].operator):
        for v in sides:
            lindblad._restrict(f, v)
    cfg = ExperimentConfig(length=length, h_grid=(0.5,))

    def protocol(cfg, h, eta, length):
        return None, KickedProtocol(model=model, period=cfg.period,
                                    kick_generator=z_signs(length).sum(0) / 2,
                                    error=eta)

    monkeypatch.setattr(experiments, "_protocol", protocol)
    with pytest.raises(ValueError, match="reflection R"):
        _field_setup(cfg, 0.5, length)
    table = experiments.run_sweep(cfg)
    assert table.metadata["failures"] == len(cfg.eta_grid)
    assert all("reflection R" in s for s in table.column("status"))


@pytest.mark.parametrize("mode", ["numeric", "independent", "collective"])
@pytest.mark.parametrize("length", [2, 4, 6, 8])
def test_xy_protocols_pass_the_reflection_guard(length, mode):
    cfg = ExperimentConfig(length=length, dissipator_mode=mode)
    for h in (0.0, 0.9):
        experiments._check_reflection(
            _protocol(cfg, h, 0.0, length)[1].model, length)


@pytest.mark.parametrize("h", [0.0, 0.5])
@pytest.mark.parametrize("mode", ["numeric", "independent", "collective"])
@pytest.mark.parametrize("length", [2, 4])
def test_momentum_parity_blocks_match_parity_blocks(length, mode, h):
    # the union of the runners' (k, P) block spectra, eigenvalues only,
    # against the parity blocks decomposed with vectors, for the generator
    # and the map; an eigenvalue of condition number cond may move by
    # EIGENVALUES_ONLY_TOL * cond with the basis (README "Tolerances")
    cfg = ExperimentConfig(length=length, dissipator_mode=mode)
    (proto, sides, *_), spectra = runner_spectra(cfg, h, length, np.pi / 20)
    at_eta = replace(proto, error=np.pi / 20)
    parity = parity_sides(length)
    directs = {"generator": proto.model.matrix,
               "map": lambda block: floquet_propagator(at_eta, block)}
    for kind, direct in directs.items():
        want = with_vectors(parity, direct, kind)
        got = spectra[kind]
        assert [sd.size for sd in got] == [
            rows.shape[1] * cols.shape[1] for rows, cols in blocks(sides)]
        w = np.concatenate([sd.eigenvalues for sd in want])
        cond = np.concatenate([np.linalg.norm(sd.left, axis=0)
                               * np.linalg.norm(sd.right, axis=0)
                               for sd in want])
        union = np.concatenate([sd.eigenvalues for sd in got])
        cost = np.abs(w[:, None] - union[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert np.all(cost[rows, cols] <= EIGENVALUES_ONLY_TOL * cond[rows]), \
            kind
        if kind == "map":
            star = find_star(*got, order=2, period=cfg.period)
            assert abs(star.star_eigenvalue - find_star(
                *want, order=2).star_eigenvalue) < 1e-12


@pytest.mark.parametrize("mode", ["numeric", "independent"])
def test_disorder_elements_on_a_momentum_block_match_the_parity_block(mode):
    # the star's <<l| [Z_r, .] |r>>, from its (k, P) block's vectors lifted
    # to the whole space, against the same elements on its parity block,
    # where Z_r keeps the sector; non-zero-sum amplitudes, so full_sum
    # weighs every site's element
    cfg = ExperimentConfig(length=4, dissipator_mode=mode)
    _, proto = _protocol(cfg, 0.5, np.pi / 20, 4)
    deltas = np.random.default_rng(4).normal(size=(3, 4))
    got = []
    for sides in (runner_sides(4), parity_sides(4)):
        pairs = blocks(sides)
        spectra = [decompose(floquet_propagator(proto, b), kind="map")
                   for b in pairs]
        star = find_star(*spectra, order=2, period=cfg.period)
        sd = spectra[star.block]
        assert sd.cluster(star.index).size == 1
        got.append(floquet.disorder_susceptibility(
            sd, deltas, 4, star.index, pairs[star.block]))
    for a, b in zip(*got, strict=True):
        assert a.single_site == pytest.approx(b.single_site, rel=1e-10)
        assert a.full_sum == pytest.approx(b.full_sum, rel=1e-10)
        assert a.full_sum > 1e-6


def test_stacked_kick_matches_each_block_kicked_alone():
    # a group of _classes kicked as one stack, from the commutator diagonals
    # g_i - g_j, against each block's map from floquet_propagator
    cfg = ExperimentConfig()
    proto, sides, kicks, evolved = _field_setup(cfg, 0.9, 4)
    at_eta = replace(proto, error=np.pi / 40)
    for pairs, stack in evolved.items():
        blocks_ = [(sides[a], sides[b]) for a, b in pairs]
        got = kicked(at_eta, stack, blocks_, kicks[pairs])
        assert got.shape == stack.shape
        for s, block in zip(got, blocks_, strict=True):
            assert np.max(np.abs(s - floquet_propagator(at_eta, block))) \
                < 1e-12


@pytest.mark.parametrize("diagonal", [True, False])
def test_stacked_kick_checks_every_diagonal_block(diagonal):
    # a block whose exp(L T) does not keep the trace fails the check when
    # it is a diagonal block of the stack, and only then
    cfg = ExperimentConfig()
    proto, sides, kicks, evolved = _field_setup(cfg, 0.9, 4)
    pairs = next(p for p in evolved if len({a == b for a, b in p}) == 2)
    k = next(k for k, (a, b) in enumerate(pairs) if (a == b) == diagonal)
    stack = evolved[pairs].copy()
    stack[k] *= 1.01
    blocks_ = [(sides[a], sides[b]) for a, b in pairs]
    if diagonal:
        with pytest.raises(RuntimeError, match="trace preserving"):
            kicked(proto, stack, blocks_, kicks[pairs])
    else:
        kicked(proto, stack, blocks_, kicks[pairs])


@pytest.mark.parametrize("length", range(2, 11, 2))
def test_momentum_parity_sectors_split_the_momentum_sectors(length):
    # each k Sector split into its columns of P = +1 and of P = -1, in
    # order; the runners' _sectors lists the non-empty ones, k then P
    sectors = experiments._sectors(length)
    assert [(s.k, s.parity) for s in sectors] == [
        (k, p) for k in range(length) for p in (1, -1)
        if Sector(length, k=k, parity=p).isometry.shape[1]]
    parity = z_signs(length).prod(0)
    for k, v in enumerate(momentum_sides(length)):
        col = parity[np.argmax(v != 0, axis=0)]     # each column's parity
        for p in (1, -1):
            assert np.array_equal(Sector(length, k=k, parity=p).isometry,
                                  v[:, col == p])
    assert (Sector(length, k=1, parity=1) in sectors) == (length > 2)


def site_commutator_elements(rows, cols, length, rng):
    """<<l|[Z_r, .]|r>> for every site r, and <<l|[M_z, .]|r>>, of a random
    pair of block operators l and r, each lifted to the whole space as
    rows x cols^dag, as floquet.disorder_susceptibility lifts the star's
    vectors."""
    left, right = (rows @ (rng.normal(size=(rows.shape[1], cols.shape[1]))
                           + 1j * rng.normal(size=(rows.shape[1],
                                                   cols.shape[1])))
                   @ cols.conj().T for _ in range(2))
    left, right = left / np.linalg.norm(left), right / np.linalg.norm(right)

    def element(z):
        return np.vdot(left, z[:, None] * right - right * z)

    signs = z_signs(length)
    return np.array([element(z) for z in signs]), element(signs.sum(0))


@pytest.mark.parametrize("length", [4, 6])
def test_site_elements_are_equal_on_every_momentum_block(length):
    # T maps every operator of a (k, P) x (k', P') block to e^(i phi) times
    # itself, and Z_r to Z_(r+1), so the elements do not depend on the
    # site: the premise for replacing disorder_susceptibility's per-site
    # loop by one M_z element
    sectors = experiments._sectors(length)
    rng = np.random.default_rng(13)
    off_diagonal = 0
    for a in sectors:
        for b in sectors:
            if a.k == b.k:
                continue
            off_diagonal += 1
            sites, total = site_commutator_elements(a.isometry, b.isometry,
                                                    length, rng)
            assert np.max(np.abs(sites - sites[0])) < 1e-13
            assert abs(sites[0] - total / length) < 1e-13
    assert off_diagonal == len(sectors) * (len(sectors) - 2)
    # a parity block is not translation-covariant, and the sites differ
    side = Sector(length, parity=1).isometry
    sites, _ = site_commutator_elements(side, side, length, rng)
    assert np.max(np.abs(sites - sites[0])) > 1e-3


QUBIT_SIDES = (np.eye(2)[:, :1], np.eye(2)[:, 1:])


@pytest.mark.parametrize("model, kick", [
    (LindbladModel(hamiltonian=np.zeros((2, 2)), jumps=((pauli("Z"), 0.5),)),
     0.5 * pauli("X")),
    (LindbladModel(hamiltonian=0.3 * pauli("X")), np.array([0.5, -0.5]))],
    ids=["kick-mixes", "model-mixes"])
def test_protocol_that_mixes_sectors_raises(model, kick):
    proto = KickedProtocol(model=model, period=1.0, kick_generator=kick)
    for block in blocks(QUBIT_SIDES):
        with pytest.raises(ValueError, match="SECTOR_TOL"):
            floquet_propagator(proto, block)
    # the whole map drops nothing, so it still builds
    assert floquet_propagator(proto).shape == (4, 4)


@pytest.mark.parametrize("mode", ["numeric", "independent"])
def test_large_coupling_keeps_exact_momentum_sectors(mode):
    # at j = 1e4 the k = 0 restriction of the generator's factors leaks
    # 1.3e-10 (independent jumps) and 3.6e-12 (numeric: H) by rounding
    # alone, so the leak is compared with SECTOR_TOL times the factor's
    # largest entry
    cfg = ExperimentConfig(j=1e4, h=0.9, kappa0=1e-3, length=4,
                           dissipator_mode=mode)
    params, proto = _protocol(cfg, cfg.h, cfg.eta, 4)
    psi = _initial_state(cfg, params)
    assert_block_evolves_as_whole(proto, np.outer(psi, psi.conj()), 2,
                                  momentum_sides(4)[0])


@pytest.mark.parametrize("scale", [1.0, 1e4])
def test_scaled_factor_that_mixes_sectors_raises(scale):
    # a coupling of 1e-9 relative to the factor, above SECTOR_TOL at any scale
    model = LindbladModel(hamiltonian=scale * (pauli("Z")
                                               + 1e-9 * pauli("X")))
    proto = KickedProtocol(model=model, period=1.0,
                           kick_generator=np.array([0.5, -0.5]))
    for block in blocks(QUBIT_SIDES):
        with pytest.raises(ValueError, match="SECTOR_TOL"):
            floquet_propagator(proto, block)


def test_find_star_searches_the_union_of_spectra():
    first = decompose(np.diag([1.0, -0.5, -0.9 - 0.01j]), kind="map")
    second = decompose(np.diag([0.3, -0.9 + 0.01j]), kind="map")
    star = find_star(first, second, order=2)
    assert star.star_eigenvalue == -0.9 + 0.01j
    assert star.block == 1
    assert second.eigenvalues[star.index] == star.star_eigenvalue
    star = find_star(second, first, order=2)
    assert (star.block, star.star_eigenvalue) == (0, -0.9 + 0.01j)
    with pytest.raises(ValueError):
        find_star(order=2)


@pytest.mark.parametrize("length", range(2, 11))
def test_momentum_sectors_are_translation_eigenspaces(length):
    sectors = momentum_sides(length)
    assert len(sectors) == length
    basis = np.hstack(sectors)
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(2 ** length))) \
        < 1e-12
    t = translation_operator(length)
    for k, v in enumerate(sectors):
        assert np.max(np.abs(t @ v - np.exp(2j * np.pi * k / length) * v)) \
            < 1e-12


@pytest.mark.parametrize("length", range(2, 11, 2))
def test_parity_sides_partition_the_basis(length):
    sides = parity_sides(length)
    basis = np.hstack(sides)
    d = 2 ** length
    # identity columns, each basis state in exactly one side
    assert set(np.unique(basis)) == {0.0, 1.0}
    assert np.array_equal(basis.sum(0), np.ones(d))
    assert np.array_equal(basis.sum(1), np.ones(d))
    parity = z_signs(length).prod(0)
    for side, sign in zip(sides, (1.0, -1.0)):
        assert np.all(parity @ side == sign)


@pytest.mark.parametrize("length", range(2, 11))
def test_parity_sides_equal_the_sliced_identity(length):
    # the sides as they were built, by slicing np.eye(2^L)
    parity = z_signs(length).prod(0)
    eye = np.eye(2 ** length, dtype=complex)
    for got, sign in zip(parity_sides(length), (1.0, -1.0), strict=True):
        want = eye[:, parity == sign]
        assert got.dtype == want.dtype and np.array_equal(got, want)


def sector_kinds(length):
    """One Sector of every kind and label at this length."""
    yield from (Sector(length, parity=p) for p in (1, -1))
    for k in range(length):
        yield Sector(length, k=k)
        yield from (Sector(length, k=k, parity=p) for p in (1, -1))
    yield Sector(length, k=0, reflection=1)
    yield from (Sector(length, k=0, parity=p, reflection=1) for p in (1, -1))


@pytest.mark.parametrize("length", range(2, 11))
def test_every_sector_is_an_orthonormal_symmetry_eigenspace(length):
    back = np.argsort(_shift(length))       # (T v)[i] = v[back[i]]
    parity = z_signs(length).prod(0)
    for s in sector_kinds(length):
        v = s.isometry
        assert v.dtype == complex and not v.flags.writeable, s
        err = np.abs(v.conj().T @ v - np.eye(v.shape[1])).max(initial=0.0)
        assert err < 1e-12, s
        if s.k is not None:
            phase = np.exp(2j * np.pi * s.k / length)
            assert np.abs(v[back] - phase * v).max(initial=0.0) < 1e-12, s
        if s.parity is not None:
            assert np.array_equal(parity[:, None] * v, s.parity * v), s
        if s.reflection is not None:
            assert np.abs(v[_reversal(length)] - v).max(initial=0.0) \
                < 1e-12, s


# the number of binary necklaces of length L (OEIS A000031)
@pytest.mark.parametrize("length, size", [(2, 3), (4, 6), (6, 14), (8, 36),
                                          (10, 108)])
def test_momentum_zero_sector_counts_necklaces(length, size):
    assert Sector(length, k=0).isometry.shape == (2 ** length, size)


def test_sectors_form_no_square_array_at_length_12():
    # at L = 12 a (2^L)^2 array of any dtype takes at least 16 MiB (256
    # MiB for np.eye's complex one); beyond the isometry itself, no more
    # than that is ever held at once while a Sector of any kind is built
    d = 2 ** 12
    shapes = []
    for sector in (Sector(12, parity=-1), Sector(12, k=5),
                   Sector(12, k=3, parity=1), Sector(12, k=0, reflection=1)):
        _isometry.cache_clear()             # built, not looked up
        tracemalloc.start()
        try:
            v = sector.isometry
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            _isometry.cache_clear()
        assert peak - v.nbytes < d * d, sector
        shapes.append(v.shape)
        del v
    assert shapes == [(d, d // 2), (d, 335), (d, 166), (d, 224)]


def test_equal_sectors_share_one_isometry_and_one_generator_side(
        monkeypatch):
    a, b = Sector(6, k=1, parity=-1), Sector(6, k=1, parity=-1)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a.isometry is b.isometry
    gen = NumericGenerator(XYParams(gamma=np.sqrt(1.0 - 0.81), h=0.9,
                                    length=6), BathSpec())
    built, parts = [], gen._parts
    monkeypatch.setattr(gen, "_parts", lambda v: built.append(v) or parts(v))
    gen.matrix((a.isometry, b.isometry))
    gen.norm_bound((Sector(6, k=1, parity=-1).isometry,) * 2)
    assert len(built) == 1


@pytest.mark.parametrize("labels", [
    dict(k=0, reflection=-1), dict(k=1, reflection=1), dict(reflection=1),
    dict(parity=1, reflection=1), dict(k=4), dict(k=-1), dict(parity=0)])
def test_invalid_sector_labels_raise(labels):
    with pytest.raises(ValueError, match="no such sector"):
        Sector(4, **labels)


def test_empty_sector_has_no_columns():
    # at L = 2 both states of the orbit of |01> have P = -1
    v = Sector(2, k=1, parity=1).isometry
    assert v.shape == (4, 0) and v.dtype == complex
    assert [(s.k, s.parity) for s in experiments._sectors(2)] == [
        (0, 1), (0, -1), (1, -1)]


@pytest.mark.parametrize("mode, h, eta", [
    ("numeric", 0.5, np.pi / 20), ("numeric", _SQ2, 0.0),
    ("independent", 0.9, np.pi / 40)])
def test_momentum_block_spectra_match_full_map(mode, h, eta):
    cfg = ExperimentConfig(length=4, dissipator_mode=mode)
    _, proto = _protocol(cfg, h, eta, 4)
    sides = momentum_sides(4)
    assert len({v.shape[1] for v in sides}) > 1
    full = decompose(floquet_propagator(proto), kind="map")
    spectra = [decompose(floquet_propagator(proto, b), kind="map")
               for b in blocks(sides)]
    union = np.concatenate([sd.eigenvalues for sd in spectra])
    assert multiset_distance(union, full.eigenvalues) < 1e-10


class RecordingGenerator:
    """Forwards to a generator and records the operator shapes it is given.

    The stepper hands the norm estimator's probes over as one stack
    (n, r, c), so the shape of each operator in it, (r, c), is recorded,
    and `applied` counts the operators of a stack one by one.
    """

    def __init__(self, gen):
        self.gen = gen
        self.shapes = set()
        self.applied = 0

    def _record(self, x):
        self.shapes.add(x.shape[-2:])
        self.applied += int(np.prod(x.shape[:-2]))

    def action(self, rho, block=None):
        self._record(rho)
        return self.gen.action(rho, block)

    def adjoint_action(self, a, block=None):
        self._record(a)
        return self.gen.adjoint_action(a, block)

    def trace(self, block=None):
        return self.gen.trace(block)

    def norm_bound(self, block=None):
        return self.gen.norm_bound(block)


@pytest.mark.parametrize("initial_state", ["gs_superposition",
                                           "local_plus_x"])
@pytest.mark.parametrize("mode", ["numeric", "independent", "collective"])
@pytest.mark.parametrize("length", [4, 6])
def test_momentum_stepper_matches_whole_space(length, mode, initial_state):
    cfg = ExperimentConfig(length=length, dissipator_mode=mode,
                           initial_state=initial_state)
    params, proto = _protocol(cfg, 0.9, np.pi / 40, length)
    psi = _initial_state(cfg, params)
    v = momentum_sides(length)[0]
    model = RecordingGenerator(proto.model)
    assert_block_evolves_as_whole(proto, np.outer(psi, psi.conj()), 3, v,
                                  model)
    assert model.shapes == {(v.shape[1], v.shape[1])}


def count_expm_multiply(monkeypatch):
    """A list that grows by one entry per scipy expm_multiply call."""
    calls, expm = [], scipy.sparse.linalg.expm_multiply

    def counting(*args, **kwargs):
        calls.append(None)
        return expm(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", counting)
    return calls


@pytest.mark.parametrize("mode", ["numeric", "independent", "collective"])
@pytest.mark.parametrize("length", [4, 6])
def test_sub_stepped_periods_match_the_block_map(monkeypatch, length, mode):
    # the trace runner's block, whose bound needs k >= 2 sub-steps a period
    cfg = ExperimentConfig(length=length, dissipator_mode=mode)
    params, proto = _protocol(cfg, 0.9, np.pi / 40, length)
    v = Sector(length, k=0, reflection=1).isometry
    psi = v.conj().T @ _initial_state(cfg, params)
    r = np.outer(psi, psi.conj())
    n = 3
    calls = count_expm_multiply(monkeypatch)
    states = list(stroboscopic_evolve(proto, r, n, (v, v)))
    assert len(calls) % n == 0 and len(calls) // n >= 2
    ef = floquet_propagator(proto, (v, v))
    vec = r.reshape(-1)
    for state in states:
        assert np.max(np.abs(state.reshape(-1) - vec)) < 1e-12
        vec = ef @ vec


def test_trace_length_8_period_applications(monkeypatch):
    # one period at the benchmark's trace-L8 point; in one expm_multiply
    # call, which estimates ||A^p||_1 for p = 2..8 first, it takes 730
    cfg = ExperimentConfig(length=8, h=0.9, eta=np.pi / 40)
    params, proto = _protocol(cfg, cfg.h, cfg.eta, 8)
    v = Sector(8, k=0, reflection=1).isometry
    psi = v.conj().T @ _initial_state(cfg, params)
    model = RecordingGenerator(proto.model)
    calls = count_expm_multiply(monkeypatch)
    list(stroboscopic_evolve(replace(proto, model=model),
                             np.outer(psi, psi.conj()), 1, (v, v)))
    assert len(calls) >= 2
    assert model.applied <= 450


def test_state_touching_every_sector_evolves_whole():
    # a block whose side is a whole basis of sectors is a change of basis
    cfg = ExperimentConfig(length=4)
    _, proto = _protocol(cfg, _SQ2, np.pi / 20, 4)
    rng = np.random.default_rng(5)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    for sides in (parity_sides(4), momentum_sides(4)):
        assert_block_evolves_as_whole(proto, rho, 2, np.hstack(sides))


def test_parity_definite_state_evolves_one_block():
    cfg = ExperimentConfig(length=4)
    params, proto = _protocol(cfg, _SQ2, np.pi / 20, 4)
    plus = factorized_states(params).parity_states[0]
    model = RecordingGenerator(proto.model)
    assert_block_evolves_as_whole(proto, np.outer(plus, plus.conj()), 3,
                                  parity_sides(4)[0], model)
    assert model.shapes == {(8, 8)}


def test_state_in_two_momentum_sectors_evolves_their_union():
    cfg = ExperimentConfig(length=4, dissipator_mode="independent")
    _, proto = _protocol(cfg, 0.9, np.pi / 40, 4)
    v0, v1 = momentum_sides(4)[:2]
    rng = np.random.default_rng(6)
    psi = (v0 @ rng.normal(size=v0.shape[1])
           + v1 @ (rng.normal(size=v1.shape[1]) * 1j))
    rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi)
    model = RecordingGenerator(proto.model)
    u = np.hstack((v0, v1))
    assert_block_evolves_as_whole(proto, rho, 3, u, model)
    assert model.shapes == {(u.shape[1], u.shape[1])}


def test_state_outside_the_block_is_rejected():
    # psi with weight in k = 1: its k = 0 block has trace below 1
    cfg = ExperimentConfig(length=4)
    _, proto = _protocol(cfg, 0.9, np.pi / 40, 4)
    v0, v1 = momentum_sides(4)[:2]
    psi = v0[:, 0] + 1e-3 * v1[:, 0]
    psi /= np.linalg.norm(psi)
    r = to_block(np.outer(psi, psi.conj()), v0)
    with pytest.raises(ValueError, match="trace"):
        stroboscopic_evolve(proto, r, 1, (v0, v0))


@pytest.mark.parametrize("initial_state", ["gs_superposition",
                                           "local_plus_x"])
@pytest.mark.parametrize("length", range(2, 11, 2))
def test_initial_states_lie_in_momentum_zero(length, initial_state):
    cfg = ExperimentConfig(length=length, h=0.9, initial_state=initial_state)
    params, _ = _protocol(cfg, cfg.h, cfg.eta, length)
    psi = _initial_state(cfg, params)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-15)
    for v in momentum_sides(length)[1:]:
        assert np.abs(v.conj().T @ psi).max(initial=0.0) <= 1e-15
    # and in its reflection-even part, which the trace runner evolves
    v = Sector(length, k=0, reflection=1).isometry
    assert np.linalg.norm(psi - v @ (v.conj().T @ psi)) <= 1e-15


# h = 0 and h = 1 have degenerate spectra; at h = 1 (gamma = 0) H conserves
# M_z, so at beta = inf D is rounding noise, and the tolerance is relative
# to the bath's rate scale kappa0 |J| where that is larger than max|D|
@pytest.mark.parametrize("j, beta", [(1.0, np.inf), (1.0, 2.0),
                                     (1e4, np.inf)],
                         ids=["zero-temperature", "beta-2", "j-1e4"])
@pytest.mark.parametrize("h", [0.0, 0.9, 1.0])
@pytest.mark.parametrize("length", [4, 6, 8])
def test_sector_dissipator_is_the_restricted_dissipator(length, h, j, beta):
    p = XYParams(j=j, gamma=np.sqrt(1.0 - h ** 2), h=h, length=length)
    gen = NumericGenerator(p, BathSpec(0.01 * j, beta))
    whole = gen.dissipator
    scale = max(np.abs(whole).max(), gen.bath.kappa0 * j)
    parity = z_signs(length).prod(0)
    eye = np.eye(p.dim)
    for u in (momentum_sides(length)[0], eye[:, parity > 0],
              eye[:, parity < 0]):
        _, _, (d, _) = gen._side(u)     # the right factors (D, M_z)
        assert np.abs(d - u.conj().T @ whole @ u).max() <= 1e-13 * scale


def test_momentum_block_never_builds_the_whole_space(monkeypatch):
    # at L = 10 the k = 0 factors come from the 108 x 108 restrictions of
    # H and M_z: no 1024 x 1024 eigenbasis or dissipator is formed
    built = []

    def recording(ham, *args):
        built.append(ham.shape)
        return dissipator(ham, *args)

    dissipator = xy._dissipator
    monkeypatch.setattr(xy, "_dissipator", recording)
    p = XYParams(gamma=np.sqrt(1.0 - 0.81), h=0.9, length=10)
    gen = NumericGenerator(p, BathSpec())
    u = momentum_sides(10)[0]
    block = (u, u)
    rho = np.eye(u.shape[1]) / u.shape[1]
    gen.action(rho, block)
    gen.adjoint_action(rho, block)
    gen.trace(block)
    assert built == [(108, 108)]


@pytest.mark.parametrize("mode", ["numeric", "independent"])
def test_momentum_block_restricts_each_factor_once(monkeypatch, mode):
    # a side restricts H and each jump (H and M_z in the numeric mode) once
    # for every method on its block, and the whole-space side is never built
    p = XYParams(gamma=np.sqrt(1.0 - 0.81), h=0.9, length=8)
    gen = (NumericGenerator(p, BathSpec()) if mode == "numeric"
           else xy.secular_liouvillian(p, BathSpec(), mode))
    sides = []

    def recording(f, v):
        sides.append(v)
        return restrict(f, v)

    restrict = lindblad._restrict
    monkeypatch.setattr(lindblad, "_restrict", recording)
    monkeypatch.setattr(xy, "_restrict", recording)
    u = momentum_sides(8)[0]
    block = (u, u)
    rho = np.eye(u.shape[1]) / u.shape[1]
    gen.action(rho, block)
    gen.adjoint_action(rho, block)
    gen.trace(block)
    gen.norm_bound(block)
    gen.matrix(block)
    factors = 2 if mode == "numeric" else 1 + len(gen.jumps)
    assert len(sides) == factors
    assert all(v is u for v in sides)


def reflection(length):
    """The basis index of R|i> for every i: its L bits read backwards."""
    return np.array([int(format(i, f"0{length}b")[::-1], 2)
                     for i in range(2 ** length)])


# the number of binary bracelets of length L (OEIS A000029)
@pytest.mark.parametrize("length, size", [(2, 3), (4, 6), (6, 13), (8, 30),
                                          (10, 78), (12, 224)])
def test_reflection_even_sector_counts_bracelets(length, size):
    v = Sector(length, k=0, reflection=1).isometry
    assert v.shape == (2 ** length, size)


@pytest.mark.parametrize("length", range(2, 11))
def test_reflection_even_sector_is_fixed_by_translation_and_reflection(
        length):
    v = Sector(length, k=0, reflection=1).isometry
    n = v.shape[1]
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-12
    assert np.max(np.abs(translation_operator(length) @ v - v)) < 1e-12
    assert np.max(np.abs(v[reflection(length)] - v)) < 1e-12
    if length <= 8:
        # it spans all of k = 0, R = +1: the projector V0 V0^dag (1 + R) / 2
        v0 = momentum_sides(length)[0]
        p0 = v0 @ v0.conj().T
        want = 0.5 * (p0 + p0[:, reflection(length)])
        assert np.max(np.abs(v @ v.conj().T - want)) < 1e-12


@pytest.mark.parametrize("mode", ["numeric", "independent", "collective"])
@pytest.mark.parametrize("length, h", [(4, 0.0), (4, 0.9), (6, 0.5),
                                       (6, 0.9), (8, 0.9)])
def test_generators_restrict_to_the_reflection_even_sector(length, h, mode):
    # every factor passes _restrict's SECTOR_TOL leak check, and the kick
    # generator M_z / 2 stays a 1-D diagonal
    cfg = ExperimentConfig(length=length, dissipator_mode=mode)
    _, proto = _protocol(cfg, h, 0.0, length)
    v = Sector(length, k=0, reflection=1).isometry
    assert np.isfinite(proto.model.norm_bound((v, v)))
    assert lindblad._restrict(proto.kick_generator, v).shape == (v.shape[1],)


def assert_trace_matches_momentum_stepper(monkeypatch, cfg, n_periods,
                                          states):
    """_trace_mx from each initial state against _trace_mx on the whole
    k = 0 block, as before the reflection split; all runs share one
    protocol."""
    built = experiments._protocol(cfg, cfg.h, cfg.eta, cfg.length)
    monkeypatch.setattr(experiments, "_protocol", lambda *args: built)
    for initial_state in states:
        at = replace(cfg, initial_state=initial_state)
        got = _trace_mx(at, cfg.length, n_periods)
        with monkeypatch.context() as m:
            m.setattr(experiments, "Sector",
                      lambda length, **labels: Sector(length, k=0))
            want = _trace_mx(at, cfg.length, n_periods)
        assert len(got) == n_periods + 1
        assert np.max(np.abs(np.subtract(got, want))) < 1e-12, initial_state


@pytest.mark.parametrize("mode", ["numeric", "independent", "collective"])
@pytest.mark.parametrize("length", [2, 4, 6, 8])
def test_trace_matches_the_momentum_stepper(monkeypatch, length, mode):
    cfg = ExperimentConfig(length=length, h=0.9, eta=np.pi / 40,
                           dissipator_mode=mode)
    assert_trace_matches_momentum_stepper(
        monkeypatch, cfg, 1, ("gs_superposition", "local_plus_x"))


@pytest.mark.slow
def test_trace_matches_the_momentum_stepper_at_length_10(monkeypatch):
    # 78 against 108 states
    cfg = ExperimentConfig(length=10, h=0.9, eta=np.pi / 40)
    assert_trace_matches_momentum_stepper(monkeypatch, cfg, 1,
                                          ("gs_superposition",))
