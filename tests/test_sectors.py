"""Parity blocks of the Floquet map against the full map and the stepper.

The XY generators and the M_z kick keep the parity of each side of rho, so
the runners build, exponentiate and decompose the map one block (p, q) at a
time. Here the blocks are checked against the full map, which is the
one-sector case of the same builder, and against the matrix-free stepper.
"""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from opentc.experiments import ExperimentConfig, _protocol
from opentc.floquet import (KickedProtocol, find_star, floquet_propagator,
                            stroboscopic_evolve)
from opentc.lindblad import LindbladModel
from opentc.operators import pauli
from opentc.spectral import decompose

_SQ2 = 1.0 / np.sqrt(2.0)


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
    assert len(proto.blocks) == 4
    full = decompose(floquet_propagator(proto), kind="map")
    blocks = [decompose(floquet_propagator(proto, b), kind="map")
              for b in proto.blocks]
    assert all(sd.size == full.size // 4 for sd in blocks)
    union = np.concatenate([sd.eigenvalues for sd in blocks])
    assert multiset_distance(union, full.eigenvalues) < tol
    star = find_star(*blocks, order=2, period=cfg.period)
    assert abs(star.star_eigenvalue
               - find_star(full, order=2).star_eigenvalue) < 1e-12
    assert star.star_eigenvalue.imag >= 0.0
    assert (blocks[star.block].eigenvalues[star.index]
            == star.star_eigenvalue)


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
    for rows, cols in proto.blocks:
        got = floquet_propagator(proto, (rows, cols)) @ rho[
            np.ix_(rows, cols)].reshape(-1)
        assert np.max(np.abs(got - stepped[np.ix_(rows, cols)].reshape(-1))) \
            < 1e-11


QUBIT_SECTORS = (np.array([0]), np.array([1]))


@pytest.mark.parametrize("model, kick", [
    (LindbladModel(hamiltonian=np.zeros((2, 2)), jumps=((pauli("Z"), 0.5),)),
     0.5 * pauli("X")),
    (LindbladModel(hamiltonian=0.3 * pauli("X")), np.array([0.5, -0.5]))],
    ids=["kick-mixes", "model-mixes"])
def test_protocol_that_mixes_sectors_raises(model, kick):
    proto = KickedProtocol(model=model, period=1.0, kick_generator=kick,
                           sectors=QUBIT_SECTORS)
    for block in proto.blocks:
        with pytest.raises(ValueError, match="SECTOR_TOL"):
            floquet_propagator(proto, block)
    # the whole map drops nothing, so it still builds
    assert floquet_propagator(proto).shape == (4, 4)


@pytest.mark.parametrize("sectors", [
    (np.array([0, 1, 2]), np.array([3])), (np.array([0, 1]), np.array([1, 2])),
    (np.array([0, 1]),)])
def test_sectors_must_split_the_basis_evenly(sectors):
    with pytest.raises(ValueError):
        KickedProtocol(model=LindbladModel(hamiltonian=np.zeros((4, 4))),
                       period=1.0, kick_generator=np.zeros(4),
                       sectors=sectors)


def test_default_sector_is_the_whole_map():
    proto = KickedProtocol(model=LindbladModel(hamiltonian=pauli("X")),
                           period=0.4, kick_generator=0.5 * pauli("Y"))
    (block,) = proto.blocks
    assert np.array_equal(block[0], np.arange(2))
    assert np.array_equal(floquet_propagator(proto, block),
                          floquet_propagator(proto))


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
