"""Lindblad superoperators, Floquet propagators and time-crystal diagnostics."""

__version__ = "0.1.0"

from .floquet import (FloquetDiagnostics, KickedProtocol, check_observation6,
                      disorder_susceptibility, find_star, floquet_propagator,
                      matrix_exp, rotation_error_map, stroboscopic_evolve,
                      susceptibility)
from .lindblad import (Generator, JumpChannel, LindbladModel,
                       liouvillian_action, liouvillian_matrix, rk4_evolve,
                       trace_distance)
from .models import (bell_basis, dephasing_model, dephasing_perp_field_spectrum,
                     dfs_collective_model, dfs_independent_model,
                     expected_ham_conserved, expected_jump_conserved,
                     suppression_by_hamiltonian_model,
                     suppression_by_jump_model)
from .operators import (Sector, devectorize, hs_inner, kron, magnetization,
                        pauli, sandwich, site_operator, unitary_conjugation,
                        vectorize, z_signs)
from .spectral import (AsymptoticSubspace, SpectralData, asymptotic_subspace,
                       decompose, dual_basis)
from .xy import (BathSpec, NumericGenerator, XYParams, brillouin_zone,
                 dispersion, factorized_states,
                 free_fermion_sector_energies, ground_state_pair,
                 secular_liouvillian, theoretical_amplitude, xy_hamiltonian)

__all__ = [name for name in dir() if not name.startswith("_")]
