"""Exact ground states, critical couplings, and entanglement measures of the
extended Dicke (Dicke-LMG) model for finite qubit ensembles."""

from .classical import (MeanFieldPoint, critical_coupling_cl,
                        critical_coupling_clcr, hp_first_energy,
                        mean_field_energy, mean_field_minimize,
                        spin_coherent_expectations, spin_coherent_report)
from .entanglement import (cw_of_ground, entropy_of_entanglement,
                           entropy_of_ground, reduce_to_two_qubits,
                           trace_out_field, wootters_concurrence)
from .errors import ConvergenceError, InputError, UnboundedSearchError
from .fullmodel import (ConvergedGround, FullHamiltonian, build_full,
                        build_rwa_product, critical_coupling_1_cr,
                        effective_coupling, ground_full)
from .model import DickeBasis, ModelParams, ProductBasis, PureState
from .rwa import (GroundStateResult, TridiagMatrix, amplitude_h, build_subspace,
                  critical_coupling_1, first_nonvacuum_state, ground_state,
                  ground_states, transition_ladder, tridiag_ground)
from .sweep import (BoundarySegment, GridRecord, SweepSpec, boundary_trace,
                    first_lambda_boundaries, run_sweep)

__version__ = "0.1.0"
