"""Graph-based primal-dual splitting for structured composite monotone
inclusions."""

from .linalg import (BlockVector, LinearMap, is_psd, kron_apply, pinv,
                     spectral_norm)
from .operators import (ComposedBlock, ProblemInstance, ResolventOp,
                        SingleValuedOp, affine_resolvent, l1_resolvent,
                        least_squares_gradient, prox_l1,
                        resolvent_of_inverse, zero_resolvent)
from .scheme import (CoefficientScheme, StepBounds, assemble_omega,
                     assemble_upsilons, check_explicit, compute_UW,
                     compute_tau, load_scheme, save_scheme, step_bounds,
                     validate_psd, validate_standing)
from .graphs import (GraphSpec, complete_graph, laplacian, load_graph,
                     onto_decomposition, path_graph, save_graph,
                     scheme_complete, scheme_from_graph, scheme_ring,
                     scheme_sequential, scheme_star, star_graph)
from .solver import (IterateState, SolveOptions, SolveReport,
                     StarNormContext, certify_solution, eval_Gamma,
                     residual_star, solve, step)
from .fusedlasso import (ExperimentConfig, FusedLassoInstance,
                         difference_matrix, gen_instance, objective,
                         reference_solve, run_grid, to_problem)

__version__ = "0.1.0"
