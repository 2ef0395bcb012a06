"""Disorder chaos numerics for short-range spin glasses on hypergraphs."""

__version__ = "0.1.0"

from .errors import CapacityError, NumericalError, SpinchaosError, ValidationError
from .hypergraph import (Hypergraph, MultiIndex, ball, ball_is_hypertree,
                         ball_sizes, berge_distance, component, connected_in,
                         from_text, has_berge_cycle, hypergraph, interior_edges,
                         multi_index, to_text, vertex_support)
from .disorder import (DisorderModel, couple_symmetric, levy_a_n,
                       perturb_continuous, perturb_discrete, rho)
from .gibbs import (CorrelationMatrix, GroundStates, SpinSystem,
                    exact_correlations, ground_state_correlations,
                    ground_states, mcmc_correlations, overlap_second_moment,
                    spin_system)
from .hermite import (CoefficientTable, SignVerdict, adaptive_gaussian_mean,
                      coeff_quadrature, coefficient_sweep, gauss_hermite,
                      hermite_values, parseval_tail, semigroup_weight,
                      sign_criterion, weighted_coefficient_sum)
from .randgraph import (DilutedSpec, ExplorationTrace, diluted_spec, explore,
                        growth_stats, hypertree_trend, sample_diluted)
from .chaos import (BoundCheck, ChaosCurve, bridged_coefficient, chaos_curve,
                    coefficient_audit, counterexample_suite, decoupling_error,
                    levy_chaos, lower_bound_discrete, lower_bound_gaussian,
                    monotonicity_check, remark_graph, tanh_product_error,
                    theorem_bound_check, two_lobe_graph)
from .rng import substream
