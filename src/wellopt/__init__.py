"""Constrained, surrogate-assisted CMA-ES with a well-placement demo problem."""

from .benchmarks import rosenbrock, sphere
from .cma import (SearchDistribution, StrategyParams, check_termination,
                  default_strategy_params, rank_population, sample_individual,
                  sampling_transform, update_mean, update_strategy_state)
from .constraints import (PenaltyState, SumConstraint, constraint_violation,
                          maybe_increase_gammas, maybe_set_gammas, penalized,
                          sample_with_rejection)
from .ga import GaOptimizer, GaParams
from .harness import (Evaluator, RunConfig, RunRecord, build_problem,
                      compare_optimizers, run_batch, run_single)
from .metamodel import (LocalQuadraticModel, MahalanobisMetric,
                        SurrogateSettings, TrainingArchive,
                        approximate_ranking_step, default_surrogate_settings,
                        fit_local_model, select_neighbors)

__version__ = "0.1.0"
