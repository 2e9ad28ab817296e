"""PAC-Bayes bound minimization over Gaussian exponential families.

The package minimizes the Catoni bound objective

    pi_theta[R] + lam KL(pi_theta || pi_prior) + C^2 / (8 lam n) - lam log(delta)

over natural parameters theta of a Gaussian family, treating the risk R as an
expensive black box.  The main solver recycles every risk evaluation through
Voronoi reweighting, projects the reweighted ledger onto the affine span of
the sufficient statistic, and takes damped closed-form steps toward the
surrogate optimum.  Score-function gradient descent baselines, a meta layer
that learns the prior across tasks, and a config-driven experiment runner
with a CLI round out the toolkit.
"""

__version__ = "0.1.0"

# The root exports what the README, demos, CLI and benchmark use; every other
# public name is imported from its module.
from .families import ConfigError, DomainError, GaussianFamily, standard_normal_params
from .risk import CustomRisk, EvalStack, QuadraticRisk, TanhSyntheticRisk
from .weighting import importance_weights, project, voronoi_weights
from .solver import CatoniConfig, evaluate_objective, run_supac_ce
from .baselines import GDConfig, run_gd
from .meta import (
    MetaConfig,
    TaskEnvironment,
    evaluate_prior,
    meta_objective,
    run_meta_sgd,
    sample_synthetic_task,
    tasks_from_json,
    tasks_to_json,
)
from .experiments import aggregate, run_experiment

__all__ = [
    "__version__",
    "DomainError",
    "ConfigError",
    "GaussianFamily",
    "standard_normal_params",
    "CustomRisk",
    "EvalStack",
    "QuadraticRisk",
    "TanhSyntheticRisk",
    "voronoi_weights",
    "importance_weights",
    "project",
    "CatoniConfig",
    "run_supac_ce",
    "evaluate_objective",
    "GDConfig",
    "run_gd",
    "MetaConfig",
    "TaskEnvironment",
    "sample_synthetic_task",
    "meta_objective",
    "run_meta_sgd",
    "evaluate_prior",
    "tasks_to_json",
    "tasks_from_json",
    "run_experiment",
    "aggregate",
]
