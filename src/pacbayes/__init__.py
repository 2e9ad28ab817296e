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

from .families import (
    DomainError,
    GaussianFamily,
    Moments,
    params_from_json,
    params_to_json,
    standard_normal_params,
)
from .risk import (
    CustomRisk,
    EvalStack,
    QuadraticRisk,
    TanhSyntheticRisk,
    eval_risk,
)
from .weighting import (
    SurrogateFit,
    exact_voronoi_weights_1d,
    importance_weights,
    project,
    uniform_weights,
    voronoi_weights,
)
from .solver import (
    CatoniConfig,
    SolverTrace,
    TraceRecord,
    bound_offset,
    catoni_bound,
    catoni_objective,
    damped_update,
    estimate_mean_risk,
    evaluate_objective,
    run_supac_ce,
    surrogate_argmin,
)
from .baselines import GDConfig, catoni_gradient_estimate, run_gd
from .meta import (
    MetaConfig,
    MetaTrace,
    TaskEnvironment,
    TaskSpec,
    evaluate_prior,
    meta_gradient,
    meta_objective,
    run_meta_sgd,
    sample_synthetic_task,
    tasks_from_json,
    tasks_to_json,
)
from .experiments import ConfigError, aggregate, run_experiment

__all__ = [
    "__version__",
    "DomainError",
    "GaussianFamily",
    "Moments",
    "params_from_json",
    "params_to_json",
    "standard_normal_params",
    "CustomRisk",
    "EvalStack",
    "QuadraticRisk",
    "TanhSyntheticRisk",
    "eval_risk",
    "SurrogateFit",
    "exact_voronoi_weights_1d",
    "importance_weights",
    "project",
    "uniform_weights",
    "voronoi_weights",
    "CatoniConfig",
    "SolverTrace",
    "TraceRecord",
    "bound_offset",
    "catoni_bound",
    "catoni_objective",
    "damped_update",
    "estimate_mean_risk",
    "evaluate_objective",
    "run_supac_ce",
    "surrogate_argmin",
    "GDConfig",
    "catoni_gradient_estimate",
    "run_gd",
    "MetaConfig",
    "MetaTrace",
    "TaskEnvironment",
    "TaskSpec",
    "evaluate_prior",
    "meta_gradient",
    "meta_objective",
    "run_meta_sgd",
    "sample_synthetic_task",
    "tasks_from_json",
    "tasks_to_json",
    "ConfigError",
    "aggregate",
    "run_experiment",
]
