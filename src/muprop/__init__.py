"""Stochastic computation graphs with backpropagation through discrete samples.

Build a `Graph` of deterministic ops and Bernoulli/categorical sampling nodes,
run it in sampling or mean-propagation mode, and estimate parameter gradients
of expected costs with unbiased (score-function, Taylor-anchored) or biased
(straight-through, rescaled-derivative) estimators. Small graphs can be checked
exactly against full enumeration of the joint sample space.
"""
from .distributions import BernoulliLayer, CategoricalLayer
from .estimators import (
    BaselineState,
    EstimatorConfig,
    GradientEstimate,
    apply_baselines,
    estimate,
    half_estimate,
    idb_update,
    lr_estimate,
    mean_field_pass,
    muprop_estimate,
    muprop_rollout_estimate,
    st_estimate,
    stochastic_layers,
)
from .graph import Graph, Kind, Mode, Node, Trace, backward, forward, gradients
from .models import build_sbn_variational, build_structured_predictor, evaluate_nll, init_params
from .numerics import as_tensor, log_mean_exp
from .oracle import (
    EnumerationReport,
    empirical_moments,
    estimator_expectation,
    exact_expected_cost_and_grad,
    finite_difference_check,
)
from .training import ExperimentConfig, load_checkpoint, run_experiment, save_checkpoint

__all__ = [
    "BaselineState",
    "BernoulliLayer",
    "CategoricalLayer",
    "EnumerationReport",
    "EstimatorConfig",
    "ExperimentConfig",
    "GradientEstimate",
    "Graph",
    "Kind",
    "Mode",
    "Node",
    "Trace",
    "apply_baselines",
    "as_tensor",
    "backward",
    "build_sbn_variational",
    "build_structured_predictor",
    "empirical_moments",
    "estimate",
    "estimator_expectation",
    "evaluate_nll",
    "exact_expected_cost_and_grad",
    "finite_difference_check",
    "forward",
    "gradients",
    "half_estimate",
    "idb_update",
    "init_params",
    "load_checkpoint",
    "log_mean_exp",
    "lr_estimate",
    "mean_field_pass",
    "muprop_estimate",
    "muprop_rollout_estimate",
    "run_experiment",
    "save_checkpoint",
    "st_estimate",
    "stochastic_layers",
]
