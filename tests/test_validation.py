"""Validation: which non-finite values a pass reports, and how often it checks.

A validated pass checks its bound inputs and computed values every pass, and
each parameter once per binding (`graph.bind`). These tests pin that the
errors are what they were before parameters were memoized (the same node, in
the same order, from every caller), and that a training step checks each
parameter once, not once per example and pass.
"""
from __future__ import annotations

import numpy as np
import pytest

import muprop.training as training
from muprop import EstimatorConfig, Graph, Mode, estimate, forward
from muprop.estimators import ESTIMATORS
from muprop.graph import NonFiniteError, bind
from muprop.training import ExperimentConfig, run_experiment


def small_net():
    """x (node 0) -> affine(w 1, b 2) -> bernoulli -> quadratic cost."""
    g = Graph()
    x = g.input((3,), "x")
    w = g.parameter((2, 3), "w")
    b = g.parameter((2,), "b")
    h = g.bernoulli(g.affine(x, w, b))
    cost = g.cost(g.sum(g.square(h)))
    params = {"w": np.full((2, 3), 0.1), "b": np.zeros(2)}
    return g, cost, {"x": np.ones(3)}, params


def message(node):
    return f"non-finite value produced at node {node} in row 0$"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["w", "b"])
def test_forward_names_a_non_finite_parameter_given_a_plain_dict(bad, name):
    g, _cost, inputs, params = small_net()
    params[name][0] = bad
    for mode, seed in ((Mode.STOCHASTIC, 3), (Mode.MEAN_FIELD, None)):
        with pytest.raises(NonFiniteError, match=message(g.node_id(name))):
            forward(g, inputs, params, mode=mode, rng_seed=seed)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_forward_names_a_non_finite_parameter_given_a_binding(bad):
    g, _cost, inputs, params = small_net()
    params["b"][1] = bad
    bound = bind(g, params)
    for _ in range(2):
        with pytest.raises(NonFiniteError, match=message(g.node_id("b"))):
            forward(g, inputs, bound, rng_seed=3)
    assert bound.finite == {g.node_id("w")}  # a bad parameter is checked again, and raises


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ESTIMATORS)
def test_every_estimator_names_a_non_finite_parameter(name, bad):
    g, cost, inputs, params = small_net()
    params["w"][1, 2] = bad
    with pytest.raises(NonFiniteError, match=message(g.node_id("w"))):
        estimate(EstimatorConfig(name), g, cost, inputs, params, rng_seed=5)


def test_training_names_a_non_finite_parameter_at_step_0(tmp_path, monkeypatch):
    def planted(graph, seed):
        params = init_params(graph, seed)
        params["w0"][0, 0] = np.nan
        return params

    init_params = training.init_params
    monkeypatch.setattr(training, "init_params", planted)
    cfg = ExperimentConfig(arch="4-2-4", batch_size=3, train_size=3, eval_size=2, eval_samples=2,
                           epochs=1, out_dir=str(tmp_path))
    with pytest.raises(NonFiniteError) as err:
        run_experiment(cfg)
    g = training.build_structured_predictor("4-2-4")
    assert str(err.value) == f"non-finite value produced at node {g.node_id('w0')} in row 0"


def test_a_non_finite_input_with_a_lower_id_is_named_first():
    g, _cost, inputs, params = small_net()
    params["w"][0, 0] = np.nan
    with pytest.raises(NonFiniteError, match=message(g.node_id("w"))):
        forward(g, inputs, params, rng_seed=3)
    with pytest.raises(NonFiniteError, match=message(g.node_id("x"))):
        forward(g, {"x": np.array([1.0, np.inf, 0.0])}, params, rng_seed=3)


def test_a_binding_that_knows_a_bad_parameter_still_names_a_bad_input_first():
    g, _cost, inputs, params = small_net()
    params["w"][0, 0] = np.nan
    bound = bind(g, params)
    with pytest.raises(NonFiniteError, match=message(g.node_id("w"))):
        forward(g, inputs, bound, rng_seed=3)
    with pytest.raises(NonFiniteError, match=message(g.node_id("x"))):
        forward(g, {"x": np.array([1.0, np.inf, 0.0])}, bound, rng_seed=3)


def test_an_unvalidated_pass_fills_no_memo_and_raises_nothing():
    g, cost, inputs, params = small_net()
    params["w"][0, 0] = np.nan
    bound = bind(g, params)
    tr = forward(g, inputs, bound, rng_seed=3, validate=False)
    assert np.isnan(tr.values[g.node_id("w")]).any()
    estimate(EstimatorConfig("muprop"), g, cost, inputs, bound, rng_seed=3, validate=False)
    assert bound.finite == set()


def test_rebinding_after_an_in_place_change_checks_again():
    g, _cost, inputs, params = small_net()
    bound = bind(g, params)
    forward(g, inputs, bound, rng_seed=3)
    assert bound.finite == {g.node_id("w"), g.node_id("b")}
    params["w"][1, 1] = np.nan  # the binding holds these arrays, and its memo is now stale
    with pytest.raises(NonFiniteError, match=message(g.node_id("w") + 2)):  # the affine
        forward(g, inputs, bound, rng_seed=3)
    with pytest.raises(NonFiniteError, match=message(g.node_id("w"))):
        forward(g, inputs, bind(g, params), rng_seed=3)


def test_a_binding_is_bound_to_its_graph():
    g, cost, inputs, params = small_net()
    other, *_ = small_net()
    bound = bind(other, params)
    assert bind(other, bound) is bound
    with pytest.raises(ValueError, match="bound to another graph"):
        forward(g, inputs, bound, rng_seed=3)
    with pytest.raises(ValueError, match="bound to another graph"):
        estimate(EstimatorConfig("lr"), g, cost, inputs, bound, rng_seed=3)


@pytest.mark.parametrize("name", ["muprop", "muprop_rollout"])
def test_a_training_step_checks_each_parameter_once(tmp_path, monkeypatch, name):
    """One validated step of three examples, each a stochastic pass plus one
    or two anchor passes, checks each parameter array once."""
    params = {}

    def captured(graph, seed):
        params.update(init_params(graph, seed))
        return params

    init_params = training.init_params
    monkeypatch.setattr(training, "init_params", captured)
    checks: dict[str, int] = {}
    isfinite = np.isfinite

    def spy(x, *args, **kwargs):
        for key, p in params.items():
            if isinstance(x, np.ndarray) and np.may_share_memory(x, p):
                checks[key] = checks.get(key, 0) + 1
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", spy)
    cfg = ExperimentConfig(arch="4-3-2-4", estimator=name, batch_size=3, train_size=3,
                           eval_size=2, eval_samples=2, epochs=1, out_dir=str(tmp_path))
    assert run_experiment(cfg)["steps"] == 1
    assert checks == {key: 1 for key in params}
