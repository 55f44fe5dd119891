"""Model builders: architectures, likelihood wiring, initialization, NLL."""
import math

import numpy as np
import pytest

from muprop import (
    Mode,
    build_sbn_variational,
    build_structured_predictor,
    evaluate_nll,
    exact_expected_cost_and_grad,
    forward,
    init_params,
)
from muprop.models import ArchToken, parse_arch
from muprop.numerics import softplus

from helpers import config_rows


def test_parse_arch():
    toks = parse_arch("8-4-8")
    assert [t.units for t in toks] == [8, 4, 8]
    assert all(t.k == 0 for t in toks)
    toks = parse_arch("200x10-784")
    assert toks == (ArchToken(200, 10), ArchToken(784))
    assert toks[0].width == 2000
    for bad in ("8", "8-0-8", "8-4x1-8", "-4-8", "a-b"):
        with pytest.raises(ValueError):
            parse_arch(bad)


def test_predictor_meta_and_parameters():
    g = build_structured_predictor("4-2-4")
    assert g.meta["task"] == "structured_prediction"
    assert len(g.meta["logp_nodes"]) == 1
    names = {g.nodes[p].name for p in g.param_ids}
    assert names == {"w0", "b0", "w_out", "b_out"}
    assert len(g.stochastic_ids) == 1
    with pytest.raises(ValueError):
        build_structured_predictor("4-4")  # no hidden layer
    with pytest.raises(ValueError):
        build_structured_predictor("4-2-4", m=0)
    with pytest.raises(ValueError):
        build_structured_predictor("4x2-2-4")


def test_predictor_cost_is_target_bernoulli_nll():
    g = build_structured_predictor("4-2-4")
    rng = np.random.default_rng(0)
    params = {
        "w0": rng.normal(size=(2, 4)), "b0": rng.normal(size=2),
        "w_out": rng.normal(size=(4, 2)), "b_out": rng.normal(size=4),
    }
    x = rng.uniform(size=4).round()
    y = np.array([1.0, 0.0, 1.0, 1.0])
    h = np.array([1.0, 0.0])
    tr = forward(g, {"x": x, "y": y}, params,
                 forced={g.stochastic_ids[0]: h})
    logits = params["w_out"] @ h + params["b_out"]
    want = -(float(y @ logits) - float(np.sum(softplus(logits))))
    assert tr.cost_value(g.meta["cost"]) == pytest.approx(want, rel=1e-12)


def test_predictor_multi_sample_average_sits_between_extremes():
    g = build_structured_predictor("2-1-2", m=3)
    assert len(g.meta["logp_nodes"]) == 3 and len(g.stochastic_ids) == 3
    params = init_params(g, 1)
    x = np.array([1.0, 0.0])
    y = np.array([0.0, 1.0])
    # pin the three replicas to different hidden configurations
    forced = {s: np.array([float(i % 2)]) for i, s in enumerate(g.stochastic_ids)}
    tr = forward(g, {"x": x, "y": y}, params, forced=forced)
    lps = [tr.values[n].item() for n in g.meta["logp_nodes"]]
    want = -(np.log(np.mean(np.exp(lps))))
    assert tr.cost_value(g.meta["cost"]) == pytest.approx(want, rel=1e-12)
    assert min(-np.array(lps)) <= want <= max(-np.array(lps))
    # weight sharing: replicas with equal hidden values produce equal terms
    assert lps[0] == pytest.approx(lps[2], rel=1e-14)


def test_sbn_parameter_partition_and_bound_sign():
    model = build_sbn_variational("2-2-3")
    g = model.graph
    assert g.meta["task"] == "variational"
    assert set(model.generative) & set(model.inference) == set()
    assert set(model.generative) | set(model.inference) == set(g.param_ids)
    assert len(model.latents) == 2
    params = init_params(g, 0)
    tr = forward(g, {"x": np.array([1.0, 0.0, 1.0])}, params, rng_seed=4)
    # the recorded bound node is exactly the negated cost
    assert tr.cost_value(g.meta["bound_node"]) == pytest.approx(
        -tr.cost_value(model.cost), rel=1e-14)
    with pytest.raises(ValueError):
        build_sbn_variational("2-3x4")  # categorical observation
    with pytest.raises(ValueError):
        build_sbn_variational("784")


def test_sbn_cost_hand_value_one_layer():
    model = build_sbn_variational("2-3")
    g = model.graph
    params = {
        "q_w0": np.array([[0.5, -0.2, 0.1], [0.3, 0.0, -0.4]]),
        "q_b0": np.array([0.1, -0.2]),
        "p_prior": np.array([0.2, -0.1]),
        "p_w0": np.array([[0.4, 0.0], [-0.3, 0.2], [0.1, 0.5]]),
        "p_b0": np.array([0.0, 0.1, -0.1]),
    }
    x = np.array([1.0, 0.0, 1.0])
    h = np.array([1.0, 0.0])
    tr = forward(g, {"x": x}, params, forced={model.latents[0]: h})
    lq = params["q_w0"] @ x + params["q_b0"]
    log_q = float(h @ lq - np.sum(softplus(lq)))
    lp = params["p_w0"] @ h + params["p_b0"]
    log_p = float(h @ params["p_prior"] - np.sum(softplus(params["p_prior"]))
                  + x @ lp - np.sum(softplus(lp)))
    assert tr.cost_value(model.cost) == pytest.approx(log_q - log_p, rel=1e-12)
    # forcing also fixes the recorded sampling probability to q
    assert tr.logprob == pytest.approx(log_q, rel=1e-12)


def test_sbn_categorical_latents():
    model = build_sbn_variational("2x3-4")
    g = model.graph
    (latent,) = model.latents
    assert g.nodes[latent].op == "categorical" and g.nodes[latent].k == 3
    params = init_params(g, 2)
    tr = forward(g, {"x": np.ones(4)}, params, rng_seed=0)
    v = tr.values[latent].reshape(2, 3)
    assert np.all(v.sum(axis=1) == 1.0)


def test_init_params_shapes_scales_determinism():
    g = build_structured_predictor("6-3-6")
    p1 = init_params(g, 9)
    p2 = init_params(g, 9)
    p3 = init_params(g, 10)
    assert set(p1) == {"w0", "b0", "w_out", "b_out"}
    assert all(np.array_equal(p1[k], p2[k]) for k in p1)
    assert any(not np.array_equal(p1[k], p3[k]) for k in ("w0", "w_out"))
    assert np.array_equal(p1["b0"], np.zeros(3))  # zero-init biases stay zero
    assert np.max(np.abs(p1["w0"])) <= 1.0 / math.sqrt(6)
    assert np.max(np.abs(p1["w_out"])) <= 1.0 / math.sqrt(3)
    assert 0.0 < np.max(np.abs(p1["w0"]))


def test_evaluate_nll_against_enumerated_likelihood():
    g = build_structured_predictor("2-2-2")
    params = init_params(g, 3)
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    Y = np.array([[1.0, 1.0], [0.0, 1.0]])
    # exact -log p(y|x) = -log sum_h q(h|x) p(y|h) by enumerating the hidden
    cost_node = g.meta["cost"]
    exact = 0.0
    for i in range(len(X)):
        total = 0.0
        for cfg in config_rows(g):
            tr = forward(g, {"x": X[i], "y": Y[i]}, params, forced=cfg)
            p_h = math.exp(tr.logprob.item())
            total += p_h * math.exp(-tr.cost_value(cost_node))
        exact += -math.log(total)
    exact /= len(X)
    mc = evaluate_nll(g, params, (X, Y), n_samples=4000, seed=0)
    assert mc == pytest.approx(exact, abs=0.02)
    with pytest.raises(ValueError, match="empty"):
        evaluate_nll(g, params, (X[:0], Y[:0]))
    with pytest.raises(ValueError, match="at least one"):
        evaluate_nll(g, params, (X, Y), n_samples=0)


def test_evaluate_nll_variational_matches_expected_cost():
    model = build_sbn_variational("2-3")
    params = init_params(model.graph, 5)
    X = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    want = np.mean([
        exact_expected_cost_and_grad(
            model.graph, model.cost, {"x": x}, params, wrt=[]
        ).expected_cost
        for x in X
    ])
    got = evaluate_nll(model, params, X, n_samples=3000, seed=1)
    assert got == pytest.approx(want, abs=0.05)
    with pytest.raises(ValueError, match="empty"):
        evaluate_nll(model, params, X[:0])


def test_mean_field_relaxation_covers_model_graphs():
    g = build_structured_predictor("3-2-3", m=2)
    params = init_params(g, 7)
    tr = forward(g, {"x": np.ones(3), "y": np.zeros(3)}, params,
                 mode=Mode.MEAN_FIELD)
    assert np.isfinite(tr.cost_value(g.meta["cost"]))
    model = build_sbn_variational("2-2-3")
    tr = forward(model.graph, {"x": np.ones(3)}, init_params(model.graph, 0),
                 mode=Mode.MEAN_FIELD)
    assert np.isfinite(tr.cost_value(model.cost))
