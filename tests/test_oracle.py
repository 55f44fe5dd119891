"""Enumeration oracle: exact expectations, moments, and the graph family."""
import numpy as np
import pytest

from muprop import (
    EstimatorConfig,
    Graph,
    empirical_moments,
    enumerate_configs,
    estimator_expectation,
    exact_expected_cost_and_grad,
    finite_difference_check,
    stochastic_layers,
)
from muprop import estimators as estimators_mod
from muprop import graph as graph_mod
from muprop import oracle as oracle_mod
from muprop.estimators import BaselineState, IdbNet
from muprop.oracle import (
    MAX_CONFIGS,
    config_count,
    grad_relative_error,
    make_chain,
    relative_error,
    sample_family,
)

from helpers import single_unit


def two_unit_product():
    g = Graph()
    th = g.parameter((2,), "th", init="zeros")
    h = g.bernoulli(th)
    c = g.cost(g.mul(g.sum(g.slice(h, 0, 1)), g.sum(g.slice(h, 1, 2))))
    return g, th, c


def test_exact_expectation_hand_values():
    g, th, c = single_unit(power=3)
    rep = exact_expected_cost_and_grad(g, c, params={"th": np.zeros(())})
    assert rep.expected_cost == pytest.approx(0.5)  # E[x^3] = p at logit 0
    assert rep.grads[th] == pytest.approx(0.25, abs=1e-15)
    assert rep.config_count == 2

    g2, th2, c2 = two_unit_product()
    rep2 = exact_expected_cost_and_grad(g2, c2, params={"th": np.zeros(2)})
    assert rep2.expected_cost == pytest.approx(0.25)
    assert np.allclose(rep2.grads[th2], [0.125, 0.125], atol=1e-15)
    assert rep2.config_count == 4


def test_configuration_probabilities_cover_the_support():
    g, _, _ = two_unit_product()
    assert config_count(g) == 4
    configs = list(enumerate_configs(g))
    assert len(configs) == 4
    seen = {tuple(cfg[g.stochastic_ids[0]]) for cfg in configs}
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_enumeration_guard_rejects_oversized_supports():
    g = Graph()
    th = g.parameter((17,), "th", init="zeros")
    g.cost(g.sum(g.bernoulli(th)))
    assert config_count(g) == 2**17 > MAX_CONFIGS
    with pytest.raises(ValueError, match="limit"):
        list(enumerate_configs(g))
    det = Graph()
    det.cost(det.square(det.parameter((), "w")))
    with pytest.raises(ValueError, match="no stochastic"):
        list(enumerate_configs(det))


def test_estimator_expectations_single_unit():
    """Frozen two-point expectations at logit 0 for each estimator."""
    g3, th3, c3 = single_unit(power=3)
    p3 = {"th": np.zeros(())}
    lr = estimator_expectation(EstimatorConfig("lr"), g3, c3, params=p3)
    mu = estimator_expectation(EstimatorConfig("muprop"), g3, c3, params=p3)
    st = estimator_expectation(EstimatorConfig("st"), g3, c3, params=p3)
    half = estimator_expectation(EstimatorConfig("half"), g3, c3, params=p3)
    assert lr[th3] == pytest.approx(0.25, abs=1e-15)       # unbiased
    assert mu[th3] == pytest.approx(0.25, abs=1e-15)       # unbiased
    assert st[th3] == pytest.approx(0.375, abs=1e-15)      # biased on x^3
    assert half[th3] == pytest.approx(0.375, abs=1e-15)    # biased on x^3

    g2, th2, c2 = single_unit(power=2)
    p2 = {"th": np.zeros(())}
    half2 = estimator_expectation(EstimatorConfig("half"), g2, c2, params=p2)
    assert half2[th2] == pytest.approx(0.25, abs=1e-15)    # exact on x^2


def test_constant_baseline_leaves_expectation_unchanged():
    g, th, c = single_unit(power=3)
    params = {"th": np.asarray(0.4)}
    plain = estimator_expectation(EstimatorConfig("lr"), g, c, params=params)
    warm = BaselineState()
    warm.b[g.stochastic_ids[0]] = 0.37
    with_b = estimator_expectation(
        EstimatorConfig("lr", flags={"c"}), g, c, params=params, baselines=warm
    )
    assert with_b[th] == pytest.approx(plain[th], abs=1e-15)
    # the template state is copied per configuration, never mutated
    assert warm.b[g.stochastic_ids[0]] == 0.37


def test_moments_train_the_input_dependent_baseline():
    # the state evolves across draws as in training, idb net included
    fam = sample_family(9)
    config = EstimatorConfig("lr", flags=("c", "idb"))
    bl = BaselineState(seed=5)
    empirical_moments(config, fam.graph, fam.cost, fam.inputs, fam.params,
                      n_samples=5, seed=0, baselines=bl)
    untrained = IdbNet(fam.inputs["x"].size, bl.idb_hidden, bl.seed)
    assert not np.array_equal(bl.idb.w1, untrained.w1)
    # while an expectation trains only its per-configuration copies
    trained = bl.idb.w1.copy()
    estimator_expectation(config, fam.graph, fam.cost, fam.inputs, fam.params, baselines=bl)
    assert np.array_equal(bl.idb.w1, trained)


def test_variance_normalization_has_no_expectation():
    g, _, c = single_unit()
    with pytest.raises(ValueError, match="no closed-form expectation"):
        estimator_expectation(
            EstimatorConfig("lr", flags={"vn"}), g, c, params={"th": np.zeros(())}
        )


@pytest.mark.parametrize("name,passes", [("lr", 64), ("st", 64), ("half", 64),
                                         ("muprop", 65), ("muprop_rollout", 192)])
def test_estimator_expectation_runs_one_forced_pass_per_configuration(name, passes, monkeypatch):
    """64 configurations: one forced pass each, plus muprop's shared mean-field
    pass, or rollout's two per-layer anchor passes per configuration."""
    fam = sample_family(9)
    assert config_count(fam.graph) == 64 and len(stochastic_layers(fam.graph)) == 2
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return graph_mod.forward(*args, **kwargs)

    for mod in (estimators_mod, oracle_mod):
        monkeypatch.setattr(mod, "forward", counting)
    estimator_expectation(EstimatorConfig(name), fam.graph, fam.cost, fam.inputs, fam.params)
    assert len(calls) == passes


def test_empirical_moments_match_two_pass_statistics():
    g, th, c = single_unit(power=2)
    params = {"th": np.asarray(0.0)}
    cfg = EstimatorConfig("lr")
    n = 64
    mean, var, mean_cost = empirical_moments(cfg, g, c, params=params,
                                             n_samples=n, seed=5)
    # regenerate the identical draw sequence for a plain two-pass reference
    from muprop import estimate
    from muprop.rng import fold
    vals = np.array([
        float(estimate(cfg, g, c, None, params, rng_seed=fold(5, i)).grads[th])
        for i in range(n)
    ])
    assert mean[th] == pytest.approx(vals.mean(), rel=1e-12)
    assert var[th] == pytest.approx(vals.var(), rel=1e-12)
    assert 0.0 <= mean_cost <= 1.0
    with pytest.raises(ValueError, match="at least one"):
        empirical_moments(cfg, g, c, params=params, n_samples=0)


def test_exact_variances_single_unit_quadratic():
    """Per-draw variance over the enumerated support at logit 0, cost x^2."""
    import math

    from muprop import estimate, forward

    g, th, c = single_unit(power=2)
    params = {"th": np.zeros(())}
    for name, want in (("lr", 0.0625), ("muprop", 0.015625)):
        m1 = m2 = 0.0
        for cfg in enumerate_configs(g):
            tr = forward(g, params=params, forced=cfg)
            p = math.exp(sum(tr.logprobs.values()))
            est = estimate(EstimatorConfig(name), g, c, None, params, None,
                           forced=cfg)
            v = float(est.grads[th])
            m1 += p * v
            m2 += p * v * v
        assert m2 - m1 * m1 == pytest.approx(want, abs=1e-15), name
        assert m1 == pytest.approx(0.25, abs=1e-15), name  # both unbiased here


def test_relative_error_helpers():
    assert relative_error([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert relative_error([1.1], [1.0]) == pytest.approx(0.1)
    assert relative_error([1e-12], [0.0]) == pytest.approx(1e-4)  # floored
    got = {0: np.array([1.0, 2.0]), 1: np.array([3.0])}
    want = {0: np.array([1.0, 2.0]), 1: np.array([3.3])}
    assert grad_relative_error(got, want) == pytest.approx(0.3 / 3.3)


def test_finite_difference_check_on_small_graph():
    g, th, c = single_unit(power=3)
    err = finite_difference_check(g, c, params={"th": np.asarray(0.2)})
    assert err < 1e-8
    with pytest.raises(ValueError, match="positive"):
        finite_difference_check(g, c, params={"th": np.asarray(0.2)}, step=0.0)
    del th


def test_family_samples_are_enumerable_and_reproducible():
    for seed in range(6):
        fam = sample_family(seed)
        assert 1 <= fam.depth <= 3
        assert config_count(fam.graph) <= MAX_CONFIGS
        again = sample_family(seed)
        assert fam.graph.to_json() == again.graph.to_json()
        for k in fam.params:
            assert np.array_equal(fam.params[k], again.params[k])
        rep = exact_expected_cost_and_grad(fam.graph, fam.cost, fam.inputs, fam.params)
        assert np.isfinite(rep.expected_cost)
    kinds = {k for s in range(12) for k in sample_family(s).kinds}
    assert kinds == {"bernoulli", "categorical"}
    only_b = {k for s in range(8)
              for k in sample_family(s, allow_categorical=False).kinds}
    assert only_b == {"bernoulli"}


def test_chain_layout_matches_graph():
    fam, layout = make_chain(3, 2)
    assert fam.depth == 2 and len(layout["weights"]) == 2
    assert [w.shape[0] for w, _ in layout["weights"]] == layout["sizes"][1:]
    # constants in the layout are the ones bound in the graph
    a_id = fam.graph.node_id("a")
    assert np.array_equal(fam.graph.constants[a_id], layout["a"])
    rep = exact_expected_cost_and_grad(fam.graph, fam.cost, fam.inputs, fam.params)
    assert rep.config_count == 2 ** sum(layout["sizes"][1:])
