"""Enumeration oracle: exact expectations, moments, and the graph family."""
import copy
import itertools
import math

import numpy as np
import pytest

from muprop import (
    EstimatorConfig,
    Graph,
    empirical_moments,
    estimator_expectation,
    exact_expected_cost_and_grad,
    finite_difference_check,
    stochastic_layers,
)
from muprop import estimators as estimators_mod
from muprop import graph as graph_mod
from muprop import oracle as oracle_mod
from muprop.distributions import BernoulliLayer, CategoricalLayer
from muprop.estimators import IDB_HIDDEN, BaselineState, IdbNet
from muprop.oracle import (
    MAX_CONFIGS,
    config_blocks,
    config_count,
    grad_relative_error,
    make_chain,
    relative_error,
    sample_family,
)

from helpers import config_rows, single_unit


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
    configs = list(config_rows(g))
    assert len(configs) == 4
    seen = {tuple(cfg[g.stochastic_ids[0]]) for cfg in configs}
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_enumeration_guard_rejects_oversized_supports():
    g = Graph()
    th = g.parameter((17,), "th", init="zeros")
    g.cost(g.sum(g.bernoulli(th)))
    assert config_count(g) == 2**17 > MAX_CONFIGS
    with pytest.raises(ValueError, match="limit"):
        list(config_blocks(g))
    det = Graph()
    det.cost(det.square(det.parameter((), "w")))
    with pytest.raises(ValueError, match="no stochastic"):
        list(config_blocks(det))


def test_oversized_supports_are_counted_from_shapes(monkeypatch):
    g = Graph()
    h = g.bernoulli(g.parameter((64,), "th"))
    c = g.categorical(g.parameter((30,), "tc"), k=3)
    g.cost(g.sum(g.concat(h, c)))

    def built(width, k=None):
        raise AssertionError(f"support of width {width} built")

    for cls in (BernoulliLayer, CategoricalLayer):
        monkeypatch.setattr(cls, "support", staticmethod(built))
    assert config_count(g) == 2**64 * 3**10
    with pytest.raises(ValueError, match=f"{2**64 * 3**10} configurations"):
        list(config_blocks(g))


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
    untrained = IdbNet(fam.inputs["x"].size, IDB_HIDDEN, bl.seed)
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


@pytest.mark.parametrize("name,passes", [("lr", 1), ("st", 1), ("half", 1),
                                         ("muprop", 2), ("muprop_rollout", 3)])
def test_estimator_expectation_runs_one_forced_pass_per_block(name, passes, monkeypatch):
    """64 configurations in one block: one forced pass of 64 rows, plus muprop's
    mean-field pass, or rollout's two per-layer anchor passes."""
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
        for cfg in config_rows(g):
            tr = forward(g, params=params, forced=cfg)
            p = math.exp(tr.logprob.item())
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
        assert fam.graph.nodes == again.graph.nodes
        assert fam.graph.meta == again.graph.meta
        assert fam.graph.constants.keys() == again.graph.constants.keys()
        for k, v in fam.graph.constants.items():
            assert np.array_equal(v, again.graph.constants[k])
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


# -- configurations as rows -----------------------------------------------------

SCORE_FLAG_SETS = ((), ("c",), ("c", "idb"))


def row_cases():
    """sample_family(0..7) and one 3-layer Bernoulli chain."""
    cases = [sample_family(seed) for seed in range(8)]
    return cases + [make_chain(4, 3, sizes=[2, 2, 3, 2])[0]]


def per_configuration(graph, cost, inputs, params, config, state):
    """Reference expectation: one-row `estimate` per configuration, each on a
    fresh copy of `state`, weighted by its forced pass's probability."""
    from muprop import estimate, forward

    total = {}
    for cfg in config_rows(graph):
        p = np.exp(forward(graph, inputs, params, forced=cfg).logprob.item())
        est = estimate(config, graph, cost, inputs, params, None,
                       baselines=copy.deepcopy(state), forced=cfg, idb_input=inputs["x"])
        for w, g in est.grads.items():
            total[w] = total.get(w, 0.0) + p * g
    return total


def test_rowed_oracles_match_a_per_configuration_loop():
    from muprop import forward

    for fam in row_cases():
        g, c, x, p = fam.graph, fam.cost, fam.inputs, fam.params
        state = BaselineState(b={s: 0.3 for s in g.stochastic_ids}, seed=2)
        # the exact gradient is the expectation of the plain score-function draw
        rep = exact_expected_cost_and_grad(g, c, x, p)
        want = per_configuration(g, c, x, p, EstimatorConfig("lr"), BaselineState())
        assert grad_relative_error(rep.grads, want) < 1e-12
        want_cost = sum(math.exp(t.logprob.item()) * t.cost_value(c)
                        for t in (forward(g, x, p, forced=cfg) for cfg in config_rows(g)))
        assert relative_error(rep.expected_cost, want_cost) < 1e-12
        assert rep.config_count == config_count(g)
        for name in estimators_mod.ESTIMATORS:
            for flags in SCORE_FLAG_SETS if name in estimators_mod.SCORE_ESTIMATORS else ((),):
                config = EstimatorConfig(name, flags=flags)
                got = estimator_expectation(config, g, c, x, p, baselines=state)
                want = per_configuration(g, c, x, p, config, state)
                assert grad_relative_error(got, want) < 1e-12, (fam.kinds, name, flags)


def test_rows_follow_the_itertools_configuration_order():
    """Row i of the enumeration is configuration i of the product of supports."""
    for seed in (0, 3, 5, 9):
        g = sample_family(seed).graph
        supports = []
        for sid in g.stochastic_ids:
            node = g.nodes[sid]
            if node.op == "bernoulli":
                supports.append([np.array(bits[::-1]) for bits in
                                 itertools.product((0.0, 1.0), repeat=node.shape[0])])
            else:
                eye = np.eye(node.k)
                supports.append([eye[list(idx)].reshape(node.shape) for idx in
                                 itertools.product(range(node.k), repeat=node.shape[0] // node.k)])
        want = list(itertools.product(*supports))
        got = list(config_rows(g))
        assert len(got) == len(want)
        for cfg, combo in zip(got, want):
            assert all(np.array_equal(cfg[s], v) for s, v in zip(g.stochastic_ids, combo))


def test_blocks_of_rows_sum_to_the_single_block(monkeypatch):
    """Splitting the support into many blocks changes only the summation order;
    every block sees the caller's baseline statistics."""
    cases = [sample_family(s) for s in (1, 9)] + [make_chain(4, 3, sizes=[2, 2, 3, 2])[0]]
    configs = [EstimatorConfig(name, flags=("c", "idb") if name in estimators_mod.SCORE_ESTIMATORS
                               else ()) for name in estimators_mod.ESTIMATORS]

    def run(fam):
        state = BaselineState(b={s: 0.3 for s in fam.graph.stochastic_ids}, seed=2)
        args = (fam.graph, fam.cost, fam.inputs, fam.params)
        rep = exact_expected_cost_and_grad(*args)
        return rep, [estimator_expectation(cfg, *args, baselines=state) for cfg in configs]

    whole = [run(fam) for fam in cases]
    monkeypatch.setattr(oracle_mod, "BLOCK_ELEMENTS", 1)  # one configuration per block
    blocks = [len(list(oracle_mod.config_blocks(fam.graph))) for fam in cases]
    assert blocks == [config_count(fam.graph) for fam in cases] and min(blocks) >= 8
    for fam, (rep, exps) in zip(cases, whole):
        got_rep, got_exps = run(fam)
        assert relative_error(got_rep.expected_cost, rep.expected_cost) < 1e-12
        assert grad_relative_error(got_rep.grads, rep.grads) < 1e-12
        for cfg, got, want in zip(configs, got_exps, exps):
            assert grad_relative_error(got, want) < 1e-12, cfg.name
    monkeypatch.setattr(oracle_mod, "BLOCK_ELEMENTS", 7 * 40)  # a few rows per block
    fam = cases[1]
    assert 1 < len(list(oracle_mod.config_blocks(fam.graph))) < config_count(fam.graph)
    got_rep, got_exps = run(fam)
    assert grad_relative_error(got_rep.grads, whole[1][0].grads) < 1e-12
    assert all(grad_relative_error(a, b) < 1e-12 for a, b in zip(got_exps, whole[1][1]))


def test_a_non_finite_configuration_is_named():
    """Every configuration is checked, not just the first one."""
    from muprop import forward

    g = Graph()
    h = g.bernoulli(g.parameter((1,), "th"))
    big = g.constant(np.array([1e200]))
    sq = g.square(g.mul(h, big))
    c = g.cost(g.sum(sq))
    params = {"th": np.zeros(1)}
    assert sq == 4
    with pytest.raises(ValueError, match="non-finite value produced at node 4"):
        forward(g, params=params, forced={h: np.array([1.0])})
    assert np.isfinite(forward(g, params=params, forced={h: np.array([0.0])}).cost_value(c))
    with pytest.raises(ValueError, match="node 4 in configuration 1"):
        exact_expected_cost_and_grad(g, c, params=params)
    for name in estimators_mod.ESTIMATORS:
        with pytest.raises(ValueError, match="node 4 in configuration 1"):
            estimator_expectation(EstimatorConfig(name), g, c, params=params)


def test_idb_input_is_the_input_with_the_smallest_id():
    fam = sample_family(0)
    x = fam.inputs["x"]
    config = EstimatorConfig("lr", flags=("c", "idb"))
    args = (fam.graph, fam.cost)
    plain = estimator_expectation(config, *args, {"x": x}, fam.params)
    mixed = estimator_expectation(config, *args, {"x": x, 0: x}, fam.params)
    for w in plain:
        assert np.array_equal(plain[w], mixed[w])
    assert np.array_equal(oracle_mod._default_idb_input(fam.graph, {0: x, "x": x}), x)
