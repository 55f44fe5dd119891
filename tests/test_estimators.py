"""Gradient estimators: closed-form per-draw values, baselines, dispatch."""
import numpy as np
import pytest

from muprop import (
    BaselineState,
    EstimatorConfig,
    Graph,
    Mode,
    apply_baselines,
    build_structured_predictor,
    estimate,
    forward,
    half_estimate,
    idb_update,
    init_params,
    lr_estimate,
    mean_field_pass,
    muprop_estimate,
    muprop_rollout_estimate,
    st_estimate,
    stochastic_layers,
)
from muprop.rng import stream

from helpers import single_unit


def force(graph, cost, th_value, x, estimator, **kw):
    """Run an estimator on the single-unit graph with the outcome pinned."""
    g = graph
    params = {"th": np.asarray(th_value)}
    forced = {g.stochastic_ids[0]: np.array([float(x)])}
    if estimator in ("muprop", "muprop_rollout"):
        fn = muprop_estimate if estimator == "muprop" else muprop_rollout_estimate
        return fn(g, cost, None, params, None, forced=forced, **kw)
    trace = forward(g, params=params, forced=forced)
    fn = {"lr": lr_estimate, "st": st_estimate, "half": half_estimate}[estimator]
    return fn(g, trace, cost, **kw)


def test_score_times_cost_per_draw_values():
    g, th, c = single_unit(power=2)
    assert force(g, c, 0.0, 1, "lr").grads[th] == pytest.approx(0.5, abs=1e-15)
    assert force(g, c, 0.0, 0, "lr").grads[th] == pytest.approx(0.0, abs=1e-15)


def test_taylor_anchored_per_draw_values_quadratic():
    # logit 0, cost x^2: the anchored estimator gives 0.375 on x=1, 0.125 on x=0
    g, th, c = single_unit(power=2)
    r1 = force(g, c, 0.0, 1, "muprop")
    r0 = force(g, c, 0.0, 0, "muprop")
    assert r1.grads[th] == pytest.approx(0.375, abs=1e-15)
    assert r0.grads[th] == pytest.approx(0.125, abs=1e-15)
    assert r1.mean_field_passes == 1 and r1.stochastic_passes == 1
    assert r1.extra["mean_field_cost"] == pytest.approx(0.25)
    # its two-point expectation is already exact for a quadratic
    assert 0.5 * (r1.grads[th] + r0.grads[th]) == pytest.approx(0.25)


def test_straight_through_per_draw_values_cubic():
    g, th, c = single_unit(power=3)
    assert force(g, c, 0.0, 1, "st").grads[th] == pytest.approx(0.75, abs=1e-15)
    assert force(g, c, 0.0, 0, "st").grads[th] == pytest.approx(0.0, abs=1e-15)


def test_derivative_rescaled_per_draw_values():
    g, th, c = single_unit(power=3)
    assert force(g, c, 0.0, 1, "half").grads[th] == pytest.approx(0.75, abs=1e-15)
    assert force(g, c, 0.0, 0, "half").grads[th] == pytest.approx(0.0, abs=1e-15)
    g2, th2, c2 = single_unit(power=2)
    # exact for quadratics: matches d sigma(0) * dE/dm = 0.25 * 2m on average
    assert force(g2, c2, 0.0, 1, "half").grads[th2] == pytest.approx(0.5, abs=1e-15)
    assert force(g2, c2, 0.0, 0, "half").grads[th2] == pytest.approx(0.0, abs=1e-15)


def test_derivative_rescaled_categorical_hand_value():
    g = Graph()
    th = g.parameter((2,), "th", init="zeros")
    h = g.categorical(th, k=2)
    c = g.cost(g.sum(g.mul(h, g.constant([1.0, 0.0], "pick"))))
    trace = forward(g, params={"th": np.zeros(2)},
                    forced={h: np.array([1.0, 0.0])})
    est = half_estimate(g, trace, c)
    assert np.allclose(est.grads[th], [0.25, -0.25], atol=1e-15)
    assert est.extra["clamped_units"] == 0


def test_half_rejects_unknown_anchor():
    g = Graph()
    th = g.parameter((2,), "th", init="zeros")
    c = g.cost(g.sum(g.categorical(th, k=2)))
    tr = forward(g, params={"th": np.zeros(2)}, rng_seed=0)
    with pytest.raises(ValueError, match="anchor"):
        half_estimate(g, tr, c, xbar="1/3")


def test_half_clamp_diagnostics_count_rare_outcomes():
    g, th, c = single_unit()
    sid = g.stochastic_ids[0]
    # force the essentially impossible outcome at a saturated logit
    tr = forward(g, params={"th": np.asarray(40.0)}, forced={sid: np.array([0.0])})
    est = half_estimate(g, tr, c, clamp=1e-12)
    assert est.extra["clamped_units"] == 1
    assert np.isfinite(est.grads[th])
    tr2 = forward(g, params={"th": np.asarray(40.0)}, forced={sid: np.array([1.0])})
    assert half_estimate(g, tr2, c).extra["clamped_units"] == 0


def test_estimators_reject_mean_field_traces_and_pure_det_graphs():
    g, th, c = single_unit()
    mf = forward(g, params={"th": np.zeros(())}, mode=Mode.MEAN_FIELD)
    for fn in (lr_estimate, st_estimate, half_estimate):
        with pytest.raises(ValueError, match="stochastic"):
            fn(g, mf, c)
    del th

    det = Graph()
    w = det.parameter((), "w")
    cd = det.cost(det.square(w))
    trd = forward(det, params={"w": 2.0}, mode=Mode.MEAN_FIELD)
    with pytest.raises(ValueError, match="no stochastic"):
        lr_estimate(det, trd, cd)


def test_baseline_arithmetic_updates_after_use():
    st = BaselineState()
    # first use sees the raw signal, stats update afterwards
    assert apply_baselines(2.0, 7, st, {"c"}) == pytest.approx(2.0)
    assert st.b[7] == pytest.approx(0.2)
    assert st.v[7] == pytest.approx(0.1 * 4.0)
    assert apply_baselines(0.5, 7, st, {"c"}) == pytest.approx(0.3)
    assert st.b[7] == pytest.approx(0.9 * 0.2 + 0.1 * 0.5)
    # per-node isolation
    assert apply_baselines(1.0, 8, st, {"c"}) == pytest.approx(1.0)


def test_variance_divisor_is_clamped_at_one():
    st = BaselineState()
    assert apply_baselines(10.0, 0, st, {"vn"}) == pytest.approx(10.0)
    assert st.v[0] == pytest.approx(10.0)
    assert apply_baselines(2.0, 0, st, {"vn"}) == pytest.approx(2.0 / np.sqrt(10.0))
    small = BaselineState()
    apply_baselines(0.5, 0, small, {"vn"})  # v = 0.025, sqrt < 1
    assert apply_baselines(0.5, 0, small, {"vn"}) == pytest.approx(0.5)


def test_baseline_flag_validation_and_diagnostics():
    st = BaselineState()
    with pytest.raises(ValueError, match="unknown baseline flags"):
        apply_baselines(1.0, 0, st, {"zz"})
    with pytest.raises(ValueError, match="input sample"):
        apply_baselines(1.0, 0, st, {"idb"})
    d = {}
    apply_baselines(3.0, 1, st, {"c"}, diag=d)
    assert d == {"signal": 3.0, "baseline": 0.0, "adjusted": 3.0}


def test_input_dependent_baseline_regresses_to_signal():
    st = BaselineState(idb_hidden=16, seed=3)
    x = np.array([1.0, -0.5, 0.25])
    target = 2.0
    first = abs(st.ensure_idb(3).value(x) - target)
    for _ in range(1000):
        pred = idb_update(st, x, target, 0.01)
    assert abs(pred - target) < 0.05 * first
    # sgd_step reports the pre-update prediction
    net = st.idb
    before = net.value(x)
    assert net.sgd_step(x, target, 0.01) == pytest.approx(before)


def test_idb_subtraction_uses_shared_net():
    st = BaselineState(idb_hidden=8, seed=1)
    x = np.array([0.3, 0.7])
    pred = st.ensure_idb(2).value(x)
    got = apply_baselines(5.0, 0, st, {"idb"}, input_sample=x)
    assert got == pytest.approx(5.0 - pred)


def test_layer_grouping_by_sampling_depth():
    g = Graph()
    t1 = g.parameter((2,), "t1")
    h1 = g.bernoulli(t1)
    t2 = g.parameter((2, 2), "t2")
    b2 = g.parameter((2,), "b2", init="zeros")
    h2 = g.bernoulli(g.affine(h1, t2, b2))
    side = g.bernoulli(g.parameter((1,), "t3"))
    g.cost(g.add(g.sum(h2), g.sum(side)))
    groups = stochastic_layers(g)
    assert groups == [[h1, side], [h2]]


def test_rollout_equals_single_anchor_on_one_layer():
    g, _th, c = single_unit(power=3)
    sop = build_structured_predictor("8-4-8")  # one layer of four units
    gen = stream(3)
    xy = {"x": gen.integers(0, 2, 8) * 1.0, "y": gen.integers(0, 2, 8) * 1.0}
    cases = [(g, c, None, {"th": np.asarray(0.4)}),
             (sop, sop.meta["cost"], xy, init_params(sop, seed=1))]
    for graph, cost, inputs, params in cases:
        for seed in range(5):
            a = muprop_estimate(graph, cost, inputs, params, seed)
            b = muprop_rollout_estimate(graph, cost, inputs, params, seed)
            assert a.grads.keys() == b.grads.keys()
            for pid in a.grads:
                assert np.array_equal(a.grads[pid], b.grads[pid]), pid
            assert a.cost == b.cost and a.node_diag == b.node_diag
        assert b.mean_field_passes == 1


def test_rollout_pass_counts_and_depth_anchoring():
    gen = stream(9)
    g = Graph()
    prev = g.bernoulli(g.parameter((2,), "t1"))
    params = {"t1": gen.normal(size=2)}
    for i in (2, 3):
        w = g.parameter((2, 2), f"w{i}")
        b = g.parameter((2,), f"b{i}")
        params[f"w{i}"] = gen.normal(size=(2, 2)) * 0.6
        params[f"b{i}"] = gen.normal(size=2) * 0.3
        prev = g.bernoulli(g.affine(prev, w, b))
    c = g.cost(g.sum(g.square(prev)))
    est = muprop_rollout_estimate(g, c, None, params, 5)
    assert est.mean_field_passes == 3 and est.stochastic_passes == 1
    plain = muprop_estimate(g, c, None, params, 5)
    # same draw, different anchors: estimates agree only in expectation
    assert est.cost == plain.cost
    assert any(not np.allclose(est.grads[p], plain.grads[p]) for p in est.grads)


def test_cached_anchor_pass_reuse():
    g, th, c = single_unit()
    params = {"th": np.asarray(0.3)}
    mf = mean_field_pass(g, c, None, params)
    cached = muprop_estimate(g, c, None, params, 11, mf=mf)
    fresh = muprop_estimate(g, c, None, params, 11)
    assert cached.mean_field_passes == 0 and fresh.mean_field_passes == 1
    assert cached.grads[th] == pytest.approx(fresh.grads[th], abs=0)


def test_dispatcher_configs():
    with pytest.raises(ValueError, match="unknown estimator"):
        EstimatorConfig("reinforce")
    with pytest.raises(ValueError, match="no baseline flags"):
        EstimatorConfig("st", flags={"c"})
    with pytest.raises(ValueError, match="unknown baseline flags"):
        EstimatorConfig("lr", flags={"q"})

    g, th, c = single_unit()
    params = {"th": np.asarray(0.0)}
    for name in ("lr", "muprop", "muprop_rollout", "st", "half"):
        est = estimate(EstimatorConfig(name), g, c, None, params, rng_seed=2)
        assert np.isfinite(est.grads[th])
        assert est.cost in (0.0, 1.0)


def test_dispatcher_matches_direct_calls():
    g, th, c = single_unit(power=3)
    params = {"th": np.asarray(-0.2)}
    via = estimate(EstimatorConfig("muprop", flags={"c"}), g, c, None, params, 7,
                   baselines=BaselineState())
    direct = muprop_estimate(g, c, None, params, 7, baselines=BaselineState(),
                             flags={"c"})
    assert via.grads[th] == pytest.approx(direct.grads[th], abs=0)


def test_baselines_shift_only_the_score_term():
    # with a constant baseline b, the estimate moves by -b * score exactly
    g, th, c = single_unit(power=3)
    sid = g.stochastic_ids[0]
    params = {"th": np.asarray(0.0)}
    warm = BaselineState()
    warm.b[sid] = 0.6
    forced = {sid: np.array([1.0])}
    plain = muprop_estimate(g, c, None, params, None, forced=forced)
    shifted = muprop_estimate(g, c, None, params, None, forced=forced,
                              baselines=warm, flags={"c"})
    score = 0.5  # x=1 at logit 0
    assert shifted.grads[th] == pytest.approx(plain.grads[th] - 0.6 * score)
    assert shifted.node_diag[sid]["baseline"] == pytest.approx(0.6)
