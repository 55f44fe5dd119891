"""Gradient estimators: closed-form per-draw values, baselines, dispatch."""
import numpy as np
import pytest

from muprop import (
    BaselineState,
    EstimatorConfig,
    Graph,
    Mode,
    apply_baselines,
    build_sbn_variational,
    build_structured_predictor,
    estimate,
    forward,
    half_estimate,
    idb_update,
    init_params,
    lr_estimate,
    muprop_estimate,
    muprop_rollout_estimate,
    st_estimate,
    stochastic_layers,
)
from muprop import distributions
from muprop import estimators as estimators_mod
from muprop.estimators import ESTIMATORS, SCORE_ESTIMATORS, IdbNet
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


def test_half_clamp_diagnostics_count_rare_outcomes():
    g, th, c = single_unit()
    sid = g.stochastic_ids[0]
    # force the essentially impossible outcome at a saturated logit
    tr = forward(g, params={"th": np.asarray(40.0)}, forced={sid: np.array([0.0])})
    est = half_estimate(g, tr, c)
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


def test_taylor_estimators_reject_pure_det_graphs():
    det = Graph()
    w = det.parameter((), "w")
    cd = det.cost(det.square(w))
    for fn in (muprop_estimate, muprop_rollout_estimate):
        with pytest.raises(ValueError, match="graph has no stochastic nodes"):
            fn(det, cd, None, {"w": 2.0}, 0)


def adjust(state, flags, signals, **kw):
    """`apply_baselines` on one row per node: {node id: signal} in and out."""
    rows = {sid: np.array([s]) for sid, s in signals.items()}
    return {sid: a.item() for sid, a in apply_baselines(rows, state, flags, **kw).items()}


def test_baseline_arithmetic_updates_after_use():
    st = BaselineState()
    # first use sees the raw signal, stats update afterwards
    assert adjust(st, {"c"}, {7: 2.0}) == {7: pytest.approx(2.0)}
    assert st.b[7] == pytest.approx(0.2)
    assert st.v[7] == pytest.approx(0.1 * 4.0)
    # per-node isolation: node 8 starts fresh beside node 7's second use
    assert adjust(st, {"c"}, {7: 0.5, 8: 1.0}) == {7: pytest.approx(0.3), 8: pytest.approx(1.0)}
    assert st.b[7] == pytest.approx(0.9 * 0.2 + 0.1 * 0.5)
    assert st.b[8] == pytest.approx(0.1)


def test_variance_divisor_is_clamped_at_one():
    st = BaselineState()
    assert adjust(st, {"vn"}, {0: 10.0}) == {0: pytest.approx(10.0)}
    assert st.v[0] == pytest.approx(10.0)
    assert adjust(st, {"vn"}, {0: 2.0}) == {0: pytest.approx(2.0 / np.sqrt(10.0))}
    small = BaselineState()
    adjust(small, {"vn"}, {0: 0.5})  # v = 0.025, sqrt < 1
    assert adjust(small, {"vn"}, {0: 0.5}) == {0: pytest.approx(0.5)}


def test_baseline_flag_validation_and_diagnostics():
    st = BaselineState()
    with pytest.raises(ValueError, match="unknown baseline flags"):
        adjust(st, {"zz"}, {0: 1.0})
    with pytest.raises(ValueError, match="input sample"):
        adjust(st, {"idb"}, {0: 1.0})
    assert st.b == {} and st.v == {} and st.idb is None  # rejected before any write
    d = {1: {}}
    adjust(st, {"c"}, {1: 3.0}, node_diag=d)
    assert {k: v.tolist() for k, v in d[1].items()} == {
        "signal": [3.0], "baseline": [0.0], "adjusted": [3.0]}
    # read-only, every row meets the one moving mean: a scalar baseline
    d = {1: {}}
    signals = {1: np.array([3.0, 1.0])}
    apply_baselines(signals, st, {"c"}, node_diag=d, update=False)
    assert d[1]["signal"] is signals[1]
    assert d[1]["baseline"] == st.b[1] and isinstance(d[1]["baseline"], float)
    assert d[1]["adjusted"].tolist() == [3.0 - st.b[1], 1.0 - st.b[1]]


def test_input_dependent_baseline_regresses_to_signal():
    st = BaselineState(seed=3)
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


def two_layer_predictor():
    g = build_structured_predictor("8-4-4-8")
    gen = stream(4)
    xy = {"x": gen.integers(0, 2, 8) * 1.0, "y": gen.integers(0, 2, 8) * 1.0}
    return g, xy, init_params(g, seed=2)


def test_idb_subtraction_uses_shared_net():
    x = np.array([1.0, -0.5, 0.25])
    # with no net trained yet, a read-only step predicts with a fresh one and keeps none
    st = BaselineState(seed=1)
    fresh = IdbNet(3, estimators_mod.IDB_HIDDEN, 1).value(x)
    assert adjust(st, {"idb"}, {0: 5.0, 2: 1.0}, idb_input=x, update=False) == {
        0: 5.0 - fresh, 2: 1.0 - fresh}
    assert st.idb is None and st.b == {} and st.v == {}
    # an updating step builds the net, and every node subtracts its one prediction
    assert adjust(st, {"idb"}, {0: 5.0, 2: 1.0}, idb_input=x) == {0: 5.0 - fresh, 2: 1.0 - fresh}
    assert st.idb is not None and st.idb.value(x) != fresh
    g, xy, params = two_layer_predictor()
    st = BaselineState(seed=1)
    pred = st.ensure_idb(8).value(xy["x"])
    est = estimate(EstimatorConfig("lr", flags={"idb"}), g, g.meta["cost"], xy, params, 3,
                   baselines=st, idb_input=xy["x"])
    assert [d["baseline"] for d in est.node_diag.values()] == [pred, pred]
    with pytest.raises(ValueError, match="input sample"):
        estimate(EstimatorConfig("lr", flags={"idb"}), g, g.meta["cost"], xy, params, 3)


def test_idb_net_predicts_once_per_draw(monkeypatch):
    g, xy, params = two_layer_predictor()
    calls = []
    value = IdbNet.value
    monkeypatch.setattr(IdbNet, "value", lambda net, x: calls.append(1) or value(net, x))
    for name in SCORE_ESTIMATORS:
        state = BaselineState()
        for draw in range(2):  # the first draw builds the net, the second reuses it
            calls.clear()
            est = estimate(EstimatorConfig(name, flags={"c", "idb"}), g, g.meta["cost"], xy,
                           params, draw, baselines=state, idb_input=xy["x"])
            assert len(est.node_diag) == 2
            assert len(calls) == 1, name


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


@pytest.mark.parametrize("name", ["muprop", "muprop_rollout"])
def test_dispatcher_looks_up_taylor_estimators_at_call_time(name, monkeypatch):
    """A patched module attribute is what `estimate` runs."""
    g, _th, c = single_unit()
    params = {"th": np.asarray(0.1)}
    attr = f"{name}_estimate"
    real = getattr(estimators_mod, attr)
    calls = []
    monkeypatch.setattr(estimators_mod, attr,
                        lambda *a, **k: calls.append(name) or real(*a, **k))
    estimate(EstimatorConfig(name), g, c, None, params, 4)
    assert calls == [name]


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


@pytest.mark.parametrize("arch", ["8-4-4-8", "2x3-3x4-8"])
def test_one_layer_and_at_most_one_mean_per_node_per_pass(arch, monkeypatch):
    """One draw builds at most one layer per stochastic node per forward pass,
    and each layer computes its mean (one sigmoid/softmax call) at most once."""
    if arch == "8-4-4-8":
        g = build_structured_predictor(arch)
        cost, inputs = g.meta["cost"], {"x": np.ones(8), "y": np.zeros(8)}
    else:
        model = build_sbn_variational(arch)
        g, cost, inputs = model.graph, model.cost, {"x": np.ones(8)}
    params = init_params(g, 1)
    counts = {"layers": 0, "means": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls in (distributions.BernoulliLayer, distributions.CategoricalLayer):
        monkeypatch.setattr(cls, "__init__", counted("layers", cls.__init__))
    for name in ("sigmoid", "softmax"):
        monkeypatch.setattr(distributions, name, counted("means", getattr(distributions, name)))
    # two stochastic nodes: passes x nodes layers, but for the node pinned in
    # muprop_rollout's second anchor pass, which reuses the stochastic pass's
    # layer (`forward(reuse=...)`) and computes no mean
    want = {"lr": (2, 2), "st": (2, 2), "half": (2, 2), "muprop": (4, 4),
            "muprop_rollout": (5, 5)}
    assert sorted(want) == sorted(ESTIMATORS)
    for name in ESTIMATORS:
        counts.update(layers=0, means=0)
        estimate(EstimatorConfig(name), g, cost, inputs, params, rng_seed=3)
        assert (counts["layers"], counts["means"]) == want[name], name
