"""Needed-only reverse sweeps: liveness rules and exactness against full sweeps.

Every in-package sweep asks `backward` only for the adjoints it reads. The
reference here is the same code with `need` ignored, i.e. every adjoint
computed; the two must agree bit for bit.
"""
import copy
import math

import numpy as np
import pytest

from muprop import (
    BaselineState,
    EstimatorConfig,
    ExperimentConfig,
    Graph,
    Mode,
    backward,
    build_sbn_variational,
    build_structured_predictor,
    estimate,
    estimator_expectation,
    exact_expected_cost_and_grad,
    forward,
    gradients,
    init_params,
    mean_field_pass,
    run_experiment,
)
from muprop import estimators as estimators_mod
from muprop import graph as graph_mod
from muprop import oracle as oracle_mod
from muprop.oracle import enumerate_configs, sample_family

ESTIMATORS = ("lr", "muprop", "muprop_rollout", "st", "half")


@pytest.fixture
def full_sweeps(monkeypatch):
    """Call `install()` to make every in-package sweep ignore `need`."""
    original = graph_mod.backward

    def full(graph, trace, seeds, stochastic_vjp=None, need=None):
        return original(graph, trace, seeds, stochastic_vjp)

    def install():
        for mod in (graph_mod, estimators_mod, oracle_mod):
            monkeypatch.setattr(mod, "backward", full)

    return install


def config_for(name):
    flags = ("c", "vn", "idb") if name in ("lr", "muprop", "muprop_rollout") else ()
    return EstimatorConfig(name, flags=flags)


def run_all(graph, cost, inputs, params, draws, idb_input):
    """Every estimator on every (rng_seed, forced) draw, from equal baseline state."""
    out = []
    for name in ESTIMATORS:
        state = BaselineState(b={s: 0.25 for s in graph.stochastic_ids}, seed=4)
        for rng_seed, forced in draws:
            est = estimate(config_for(name), graph, cost, inputs, params, rng_seed,
                           baselines=copy.deepcopy(state), forced=forced,
                           idb_input=idb_input)
            out.append((name, est))
    return out


def assert_same(got, want):
    assert len(got) == len(want)
    for (name, a), (_, b) in zip(got, want):
        assert a.grads.keys() == b.grads.keys()
        for pid in a.grads:
            assert np.array_equal(a.grads[pid], b.grads[pid]), (name, pid)
        assert a.cost == b.cost and a.node_diag == b.node_diag and a.extra == b.extra, name


def family_cases():
    for seed in (0, 1, 2, 5, 9):
        fam = sample_family(seed)
        draws = [(None, cfg) for cfg in enumerate_configs(fam.graph)] + [(1000 + seed, None)]
        yield fam.graph, fam.cost, fam.inputs, fam.params, draws, fam.inputs["x"]


def preset_cases():
    rng = np.random.default_rng(7)
    sop = build_structured_predictor("4-2-2-4")
    sop_inputs = {"x": rng.integers(0, 2, 4).astype(float),
                  "y": rng.integers(0, 2, 4).astype(float)}
    sbn = build_sbn_variational("2x3-2-6")
    sbn_inputs = {"x": rng.integers(0, 2, 6).astype(float)}
    for graph, cost, inputs in ((sop, sop.meta["cost"], sop_inputs),
                                (sbn.graph, sbn.cost, sbn_inputs)):
        params = init_params(graph, seed=3)
        draws = [(None, cfg) for cfg in enumerate_configs(graph)] + [(11, None), (12, None)]
        yield graph, cost, inputs, params, draws, inputs["x"]


@pytest.mark.parametrize("cases", [family_cases, preset_cases], ids=["family", "presets"])
def test_estimators_match_full_sweeps_bitwise(cases, full_sweeps):
    needed = [run_all(*case) for case in cases()]
    full_sweeps()
    for got, case in zip(needed, cases()):
        assert_same(got, run_all(*case))


def test_oracles_and_gradients_match_full_sweeps_bitwise(full_sweeps):
    fam = sample_family(2)
    g, c, x, p = fam.graph, fam.cost, fam.inputs, fam.params
    wrt = g.param_ids[:2]
    trace = forward(g, x, p, mode=Mode.MEAN_FIELD)

    def run():
        return (exact_expected_cost_and_grad(g, c, x, p),
                exact_expected_cost_and_grad(g, c, x, p, wrt=wrt),
                gradients(g, c, wrt, trace))

    needed = run()
    full_sweeps()
    for got, want in zip(needed[:2], run()[:2]):
        assert got.expected_cost == want.expected_cost
        for w in want.grads:
            assert np.array_equal(got.grads[w], want.grads[w])
    for w in wrt:
        assert np.array_equal(needed[2][w], run()[2][w])


def test_expected_cost_alone_skips_the_sweep(monkeypatch):
    fam = sample_family(5)
    want = exact_expected_cost_and_grad(fam.graph, fam.cost, fam.inputs, fam.params)

    def no_sweep(*args, **kwargs):
        raise AssertionError("wrt=[] ran a reverse sweep")

    monkeypatch.setattr(oracle_mod, "backward", no_sweep)
    got = exact_expected_cost_and_grad(fam.graph, fam.cost, fam.inputs, fam.params, wrt=[])
    assert got.expected_cost == want.expected_cost
    assert got.grads == {} and got.config_count == want.config_count


def test_muprop_expectation_reuses_one_mean_field_pass(monkeypatch):
    fam = sample_family(9)
    g, c, x, p = fam.graph, fam.cost, fam.inputs, fam.params
    config = EstimatorConfig("muprop", flags=("c", "idb"))
    state = BaselineState(b={s: 0.5 for s in g.stochastic_ids})
    # reference: one independent muprop draw (own mean-field pass) per configuration
    want: dict = {}
    for cfg in enumerate_configs(g):
        prob = math.exp(sum(forward(g, x, p, forced=cfg).logprobs.values()))
        est = estimate(config, g, c, x, p, None, baselines=copy.deepcopy(state),
                       forced=cfg, idb_input=x["x"])
        for w, grad in est.grads.items():
            want[w] = want.get(w, 0.0) + prob * grad
    calls = []
    monkeypatch.setattr(oracle_mod, "mean_field_pass",
                        lambda *a, **k: calls.append(1) or mean_field_pass(*a, **k))
    got = estimator_expectation(config, g, c, x, p, baselines=state)
    assert calls == [1]
    for w in want:
        assert np.array_equal(got[w], want[w])


# -- backward(need=...) rules ----------------------------------------------------


def test_mean_field_sweep_reads_only_stochastic_adjoints():
    g = build_structured_predictor("4-2-2-4")
    cost = g.meta["cost"]
    params = init_params(g, seed=1)
    x = {"x": np.ones(4), "y": np.zeros(4)}
    trace, adj = mean_field_pass(g, cost, x, params)
    full = backward(g, trace, {cost: np.ones(())})
    assert all(adj[pid] is None for pid in g.param_ids)
    assert adj[g.node_id("x")] is None
    for sid in g.stochastic_ids:
        assert np.array_equal(adj[sid], full[sid])
    assert sum(a is not None for a in adj) < sum(a is not None for a in full)


def test_seeds_survive_on_dead_nodes():
    g = Graph()
    x = g.input((2,), "x")
    w = g.parameter((2, 2), "w")
    b = g.parameter((2,), "b")
    h = g.tanh(g.affine(x, w, b))
    c = g.cost(g.sum(g.square(h)))
    params = {"w": np.array([[0.3, -0.5], [0.8, 0.1]]), "b": np.array([0.2, -0.1])}
    tr = forward(g, {"x": np.array([0.7, -1.2])}, params, mode=Mode.MEAN_FIELD)
    seed_x = np.array([4.0, 5.0])
    adj = backward(g, tr, {c: np.ones(()), x: seed_x}, need=[w])
    full = backward(g, tr, {c: np.ones(()), x: seed_x})
    assert np.array_equal(adj[x], seed_x)  # x is dead: its seed is all it holds
    assert not np.array_equal(full[x], seed_x)
    assert np.array_equal(adj[w], full[w]) and adj[b] is None
    assert backward(g, tr, {c: np.ones(())}, need=["w"])[w] is not None  # names resolve


def test_multi_parent_ops_skip_only_dead_parents():
    g = Graph()
    x = g.input((2,), "x")
    th = g.parameter((2,), "th")
    w = g.parameter((2, 4), "w")
    parts = [g.concat(x, th), g.concat(th, x)]
    parts += [g.concat(g.add(x, th), g.sub(x, th)), g.concat(g.mul(th, x), g.add(th, x))]
    total = parts[0]
    for part in parts[1:]:
        total = g.add(total, part)
    c = g.cost(g.sum(g.square(g.affine(total, w, th))))
    params = {"th": np.array([0.4, -0.9]), "w": np.arange(8.0).reshape(2, 4) / 8}
    tr = forward(g, {"x": np.array([1.5, 0.5])}, params, mode=Mode.MEAN_FIELD)
    full = backward(g, tr, {c: np.ones(())})
    adj = backward(g, tr, {c: np.ones(())}, need=[th])
    assert np.array_equal(adj[th], full[th])
    assert adj[x] is None and adj[w] is None


def test_stop_gradient_ends_liveness():
    g = Graph()
    x = g.input((), "x")
    sq = g.square(x)
    frozen = g.stop_gradient(sq)
    prod = g.mul(frozen, x)
    c = g.cost(prod)
    live = g.liveness([x], frozenset(), False)
    assert live == [True, True, False, True, True]
    tr = forward(g, {"x": 3.0}, mode=Mode.MEAN_FIELD)
    adj = backward(g, tr, {c: np.ones(())}, need=[x])
    assert float(adj[x]) == 9.0
    assert adj[frozen] is None and adj[sq] is None


def test_barriers_end_liveness_unless_a_vjp_passes_them():
    g = Graph()
    th = g.parameter((2,), "th")
    h = g.bernoulli(th)
    w = g.parameter((2,), "w")
    c = g.cost(g.sum(g.mul(h, w)))
    params = {"th": np.array([0.3, -0.2]), "w": np.array([1.5, -2.0])}
    drawn = forward(g, params=params, rng_seed=0)
    assert drawn.barriers == {h}
    assert g.liveness([th], drawn.barriers, False) == [True, False, False, False, False, False]
    assert g.liveness([th], drawn.barriers, True) == [True, True, False, True, True, True]
    assert g.liveness([th], frozenset(), False)[h]  # mean-field trace
    assert backward(g, drawn, {c: np.ones(())}, need=[th])[th] is None

    def vjp(node, logits, value, adj):
        return 2.0 * adj

    adj = backward(g, drawn, {c: np.ones(())}, stochastic_vjp=vjp, need=[th])
    full = backward(g, drawn, {c: np.ones(())}, stochastic_vjp=vjp)
    assert np.array_equal(adj[th], full[th]) and adj[w] is None


def test_liveness_memo_resets_when_a_node_is_appended():
    g = Graph()
    x = g.input((2,), "x")
    y = g.tanh(x)
    need = frozenset({x})
    mask = g.liveness(need, frozenset(), False)
    assert g.liveness(need, frozenset(), False) is mask
    assert mask == [True, True]
    z = g.cost(g.sum(y))
    grown = g.liveness(need, frozenset(), False)
    assert grown is not mask and grown == [True, True, True, True]
    tr = forward(g, {"x": np.array([0.1, -0.4])}, mode=Mode.MEAN_FIELD)
    assert backward(g, tr, {z: np.ones(())}, need=[x])[x] is not None


# -- training ------------------------------------------------------------------


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_run_experiment_files_match_full_sweeps(estimator, tmp_path, full_sweeps):
    sbn = estimator in ("muprop", "st")
    cfg = ExperimentConfig.from_dict(dict(
        task="variational" if sbn else "structured_prediction",
        arch="2x3-2-6" if sbn else "4-2-2-4",
        estimator=estimator, flags=("c", "vn", "idb"), lr=0.05, epochs=1,
        batch_size=4, train_size=12, eval_size=4, eval_samples=3, seed=2,
        log_every=1, out_dir=str(tmp_path)))
    names = ("metrics.jsonl", "metrics.csv", "model.ckpt")

    def files():
        run_experiment(cfg)
        return [(tmp_path / name).read_bytes() for name in names]

    needed = files()
    full_sweeps()
    assert files() == needed
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        names + ("summary.json", "timing.jsonl"))  # no checkpoint temp file left
