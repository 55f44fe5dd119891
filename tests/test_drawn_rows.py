"""Draws as rows: a pass of B seeds, and `empirical_moments` over blocks of draws."""
import copy
from types import SimpleNamespace

import numpy as np
import pytest

from muprop import (
    BaselineState,
    EstimatorConfig,
    Graph,
    Mode,
    apply_baselines,
    empirical_moments,
    estimate,
    estimator_expectation,
    forward,
)
from muprop import estimators as estimators_mod
from muprop import graph as graph_mod
from muprop import oracle as oracle_mod
from muprop import rng as rng_mod
from muprop.estimators import ESTIMATORS, SCORE_ESTIMATORS
from muprop.oracle import make_chain, relative_error, sample_family
from muprop.rng import fold

from helpers import single_unit

FLAG_SETS = ((), ("c",), ("c", "vn"), ("c", "idb"))
REL_TOL = 1e-12


def configs():
    for name in ESTIMATORS:
        for flags in FLAG_SETS if name in SCORE_ESTIMATORS else ((),):
            yield EstimatorConfig(name, flags=flags)


# a list of seeds, and an array of as many as take `rng.uniforms`' array path
@pytest.mark.parametrize("seeds", [[fold(11, i) for i in range(40)],
                                   fold(11, np.arange(2 * rng_mod._ARRAY_ROWS))],
                         ids=["list", "array"])
def test_a_pass_of_seeds_draws_what_one_row_passes_draw(seeds):
    cases = [sample_family(seed) for seed in range(8)] + [make_chain(3, 3)[0]]
    for fam in cases:
        rows = forward(fam.graph, fam.inputs, fam.params, rng_seed=seeds)
        assert rows.logprob.shape == (len(seeds),)
        for i, seed in enumerate(seeds):
            one = forward(fam.graph, fam.inputs, fam.params, rng_seed=seed)
            for sid in fam.graph.stochastic_ids:
                assert np.array_equal(rows.values[sid][i], one.values[sid][0]), (sid, i)
            assert rows.logprob[i] == one.logprob[0]


def test_seed_sequences_and_forced_rows_must_agree():
    fam = sample_family(9)
    g = fam.graph
    first, *rest = g.stochastic_ids
    assert rest  # a node left to draw
    one = forward(g, fam.inputs, fam.params, rng_seed=[1, 2, 3],
                  forced={first: np.zeros((1,) + g.nodes[first].shape)})
    assert one.logprob.shape == (3,)
    with pytest.raises(ValueError, match="from 2 seeds"):
        forward(g, fam.inputs, fam.params, rng_seed=[1, 2],
                forced={first: np.zeros((3,) + g.nodes[first].shape)})
    with pytest.raises(ValueError, match="no rng seed"):
        forward(g, fam.inputs, fam.params, Mode.MEAN_FIELD, rng_seed=[1])


def state_bytes(state):
    """The bytes of a baseline state: each node's b and v, and the idb net."""
    stats = [(sid, np.float64(d[sid]).tobytes()) for d in (state.b, state.v) for sid in sorted(d)]
    net = None if state.idb is None else [
        a.tobytes() for a in (state.idb.w1, state.idb.b1, state.idb.w2, state.idb.b2)]
    return stats, net


def test_array_signals_are_successive_draws():
    """A block of rows adjusts row i against what rows 0..i-1 left behind,
    exactly as one call per row, the idb net's predictions and steps
    included; without `update` nothing is written."""
    signals = {3: np.array([2.0, 0.5, -1.0, 3.0]), 5: np.array([-0.5, 1.5, 0.25, 4.0])}
    x = np.array([1.0, -0.5, 0.25, 2.0])

    def one_row_calls(state, flags, diag):
        got = [apply_baselines({sid: sig[i:i + 1] for sid, sig in signals.items()}, state,
                               flags, x, diag[i]) for i in range(4)]
        return {sid: np.concatenate([g[sid] for g in got]) for sid in signals}

    for flags in (("c",), ("c", "vn"), ("idb",), ("c", "idb", "vn")):
        rows, seq = BaselineState(seed=6), BaselineState(seed=6)
        diag = {sid: {} for sid in signals}
        got = apply_baselines(signals, rows, flags, x, diag)
        seq_diag = [{sid: {} for sid in signals} for _ in range(4)]
        want = one_row_calls(seq, flags, seq_diag)
        for sid in signals:
            assert np.array_equal(got[sid], want[sid])
            assert diag[sid]["signal"] is signals[sid]
            assert np.array_equal(diag[sid]["adjusted"], want[sid])
            assert np.array_equal(diag[sid]["baseline"],
                                  np.concatenate([d[sid]["baseline"] for d in seq_diag]))
        assert state_bytes(rows) == state_bytes(seq)
        assert (rows.idb is not None) == ("idb" in flags)

        state = copy.deepcopy(seq)  # warmed: non-zero b and v, and a trained net
        before = state_bytes(state)
        snap = apply_baselines(signals, state, flags, x, update=False)
        assert state_bytes(state) == before
        # every row meets the state as it stands: one one-row call from a copy each
        for i in range(4):
            one = apply_baselines({sid: sig[i:i + 1] for sid, sig in signals.items()},
                                  copy.deepcopy(seq), flags, x)
            for sid in signals:
                assert snap[sid][i] == one[sid][0]


def reference_moments(config, fam, n, seed, state):
    """One one-row `estimate` per draw at fold(seed, i), folded by Welford."""
    mean, m2, cost = {}, {}, 0.0
    for i in range(n):
        est = estimate(config, fam.graph, fam.cost, fam.inputs, fam.params,
                       rng_seed=fold(seed, i), baselines=state,
                       idb_input=fam.inputs["x"] if fam.inputs else None)
        cost += est.cost.item()
        for w, g in est.grads.items():
            mean.setdefault(w, np.zeros_like(g))
            m2.setdefault(w, np.zeros_like(g))
            delta = g - mean[w]
            mean[w] += delta / (i + 1)
            m2[w] += delta * (g - mean[w])
    return mean, {w: m2[w] / n for w in m2}, cost / n


def assert_moments_match(fams, n, configs=configs):
    for seed, fam in fams:
        for config in configs():
            rows, loop = BaselineState(seed=seed), BaselineState(seed=seed)
            got = empirical_moments(config, fam.graph, fam.cost, fam.inputs, fam.params,
                                    n_samples=n, seed=seed, baselines=rows)
            want = reference_moments(config, fam, n, seed, loop)
            label = (seed, config)
            for got_part, want_part in zip(got[:2], want[:2]):
                assert got_part.keys() == want_part.keys()
                for w in want_part:
                    assert relative_error(got_part[w], want_part[w]) < REL_TOL, label
            assert relative_error(got[2], want[2]) < REL_TOL, label
            assert rows.b.keys() == loop.b.keys() and rows.v.keys() == loop.v.keys(), label
            for sid in loop.b:
                assert relative_error(rows.b[sid], loop.b[sid]) < REL_TOL, label
                assert relative_error(rows.v[sid], loop.v[sid]) < REL_TOL, label
            assert (rows.idb is None) == (loop.idb is None), label
            if loop.idb is not None:
                for part in ("w1", "b1", "w2", "b2"):
                    assert relative_error(getattr(rows.idb, part),
                                          getattr(loop.idb, part)) < REL_TOL, (label, part)


def test_moments_match_a_loop_over_draws():
    assert_moments_match([(seed, sample_family(seed)) for seed in (0, 1, 5)], n=30)


def block_rows(graph):
    """Rows per `empirical_moments` block: the rule of every blocked pass."""
    return oracle_mod._block_rows(graph)


def test_moments_match_a_loop_over_draws_across_blocks(monkeypatch):
    fam = sample_family(9)  # three stochastic nodes
    monkeypatch.setattr(oracle_mod, "BLOCK_ELEMENTS", 400)  # a few rows per block
    rows = block_rows(fam.graph)
    assert 1 < rows < 23 and 23 % rows
    assert_moments_match([(9, fam)], n=23)
    # a scalar parameter, whose per-row gradients are `[rows]`
    g, _th, c = single_unit(power=3)
    unit = SimpleNamespace(graph=g, cost=c, inputs=None, params={"th": np.asarray(0.4)})
    monkeypatch.setattr(oracle_mod, "BLOCK_ELEMENTS", 30)
    assert 1 < block_rows(g) < 23 and 23 % block_rows(g)
    assert_moments_match([(4, unit)], n=23, configs=lambda: [
        EstimatorConfig(name, flags=("c", "vn") if name in SCORE_ESTIMATORS else ())
        for name in ESTIMATORS])


def counted_forwards(monkeypatch):
    calls = []

    def counting(graph, inputs=None, params=None, mode=Mode.STOCHASTIC, *args, **kwargs):
        calls.append(mode)
        return graph_mod.forward(graph, inputs, params, mode, *args, **kwargs)

    for mod in (estimators_mod, oracle_mod):
        monkeypatch.setattr(mod, "forward", counting)
    return calls


@pytest.mark.parametrize("name", ESTIMATORS)
def test_moments_run_one_stochastic_pass_per_block(name, monkeypatch):
    fam = sample_family(9)
    layers = len(estimators_mod.stochastic_layers(fam.graph))
    calls = counted_forwards(monkeypatch)
    config = EstimatorConfig(name, flags=("c",) if name in SCORE_ESTIMATORS else ())
    empirical_moments(config, fam.graph, fam.cost, fam.inputs, fam.params, n_samples=100,
                      seed=1, baselines=BaselineState())
    mean_field = {"muprop": 1, "muprop_rollout": layers}.get(name, 0)
    assert calls.count(Mode.STOCHASTIC) == 1
    assert calls.count(Mode.MEAN_FIELD) == mean_field
    # smaller blocks: one stochastic pass (and one set of anchors) per block
    calls.clear()
    monkeypatch.setattr(oracle_mod, "BLOCK_ELEMENTS", 1500)
    blocks = -(-100 // block_rows(fam.graph))
    assert blocks > 1
    empirical_moments(config, fam.graph, fam.cost, fam.inputs, fam.params, n_samples=100,
                      seed=1, baselines=BaselineState())
    assert calls.count(Mode.STOCHASTIC) == blocks
    assert calls.count(Mode.MEAN_FIELD) == blocks * mean_field


def overflowing_unit():
    """One Bernoulli unit whose cost overflows exactly when it draws 1."""
    g = Graph()
    th = g.parameter((1,), "th", init="zeros")
    h = g.bernoulli(th)
    big = g.mul(h, g.constant([1e200], "big"))
    cost = g.cost(g.sum(g.square(big)))  # the square (node 4) overflows
    return g, cost, {"th": np.zeros(1)}


@pytest.mark.parametrize("name", ESTIMATORS)
@pytest.mark.parametrize("seed", [1, 2, 5])
def test_moments_name_the_draw_that_overflows(name, seed):
    g, cost, params = overflowing_unit()
    sid = g.stochastic_ids[0]
    first = next(i for i in range(64) if forward(g, params=params, rng_seed=fold(seed, i),
                                                validate=False).values[sid][0, 0] == 1.0)
    assert first > 0  # the first draw is finite; a later one is not
    with pytest.raises(ValueError, match=f"non-finite value produced at node 4 in draw {first}$"):
        empirical_moments(EstimatorConfig(name), g, cost, params=params,
                          n_samples=64, seed=seed)


def test_rollout_names_its_unpinned_anchor_the_mean_field_pass():
    """Every draw is h=0 and finite; rollout's first anchor, which pins
    nothing (p = 9e-14), is the pass that overflows."""
    g, cost, _params = overflowing_unit()
    with pytest.raises(ValueError, match="non-finite value produced at node 4 in the mean-field "
                                         "pass$"):
        empirical_moments(EstimatorConfig("muprop_rollout"), g, cost,
                          params={"th": np.array([-30.0])}, n_samples=50)


def test_weighted_rows_never_write_the_baseline_state():
    fam = sample_family(9)
    sid = fam.graph.stochastic_ids[0]
    for flags in (("c",), ("c", "idb")):
        state = BaselineState(b={sid: 0.3}, v={sid: 0.2}, seed=4)
        estimator_expectation(EstimatorConfig("lr", flags=flags), fam.graph, fam.cost,
                              fam.inputs, fam.params, baselines=state)
        assert state.b == {sid: 0.3} and state.v == {sid: 0.2} and state.idb is None
