"""Per-row weight gradients as factors: `backward(per_row=True)` keeps each
affine weight's rows as (adjoint rows, input rows) pairs, and `_Moments`
folds them a slice of the weight at a time."""
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from muprop import (
    EstimatorConfig,
    Graph,
    build_sbn_variational,
    build_structured_predictor,
    empirical_moments,
    estimate,
    init_params,
)
from muprop import graph as graph_mod
from muprop import oracle as oracle_mod
from muprop.data import synthetic_binary, synthetic_multimodal
from muprop.estimators import ESTIMATORS
from muprop.graph import RowFactors
from muprop.oracle import sample_family
from muprop.rng import fold


def einsum_per_row_vjp(node, values, a, j):
    """The dense rule: each row's weight adjoint formed as its outer product."""
    if j != 1:
        return graph_mod._affine_vjp(node, values, a, j)
    return np.einsum("ri,rj->rij", a, values[node.parents[0]])


def formed(g, index=slice(None)):
    """Factors formed as the dense rule forms them, pair by pair in order."""
    out = None
    for a, x in g.pairs:
        p = np.einsum("ri,rj->rij", a[:, index], x)
        out = p if out is None else out + p
    return out


def shared_weight_case():
    """W feeds three affine nodes (one of them on a one-row input), U and S
    are also squared on their own (the sweep reaches U's square first and
    S's last), and T is read through `tanh`, a computed weight."""
    g = Graph()
    x = g.input((3,), "x")
    r = np.random.default_rng(fold(5, 3))
    params = {}

    def p(name, shape):
        params[name] = r.uniform(-0.8, 0.8, shape)
        return g.parameter(shape, name)

    h0 = g.bernoulli(g.affine(x, p("W0", (3, 3)), p("b0", (3,))))
    w, u, s, t = p("W", (2, 3)), p("U", (2, 3)), p("S", (2, 3)), p("T", (2, 3))
    h1 = g.bernoulli(g.affine(x, w, p("b1", (2,))))
    h2 = g.bernoulli(g.affine(h0, w, p("b2", (2,))))
    head = g.affine(g.concat(h1, h2), p("Wc", (2, 4)), p("bc", (2,)))
    terms = [g.sum(g.square(head)), g.sum(g.tanh(g.affine(h0, w, p("b3", (2,))))),
             g.sum(g.tanh(g.affine(h0, u, p("bu", (2,))))), g.sum(g.square(u)),
             g.sum(g.square(s)), g.sum(g.tanh(g.affine(h0, s, p("bs", (2,))))),
             g.sum(g.tanh(g.affine(h0, g.tanh(t), p("bt", (2,)))))]
    cost = g.cost(reduce(g.add, terms))
    return g, cost, {"x": r.uniform(-1.0, 1.0, 3)}, params


def draw_free_cost_case():
    """A cost no draw changes: V's adjoint has one row in a pass of many."""
    g = Graph()
    x = g.input((3,), "x")
    r = np.random.default_rng(fold(6, 3))
    params = {name: r.uniform(-0.8, 0.8, shape)
              for name, shape in (("W1", (2, 3)), ("b1", (2,)), ("V", (2, 3)), ("bv", (2,)))}
    g.bernoulli(g.affine(x, g.parameter((2, 3), "W1"), g.parameter((2,), "b1")))
    cost = g.cost(g.sum(g.tanh(g.affine(x, g.parameter((2, 3), "V"),
                                        g.parameter((2,), "bv")))))
    return g, cost, {"x": r.uniform(-1.0, 1.0, 3)}, params


def preset_case(arch):
    """A preset model (structured prediction, or a variational SBN for an
    arch with an `x`) on one synthetic example."""
    dims = arch.split("-")
    if "x" not in arch:
        g = build_structured_predictor(arch)
        X, Y = synthetic_multimodal(1, int(dims[0]), int(dims[-1]), seed=7)
        inputs = {"x": X[0], "y": Y[0]}
    else:
        g = build_sbn_variational(arch).graph
        inputs = {"x": synthetic_binary(1, int(dims[-1]), seed=7)[0]}
    return g, g.meta["cost"], inputs, init_params(g, seed=8)


def cases():
    for seed in range(5):
        fam = sample_family(seed)
        yield f"family{seed}", (fam.graph, fam.cost, fam.inputs, fam.params), ESTIMATORS
    yield "shared", shared_weight_case(), ESTIMATORS
    yield "draw-free", draw_free_cost_case(), ("lr", "muprop", "st")
    yield "392-200-200-392", preset_case("392-200-200-392"), ("lr", "muprop")
    yield "200x10-784", preset_case("200x10-784"), ("lr",)


def dense_fold(blocks):
    """Whole blocks `[rows, *shape]` folded by Chan et al.'s merge, one array
    operation each: the arithmetic the sliced fold must keep."""
    count = 0
    for g in blocks:
        rows = len(g)
        block_mean = g.mean(axis=0)
        dev = g - block_mean
        block_m2 = (dev * dev).sum(axis=0)
        if not count:
            mean, m2 = block_mean, block_m2
        else:
            total = count + rows
            delta = block_mean - mean
            mean = mean + delta * (rows / total)
            m2 = m2 + (delta * delta * (count * rows / total) + block_m2)
        count += rows
    return mean, m2


@pytest.mark.parametrize("label,case,names", list(cases()), ids=[c[0] for c in cases()])
def test_weight_factors_form_the_dense_per_row_gradients(monkeypatch, label, case, names):
    graph, cost, inputs, params = case
    weights = {n.id for n in graph.nodes if len(n.shape) == 2 and n.id in graph.param_ids}
    for name in names:
        config = EstimatorConfig(name)

        def run(seeds):
            return estimate(config, graph, cost, inputs, params, rng_seed=seeds, per_row=True)

        blocks = [run([fold(9, i) for i in range(3)]), run([fold(9, 3)])]
        with monkeypatch.context() as m:
            m.setitem(graph_mod._PER_ROW_VJPS, "affine", einsum_per_row_vjp)
            want = run([fold(9, i) for i in range(3)]).grads
        got = blocks[0].grads
        assert got.keys() == want.keys()
        for w, g in got.items():
            assert g.shape == want[w].shape, (label, name, w)
            if w in weights and isinstance(g, RowFactors):
                step = max(1, (1 << 20) // math.prod(g.shape[1:]))
                for lo in range(0, g.shape[1], step):
                    assert np.array_equal(formed(g, slice(lo, lo + step)),
                                          want[w][:, lo : lo + step]), (label, name, w)
            else:  # biases, and weights some other op reads
                assert isinstance(g, np.ndarray), (label, name, w)
                assert np.array_equal(g, want[w]), (label, name, w)
        del want
        if label in ("392-200-200-392", "200x10-784"):  # no `[rows, m, n]` array is built
            assert all(isinstance(got[w], RowFactors) for w in weights), (label, name)
        moments = oracle_mod._Moments()
        for est in blocks:
            moments.add(est.grads, len(est.logprob))
        for w in got:
            mean, m2 = dense_fold([formed(b.grads[w]) if isinstance(b.grads[w], RowFactors)
                                   else b.grads[w] for b in blocks])
            assert np.array_equal(moments.mean[w], mean), (label, name, w)
            assert np.array_equal(moments.m2[w], m2), (label, name, w)


def test_shared_and_read_weights_keep_their_forms():
    graph, cost, inputs, params = shared_weight_case()
    est = estimate(EstimatorConfig("lr"), graph, cost, inputs, params,
                   rng_seed=[1, 2, 3], per_row=True)
    grads = {graph.nodes[w].name: g for w, g in est.grads.items()}
    assert isinstance(grads["W"], RowFactors) and len(grads["W"].pairs) == 3
    for name in ("U", "S"):
        assert isinstance(grads[name], np.ndarray) and grads[name].shape == (3, 2, 3)
    assert isinstance(grads["T"], np.ndarray) and grads["T"].shape == (3, 2, 3)


def test_factors_count_their_bytes_and_sum_their_rows():
    """`nbytes` counts the pairs' arrays, the bytes a sweep's factored
    adjoint holds, and `total` is the rows' summed gradient."""
    graph, cost, inputs, params = shared_weight_case()
    est = estimate(EstimatorConfig("lr"), graph, cost, inputs, params,
                   rng_seed=[1, 2, 3], per_row=True)
    w = {graph.nodes[p].name: g for p, g in est.grads.items()}["W"]
    # three [3, 2] adjoint rows, the one-row input x [1, 3] and h0 [3, 3] twice
    assert w.nbytes == 8 * (3 * 6 + 3 + 2 * 9)
    want = formed(w).sum(axis=0)
    assert np.max(np.abs(w.total() - want)) <= 1e-14 * np.max(np.abs(want))
    graph, cost, inputs, params = preset_case("200x10-784")
    est = estimate(EstimatorConfig("lr"), graph, cost, inputs, params, rng_seed=3, per_row=True)
    factored = [g for g in est.grads.values() if isinstance(g, RowFactors)]
    assert len(factored) == 2
    for g in factored:
        _rows, m, n = g.shape
        assert g.nbytes == 8 * (m + n)
        a, x = g.pairs[0]
        assert np.array_equal(g.total(), np.outer(a, x) + 0.0)


@pytest.mark.parametrize("arch", ["8-4-8", "200x10-784"])
def test_one_row_weight_gradient_is_the_total_of_its_factors(arch):
    """A one-row sweep sums an affine weight's rows by the product `A.T @ X`
    that `RowFactors.total` forms, so the two agree bit for bit, signs of
    zero included."""
    graph, cost, inputs, params = preset_case(arch)
    weights = {n.parents[1] for n in graph.nodes if n.op == "affine"}
    for name in ESTIMATORS:
        config = EstimatorConfig(name)
        dense = estimate(config, graph, cost, inputs, params, rng_seed=4).grads
        factored = estimate(config, graph, cost, inputs, params, rng_seed=4, per_row=True).grads
        for w in weights:
            assert isinstance(factored[w], RowFactors), (arch, name, w)
            total = factored[w].total()
            assert dense[w].shape == total.shape, (arch, name, w)
            assert dense[w].tobytes() == total.tobytes(), (arch, name, w)


def test_moments_of_a_wide_model_hold_little_more_than_its_mean_and_variance():
    """One 10-draw moments call at 200x10-784 keeps its mean and M2 (two
    arrays of P entries) and no per-row weight gradients."""
    graph, cost, inputs, params = preset_case("200x10-784")
    entries = sum(v.size for v in params.values())
    tracemalloc.start()
    try:
        empirical_moments(EstimatorConfig("lr"), graph, cost, inputs, params, n_samples=10,
                          seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * entries, peak / (8 * entries)
