"""Examples as rows: rowed bound inputs, `evaluate_nll` over blocks of
example x round rows, and the array form of `rng.fold`."""
import math
import warnings

import numpy as np
import pytest

from muprop import (
    EstimatorConfig,
    Mode,
    build_sbn_variational,
    build_structured_predictor,
    empirical_moments,
    estimate,
    evaluate_nll,
    forward,
    init_params,
)
from muprop import models as models_mod
from muprop import oracle as oracle_mod
from muprop.data import synthetic_binary, synthetic_multimodal
from muprop.graph import Kind
from muprop.numerics import log_mean_exp
from muprop.oracle import sample_family
from muprop.rng import fold

REL_TOL = 1e-12


def reference_nll(graph, params, X, Y, n_samples, seed):
    """One one-row stochastic pass per example and round, at fold(seed, i, r)."""
    sop = graph.meta["task"] == "structured_prediction"
    reads = graph.meta["logp_nodes"] if sop else (graph.meta["cost"],)
    rounds = -(-n_samples // len(reads))
    total = 0.0
    for i in range(len(X)):
        inputs = {"x": X[i], "y": Y[i]} if sop else {"x": X[i]}
        vals = []
        for r in range(rounds):
            tr = forward(graph, inputs, params, rng_seed=fold(seed, i, r), validate=False)
            vals.extend(tr.values[n].item() for n in reads)
        vals = vals[:n_samples]
        total += -log_mean_exp(np.array(vals)) if sop else sum(vals) / n_samples
    return total / len(X)


# (arch, m for a structured predictor or None for a variational SBN, examples, samples)
EVAL_CASES = (
    ("8-4-8", 1, 5, 7),
    ("8-4-8", 2, 5, 7),  # odd n_samples: the last round's second value is dropped
    ("392-200-200-392", 1, 3, 5),
    ("2x3-4-8", None, 4, 5),
    ("200-784", None, 2, 4),
)


def eval_case(arch, m, n):
    toks = arch.split("-")
    if m is None:
        model = build_sbn_variational(arch)
        graph = model.graph
        X, Y = synthetic_binary(n, int(toks[-1]), seed=6), None
        data = X
    else:
        graph = model = build_structured_predictor(arch, m=m)
        X, Y = synthetic_multimodal(n, int(toks[0]), int(toks[-1]), seed=6)
        data = (X, Y)
    return model, graph, init_params(graph, seed=5), X, Y, data


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("arch,m,n,samples", EVAL_CASES)
def test_evaluate_nll_matches_a_loop_of_one_row_passes(monkeypatch, arch, m, n, samples, split):
    model, graph, params, X, Y, data = eval_case(arch, m, n)
    rounds = -(-samples // (m or 1))
    if split:
        # three rows per block: blocks end inside an example's rounds
        monkeypatch.setattr(oracle_mod, "_block_rows", lambda graph: 3)
        assert oracle_mod._block_rows(graph) == 3 and rounds % 3 != 0
    else:
        assert oracle_mod._block_rows(graph) > 1  # many rows share a pass
    got = evaluate_nll(model, params, data, n_samples=samples, seed=11)
    want = reference_nll(graph, params, X, Y, samples, seed=11)
    assert type(got) is float
    assert abs(got - want) <= REL_TOL * abs(want), (got, want)


def test_evaluate_nll_runs_one_pass_per_block(monkeypatch):
    model, graph, params, _X, _Y, data = eval_case("8-4-8", 1, 5)
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(kwargs["rng_seed"]))
        return forward(*args, **kwargs)

    monkeypatch.setattr(models_mod, "forward", counting)
    per_row = oracle_mod.BLOCK_ELEMENTS // oracle_mod._block_rows(graph)
    monkeypatch.setattr(oracle_mod, "BLOCK_ELEMENTS", 8 * per_row)
    evaluate_nll(model, params, data, n_samples=7, seed=1)
    assert calls == [8, 8, 8, 8, 3]  # 35 rows: 5 examples x 7 rounds


def value_entries(graph):
    return sum(math.prod(n.shape) for n in graph.nodes
               if n.kind not in (Kind.INPUT, Kind.PARAMETER))


def param_entries(graph):
    return sum(math.prod(graph.nodes[p].shape) for p in graph.param_ids)


def test_block_rows_read_the_weights_once_per_many_rows():
    """Blocks are sized against max(BLOCK_ELEMENTS, parameter entries)."""
    budget = oracle_mod.BLOCK_ELEMENTS
    narrow = [sample_family(s).graph for s in range(10)] + [
        build_structured_predictor("8-4-8"), build_structured_predictor("392-4-4-392"),
        build_sbn_variational("2x10-784").graph]
    for graph in narrow:  # parameters within BLOCK_ELEMENTS: sized by it alone
        per_row, params = value_entries(graph), param_entries(graph)
        assert params <= budget
        assert oracle_mod._block_rows(graph) == max(1, budget // per_row)
    assert [oracle_mod._block_rows(g) for g in narrow[-3:]] == [819, 27, 13]
    wide = {"392-200-200-392": 99, "200-784": 88, "200-200-784": 79, "200x10-784": 291}
    for arch, want in wide.items():
        graph = (build_structured_predictor(arch) if arch.startswith("392")
                 else build_sbn_variational(arch).graph)
        params, per_row = param_entries(graph), value_entries(graph)
        rows = oracle_mod._block_rows(graph)
        assert rows == want, arch
        assert budget <= rows * per_row <= max(budget, params), arch


@pytest.mark.parametrize("arch,draws,blocks", [("392-200-200-392", 100, [99, 1]),
                                              ("200x10-784", 10, [10])])
def test_moments_blocks_take_the_rows_of_every_other_pass(monkeypatch, arch, draws, blocks):
    """`empirical_moments` sizes its blocks by `_block_rows` as enumeration
    and `evaluate_nll` do: a row's weight gradients are factors, not P entries."""
    _model, graph, params, X, Y, _data = eval_case(arch, 1 if arch.startswith("392") else None, 1)
    inputs = {"x": X[0]} if Y is None else {"x": X[0], "y": Y[0]}
    rows = []

    def counting(*args, rng_seed, **kwargs):
        rows.append(len(rng_seed))
        return estimate(*args, rng_seed=rng_seed, **kwargs)

    monkeypatch.setattr(oracle_mod, "estimate", counting)
    empirical_moments(EstimatorConfig("lr"), graph, graph.meta["cost"], inputs, params,
                      n_samples=draws, seed=2)
    assert rows == blocks


def rowed_cases():
    for arch, m in (("8-4-4-8", 1), ("8-4-8", 2), ("2x3-3x4-8", None), ("200-784", None)):
        _model, graph, params, X, Y, _data = eval_case(arch, m, 6)
        inputs = {"x": X} if Y is None else {"x": X, "y": Y}
        yield graph, params, inputs


def test_rowed_inputs_match_one_row_passes():
    seeds = [fold(3, i) for i in range(6)]
    for graph, params, inputs in rowed_cases():
        rows = forward(graph, inputs, params, rng_seed=seeds)
        means = forward(graph, inputs, params, Mode.MEAN_FIELD)
        assert rows.logprob.shape == (6,) and len(means.logprob) == 6
        for i, seed in enumerate(seeds):
            one_inputs = {k: v[i] for k, v in inputs.items()}
            one = forward(graph, one_inputs, params, rng_seed=seed)
            one_mf = forward(graph, one_inputs, params, Mode.MEAN_FIELD)
            for sid in graph.stochastic_ids:
                assert np.array_equal(rows.values[sid][i], one.values[sid][0]), (sid, i)
            for trace, ref in ((rows, one), (means, one_mf)):
                for nid, v in enumerate(trace.values):
                    got = v[i] if len(v) > 1 else v[0]
                    np.testing.assert_allclose(got, ref.values[nid][0], rtol=REL_TOL,
                                               atol=1e-14, err_msg=f"node {nid}, row {i}")
            np.testing.assert_allclose(rows.logprob[i], one.logprob[0], rtol=REL_TOL)


def test_one_row_inputs_broadcast_against_rowed_ones():
    graph, params, inputs = next(rowed_cases())
    seeds = [fold(4, i) for i in range(6)]
    y0 = inputs["y"][0]
    rows = forward(graph, {"x": inputs["x"], "y": y0}, params, rng_seed=seeds)
    one = forward(graph, {"x": inputs["x"][2], "y": y0}, params, rng_seed=seeds[2])
    np.testing.assert_allclose(rows.logprob[2], one.logprob[0], rtol=REL_TOL)
    assert len(rows.values[graph.node_id("y")]) == 1


def test_row_counts_and_shapes_must_agree():
    graph, params, inputs = next(rowed_cases())
    x, y = inputs["x"], inputs["y"]  # 6 rows each
    xid, yid = graph.node_id("x"), graph.node_id("y")
    first = graph.stochastic_ids[0]
    with pytest.raises(ValueError, match=f"from 4 seeds: input {xid} has 6 rows"):
        forward(graph, {"x": x, "y": y}, params, rng_seed=[1, 2, 3, 4])
    with pytest.raises(ValueError, match=f"from 1 seeds: input {xid} has 6 rows"):
        forward(graph, {"x": x, "y": y}, params, rng_seed=1)
    forced = {first: np.zeros((4,) + graph.nodes[first].shape)}
    with pytest.raises(ValueError, match=f"forced value for node {first} has 4 rows, "
                                         f"but input {xid} has 6"):
        forward(graph, {"x": x, "y": y}, params, Mode.MEAN_FIELD, forced=forced)
    with pytest.raises(ValueError, match=f"input {yid} has 4 rows, but input {xid} has 6"):
        forward(graph, {"x": x, "y": y[:4]}, params, Mode.MEAN_FIELD)
    with pytest.raises(ValueError, match=rf"input {xid}: shape \(6, 7\) != \(8,\)"):
        forward(graph, {"x": x[:, :7], "y": y}, params, Mode.MEAN_FIELD)
    w = graph.node_id("w0")
    rowed = dict(params, w0=np.stack([params["w0"]] * 6))
    with pytest.raises(ValueError, match=rf"parameter {w}: bound shape \(6, 4, 8\) != \(4, 8\)"):
        forward(graph, {"x": x, "y": y}, rowed, Mode.MEAN_FIELD)


LABELS = np.array([0, 1, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64)


def test_a_zero_dim_label_folds_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed, label in ((9, -3), (9, 2**64 - 1), (0, 7)):
            got = fold(seed, np.array(label))
            assert got.shape == () and got.dtype == np.uint64
            assert int(got) == fold(seed, label)
            got = fold(seed, np.array(label), 5, np.arange(3))
            assert [int(v) for v in got] == [fold(seed, label, 5, j) for j in range(3)]


def test_array_fold_matches_the_scalar_fold():
    rng = np.random.default_rng(0)
    random = rng.integers(0, 2**64 - 1, 200, dtype=np.uint64, endpoint=True)
    negative = rng.integers(-2**63, 0, 200)
    for seed in (0, 7, 2**64 - 1):
        for labels in (random, LABELS, negative, np.array([-1, -2**63])):
            got = fold(seed, labels)
            assert got.dtype == np.uint64
            assert [int(v) for v in got] == [fold(seed, int(v)) for v in labels]
    # arrays broadcast against each other and against scalar labels
    i, r = np.divmod(np.arange(12), 4)
    got = fold(5, 33, i, r)
    assert [int(v) for v in got] == [fold(5, 33, int(a), int(b)) for a, b in zip(i, r)]
    assert fold(5, i[:, None], LABELS[None, :]).shape == (12, len(LABELS))
