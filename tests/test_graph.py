"""Graph construction, evaluation modes, adjoint sweeps, node lookups, the op table."""
import numpy as np
import pytest

from muprop import Graph, Kind, Mode, backward, forward, gradients
from muprop.graph import _OPS
from muprop.numerics import sigmoid

from helpers import det_graph, mf_fd_max_err


def test_shape_inference_and_builder_errors():
    g = Graph()
    x = g.input((3,), "x")
    w = g.parameter((2, 3), "w")
    b = g.parameter((2,), "b", init="zeros")
    h = g.affine(x, w, b)
    assert g.nodes[h].shape == (2,)
    assert g.nodes[g.sum(h)].shape == ()
    assert g.nodes[g.concat(h, h)].shape == (4,)
    assert g.nodes[g.slice(h, 0, 1)].shape == (1,)
    with pytest.raises(ValueError):
        g.affine(x, b, b)  # weight must be a matrix
    with pytest.raises(ValueError):
        g.add(x, h)  # shape mismatch
    with pytest.raises(ValueError):
        g.slice(h, 0, 5)
    with pytest.raises(ValueError):
        g.categorical(h, k=4)  # width not divisible
    with pytest.raises(ValueError):
        g.cost(h)  # cost must be scalar
    with pytest.raises(ValueError):
        g.input((3,), "x")  # duplicate name


def test_forward_mode_rules():
    g = Graph()
    th = g.parameter((2,), "th", init="zeros")
    h = g.bernoulli(th)
    g.cost(g.sum(h))
    params = {"th": np.zeros(2)}
    with pytest.raises(ValueError):
        forward(g, params=params, mode=Mode.MEAN_FIELD, rng_seed=1)
    with pytest.raises(ValueError):
        forward(g, params=params, mode=Mode.STOCHASTIC)  # seed needed
    with pytest.raises(ValueError):
        forward(g, mode=Mode.MEAN_FIELD)  # unbound parameter
    # forcing every stochastic node removes the seed requirement
    tr = forward(g, params=params, forced={h: np.array([1.0, 0.0])})
    assert tr.logprob == pytest.approx(2 * np.log(0.5))
    assert h in tr.barriers
    with pytest.raises(ValueError):
        forward(g, params=params, forced={th: np.zeros(2)}, rng_seed=0)
    with pytest.raises(ValueError):
        forward(g, params=params, forced={h: np.array([0.5, 0.0])})


def test_forced_values_must_have_their_nodes_shape():
    """A forced value is checked as given, never reshaped to fit its node."""
    g = Graph()
    h = g.bernoulli(g.parameter((2,), "th"))
    c = g.categorical(g.parameter((6,), "tc"), k=3)
    g.cost(g.sum(g.concat(h, c)))
    params = {"th": np.zeros(2), "tc": np.zeros(6)}
    one_hot = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    ok = forward(g, params=params, forced={h: np.array([1.0, 0.0]), c: one_hot})
    assert np.array_equal(ok.values[c], one_hot[None]) and ok.barriers == {h, c}
    with pytest.raises(ValueError, match=rf"node {h}: .*\(2, 1\) != .* \(2,\)"):
        forward(g, params=params, forced={h: np.array([[1.0], [0.0]]), c: one_hot})
    with pytest.raises(ValueError, match=rf"node {c}: .*\(2, 3\) != .* \(6,\)"):
        forward(g, params=params, forced={h: np.array([1.0, 0.0]), c: one_hot.reshape(2, 3)})


def test_mean_field_relaxes_to_means():
    g = Graph()
    th = g.parameter((3,), "th")
    h = g.bernoulli(th)
    g.cost(g.sum(h))
    logits = np.array([-1.0, 0.0, 2.0])
    tr = forward(g, params={"th": logits}, mode=Mode.MEAN_FIELD)
    assert np.allclose(tr.values[h], sigmoid(logits))
    assert tr.logprob == 0.0 and tr.barriers == frozenset()


def test_sampling_determinism_and_barrier_semantics():
    g = Graph()
    th = g.parameter((4,), "th")
    h = g.bernoulli(th)
    c = g.cost(g.sum(h))
    params = {"th": np.array([0.3, -0.2, 1.0, 0.0])}
    t1 = forward(g, params=params, rng_seed=42)
    t2 = forward(g, params=params, rng_seed=42)
    t3 = forward(g, params=params, rng_seed=43)
    assert np.array_equal(t1.values[h], t2.values[h])
    assert any(not np.array_equal(t1.values[h], forward(g, params=params, rng_seed=s).values[h])
               for s in range(43, 53))
    # sampled nodes block the pathwise gradient entirely
    grads = gradients(g, c, [th], t1)
    assert np.array_equal(grads[th], np.zeros(4))
    del t3


def test_backward_seed_linearity_and_interior_seeds():
    g = Graph()
    x = g.input((2,), "x")
    w = g.parameter((2, 2), "w")
    b = g.parameter((2,), "b")
    h = g.tanh(g.affine(x, w, b))
    c = g.cost(g.sum(g.square(h)))
    params = {"w": np.array([[0.3, -0.5], [0.8, 0.1]]), "b": np.array([0.2, -0.1])}
    tr = forward(g, {"x": np.array([0.7, -1.2])}, params, mode=Mode.MEAN_FIELD)
    a1 = backward(g, tr, {c: np.ones(())})
    a2 = backward(g, tr, {c: np.full((), 2.0)})
    assert np.allclose(a2[g.node_id("w")], 2.0 * a1[g.node_id("w")])
    # a seed injected at an interior node adds on top of the flow through it
    a3 = backward(g, tr, {c: np.ones(()), h: np.array([1.0, 0.0])})
    assert not np.allclose(a3[g.node_id("w")], a1[g.node_id("w")])


def test_non_finite_detection_toggle():
    g = Graph()
    x = g.input((), "x")
    c = g.cost(g.square(x))
    with pytest.raises(ValueError, match="non-finite"):
        forward(g, {"x": 1e200}, mode=Mode.MEAN_FIELD)
    tr = forward(g, {"x": 1e200}, mode=Mode.MEAN_FIELD, validate=False)
    assert np.isinf(tr.values[c])


def test_adjoints_match_finite_differences_on_random_graphs():
    for seed in range(8):
        g, cost, inputs, params = det_graph(seed)
        err = mf_fd_max_err(g, cost, inputs, params)
        assert err < 1e-6, (seed, err)


def test_gradients_requires_scalar_cost_and_fills_zeros():
    g = Graph()
    x = g.input((2,), "x")
    w = g.parameter((2,), "w")
    unused = g.parameter((3,), "u")
    c = g.cost(g.sum(g.mul(x, w)))
    tr = forward(g, {"x": np.ones(2)}, {"w": np.ones(2), "u": np.zeros(3)}, mode=Mode.MEAN_FIELD)
    grads = gradients(g, c, [w, unused], tr)
    assert np.allclose(grads[w], np.ones(2))
    assert np.array_equal(grads[unused], np.zeros(3))
    with pytest.raises(ValueError):
        gradients(g, x, [w], tr)


def test_kind_partitions():
    g = Graph()
    x = g.input((2,), "x")
    th = g.parameter((2,), "th")
    h = g.bernoulli(th)
    g.cost(g.sum(g.mul(h, x)))
    assert g.nodes[x].kind == Kind.INPUT
    assert g.param_ids == [th]
    assert g.stochastic_ids == [h]


def test_add_rejects_unknown_ops():
    g = Graph()
    th = g.parameter((2,), "th")
    for kind, op in ((Kind.DETERMINISTIC, "erf"), (Kind.STOCHASTIC, "poisson")):
        with pytest.raises(ValueError, match=f"unknown {kind.name.lower()} op '{op}'"):
            g._add(kind, op, (th,))
    assert len(g.nodes) == 1


def test_node_ids_out_of_range_are_rejected():
    g = Graph()
    th = g.parameter((2,), "th")
    h = g.bernoulli(th)
    c = g.cost(g.sum(h))
    params = {"th": np.zeros(2)}
    n = len(g.nodes)
    for bad in (-1, -n + h, n, n + 3):
        with pytest.raises(KeyError, match=f"no node with id {bad}"):
            forward(g, params=params, forced={bad: np.ones(2)})
        tr = forward(g, params=params, mode=Mode.MEAN_FIELD)
        with pytest.raises(KeyError, match=f"no node with id {bad}"):
            gradients(g, c, [bad], tr)
    assert g.node_id(np.int64(h)) == h


def test_non_integer_node_ids_are_rejected():
    g = Graph()
    th = g.parameter((2,), "th")
    h = g.bernoulli(th)
    params = {"th": np.zeros(2)}
    assert h == 1
    for bad in (1.7, True, np.float64(1.2), np.True_, 1.0):
        with pytest.raises(TypeError, match="integer"):
            g.node_id(bad)
        with pytest.raises(TypeError, match="integer"):
            forward(g, params=params, forced={bad: np.ones(2)})
    assert g.node_id(1) == g.node_id(np.int32(1)) == g.node_id(np.uint8(1)) == h


# One case per op-table entry (softmax as one group over the whole vector),
# plus softmax over several groups ("softmax:k"):
# (parent shapes, attributes, parent shapes the op's shape rule rejects).
OP_CASES = {
    "affine": ([(3,), (2, 3), (2,)], {}, [(3,), (2, 2), (2,)]),
    "sigmoid": ([(3,)], {}, [(3,), (3,)]),
    "tanh": ([(3,)], {}, [(3,), (3,)]),
    "softmax": ([(4,)], {"k": 4}, [(4,), (4,)]),
    "softplus": ([(3,)], {}, [(3,), (3,)]),
    "add": ([(3,), (3,)], {}, [(3,), (2,)]),
    "sub": ([(3,), (3,)], {}, [(3,), (2,)]),
    "mul": ([(3,), (3,)], {}, [(3,), (2,)]),
    "sum": ([(3,)], {}, [(3,), (3,)]),
    "mean": ([(3,)], {}, [(3,), (3,)]),
    "logsumexp": ([(6,)], {"k": 3}, [(5,)]),
    "concat": ([(2,), (), (3,)], {}, [(2,), (2, 2)]),
    "slice": ([(5,)], {"span": (1, 4)}, [(3,)]),
    "square": ([(3,)], {}, [(3,), (3,)]),
    "softmax:k": ([(6,)], {"k": 3}, [(5,)]),
}


@pytest.mark.parametrize("case", sorted(_OPS) + ["softmax:k"])
def test_every_op_vjp_matches_central_differences(case):
    """Each parent's vjp against central differences of <adjoint, output>."""
    assert case in OP_CASES, f"op {case!r} has no case in OP_CASES"
    pshapes, attrs, bad = OP_CASES[case]
    op = case.split(":")[0]
    with pytest.raises(ValueError):
        _OPS[op].shape(bad, attrs)
    rng = np.random.default_rng(len(op))
    g = Graph()
    parents = [g.input(s) for s in pshapes]
    out = g._add(Kind.DETERMINISTIC, op, parents, **attrs)
    inputs = {p: rng.uniform(0.5, 1.5, s) for p, s in zip(parents, pshapes)}
    adjoint = rng.normal(size=g.nodes[out].shape)
    trace = forward(g, inputs, mode=Mode.MEAN_FIELD)
    adj = backward(g, trace, {out: adjoint})

    def objective():
        return float(np.sum(adjoint * forward(g, inputs, mode=Mode.MEAN_FIELD).values[out]))

    step = 1e-6
    for p in parents:
        x = inputs[p]
        assert adj[p].shape == (1,) + x.shape, (op, p)  # one row: the input's
        fd = np.zeros(x.shape)
        for idx in np.ndindex(x.shape):
            orig = x[idx]
            x[idx] = orig + step
            up = objective()
            x[idx] = orig - step
            fd[idx] = (up - objective()) / (2 * step)
            x[idx] = orig
        assert np.allclose(adj[p][0], fd, rtol=1e-6, atol=1e-8), (op, p, adj[p], fd)
