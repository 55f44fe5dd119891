"""Exact enumeration, empirical moments, and finite-difference checking.

Discrete stochastic graphs with small supports admit brute-force ground truth:
enumerate every joint configuration, weight by its probability, and sum. That
gives the exact expected cost, the exact gradient of the expected cost, and
the exact expectation of any estimator, which is how unbiasedness claims are
checked without appealing to sampling noise.
"""
from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .estimators import BaselineState, EstimatorConfig, estimate, mean_field_pass
from .graph import Graph, Kind, Mode, backward, forward
from .numerics import as_tensor

MAX_CONFIGS = 1 << 16


@dataclass
class EnumerationReport:
    expected_cost: float
    grads: dict[int, np.ndarray]
    config_count: int


def _support(node) -> list[np.ndarray]:
    n = int(np.prod(node.shape)) if node.shape else 1
    if node.op == "bernoulli":
        out = []
        for bits in range(1 << n):
            v = np.array([(bits >> i) & 1 for i in range(n)], dtype=np.float64)
            out.append(v)
        return out
    k = node.k
    units = n // k
    eye = np.eye(k)
    out = []
    for idx in itertools.product(range(k), repeat=units):
        out.append(eye[list(idx)].reshape(node.shape).astype(np.float64))
    return out


def enumerate_configs(graph: Graph):
    """Yield every joint assignment {stochastic node id -> value}."""
    sids = graph.stochastic_ids
    if not sids:
        raise ValueError("graph has no stochastic nodes")
    supports = [_support(graph.nodes[s]) for s in sids]
    count = math.prod(len(s) for s in supports)
    if count > MAX_CONFIGS:
        raise ValueError(f"joint support has {count} configurations (limit {MAX_CONFIGS})")
    for combo in itertools.product(*supports):
        yield dict(zip(sids, combo))


def config_count(graph: Graph) -> int:
    return math.prod(len(_support(graph.nodes[s])) for s in graph.stochastic_ids)


def exact_expected_cost_and_grad(
    graph: Graph, cost, inputs=None, params=None, wrt=None
) -> EnumerationReport:
    """Exact E[f] and its gradient by summing over the joint support.

    Each configuration contributes p * (direct cost paths) + p * f * (score
    seeds at the logits), both folded into one adjoint sweep per configuration
    that computes only the adjoints `wrt` reads; with `wrt=[]` (the expected
    cost alone) there is no sweep.
    """
    cost = graph.node_id(cost)
    wrt = list(graph.param_ids if wrt is None else (graph.node_id(w) for w in wrt))
    total_cost = 0.0
    total_p = 0.0
    grads = {w: np.zeros(graph.nodes[w].shape) for w in wrt}
    n = 0
    for cfg in enumerate_configs(graph):
        trace = forward(
            graph, inputs, params, mode=Mode.STOCHASTIC, forced=cfg, validate=n == 0
        )
        p = math.exp(sum(trace.logprobs.values()))
        f = trace.cost_value(cost)
        total_cost += p * f
        total_p += p
        n += 1
        if not wrt:
            continue
        seeds = {cost: np.full((), p)}
        for sid in graph.stochastic_ids:
            node = graph.nodes[sid]
            layer = graph.layer(node, trace.values[node.parents[0]])
            score = layer.score(cfg[sid].reshape(layer.logits.shape), checked=True).reshape(node.shape)
            lp = node.parents[0]
            contrib = p * f * score
            seeds[lp] = seeds[lp] + contrib if lp in seeds else contrib
        adj = backward(graph, trace, seeds, need=wrt)
        for w in wrt:
            if adj[w] is not None:
                grads[w] = grads[w] + adj[w]
    if abs(total_p - 1.0) > 1e-9:
        raise ValueError(f"configuration probabilities sum to {total_p!r}")
    return EnumerationReport(total_cost, grads, n)


def estimator_expectation(
    config: EstimatorConfig,
    graph: Graph,
    cost,
    inputs=None,
    params=None,
    baselines: BaselineState | None = None,
) -> dict[int, np.ndarray]:
    """Exact expectation of one estimator draw under the current parameters.

    Baseline statistics are snapshotted: every configuration sees an identical
    copy of `baselines`, so the expectation is of a single draw from the given
    state. Variance normalization makes the estimate nonlinear in the signal
    and has no single-draw expectation to report, so "vn" is rejected.
    `muprop`'s mean-field pass does not depend on the configuration, so it
    runs once and every configuration reuses it.
    """
    if "vn" in config.flags:
        raise ValueError("variance normalization has no closed-form expectation")
    template = baselines if baselines is not None else BaselineState()
    idb_input = _default_idb_input(graph, inputs)
    mf = mean_field_pass(graph, cost, inputs, params) if config.name == "muprop" else None
    total: dict[int, np.ndarray] = {}
    total_p = 0.0
    first = True
    for cfg in enumerate_configs(graph):
        trace = forward(
            graph, inputs, params, mode=Mode.STOCHASTIC, forced=cfg, validate=first
        )
        p = math.exp(sum(trace.logprobs.values()))
        total_p += p
        est = estimate(
            config,
            graph,
            cost,
            inputs,
            params,
            rng_seed=None,
            baselines=copy.deepcopy(template),
            forced=cfg,
            idb_input=idb_input,
            mf=mf,
            validate=first,
        )
        for w, g in est.grads.items():
            total[w] = total.get(w, 0.0) + p * g
        first = False
    if abs(total_p - 1.0) > 1e-9:
        raise ValueError(f"configuration probabilities sum to {total_p!r}")
    return {w: as_tensor(g) for w, g in total.items()}


def _default_idb_input(graph: Graph, inputs) -> np.ndarray | None:
    if not inputs:
        return None
    first = sorted(inputs.items())[0][1]
    return np.asarray(first, dtype=np.float64).ravel()


def empirical_moments(
    config: EstimatorConfig,
    graph: Graph,
    cost,
    inputs=None,
    params=None,
    n_samples: int = 1000,
    seed: int = 0,
    baselines: BaselineState | None = None,
):
    """Streaming mean and (population) variance of an estimator over draws.

    Baseline state, if given, evolves across draws exactly as it would during
    training. Returns (mean, variance, mean_cost) with per-parameter arrays.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    mean: dict[int, np.ndarray] = {}
    m2: dict[int, np.ndarray] = {}
    idb_input = _default_idb_input(graph, inputs)
    cost_acc = 0.0
    mf = mean_field_pass(graph, cost, inputs, params) if config.name == "muprop" else None
    for i in range(n_samples):
        est = estimate(
            config,
            graph,
            cost,
            inputs,
            params,
            rng_seed=_rng.fold(seed, i),
            baselines=baselines,
            idb_input=idb_input,
            mf=mf,
            validate=i == 0,
        )
        cost_acc += est.cost
        for w, g in est.grads.items():
            if w not in mean:
                mean[w] = np.zeros_like(g)
                m2[w] = np.zeros_like(g)
            delta = g - mean[w]
            mean[w] += delta / (i + 1)
            m2[w] += delta * (g - mean[w])
    var = {w: m2[w] / n_samples for w in m2}
    return mean, var, cost_acc / n_samples


def relative_error(a, b, floor: float = 1e-8) -> float:
    """max_i |a_i - b_i| / max(floor, |b_i|) over flattened entries."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    return float(np.max(np.abs(a - b) / np.maximum(floor, np.abs(b)))) if a.size else 0.0


def grad_relative_error(got: dict, want: dict, floor: float = 1e-8) -> float:
    return max((relative_error(got[w], want[w], floor) for w in want), default=0.0)


def finite_difference_check(
    graph: Graph, cost, inputs=None, params=None, step: float = 1e-5, wrt=None
) -> float:
    """Central differences on the exact expected cost vs the enumerated gradient.

    Returns the worst relative error across all checked parameter entries.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    cost = graph.node_id(cost)
    wrt = list(graph.param_ids if wrt is None else (graph.node_id(w) for w in wrt))
    report = exact_expected_cost_and_grad(graph, cost, inputs, params, wrt=wrt)
    params = {} if params is None else dict(params)
    bound = {graph.node_id(k): np.array(v, dtype=np.float64) for k, v in params.items()}

    worst = 0.0
    for w in wrt:
        base = bound[w]
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = base[idx]
            base[idx] = orig + step
            up = exact_expected_cost_and_grad(graph, cost, inputs, _named(graph, bound), wrt=[]).expected_cost
            base[idx] = orig - step
            dn = exact_expected_cost_and_grad(graph, cost, inputs, _named(graph, bound), wrt=[]).expected_cost
            base[idx] = orig
            fd = (up - dn) / (2.0 * step)
            worst = max(worst, relative_error(report.grads[w][idx], fd))
    return worst


def _named(graph: Graph, bound: dict) -> dict:
    return {graph.nodes[w].name or w: v for w, v in bound.items()}


# -- randomized graph family ----------------------------------------------------


@dataclass
class FamilySample:
    graph: Graph
    cost: int
    inputs: dict
    params: dict
    depth: int
    kinds: tuple


def sample_family(seed: int, max_depth: int = 3, allow_categorical: bool = True) -> FamilySample:
    """Random small graph: chain or two-branch DAG of discrete stochastic layers.

    Joint supports stay well under the enumeration limit. Costs mix squares,
    tanh, and an affine head so samples enter nonlinearly and parameters also
    reach the cost along purely deterministic paths.
    """
    r = np.random.default_rng(_rng.fold(seed, 77))
    g = Graph()
    in_dim = int(r.integers(2, 4))
    x = g.input((in_dim,), "x")
    inputs = {"x": r.uniform(-1.0, 1.0, in_dim)}
    params: dict[str, np.ndarray] = {}
    budget_log2 = 8  # joint support capped at 2**8 configurations

    def fresh(name, shape, scale=1.0):
        params[name] = r.uniform(-scale, scale, shape)
        return g.parameter(shape, name)

    def stoch_layer(h, h_dim, tag, budget):
        kind = "bernoulli"
        if allow_categorical and r.random() < 0.35:
            kind = "categorical"
        # near-init weight scale: keeps units unsaturated, the regime the
        # estimators are built for
        if kind == "bernoulli":
            units = int(r.integers(1, min(3, budget) + 1))
            w = fresh(f"w{tag}", (units, h_dim), 0.7)
            b = fresh(f"b{tag}", (units,), 0.3)
            node = g.bernoulli(g.affine(h, w, b))
            return node, units, units, kind
        k = int(r.integers(2, 4))
        units = 1
        w = fresh(f"w{tag}", (units * k, h_dim), 0.7)
        b = fresh(f"b{tag}", (units * k,), 0.3)
        node = g.categorical(g.affine(h, w, b), k=k)
        cost_log2 = units * math.log2(k)
        return node, units * k, cost_log2, kind

    depth = int(r.integers(1, max_depth + 1))
    branch = depth >= 1 and r.random() < 0.3
    kinds = []
    used = 0.0

    def run_chain(h, h_dim, n_layers, tag):
        nonlocal used
        for li in range(n_layers):
            node, h_dim, spent, kind = stoch_layer(h, h_dim, f"{tag}{li}", int(budget_log2 - used))
            kinds.append(kind)
            used += spent if isinstance(spent, float) else float(spent)
            h = node
        return h, h_dim

    if branch:
        d1 = max(1, depth - 1)
        h1, n1 = run_chain(x, in_dim, d1, "a")
        h2, n2 = run_chain(x, in_dim, 1, "b")
        h, h_dim = g.concat(h1, h2), n1 + n2
        depth = max(d1, 1)
    else:
        h, h_dim = run_chain(x, in_dim, depth, "m")

    wc = fresh("wc", (2, h_dim), 0.8)
    bc = fresh("bc", (2,), 0.3)
    head = g.affine(h, wc, bc)
    quad = g.sum(g.square(head))
    smooth = g.mean(g.tanh(head))
    cost = g.cost(g.add(quad, smooth))
    return FamilySample(g, cost, inputs, params, depth, tuple(kinds))


def make_chain(seed: int, n_layers: int, sizes=None):
    """Bernoulli chain with an elementwise quadratic cost.

    Returns (FamilySample, layout) where layout carries the per-layer weights and
    the cost constants so an independent evaluator can recompute everything
    outside the graph engine: layer l maps v -> logits W[l] v + b[l], and the
    cost is sum((a * h_n - t)^2).
    """
    r = np.random.default_rng(_rng.fold(seed, 91))
    if sizes is None:
        sizes = [int(r.integers(1, 4)) for _ in range(n_layers + 1)]
    assert len(sizes) == n_layers + 1
    g = Graph()
    x = g.input((sizes[0],), "x")
    inputs = {"x": r.uniform(-1.0, 1.0, sizes[0])}
    params = {}
    h = x
    weights = []
    for li in range(n_layers):
        w_np = r.uniform(-1.5, 1.5, (sizes[li + 1], sizes[li]))
        b_np = r.uniform(-0.7, 0.7, sizes[li + 1])
        params[f"w{li}"] = w_np
        params[f"b{li}"] = b_np
        w = g.parameter((sizes[li + 1], sizes[li]), f"w{li}")
        b = g.parameter((sizes[li + 1],), f"b{li}")
        h = g.bernoulli(g.affine(h, w, b))
        weights.append((w_np, b_np))
    a_np = r.uniform(0.5, 1.5, sizes[-1])
    t_np = r.uniform(0.0, 1.0, sizes[-1])
    a = g.constant(a_np, "a")
    t = g.constant(t_np, "t")
    cost = g.cost(g.sum(g.square(g.sub(g.mul(h, a), t))))
    layout = {"weights": weights, "a": a_np, "t": t_np, "x": inputs["x"], "sizes": sizes}
    return FamilySample(g, cost, inputs, params, n_layers, ("bernoulli",) * n_layers), layout
