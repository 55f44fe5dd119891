"""Exact enumeration, empirical moments, and finite-difference checking.

Discrete stochastic graphs with small supports admit brute-force ground truth:
enumerate every joint configuration, weight by its probability, and sum. That
gives the exact expected cost, the exact gradient of the expected cost, and
the exact expectation of any estimator, which is how unbiasedness claims are
checked without appealing to sampling noise.

The configurations are the rows (see `graph`) of forced passes:
`config_blocks` splits the joint support into blocks of consecutive
configurations, sized by `_block_rows` so one pass holds at most
max(`BLOCK_ELEMENTS`, P) value entries, P being the graph's parameter
entries, and each oracle runs one forced pass (and one sweep) per block.
`empirical_moments` runs its draws in blocks of the same size. Every block
is checked for non-finite values, the parameters once per call (each oracle
binds them once, see `graph`), and an error names the node and the
configuration or draw.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .estimators import BaselineState, EstimatorConfig, estimate
from .graph import _SAMPLERS, Graph, Kind, Mode, NonFiniteError, backward, bind, forward
from .numerics import as_tensor

MAX_CONFIGS = 1 << 16
# value entries one blocked pass (enumeration, `empirical_moments`,
# `models.evaluate_nll`) may hold, unless the graph's parameters have more
# entries (see `_block_rows`): rows per block times the entries one row of
# the graph's computed nodes takes. A pass's adjoints, means and seeds take a
# few times as much again: enumerating a 12-unit chain (4,096
# configurations) for every estimator peaks 0.8 MiB above a loop over
# configurations at 2**15 (256 KiB of values), 1.8 MiB at 2**16 and 3.7 MiB
# at 2**17.
BLOCK_ELEMENTS = 1 << 15


@dataclass
class EnumerationReport:
    expected_cost: float
    grads: dict[int, np.ndarray]
    config_count: int


def config_blocks(graph: Graph):
    """Yield `(start, forced)` for consecutive blocks of the joint support.

    `forced` maps each stochastic node id to `[rows, width]` values; row i
    is configuration `start + i`, in `itertools.product` order over the
    nodes (the last node changes fastest) of each node's `support`. The
    count is checked against `MAX_CONFIGS` before any support is built.
    """
    sids = graph.stochastic_ids
    if not sids:
        raise ValueError("graph has no stochastic nodes")
    count = config_count(graph)
    if count > MAX_CONFIGS:
        raise ValueError(f"joint support has {count} configurations (limit {MAX_CONFIGS})")
    supports = [cls.support(width, k) for cls, width, k in _families(graph)]
    rows = _block_rows(graph)
    for start in range(0, count, rows):
        index = np.arange(start, min(start + rows, count))
        forced = {}
        for sid, support in zip(reversed(sids), reversed(supports)):
            index, digit = np.divmod(index, len(support))
            forced[sid] = support[digit]
        yield start, forced


def _block_rows(graph: Graph) -> int:
    """Rows per block: max(`BLOCK_ELEMENTS`, P) over one row's value
    entries, at least one, where P is the graph's parameter entries. Every
    pass reads all P of them, so a block's values may be as large: a wide
    model's weights are read once per many rows, and the values stay within
    the model's own size."""
    per_row = sum(math.prod(n.shape) for n in graph.nodes
                  if n.kind not in (Kind.INPUT, Kind.PARAMETER))
    return max(1, max(BLOCK_ELEMENTS, _param_entries(graph)) // max(per_row, 1))


def _param_entries(graph: Graph) -> int:
    return sum(math.prod(graph.nodes[p].shape) for p in graph.param_ids)


def config_count(graph: Graph) -> int:
    """Size of the joint support, from the nodes' shapes alone."""
    return math.prod(cls.support_size(width, k) for cls, width, k in _families(graph))


def _families(graph: Graph) -> list[tuple[type, int, int | None]]:
    """Each stochastic node's layer class, width and group width `k`."""
    nodes = [graph.nodes[s] for s in graph.stochastic_ids]
    return [(_SAMPLERS[n.op].layer, n.shape[0], n.k) for n in nodes]


def _located(where, fn, *args, **kwargs):
    """`fn(*args, **kwargs)`, reporting a non-finite value at `where(row)`,
    or in the mean-field pass, which belongs to no row."""
    try:
        return fn(*args, **kwargs)
    except NonFiniteError as err:
        place = "the mean-field pass" if err.row is None else where(err.row)
        raise ValueError(f"non-finite value produced at node {err.node} in {place}") from None


def _on_block(start: int, fn, *args, **kwargs):
    """`fn(*args, **kwargs)` for the block starting at configuration `start`."""
    return _located(lambda row: f"configuration {start + row}", fn, *args, **kwargs)


def _check_total(total_p: float) -> None:
    if abs(total_p - 1.0) > 1e-9:
        raise ValueError(f"configuration probabilities sum to {total_p!r}")


def exact_expected_cost_and_grad(
    graph: Graph, cost, inputs=None, params=None, wrt=None
) -> EnumerationReport:
    """Exact E[f] and its gradient by summing over the joint support.

    Each configuration contributes p * (direct cost paths) + p * f * (score
    seeds at the logits), both folded into one adjoint sweep per block of
    configurations that computes only the adjoints `wrt` reads; with `wrt=[]`
    (the expected cost alone) there is no sweep.
    """
    cost = graph.node_id(cost)
    wrt = list(graph.param_ids if wrt is None else (graph.node_id(w) for w in wrt))
    params = bind(graph, params)
    total_cost = 0.0
    total_p = 0.0
    grads = {w: np.zeros(graph.nodes[w].shape) for w in wrt}
    n = 0
    for start, forced in config_blocks(graph):
        trace = _on_block(start, forward, graph, inputs, params, Mode.STOCHASTIC, forced=forced)
        p = np.exp(trace.logprob)
        f = trace.values[cost]
        total_cost += float(p @ f)
        total_p += float(np.sum(p))
        n += len(p)
        if not wrt:
            continue
        seeds = {cost: p}
        pf = (p * f)[:, None]
        for sid in graph.stochastic_ids:
            lp = graph.nodes[sid].parents[0]
            contrib = pf * trace.layers[sid].score(trace.values[sid], checked=True)
            seeds[lp] = seeds[lp] + contrib if lp in seeds else contrib
        adj = backward(graph, trace, seeds, need=wrt)
        for w in wrt:
            if adj[w] is not None:
                grads[w] = grads[w] + adj[w].sum(axis=0)
    _check_total(total_p)
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

    Each block of configurations is one `estimate` call over its forced rows,
    weighted by the rows' probabilities from the estimator's own stochastic
    pass, so one sweep per block gives the block's sum of p * estimate.
    Baseline statistics are read, never written: every row is adjusted
    against the given statistics (and the `idb` net's prediction from the
    given net), so the expectation is of a single draw from the given state,
    and `baselines` is left as it was. Variance normalization makes the
    estimate nonlinear in the signal and has no single-draw expectation to
    report, so "vn" is rejected. Each block runs its own anchor passes
    (`muprop`'s mean-field pass, `muprop_rollout`'s per-layer passes).
    """
    if "vn" in config.flags:
        raise ValueError("variance normalization has no closed-form expectation")
    idb_input = _default_idb_input(graph, inputs)
    params = bind(graph, params)
    total: dict[int, np.ndarray] = {}
    total_p = 0.0
    for start, forced in config_blocks(graph):
        est = _on_block(
            start, estimate, config, graph, cost, inputs, params, rng_seed=None,
            baselines=baselines, forced=forced, idb_input=idb_input, weighted=True,
        )
        total_p += float(np.sum(np.exp(est.logprob)))
        for w, g in est.grads.items():
            total[w] = total[w] + g if w in total else g
    _check_total(total_p)
    return {w: as_tensor(g) for w, g in total.items()}


def _default_idb_input(graph: Graph, inputs) -> np.ndarray | None:
    """The bound input with the smallest node id, flattened."""
    if not inputs:
        return None
    _nid, first = min(((graph.node_id(k), v) for k, v in inputs.items()), key=lambda kv: kv[0])
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
    """Mean and (population) variance of an estimator over `n_samples` draws.

    Draw i is the one-row draw at `rng.fold(seed, i)`. The draws run as the
    rows of one `estimate(..., per_row=True)` call per block of consecutive
    draws, sized by `_block_rows`. An affine weight's per-row gradients stay
    `RowFactors`, formed a slice of the weight at a time as they fold in, so
    a call holds little more than the mean and variance. Baseline state, if
    given, evolves across the draws exactly as it would over one-draw calls
    (see `estimators`); without one, every draw sees fresh statistics. Each
    block's mean and M2 fold into the running ones by Chan et al.'s pairwise
    update, and the variance is the M2 divided in place. A non-finite value
    names its node and draw. Each block runs its own anchor passes. Returns
    (mean, variance, mean_cost) with per-parameter arrays.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    idb_input = _default_idb_input(graph, inputs)
    params = bind(graph, params)
    rows = _block_rows(graph)
    moments = _Moments()
    cost_acc = 0.0
    for start in range(0, n_samples, rows):
        seeds = _rng.fold(seed, np.arange(start, min(start + rows, n_samples)))
        est = _located(
            lambda row: f"draw {start + row}", estimate, config, graph, cost, inputs, params,
            rng_seed=seeds, baselines=baselines, idb_input=idb_input, per_row=True,
        )
        for c in est.cost.tolist():
            cost_acc += c
        moments.add(est.grads, len(seeds))
    for m2 in moments.m2.values():
        m2 /= n_samples
    return moments.mean, moments.m2, cost_acc / n_samples


# entries of a block's per-row gradients that `_Moments` forms and folds at a
# time, so that a slice of every operand stays in cache
MERGE_CHUNK = 1 << 14


class _Moments:
    """Running mean and M2 (sum of squared deviations) of per-row gradients,
    folded in block by block by Chan et al.'s pairwise update (Welford's
    step for a block of one row)."""

    def __init__(self):
        self.count = 0
        self.mean: dict[int, np.ndarray] = {}
        self.m2: dict[int, np.ndarray] = {}

    def add(self, grads: dict, rows: int) -> None:
        """Fold in one block of `rows` rows: `[rows, *shape]` or `RowFactors`
        per parameter. Each parameter runs over slices of its leading axis
        holding at most `MERGE_CHUNK` of the block's entries (one index at
        least): the slice's rows are formed, and their mean and M2 merge
        into the running ones in place."""
        total = self.count + rows
        for w, g in grads.items():
            shape = g.shape[1:]
            if not self.count:
                self.mean[w], self.m2[w] = np.empty(shape), np.empty(shape)
            mean, m2 = self.mean[w], self.m2[w]
            step = max(1, MERGE_CHUNK // (rows * math.prod(shape[1:])))
            for lo in range(0, shape[0] if shape else 1, step):
                index = slice(lo, lo + step) if shape else ...
                formed = not isinstance(g, np.ndarray)  # a fresh array, free to overwrite
                part = g.dense(index) if formed else g[:, index]
                block_mean = np.add.reduce(part, axis=0)
                block_mean /= rows  # `part.mean(axis=0)`, bitwise
                dev = np.subtract(part, block_mean, out=part if formed else None)
                dev *= dev
                block_m2 = np.add.reduce(dev, axis=0)
                if not self.count:
                    mean[index], m2[index] = block_mean, block_m2
                    continue
                delta = block_mean - mean[index]
                mean[index] += delta * (rows / total)
                delta *= delta
                delta *= self.count * rows / total
                delta += block_m2
                m2[index] += delta
        self.count = total


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
    arrays = {pid: np.array(v, dtype=np.float64) for pid, v in bind(graph, params).items()}

    worst = 0.0
    for w in wrt:
        base = arrays[w]
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = base[idx]
            base[idx] = orig + step
            # a fresh binding after each in-place perturbation
            up = exact_expected_cost_and_grad(graph, cost, inputs, bind(graph, arrays), wrt=[]).expected_cost
            base[idx] = orig - step
            dn = exact_expected_cost_and_grad(graph, cost, inputs, bind(graph, arrays), wrt=[]).expected_cost
            base[idx] = orig
            fd = (up - dn) / (2.0 * step)
            worst = max(worst, relative_error(report.grads[w][idx], fd))
    return worst


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
