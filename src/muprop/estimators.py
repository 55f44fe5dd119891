"""Gradient estimators for costs with discrete stochastic nodes.

Every estimator returns a `GradientEstimate` keyed by the graph's full
parameter set. Four families are implemented:

* `lr_estimate` - score-function (REINFORCE) gradients, optionally with
  variance-reduction baselines.
* `muprop_estimate` - unbiased first-order-Taylor control variate: the score
  term carries only the residual of a linearization around a deterministic
  mean-propagation pass, and the linear part is added back analytically
  through the mean map. `muprop_rollout_estimate` re-anchors the linearization
  for each stochastic layer at the sampled values of its parents.
* `st_estimate` - straight-through: backpropagates through sampling as if it
  were the mean map (biased).
* `half_estimate` - derivative at the sample rescaled by the sampled outcome's
  probability; exact on single-unit binary quadratics, biased in general.

The three score-function estimators run one loop, `_score_estimate`, and
differ only in their anchors: none (`lr`), or the Taylor anchors of one
anchor loop, `_taylor_estimate`, which anchors the first group of stochastic
nodes at the mean-field pass and each later group at a mean pass pinned to
the samples above it. `muprop` is its one-group case; `muprop_rollout` has
one group per stochastic layer.

An estimate covers every row of its stochastic trace (see `graph` for
rows), and its gradient is one sweep summed over them (kept per row with
`per_row`). Unweighted rows are successive draws; with `weighted`, they are
the configurations of a single draw: each row's seeds are scaled by its
probability, read off the same trace, so the gradient is the sum of
p * (each row's estimate), an exact expectation over the block. What the
rows mean decides how they meet the baseline statistics, and
`apply_baselines` states both rules: successive draws update a kept state
row by row, and a weighted block (or a call with no state to keep) only
reads it.

Baselines never change what the estimators report as the raw learning signal;
diagnostics always carry the pre-baseline value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .graph import Graph, Kind, Mode, NonFiniteError, RowFactors, Trace, backward, bind, forward
from .numerics import as_tensor

VALID_FLAGS = frozenset({"c", "vn", "idb"})
ESTIMATORS = ("lr", "muprop", "muprop_rollout", "st", "half")
# the score-function estimators: the only ones with a learning signal, so the
# only ones that take baseline flags
SCORE_ESTIMATORS = ("lr", "muprop", "muprop_rollout")
# `half` clamps outcome probabilities below at this value
HALF_CLAMP = 1e-12
# moving-average decay of the baseline statistics, and the idb net's step
# size and hidden width
BASELINE_DECAY = 0.9
IDB_LR = 0.01
IDB_HIDDEN = 100


# -- variance-reduction state --------------------------------------------------


class IdbNet:
    """One-hidden-layer tanh regressor predicting the learning signal."""

    def __init__(self, in_dim: int, hidden: int, seed: int):
        r1 = _rng.stream(seed, 1)
        r2 = _rng.stream(seed, 2)
        s1 = 1.0 / math.sqrt(max(in_dim, 1))
        s2 = 1.0 / math.sqrt(hidden)
        self.w1 = r1.uniform(-s1, s1, (hidden, in_dim))
        self.b1 = np.zeros(hidden)
        self.w2 = r2.uniform(-s2, s2, hidden)
        self.b2 = np.zeros(())

    def value(self, x: np.ndarray) -> float:
        t = np.tanh(self.w1 @ x + self.b1)
        return float(self.w2 @ t + self.b2)

    def sgd_step(self, x: np.ndarray, target: float, lr: float) -> float:
        """One gradient step on (target - value(x))^2; returns the prediction used."""
        z = self.w1 @ x + self.b1
        t = np.tanh(z)
        pred = float(self.w2 @ t + self.b2)
        dpred = -2.0 * (target - pred)
        dz = dpred * self.w2 * (1.0 - t * t)
        step = np.outer(dz, x)
        step *= lr
        self.w1 -= step
        self.b1 -= lr * dz
        self.w2 -= lr * dpred * t
        self.b2 -= lr * dpred
        return pred


@dataclass
class BaselineState:
    """Per-node moving statistics plus an optional shared input-dependent net.

    `b` tracks the moving mean of each node's raw signal, `v` the moving mean
    of the centered signal's square. Both update after each use with decay
    `BASELINE_DECAY`; a fresh state divides by max(1, sqrt(0)) = 1. The
    estimators train `idb` (`IDB_HIDDEN` wide) once per draw, at learning
    rate `IDB_LR`.
    """

    seed: int = 0
    b: dict[int, float] = field(default_factory=dict)
    v: dict[int, float] = field(default_factory=dict)
    idb: IdbNet | None = None

    def ensure_idb(self, in_dim: int) -> IdbNet:
        if self.idb is None:
            self.idb = IdbNet(in_dim, IDB_HIDDEN, self.seed)
        return self.idb


def apply_baselines(
    signals: dict,
    state: BaselineState,
    flags,
    idb_input: np.ndarray | None = None,
    node_diag: dict | None = None,
    update: bool = True,
) -> dict:
    """Center and normalize a pass's learning signals: `{node id: [rows]
    signals}` in, the adjusted signals out in the same form.

    Order: subtract the node's moving mean `b` (flag "c"), subtract the idb
    net's prediction for `idb_input` (flag "idb"), then divide by
    max(1, sqrt(v)) (flag "vn", always last). With `node_diag`, each node's
    entry gets the raw "signal", what the flags took off it ("baseline") and
    the "adjusted" signal. The rows meet the state in one of two ways:

    * With `update`, the rows are successive draws. Row i is adjusted
      against the statistics rows 0..i-1 left behind: the net predicts once
      for the row, every node's signal is adjusted and folded into its `b`
      and `v`, and then the net takes one regression step (`idb_update`)
      toward the row's mean raw signal minus the mean updated `b`. A block
      of rows leaves the same state as the same draws made one call at a
      time.
    * Without it, every row is adjusted against the statistics as they
      stand (with no net trained yet, against a fresh one's prediction),
      and nothing is written.
    """
    flags = frozenset(flags)
    bad = flags - VALID_FLAGS
    if bad:
        raise ValueError(f"unknown baseline flags {sorted(bad)}")
    idb = "idb" in flags
    if idb:
        if idb_input is None:
            raise ValueError("idb flag requires the input sample")
        x = np.asarray(idb_input, dtype=np.float64).ravel()
    # each node's b and v as they stand; with `update`, they run over the rows
    # and then become `[rows]` arrays of what adjusted each row
    bs = [state.b.get(sid, 0.0) for sid in signals]
    vs = [state.v.get(sid, 0.0) for sid in signals]
    pred = None
    if update:
        seen, preds = [], []  # each row's statistics and prediction, before the row
        net = state.ensure_idb(x.size) if idb else None
        d = BASELINE_DECAY
        for row in zip(*[sig.tolist() for sig in signals.values()]):
            pred = net.value(x) if idb else None
            preds.append(pred)
            seen.append(bs + vs)
            for j, s in enumerate(row):
                b, v = bs[j], vs[j]
                centered = s - _subtracted(flags, b, pred)
                bs[j] = d * b + (1.0 - d) * s
                vs[j] = d * v + (1.0 - d) * centered * centered
            if idb:
                target = float(np.mean(row) - np.mean(bs))
                idb_update(state, x, target, IDB_LR)
        for sid, b, v in zip(signals, bs, vs):
            state.b[sid], state.v[sid] = b, v
        seen = np.array(seen).T  # [2 * nodes, rows]
        bs, vs = seen[:len(bs)], seen[len(bs):]
        pred = np.array(preds) if idb else None
    elif idb:
        net = state.idb if state.idb is not None else IdbNet(x.size, IDB_HIDDEN, state.seed)
        pred = net.value(x)
    adjusted = {}
    for j, (sid, signal) in enumerate(signals.items()):
        a = signal
        if "c" in flags:
            a = a - bs[j]
        if idb:
            a = a - pred
        if "vn" in flags:
            a = a / np.maximum(1.0, np.sqrt(vs[j]))
        adjusted[sid] = a
        if node_diag is not None:
            node_diag[sid].update(signal=signal, baseline=_subtracted(flags, bs[j], pred),
                                  adjusted=a)
    return adjusted


def _subtracted(flags, b, pred):
    """What the flags take off a signal: b with "c", plus the prediction with "idb"."""
    out = 0.0
    if "c" in flags:
        out += b
    if "idb" in flags:
        out += pred
    return out


def idb_update(
    state: BaselineState,
    input_sample: np.ndarray,
    centered_signal: float,
    learning_rate: float,
) -> float:
    """One regression step moving the shared net toward the centered signal."""
    x = np.asarray(input_sample, dtype=np.float64).ravel()
    net = state.ensure_idb(x.size)
    return net.sgd_step(x, float(centered_signal), learning_rate)


# -- estimates -----------------------------------------------------------------


@dataclass
class GradientEstimate:
    """Parameter gradients summed over the rows (probability-weighted with
    `weighted`, one per row with `per_row`); the cost, log-probability
    and diagnostics per row; and the number of passes run, however many rows
    each had."""

    grads: dict[int, np.ndarray]
    cost: np.ndarray
    node_diag: dict[int, dict]
    mean_field_passes: int = 0
    stochastic_passes: int = 0
    extra: dict = field(default_factory=dict)
    logprob: np.ndarray | None = None  # log-probability of each row's configuration


def _add_seed(seeds: dict, nid: int, v: np.ndarray) -> None:
    seeds[nid] = v if nid not in seeds else seeds[nid] + v


def _check_stochastic_trace(graph: Graph, trace: Trace) -> None:
    sids = graph.stochastic_ids
    if not sids:
        raise ValueError("graph has no stochastic nodes")
    if trace.mode != Mode.STOCHASTIC or any(s not in trace.barriers for s in sids):
        raise ValueError("estimator needs a trace with every stochastic node drawn")


def _param_grads(graph: Graph, trace: Trace, seeds: dict, stochastic_vjp=None,
                 weighted: bool = False, per_row: bool = False):
    """Final sweep: the seeds' gradient at every parameter, summed over the
    rows, zeros if unreached. With `per_row`, one per row: `RowFactors` for
    the weights the sweep reaches through affine nodes, and `[rows, *shape]`
    arrays, broadcast where the rows share a value, for every other
    parameter. With `weighted`, each row's seeds are scaled by its
    probability first."""
    if weighted:
        p = np.exp(trace.logprob)
        seeds = {nid: p.reshape(p.shape + (1,) * len(graph.nodes[nid].shape)) * s
                 for nid, s in seeds.items()}
    adj = backward(graph, trace, seeds, stochastic_vjp, need=graph.param_ids, per_row=per_row)
    out = {}
    for pid in graph.param_ids:
        g = adj[pid]
        shape = graph.nodes[pid].shape
        if per_row:
            rows = len(trace.logprob)
            if g is None:
                g = np.broadcast_to(0.0, (rows,) + shape)
            elif len(g) != rows:  # an adjoint no draw changes
                g = (RowFactors([(np.broadcast_to(a, (rows,) + a.shape[1:]), x)
                                 for a, x in g.pairs])
                     if isinstance(g, RowFactors) else np.broadcast_to(g, (rows,) + shape))
            out[pid] = g
        else:
            out[pid] = as_tensor(g[0]) if g is not None else np.zeros(shape)
    return out


def _score_estimate(
    graph: Graph,
    trace: Trace,
    cost: int,
    groups,
    baselines: BaselineState | None,
    flags,
    idb_input: np.ndarray | None,
    weighted: bool = False,
    per_row: bool = False,
    **fields,
) -> GradientEstimate:
    """The score-function loop shared by `lr`, `muprop` and `muprop_rollout`.

    `groups` yields `(stochastic node ids, anchor)` pairs. With no anchor a
    node's learning signal is the cost (`lr`). An anchor `(values, adjoints,
    cost)` of a mean-field pass makes it MuProp: the signal is the residual
    f(x) - f(xbar) - f'(xbar_i)^T (x_i - xbar_i), and the linear term comes
    back through the mean map. Signals, anchors and seeds are per row. Once
    every signal is known, `apply_baselines` adjusts them in one step, as
    successive draws against a kept `baselines` state and read-only with
    `weighted` or without one, and each seed is the score times its row's
    adjusted signal.
    """
    _check_stochastic_trace(graph, trace)
    f = trace.values[cost]
    signals: dict[int, np.ndarray] = {}
    parts: dict[int, tuple] = {}  # node -> (score, mean-map seed or None)
    node_diag: dict[int, dict] = {}
    for sids, anchor in groups:
        for sid in sids:
            layer = trace.layers[sid]
            x = trace.values[sid]
            score = layer.score(x, checked=True)
            if anchor is None:
                signals[sid], node_diag[sid], linear = f, {}, None
            else:
                values, adj, anchor_cost = anchor
                gbar = np.zeros(x.shape) if adj[sid] is None else adj[sid]
                # one dot product per row: gbar_r . (x_r - xbar_r)
                slope = ((x - values[sid])[:, None, :] @ gbar[:, :, None])[:, 0, 0]
                signals[sid] = f - anchor_cost - slope
                node_diag[sid] = {"residual": signals[sid], "anchor_cost": anchor_cost}
                linear = layer.mean_vjp(gbar)
            parts[sid] = (score, linear)
    update = baselines is not None and not weighted
    state = baselines if baselines is not None else BaselineState()
    adjusted = apply_baselines(signals, state, flags, idb_input, node_diag, update)
    seeds: dict[int, np.ndarray] = {cost: np.ones(())}
    for sid, (score, linear) in parts.items():
        seed = score * adjusted[sid][:, None]
        if linear is not None:
            seed = seed + linear
        _add_seed(seeds, graph.nodes[sid].parents[0], seed)
    return GradientEstimate(
        _param_grads(graph, trace, seeds, weighted=weighted, per_row=per_row), f, node_diag,
        logprob=trace.logprob, **fields,
    )


def lr_estimate(
    graph: Graph,
    trace: Trace,
    cost,
    baselines: BaselineState | None = None,
    flags=(),
    idb_input: np.ndarray | None = None,
    weighted: bool = False,
    per_row: bool = False,
) -> GradientEstimate:
    """Score-function estimator: each node's score times the (adjusted) cost.

    The direct dependence of the cost on parameters (paths not passing through
    a sample) is included via the ordinary reverse sweep.
    """
    cost = graph.node_id(cost)
    groups = [(graph.stochastic_ids, None)]
    return _score_estimate(graph, trace, cost, groups, baselines, flags, idb_input, weighted,
                           per_row)


def mean_field_pass(graph: Graph, cost, inputs, params, validate: bool = True,
                    need=None, reuse: Trace | None = None):
    """Deterministic relaxation pass plus the adjoint sweep its readers need.

    The adjoint list holds the cost's derivative at the stochastic nodes in
    `need` (every one by default: the Taylor anchor slopes) and at the nodes
    between them and the cost. Every other entry, parameters and inputs
    included, is None, apart from the cost's own seed. The pass pins no
    sample, so its rows belong to no draw: a non-finite value raises
    `NonFiniteError` with `row` None. `reuse` goes to `forward`: the values
    no stochastic node reaches are taken from that trace.
    """
    cost = graph.node_id(cost)
    try:
        trace = forward(graph, inputs, params, mode=Mode.MEAN_FIELD, validate=validate,
                        reuse=reuse)
    except NonFiniteError as err:
        raise NonFiniteError(err.node, None) from None
    adj = backward(graph, trace, {cost: np.ones(())},
                   need=graph.stochastic_ids if need is None else need)
    return trace, adj


def _check_input_rows(graph: Graph, inputs, rng_seed) -> None:
    """Reject inputs grouped over a sequence of seeds (see `graph`): an
    estimate's inputs have one row or one per seed."""
    if np.ndim(rng_seed) == 0 or not inputs:
        return
    for key, v in inputs.items():
        nid = graph.node_id(key)
        if np.ndim(v) > len(graph.nodes[nid].shape) and 1 < len(v) < len(rng_seed):
            raise ValueError(f"input {nid} has {len(v)} rows for {len(rng_seed)} seeds: an "
                             "estimate takes inputs of one row or one row per seed")


def _taylor_estimate(graph: Graph, cost, inputs, params, rng_seed, anchor_groups,
                     baselines, flags, forced, idb_input, validate, weighted,
                     per_row) -> GradientEstimate:
    """The anchor loop of `muprop` and `muprop_rollout`: one stochastic
    pass, then one anchor pass per group of stochastic nodes, each run only
    when its group is reached, over the same rows as the stochastic pass.
    The first group's anchor pins nothing: the mean-field pass. Each later
    group's is a mean pass whose trunk is pinned to the sampled values of
    every earlier group. Every anchor pass reuses the stochastic pass's
    values where no unpinned stochastic node reaches (`forward(reuse=...)`).
    Inputs grouped over the seeds are rejected: the anchor passes draw
    nothing, so their rows would not be the stochastic pass's."""
    cost = graph.node_id(cost)
    _check_input_rows(graph, inputs, rng_seed)
    params = bind(graph, params)  # every pass reads one finiteness memo
    st_trace = forward(graph, inputs, params, mode=Mode.STOCHASTIC, rng_seed=rng_seed,
                       forced=forced, validate=validate)

    def groups():
        pinned: dict[int, np.ndarray] = {}
        for group in anchor_groups:
            if pinned:
                branch = forward(graph, inputs, params, mode=Mode.MEAN_FIELD,
                                 forced=dict(pinned), validate=validate, reuse=st_trace)
                adj = backward(graph, branch, {cost: np.ones(())}, need=group)
            else:
                branch, adj = mean_field_pass(graph, cost, inputs, params, validate, need=group,
                                              reuse=st_trace)
            yield group, (branch.values, adj, branch.values[cost])
            for sid in group:
                pinned[sid] = st_trace.values[sid]

    return _score_estimate(
        graph, st_trace, cost, groups(), baselines, flags, idb_input, weighted, per_row,
        mean_field_passes=len(anchor_groups), stochastic_passes=1,
    )


def muprop_estimate(
    graph: Graph,
    cost,
    inputs,
    params,
    rng_seed,
    baselines: BaselineState | None = None,
    flags=(),
    forced=None,
    idb_input: np.ndarray | None = None,
    validate: bool = True,
    weighted: bool = False,
    per_row: bool = False,
) -> GradientEstimate:
    """Taylor-anchored unbiased estimator around one mean-propagation trunk.

    The one-group case of `_taylor_estimate`: one stochastic pass and one
    mean-field pass, then a sweep of the surrogate whose gradient is

        sum_i dlogp_i * [f(x) - f(xbar) - f'(xbar_i)^T (x_i - xbar_i)]
            + sum_i d(mu_i)^T f'(xbar_i)  +  direct cost paths.
    """
    est = _taylor_estimate(graph, cost, inputs, params, rng_seed, [graph.stochastic_ids],
                           baselines, flags, forced, idb_input, validate, weighted, per_row)
    est.extra["mean_field_cost"] = est.node_diag[graph.stochastic_ids[0]]["anchor_cost"]
    return est


def stochastic_layers(graph: Graph) -> list[list[int]]:
    """Stochastic nodes grouped by sampling depth (1-based layers)."""
    depth = [0] * len(graph.nodes)
    layers: dict[int, list[int]] = {}
    for node in graph.nodes:
        d = max((depth[p] for p in node.parents), default=0)
        if node.kind == Kind.STOCHASTIC:
            d += 1
            layers.setdefault(d, []).append(node.id)
        depth[node.id] = d
    return [layers[d] for d in sorted(layers)]


def muprop_rollout_estimate(
    graph: Graph,
    cost,
    inputs,
    params,
    rng_seed,
    baselines: BaselineState | None = None,
    flags=(),
    forced=None,
    idb_input: np.ndarray | None = None,
    validate: bool = True,
    weighted: bool = False,
    per_row: bool = False,
) -> GradientEstimate:
    """Taylor-anchored estimator with per-layer re-anchoring.

    `_taylor_estimate` with one group per stochastic layer: each layer is
    linearized around the mean given its actual sampled parents. Identical
    to `muprop_estimate` on single-layer graphs.
    """
    return _taylor_estimate(graph, cost, inputs, params, rng_seed, stochastic_layers(graph),
                            baselines, flags, forced, idb_input, validate, weighted, per_row)


def st_estimate(graph: Graph, trace: Trace, cost, weighted: bool = False,
                per_row: bool = False) -> GradientEstimate:
    """Straight-through: treat each drawn sample as if it were the mean.

    The sweep applies the mean-map derivative (including the sigmoid/softmax
    factor) at every stochastic node, with downstream derivatives evaluated at
    the sampled values. Biased; takes no baselines.
    """
    cost = graph.node_id(cost)
    _check_stochastic_trace(graph, trace)

    grads = _param_grads(graph, trace, {cost: np.ones(())}, lambda layer, x, a: layer.mean_vjp(a),
                         weighted, per_row)
    return GradientEstimate(grads, trace.values[cost], {}, logprob=trace.logprob)


def half_estimate(graph: Graph, trace: Trace, cost, weighted: bool = False,
                  per_row: bool = False) -> GradientEstimate:
    """Derivative-at-sample estimator rescaled by outcome probabilities.

    Each drawn layer's `half` rescales the adjoint at its logits by the
    sampled outcomes' probabilities, clamped below at `HALF_CLAMP`; clamp
    events are counted in the diagnostics, over the units whose logits are
    differentiable in some parameter (the only ones the sweep visits).
    """
    cost = graph.node_id(cost)
    _check_stochastic_trace(graph, trace)
    clamped = 0

    def vjp(layer, value, adjoint):
        nonlocal clamped
        g, n = layer.half(value, adjoint, HALF_CLAMP)
        clamped += n
        return g

    return GradientEstimate(
        _param_grads(graph, trace, {cost: np.ones(())}, vjp, weighted, per_row),
        trace.values[cost],
        {},
        extra={"clamped_units": clamped},
        logprob=trace.logprob,
    )


# -- unified dispatch ----------------------------------------------------------


@dataclass(frozen=True)
class EstimatorConfig:
    name: str
    flags: frozenset = frozenset()

    def __post_init__(self):
        if self.name not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.name!r}")
        object.__setattr__(self, "flags", frozenset(self.flags))
        bad = self.flags - VALID_FLAGS
        if bad:
            raise ValueError(f"unknown baseline flags {sorted(bad)}")
        if self.name not in SCORE_ESTIMATORS and self.flags:
            raise ValueError(f"{self.name} takes no baseline flags")


def estimate(
    config: EstimatorConfig,
    graph: Graph,
    cost,
    inputs,
    params,
    rng_seed,
    baselines: BaselineState | None = None,
    forced=None,
    idb_input: np.ndarray | None = None,
    validate: bool = True,
    weighted: bool = False,
    per_row: bool = False,
) -> GradientEstimate:
    """Run one estimator over one draw, a block of draws or a block of forced
    rows (see `graph` for rows), producing any forward passes it needs.

    With a kept `baselines` state, a block of B seeds leaves it as B one-row
    calls made in order would (see `apply_baselines`). `weighted` weights
    each row's estimate by its probability, and `per_row` keeps each row's
    parameter gradients apart: `RowFactors` for affine weights and
    `[rows, *shape]` arrays for every other parameter (see the module
    docstring). `validate` goes to every pass it runs (see `forward`): each
    pass checks the bound inputs and the values it computes, and the
    parameters, bound once per call, are checked once per call (once per
    binding when `params` is one).
    """
    name = config.name
    if name in ("muprop", "muprop_rollout"):
        taylor = muprop_estimate if name == "muprop" else muprop_rollout_estimate
        return taylor(graph, cost, inputs, params, rng_seed, baselines, config.flags, forced,
                      idb_input, validate, weighted, per_row)
    _check_input_rows(graph, inputs, rng_seed)
    trace = forward(graph, inputs, params, mode=Mode.STOCHASTIC, rng_seed=rng_seed,
                    forced=forced, validate=validate)
    if name == "lr":
        est = lr_estimate(graph, trace, cost, baselines, config.flags, idb_input, weighted,
                          per_row)
    elif name == "st":
        est = st_estimate(graph, trace, cost, weighted, per_row)
    else:
        est = half_estimate(graph, trace, cost, weighted, per_row)
    est.stochastic_passes = 1
    return est
