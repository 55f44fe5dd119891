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
differ only in their anchors: none (`lr`), one mean-field pass (`muprop`),
or one pinned pass per layer (`muprop_rollout`).

Baselines never change what the estimators report as the raw learning signal;
diagnostics always carry the pre-baseline value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .graph import Graph, Kind, Mode, Trace, backward, forward, mean_vjp
from .numerics import as_tensor, sigmoid, softmax

VALID_FLAGS = frozenset({"c", "vn", "idb"})
ESTIMATORS = ("lr", "muprop", "muprop_rollout", "st", "half")
# the score-function estimators: the only ones with a learning signal, so the
# only ones that take baseline flags
SCORE_ESTIMATORS = ("lr", "muprop", "muprop_rollout")


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
    of the centered signal's square. Both update after each use with the
    configured decay; a fresh state divides by max(1, sqrt(0)) = 1. The
    estimators train `idb` once per draw, at learning rate `idb_lr`.
    """

    decay: float = 0.9
    idb_hidden: int = 100
    idb_lr: float = 0.01
    seed: int = 0
    b: dict[int, float] = field(default_factory=dict)
    v: dict[int, float] = field(default_factory=dict)
    idb: IdbNet | None = None

    def ensure_idb(self, in_dim: int) -> IdbNet:
        if self.idb is None:
            self.idb = IdbNet(in_dim, self.idb_hidden, self.seed)
        return self.idb


def apply_baselines(
    signal: float,
    node_id: int,
    state: BaselineState,
    flags,
    input_sample: np.ndarray | None = None,
    diag: dict | None = None,
) -> float:
    """Center/normalize a learning signal and update the moving statistics.

    Order: subtract the moving mean (flag "c"), subtract the input-dependent
    prediction (flag "idb"), then divide by max(1, sqrt(v)) (flag "vn", always
    last). Statistics update after the signal is adjusted.
    """
    flags = frozenset(flags)
    bad = flags - VALID_FLAGS
    if bad:
        raise ValueError(f"unknown baseline flags {sorted(bad)}")
    signal = float(signal)
    b = state.b.get(node_id, 0.0)
    v = state.v.get(node_id, 0.0)

    adjusted = signal
    subtracted = 0.0
    if "c" in flags:
        adjusted -= b
        subtracted += b
    pred = 0.0
    if "idb" in flags:
        if input_sample is None:
            raise ValueError("idb flag requires the input sample")
        pred = state.ensure_idb(np.asarray(input_sample).size).value(
            np.asarray(input_sample, dtype=np.float64).ravel()
        )
        adjusted -= pred
        subtracted += pred
    if "vn" in flags:
        adjusted /= max(1.0, math.sqrt(v))

    centered = signal - subtracted
    d = state.decay
    state.b[node_id] = d * b + (1.0 - d) * signal
    state.v[node_id] = d * v + (1.0 - d) * centered * centered
    if diag is not None:
        diag["signal"] = signal
        diag["baseline"] = subtracted
        diag["adjusted"] = adjusted
    return adjusted


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
    grads: dict[int, np.ndarray]
    cost: float
    node_diag: dict[int, dict]
    mean_field_passes: int = 0
    stochastic_passes: int = 0
    extra: dict = field(default_factory=dict)
    logprob: float | None = None  # log-probability of the drawn configuration


def _add_seed(seeds: dict, nid: int, v: np.ndarray) -> None:
    seeds[nid] = v if nid not in seeds else seeds[nid] + v


def _check_stochastic_trace(graph: Graph, trace: Trace) -> None:
    sids = graph.stochastic_ids
    if not sids:
        raise ValueError("graph has no stochastic nodes")
    if trace.mode != Mode.STOCHASTIC or any(s not in trace.barriers for s in sids):
        raise ValueError("estimator needs a trace with every stochastic node drawn")


def _param_grads(graph: Graph, trace: Trace, seeds: dict, stochastic_vjp=None):
    """Final sweep: the seeds' gradient at every parameter, zeros if unreached."""
    adj = backward(graph, trace, seeds, stochastic_vjp, need=graph.param_ids)
    out = {}
    for pid in graph.param_ids:
        g = adj[pid]
        out[pid] = as_tensor(g) if g is not None else np.zeros(graph.nodes[pid].shape)
    return out


def _score_estimate(
    graph: Graph,
    trace: Trace,
    cost: int,
    groups,
    baselines: BaselineState | None,
    flags,
    idb_input: np.ndarray | None,
    **fields,
) -> GradientEstimate:
    """The score-function loop shared by `lr`, `muprop` and `muprop_rollout`.

    `groups` yields `(stochastic node ids, anchor)` pairs. With no anchor a
    node's learning signal is the cost (`lr`). An anchor `(values, adjoints,
    cost)` of a mean-field pass makes it MuProp: the signal is the residual
    f(x) - f(xbar) - f'(xbar_i)^T (x_i - xbar_i), and the linear term comes
    back through the mean map. Each signal goes through `apply_baselines`;
    after the last one, the idb net (flag "idb") takes one regression step
    toward the mean raw signal minus the mean updated moving baseline.
    """
    _check_stochastic_trace(graph, trace)
    state = baselines if baselines is not None else BaselineState()
    f = trace.cost_value(cost)
    seeds: dict[int, np.ndarray] = {cost: np.ones(())}
    node_diag: dict[int, dict] = {}
    for sids, anchor in groups:
        for sid in sids:
            node = graph.nodes[sid]
            lp = node.parents[0]
            layer = graph.layer(node, trace.values[lp])
            x = trace.values[sid]
            score = layer.score(x.reshape(layer.logits.shape), checked=True).reshape(node.shape)
            if anchor is None:
                signal, d = f, {}
            else:
                values, adj, anchor_cost = anchor
                gbar = np.zeros(node.shape) if adj[sid] is None else as_tensor(adj[sid])
                signal = f - anchor_cost - float(np.dot(gbar.ravel(), (x - values[sid]).ravel()))
                d = {"residual": signal, "anchor_cost": anchor_cost}
            adjusted = apply_baselines(signal, sid, state, flags, idb_input, diag=d)
            node_diag[sid] = d
            seed = score * adjusted
            if anchor is not None:
                seed = seed + mean_vjp(node, trace.values[lp], gbar)
            _add_seed(seeds, lp, seed)
    if "idb" in flags:
        raws = [d["signal"] for d in node_diag.values()]
        target = float(np.mean(raws) - np.mean([state.b[sid] for sid in node_diag]))
        idb_update(state, idb_input, target, state.idb_lr)
    return GradientEstimate(
        _param_grads(graph, trace, seeds), f, node_diag,
        logprob=sum(trace.logprobs.values()), **fields,
    )


def lr_estimate(
    graph: Graph,
    trace: Trace,
    cost,
    baselines: BaselineState | None = None,
    flags=(),
    idb_input: np.ndarray | None = None,
) -> GradientEstimate:
    """Score-function estimator: each node's score times the (adjusted) cost.

    The direct dependence of the cost on parameters (paths not passing through
    a sample) is included via the ordinary reverse sweep.
    """
    cost = graph.node_id(cost)
    groups = [(graph.stochastic_ids, None)]
    return _score_estimate(graph, trace, cost, groups, baselines, flags, idb_input)


def mean_field_pass(graph: Graph, cost, inputs, params, validate: bool = True):
    """Deterministic relaxation pass plus the adjoint sweep its readers need.

    The adjoint list holds the cost's derivative at every stochastic node
    (the Taylor anchor slopes) and at the nodes between them and the cost.
    Every other entry, parameters and inputs included, is None, apart from
    the cost's own seed.
    """
    cost = graph.node_id(cost)
    trace = forward(graph, inputs, params, mode=Mode.MEAN_FIELD, validate=validate)
    adj = backward(graph, trace, {cost: np.ones(())}, need=graph.stochastic_ids)
    return trace, adj


def muprop_estimate(
    graph: Graph,
    cost,
    inputs,
    params,
    rng_seed: int | None,
    baselines: BaselineState | None = None,
    flags=(),
    forced=None,
    idb_input: np.ndarray | None = None,
    mf=None,
    validate: bool = True,
) -> GradientEstimate:
    """Taylor-anchored unbiased estimator around one mean-propagation trunk.

    Runs one deterministic relaxation pass (reused if `mf` is supplied) and one
    stochastic pass, then backpropagates a surrogate whose gradient is

        sum_i dlogp_i * [f(x) - f(xbar) - f'(xbar_i)^T (x_i - xbar_i)]
            + sum_i d(mu_i)^T f'(xbar_i)  +  direct cost paths.
    """
    cost = graph.node_id(cost)
    mf_passes = 0
    if mf is None:
        mf = mean_field_pass(graph, cost, inputs, params, validate=validate)
        mf_passes = 1
    mf_trace, mf_adj = mf
    st_trace = forward(graph, inputs, params, mode=Mode.STOCHASTIC, rng_seed=rng_seed,
                       forced=forced, validate=validate)
    mf_cost = mf_trace.cost_value(cost)
    groups = [(graph.stochastic_ids, (mf_trace.values, mf_adj, mf_cost))]
    return _score_estimate(
        graph, st_trace, cost, groups, baselines, flags, idb_input,
        mean_field_passes=mf_passes, stochastic_passes=1, extra={"mean_field_cost": mf_cost},
    )


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
    rng_seed: int | None,
    baselines: BaselineState | None = None,
    flags=(),
    forced=None,
    idb_input: np.ndarray | None = None,
    validate: bool = True,
) -> GradientEstimate:
    """Taylor-anchored estimator with per-layer re-anchoring.

    The anchor for layer L comes from a partial deterministic pass whose trunk
    is pinned to the sampled values of all earlier layers, so each layer is
    linearized around the mean given its actual sampled parents. One partial
    pass per layer, run only when its layer is reached; identical to
    `muprop_estimate` on single-layer graphs.
    """
    cost = graph.node_id(cost)
    layer_groups = stochastic_layers(graph)
    if not layer_groups:
        raise ValueError("graph has no stochastic nodes")
    st_trace = forward(graph, inputs, params, mode=Mode.STOCHASTIC, rng_seed=rng_seed,
                       forced=forced, validate=validate)

    def groups():
        pinned: dict[int, np.ndarray] = {}
        for group in layer_groups:
            branch = forward(graph, inputs, params, mode=Mode.MEAN_FIELD, forced=dict(pinned),
                             validate=validate)
            adj = backward(graph, branch, {cost: np.ones(())}, need=group)
            yield group, (branch.values, adj, branch.cost_value(cost))
            for sid in group:
                pinned[sid] = st_trace.values[sid]

    return _score_estimate(
        graph, st_trace, cost, groups(), baselines, flags, idb_input,
        mean_field_passes=len(layer_groups), stochastic_passes=1,
    )


def st_estimate(graph: Graph, trace: Trace, cost) -> GradientEstimate:
    """Straight-through: treat each drawn sample as if it were the mean.

    The sweep applies the mean-map derivative (including the sigmoid/softmax
    factor) at every stochastic node, with downstream derivatives evaluated at
    the sampled values. Biased; takes no baselines.
    """
    cost = graph.node_id(cost)
    _check_stochastic_trace(graph, trace)

    def vjp(node, logits, value, adjoint):
        return mean_vjp(node, logits, adjoint)

    grads = _param_grads(graph, trace, {cost: np.ones(())}, vjp)
    return GradientEstimate(grads, trace.cost_value(cost), {}, logprob=sum(trace.logprobs.values()))


def half_estimate(
    graph: Graph,
    trace: Trace,
    cost,
    xbar: str = "1/k",
    clamp: float = 1e-12,
) -> GradientEstimate:
    """Derivative-at-sample estimator rescaled by outcome probabilities.

    Binary units: adjoint * sigmoid'(l) / (2 * P(x)), per unit. Categorical
    units: [adjoint . (x - xbar)] * (selected Jacobian row) / P(selected), per
    unit, with xbar one of "1/2", "1/k", or "mean". Probabilities are clamped
    below at `clamp`; clamp events are counted in the diagnostics, over the
    units whose logits are differentiable in some parameter (the only ones
    the sweep visits).
    """
    cost = graph.node_id(cost)
    _check_stochastic_trace(graph, trace)
    if xbar not in ("1/2", "1/k", "mean"):
        raise ValueError(f"unknown anchor {xbar!r}")
    clamped = 0

    def vjp(node, logits, value, adjoint):
        nonlocal clamped
        if node.op == "bernoulli":
            m = sigmoid(logits)
            p = np.where(value == 1.0, m, 1.0 - m)
            hit = p < clamp
            clamped += int(np.count_nonzero(hit))
            return adjoint * m * (1.0 - m) / (2.0 * np.maximum(p, clamp))
        k = node.k
        probs = softmax(logits.reshape(-1, k), axis=-1)
        v = value.reshape(-1, k)
        a = adjoint.reshape(-1, k)
        if xbar == "1/2":
            anchor = 0.5
        elif xbar == "1/k":
            anchor = 1.0 / k
        else:
            anchor = probs
        coeff = np.sum(a * (v - anchor), axis=-1, keepdims=True)
        sel_p = np.sum(probs * v, axis=-1, keepdims=True)
        jac_sel = sel_p * (v - probs)  # d P(selected) / d logits, per unit
        hit = sel_p < clamp
        clamped += int(np.count_nonzero(hit))
        return (coeff * jac_sel / np.maximum(sel_p, clamp)).reshape(node.shape)

    return GradientEstimate(
        _param_grads(graph, trace, {cost: np.ones(())}, vjp),
        trace.cost_value(cost),
        {},
        extra={"clamped_units": clamped},
        logprob=sum(trace.logprobs.values()),
    )


# -- unified dispatch ----------------------------------------------------------


@dataclass(frozen=True)
class EstimatorConfig:
    name: str
    flags: frozenset = frozenset()
    xbar: str = "1/k"

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
    rng_seed: int | None,
    baselines: BaselineState | None = None,
    forced=None,
    idb_input: np.ndarray | None = None,
    mf=None,
    validate: bool = True,
) -> GradientEstimate:
    """Run one estimator draw, producing any forward passes it needs."""
    name = config.name
    if name == "muprop":
        return muprop_estimate(
            graph, cost, inputs, params, rng_seed, baselines, config.flags,
            forced=forced, idb_input=idb_input, mf=mf, validate=validate,
        )
    if name == "muprop_rollout":
        return muprop_rollout_estimate(
            graph, cost, inputs, params, rng_seed, baselines, config.flags,
            forced=forced, idb_input=idb_input, validate=validate,
        )
    trace = forward(graph, inputs, params, mode=Mode.STOCHASTIC, rng_seed=rng_seed,
                    forced=forced, validate=validate)
    if name == "lr":
        est = lr_estimate(graph, trace, cost, baselines, config.flags, idb_input)
    elif name == "st":
        est = st_estimate(graph, trace, cost)
    else:
        est = half_estimate(graph, trace, cost, xbar=config.xbar)
    est.stochastic_passes = 1
    return est
