"""Computation graphs mixing deterministic ops with discrete sampling nodes.

A `Graph` is a static DAG built once, then evaluated many times against bound
input and parameter tensors. `forward` runs in one of two modes:

* ``Mode.STOCHASTIC`` draws every sampling node from its distribution, records
  the log-probability of the draw, and blocks gradient flow at the sample.
* ``Mode.MEAN_FIELD`` propagates distribution means instead, producing a fully
  differentiable deterministic relaxation of the same network.

Each op is described once, in the `_OPS` table (deterministic ops: shape rule,
forward map, per-parent vjp) or the `_SAMPLERS` table (sampling ops: shape
rule, layer class, mean-map vjp); construction, both forward modes and the
reverse sweep all read their op's entry.

`gradients` runs reverse-mode accumulation over a recorded `Trace`. Sampling
nodes behave as gradient barriers exactly when the trace marks them as drawn
(or forced); in mean-field traces they differentiate through the mean map.
`backward(..., need=...)` computes only the adjoints on a differentiable path
from the requested nodes (activity analysis), so a sweep whose reader looks
at a few nodes skips the rest of the graph.

Graphs are append-only during construction and treated as immutable afterwards,
so a built graph can be shared read-only across threads; the only state a
built graph gains is its caches (id lists by kind, liveness masks). All values are dense float64
arrays; any non-finite entry produced by evaluation is an error, not a silent
value.
"""
from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import rng as _rng
from .distributions import BernoulliLayer, CategoricalLayer
from .numerics import as_tensor, sigmoid, softmax, softplus


class Kind(enum.IntEnum):
    INPUT = 0
    PARAMETER = 1
    DETERMINISTIC = 2
    STOCHASTIC = 3
    STOP_GRADIENT = 4
    COST = 5


class Mode(enum.Enum):
    STOCHASTIC = "stochastic"
    MEAN_FIELD = "mean_field"


@dataclass(frozen=True)
class Node:
    id: int
    kind: Kind
    op: str | None
    parents: tuple[int, ...]
    shape: tuple[int, ...]
    name: str | None = None
    k: int | None = None  # group width (categorical cells, grouped softmax/logsumexp)
    span: tuple[int, int] | None = None  # slice bounds
    init: str | None = None  # parameter init rule: "fan_in" or "zeros"
    fan_in: int | None = None


@dataclass
class Trace:
    """Record of one forward evaluation: every node's value plus sampling info."""

    mode: Mode
    values: list[np.ndarray]
    logprobs: dict[int, float]
    barriers: frozenset[int]

    def cost_value(self, node_id: int) -> float:
        return float(self.values[node_id])


class Graph:
    """Append-only DAG of typed nodes. Node ids are dense, 0-based, topological."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self.constants: dict[int, np.ndarray] = {}
        self.meta: dict = {}
        self._names: dict[str, int] = {}
        # caches of facts about the nodes, cleared whenever a node is appended
        self._ids: dict[Kind, tuple[int, ...]] = {}
        self._live: dict[tuple, list[bool]] = {}

    # -- construction ------------------------------------------------------

    def _add(self, kind, op=None, parents=(), name=None, **attrs) -> int:
        nid = len(self.nodes)
        parents = tuple(int(p) for p in parents)
        for p in parents:
            if not 0 <= p < nid:
                raise ValueError(f"node {nid}: unknown parent id {p}")
        shape = attrs.pop("shape", None)
        try:
            rule = _shape_rule(kind, op)
            if rule is not None:
                shape = rule([self.nodes[p].shape for p in parents], attrs)
        except ValueError as err:
            raise ValueError(f"node {nid} ({op or kind.name.lower()}): {err}") from None
        node = Node(nid, kind, op, parents, tuple(shape), name=name, **attrs)
        self.nodes.append(node)
        self._ids.clear()
        self._live.clear()
        if name is not None:
            if name in self._names:
                raise ValueError(f"duplicate node name {name!r}")
            self._names[name] = nid
        return nid

    def input(self, shape, name=None) -> int:
        return self._add(Kind.INPUT, shape=tuple(shape), name=name)

    def constant(self, value, name=None) -> int:
        value = as_tensor(value)
        nid = self._add(Kind.INPUT, shape=value.shape, name=name)
        self.constants[nid] = value
        return nid

    def parameter(self, shape, name=None, init="fan_in", fan_in=None) -> int:
        shape = tuple(shape)
        if init == "fan_in" and fan_in is None:
            fan_in = shape[-1] if shape else 1
        return self._add(
            Kind.PARAMETER, shape=shape, name=name, init=init, fan_in=fan_in
        )

    def affine(self, x, w, b, name=None) -> int:
        return self._add(Kind.DETERMINISTIC, "affine", (x, w, b), name=name)

    def sigmoid(self, x, name=None) -> int:
        return self._add(Kind.DETERMINISTIC, "sigmoid", (x,), name=name)

    def tanh(self, x, name=None) -> int:
        return self._add(Kind.DETERMINISTIC, "tanh", (x,), name=name)

    def softmax(self, x, k=None, name=None) -> int:
        return self._add(Kind.DETERMINISTIC, "softmax", (x,), name=name, k=k)

    def softplus(self, x, name=None) -> int:
        return self._add(Kind.DETERMINISTIC, "softplus", (x,), name=name)

    def add(self, a, b, name=None) -> int:
        return self._add(Kind.DETERMINISTIC, "add", (a, b), name=name)

    def sub(self, a, b, name=None) -> int:
        return self._add(Kind.DETERMINISTIC, "sub", (a, b), name=name)

    def mul(self, a, b, name=None) -> int:
        return self._add(Kind.DETERMINISTIC, "mul", (a, b), name=name)

    def sum(self, x, name=None) -> int:
        return self._add(Kind.DETERMINISTIC, "sum", (x,), name=name)

    def mean(self, x, name=None) -> int:
        return self._add(Kind.DETERMINISTIC, "mean", (x,), name=name)

    def log(self, x, name=None) -> int:
        return self._add(Kind.DETERMINISTIC, "log", (x,), name=name)

    def exp(self, x, name=None) -> int:
        return self._add(Kind.DETERMINISTIC, "exp", (x,), name=name)

    def logsumexp(self, x, k, name=None) -> int:
        return self._add(Kind.DETERMINISTIC, "logsumexp", (x,), name=name, k=k)

    def concat(self, *xs, name=None) -> int:
        return self._add(Kind.DETERMINISTIC, "concat", tuple(xs), name=name)

    def slice(self, x, start, stop, name=None) -> int:
        return self._add(
            Kind.DETERMINISTIC, "slice", (x,), name=name, span=(int(start), int(stop))
        )

    def square(self, x, name=None) -> int:
        return self._add(Kind.DETERMINISTIC, "square", (x,), name=name)

    def bernoulli(self, logits, name=None) -> int:
        return self._add(Kind.STOCHASTIC, "bernoulli", (logits,), name=name)

    def categorical(self, logits, k, name=None) -> int:
        return self._add(Kind.STOCHASTIC, "categorical", (logits,), name=name, k=int(k))

    def stop_gradient(self, x, name=None) -> int:
        return self._add(Kind.STOP_GRADIENT, None, (x,), name=name)

    def cost(self, x, name=None) -> int:
        return self._add(Kind.COST, None, (x,), name=name)

    # -- lookups -----------------------------------------------------------

    def node_id(self, ref) -> int:
        if isinstance(ref, str):
            try:
                return self._names[ref]
            except KeyError:
                raise KeyError(f"no node named {ref!r}") from None
        return int(ref)

    @property
    def input_ids(self) -> list[int]:
        return [
            n.id
            for n in self.nodes
            if n.kind == Kind.INPUT and n.id not in self.constants
        ]

    @property
    def param_ids(self) -> list[int]:
        return self._ids_of(Kind.PARAMETER)

    @property
    def stochastic_ids(self) -> list[int]:
        return self._ids_of(Kind.STOCHASTIC)

    def _ids_of(self, kind: Kind) -> list[int]:
        ids = self._ids.get(kind)
        if ids is None:
            ids = self._ids[kind] = tuple(n.id for n in self.nodes if n.kind == kind)
        return list(ids)

    def layer(self, node: Node | int, logits: np.ndarray):
        """Distribution object for a stochastic node given its logit tensor."""
        if isinstance(node, int):
            node = self.nodes[node]
        cls = _SAMPLERS[node.op].layer
        return cls(logits.reshape(-1, node.k) if node.k else logits)

    def liveness(self, need, barriers: frozenset, through_barriers: bool) -> list[bool]:
        """Which nodes a sweep that reads only `need` (ids or names) must visit.

        A node is live iff it is in `need` or one of its parents is live
        through a differentiable edge. Stop-gradient nodes never pass their
        adjoint on, and neither do the stochastic nodes in `barriers` unless
        `through_barriers` (a sweep with a `stochastic_vjp`). Memoized until
        the next node is appended.
        """
        need = tuple(need)
        key = (need, barriers, through_barriers)
        live = self._live.get(key)
        if live is None:
            need = {self.node_id(i) for i in need}
            live = [False] * len(self.nodes)
            for node in self.nodes:
                if node.id in need:
                    live[node.id] = True
                elif node.kind == Kind.STOP_GRADIENT or (
                    node.id in barriers and not through_barriers
                ):
                    continue
                else:
                    live[node.id] = any(live[p] for p in node.parents)
            self._live[key] = live
        return live

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        nodes = []
        for n in self.nodes:
            d = {
                "id": n.id,
                "kind": n.kind.name,
                "op": n.op,
                "parents": list(n.parents),
                "shape": list(n.shape),
            }
            for key in ("name", "k", "span", "init", "fan_in"):
                v = getattr(n, key)
                if v is not None:
                    d[key] = list(v) if isinstance(v, tuple) else v
            nodes.append(d)
        return {
            "nodes": nodes,
            "constants": {str(i): v.tolist() for i, v in self.constants.items()},
            "meta": self.meta,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> "Graph":
        g = cls()
        for d in data["nodes"]:
            kind = Kind[d["kind"]]
            attrs = {}
            if kind == Kind.PARAMETER:
                attrs = {"init": d.get("init"), "fan_in": d.get("fan_in")}
            if d.get("k") is not None:
                attrs["k"] = d["k"]
            if d.get("span") is not None:
                attrs["span"] = tuple(d["span"])
            nid = g._add(
                kind,
                d["op"],
                tuple(d["parents"]),
                name=d.get("name"),
                shape=tuple(d["shape"]),
                **attrs,
            )
            if tuple(g.nodes[nid].shape) != tuple(d["shape"]):
                raise ValueError(f"node {nid}: stored shape disagrees with op rule")
        for sid, v in data.get("constants", {}).items():
            g.constants[int(sid)] = as_tensor(v)
        g.meta = data.get("meta", {})
        return g

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        return cls.from_dict(json.loads(text))


# -- op table -------------------------------------------------------------------
#
# Every op is described once. Its shape rule maps the parents' shapes and the
# node's attributes (`k`, `span`) to the output shape and raises ValueError on
# a bad combination, wrong arity included. A deterministic op (`Op`) also
# has `forward(node, values)`, its value read off the list of node values,
# and `vjp(node, values, adjoint, j)`, the adjoint of its j-th parent. A
# sampling op (`Sampler`) has its layer class and the adjoint through its
# mean map. Adding an op means one entry here plus one builder method.


class Op(NamedTuple):
    shape: Callable[[list, dict], tuple]
    forward: Callable[[Node, list], np.ndarray]
    vjp: Callable[[Node, list, np.ndarray, int], np.ndarray]


class Sampler(NamedTuple):
    shape: Callable[[list, dict], tuple]
    layer: type  # takes the logits, as [units, k] rows when the node has k
    mean_vjp: Callable[[Node, np.ndarray, np.ndarray], np.ndarray]


def _shape_rule(kind: Kind, op):
    """Shape rule for a node of this kind and op; None for inputs and parameters."""
    if kind in (Kind.DETERMINISTIC, Kind.STOCHASTIC):
        table = _OPS if kind == Kind.DETERMINISTIC else _SAMPLERS
        if op not in table:
            raise ValueError(f"unknown {kind.name.lower()} op {op!r}")
        return table[op].shape
    return {Kind.STOP_GRADIENT: _unary_shape, Kind.COST: _cost_shape}.get(kind)


def _unary_shape(pshapes, attrs):
    (s,) = pshapes
    return s


def _cost_shape(pshapes, attrs):
    s = _unary_shape(pshapes, attrs)
    if s != ():
        raise ValueError(f"cost parent must be scalar, got shape {s}")
    return s


def _binary_shape(pshapes, attrs):
    a, b = pshapes
    if a != b:
        raise ValueError(f"operand shapes differ, {a} vs {b}")
    return a


def _reduce_shape(pshapes, attrs):
    _unary_shape(pshapes, attrs)
    return ()


def _logits_shape(pshapes, attrs):
    s = _unary_shape(pshapes, attrs)
    if len(s) != 1:
        raise ValueError(f"logits must be 1-D, got shape {s}")
    return s


def _grouped_shape(pshapes, attrs):
    """A 1-D parent that splits into groups of width `k`; returns its shape."""
    s = _unary_shape(pshapes, attrs)
    k = attrs.get("k")
    if len(s) != 1 or not k or s[0] % k != 0:
        raise ValueError(f"shape {s} does not split into groups of k={k}")
    return s


def _affine_shape(pshapes, attrs):
    xs, ws, bs = pshapes
    if len(ws) != 2 or len(xs) != 1 or len(bs) != 1:
        raise ValueError(f"expects x[n], w[m,n], b[m]; got {pshapes}")
    if ws[1] != xs[0] or ws[0] != bs[0]:
        raise ValueError(f"shape mismatch: x{xs} w{ws} b{bs}")
    return (ws[0],)


def _affine_vjp(node, values, a, j):
    x, w, _ = node.parents
    if j == 0:
        return values[w].T @ a
    return np.outer(a, values[x]) if j == 1 else a


def _softmax_shape(pshapes, attrs):
    grouped = attrs.get("k") is not None
    return (_grouped_shape if grouped else _unary_shape)(pshapes, attrs)


def _softmax(node, values):
    x = values[node.parents[0]]
    if node.k is not None:
        return softmax(x.reshape(-1, node.k), axis=-1).reshape(node.shape)
    return softmax(x, axis=-1)


def _softmax_vjp(node, values, a, j):
    y = values[node.id]
    if node.k is not None:
        yk, ak = y.reshape(-1, node.k), a.reshape(-1, node.k)
        return (yk * (ak - np.sum(ak * yk, axis=-1, keepdims=True))).reshape(node.shape)
    return y * (a - np.sum(a * y, axis=-1, keepdims=True))


def _logsumexp(node, values):
    x = values[node.parents[0]].reshape(-1, node.k)
    m = np.max(x, axis=-1)
    return m + np.log(np.sum(np.exp(x - m[:, None]), axis=-1))


def _logsumexp_vjp(node, values, a, j):
    x = values[node.parents[0]]
    return (softmax(x.reshape(-1, node.k), axis=-1) * a[:, None]).reshape(x.shape)


def _concat_shape(pshapes, attrs):
    if not pshapes or any(len(s) > 1 for s in pshapes):
        raise ValueError(f"takes one or more scalars and 1-D vectors; got {pshapes}")
    return (sum(s[0] if s else 1 for s in pshapes),)


def _concat_vjp(node, values, a, j):
    off = sum(values[q].size for q in node.parents[:j])
    x = values[node.parents[j]]
    return a[off : off + x.size].reshape(x.shape)


def _slice_shape(pshapes, attrs):
    s = _unary_shape(pshapes, attrs)
    start, stop = attrs["span"]
    if len(s) != 1 or not (0 <= start < stop <= s[0]):
        raise ValueError(f"bounds ({start},{stop}) invalid for shape {s}")
    return (stop - start,)


def _slice_vjp(node, values, a, j):
    g = np.zeros(values[node.parents[0]].shape)
    start, stop = node.span
    g[start:stop] = a
    return g


def _pass_vjp(node, values, a, j):
    return a


# lambdas name their arguments n(ode), v(alues), a(djoint) and j (parent index)
_OPS: dict[str, Op] = {
    "affine": Op(_affine_shape, lambda n, v: v[n.parents[1]] @ v[n.parents[0]] + v[n.parents[2]],
                 _affine_vjp),
    "sigmoid": Op(_unary_shape, lambda n, v: sigmoid(v[n.parents[0]]),
                  lambda n, v, a, j: a * v[n.id] * (1.0 - v[n.id])),
    "tanh": Op(_unary_shape, lambda n, v: np.tanh(v[n.parents[0]]),
               lambda n, v, a, j: a * (1.0 - v[n.id] * v[n.id])),
    "softmax": Op(_softmax_shape, _softmax, _softmax_vjp),
    "softplus": Op(_unary_shape, lambda n, v: softplus(v[n.parents[0]]),
                   lambda n, v, a, j: a * sigmoid(v[n.parents[0]])),
    "add": Op(_binary_shape, lambda n, v: v[n.parents[0]] + v[n.parents[1]], _pass_vjp),
    "sub": Op(_binary_shape, lambda n, v: v[n.parents[0]] - v[n.parents[1]],
              lambda n, v, a, j: -a if j else a),
    "mul": Op(_binary_shape, lambda n, v: v[n.parents[0]] * v[n.parents[1]],
              lambda n, v, a, j: a * v[n.parents[1 - j]]),
    "sum": Op(_reduce_shape, lambda n, v: np.asarray(np.sum(v[n.parents[0]])),
              lambda n, v, a, j: np.full(v[n.parents[0]].shape, float(a))),
    "mean": Op(_reduce_shape, lambda n, v: np.asarray(np.mean(v[n.parents[0]])),
               lambda n, v, a, j: np.full(v[n.parents[0]].shape,
                                          float(a) / max(v[n.parents[0]].size, 1))),
    "log": Op(_unary_shape, lambda n, v: np.log(v[n.parents[0]]),
              lambda n, v, a, j: a / v[n.parents[0]]),
    "exp": Op(_unary_shape, lambda n, v: np.exp(v[n.parents[0]]),
              lambda n, v, a, j: a * v[n.id]),
    "logsumexp": Op(lambda s, attrs: (_grouped_shape(s, attrs)[0] // attrs["k"],),
                    _logsumexp, _logsumexp_vjp),
    "concat": Op(_concat_shape, lambda n, v: np.concatenate([np.atleast_1d(v[q]) for q in n.parents]),
                 _concat_vjp),
    "slice": Op(_slice_shape, lambda n, v: v[n.parents[0]][n.span[0] : n.span[1]], _slice_vjp),
    "square": Op(_unary_shape, lambda n, v: v[n.parents[0]] * v[n.parents[0]],
                 lambda n, v, a, j: 2.0 * a * v[n.parents[0]]),
}


def _bernoulli_mean_vjp(node, logits, adj):
    m = sigmoid(logits)
    return adj * m * (1.0 - m)


def _categorical_mean_vjp(node, logits, adj):
    probs = softmax(logits.reshape(-1, node.k), axis=-1)
    a = adj.reshape(-1, node.k)
    return (probs * (a - np.sum(a * probs, axis=-1, keepdims=True))).reshape(node.shape)


_SAMPLERS: dict[str, Sampler] = {
    "bernoulli": Sampler(_logits_shape, BernoulliLayer, _bernoulli_mean_vjp),
    "categorical": Sampler(_grouped_shape, CategoricalLayer, _categorical_mean_vjp),
}


# -- forward -----------------------------------------------------------------


def _resolve(graph: Graph, bindings) -> dict[int, np.ndarray]:
    out = {}
    for key, val in (bindings or {}).items():
        out[graph.node_id(key)] = as_tensor(val)
    return out


def forward(
    graph: Graph,
    inputs=None,
    params=None,
    mode: Mode = Mode.STOCHASTIC,
    rng_seed: int | None = None,
    forced: dict[int, np.ndarray] | None = None,
    validate: bool = True,
) -> Trace:
    """Evaluate every node; returns a Trace covering the whole graph.

    `forced` prescribes outcomes for stochastic nodes (by id). Forced nodes are
    treated exactly like drawn samples: their log-probability is recorded in
    STOCHASTIC mode and they block gradients in both modes. A seed is required
    only when at least one stochastic node actually needs to be drawn.
    """
    inputs = _resolve(graph, inputs)
    params = _resolve(graph, params)
    forced = {graph.node_id(k): as_tensor(v) for k, v in (forced or {}).items()}
    for fid in forced:
        if graph.nodes[fid].kind != Kind.STOCHASTIC:
            raise ValueError(f"forced value for non-stochastic node {fid}")

    if mode == Mode.MEAN_FIELD and rng_seed is not None:
        raise ValueError("mean-field evaluation takes no rng seed")
    if mode == Mode.STOCHASTIC and rng_seed is None:
        unforced = [i for i in graph.stochastic_ids if i not in forced]
        if unforced:
            raise ValueError(f"rng_seed required to draw nodes {unforced}")

    n = len(graph.nodes)
    values: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    logprobs: dict[int, float] = {}
    barriers: set[int] = set()
    gen = None  # one stream per pass; nodes draw from it in topological order

    with np.errstate(all="ignore"):
        for node in graph.nodes:
            k = node.kind
            if k == Kind.INPUT:
                v = graph.constants.get(node.id)
                if node.id in inputs:
                    v = inputs[node.id]
                if v is None:
                    label = node.name or node.id
                    raise ValueError(f"unbound input {label!r}")
                if v.shape != node.shape:
                    raise ValueError(
                        f"input {node.id}: bound shape {v.shape} != {node.shape}"
                    )
            elif k == Kind.PARAMETER:
                if node.id not in params:
                    label = node.name or node.id
                    raise ValueError(f"unbound parameter {label!r}")
                v = params[node.id]
                if v.shape != node.shape:
                    raise ValueError(
                        f"parameter {node.id}: bound shape {v.shape} != {node.shape}"
                    )
            elif k == Kind.DETERMINISTIC:
                v = _OPS[node.op].forward(node, values)
            elif k == Kind.STOCHASTIC:
                layer = graph.layer(node, values[node.parents[0]])
                if node.id in forced:
                    raw = layer.validate(forced[node.id].reshape(layer.logits.shape))
                    if mode == Mode.STOCHASTIC:
                        logprobs[node.id] = layer.log_prob(raw, checked=True)
                    v = raw.reshape(node.shape)
                    barriers.add(node.id)
                elif mode == Mode.STOCHASTIC:
                    if gen is None:
                        gen = _rng.stream(rng_seed)
                    draw = layer.sample(gen)
                    logprobs[node.id] = layer.log_prob(draw, checked=True)
                    v = draw.reshape(node.shape)
                    barriers.add(node.id)
                else:
                    v = layer.mean().reshape(node.shape)
            else:  # STOP_GRADIENT, COST
                v = values[node.parents[0]]

            if validate and not np.all(np.isfinite(v)):
                raise ValueError(f"non-finite value produced at node {node.id}")
            values[node.id] = v

    return Trace(mode, values, logprobs, frozenset(barriers))


# -- reverse mode --------------------------------------------------------------


def mean_vjp(node: Node, logits: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Adjoint through the mean map of a stochastic node, at the given logits."""
    return _SAMPLERS[node.op].mean_vjp(node, logits, adj)


def _mean_field_vjp(node, values, a, j):
    return mean_vjp(node, values[node.parents[0]], a)


def backward(
    graph: Graph,
    trace: Trace,
    seeds: dict[int, np.ndarray],
    stochastic_vjp=None,
    need=None,
) -> list:
    """Reverse sweep from injected adjoints; returns the adjoint list.

    `stochastic_vjp(node, logits, value, adj) -> logit_adjoint | None`, when
    given, replaces the barrier behavior at drawn stochastic nodes.

    `need` lists the nodes whose adjoints the caller reads; None means every
    node. Only live nodes (see `Graph.liveness`) are swept, and a node skips
    the adjoint of each parent that is not live before computing it, so dead
    entries stay None (or hold just their seed). Every live adjoint is
    bitwise the same as in the full sweep: all its contributions come from
    live nodes, added in the same order.
    """
    n = len(graph.nodes)
    if len(trace.values) != n:
        raise ValueError("trace does not cover the graph")
    if need is None:
        live = [True] * n
    else:
        live = graph.liveness(need, trace.barriers, stochastic_vjp is not None)
    adj: list = [None] * n
    for sid, sval in seeds.items():
        v = as_tensor(sval)
        adj[sid] = v if adj[sid] is None else adj[sid] + v

    def drawn_vjp(node, values, a, j):
        return stochastic_vjp(node, values[node.parents[0]], values[node.id], a)

    values = trace.values
    with np.errstate(all="ignore"):
        for i in range(n - 1, -1, -1):
            a = adj[i]
            if a is None or not live[i]:
                continue
            node = graph.nodes[i]
            kind = node.kind
            if kind == Kind.DETERMINISTIC:
                vjp = _OPS[node.op].vjp
            elif kind == Kind.COST:
                vjp = _pass_vjp
            elif kind != Kind.STOCHASTIC:
                continue  # inputs, parameters and stop-gradient nodes pass nothing on
            elif i not in trace.barriers:
                vjp = _mean_field_vjp
            elif stochastic_vjp is not None:
                vjp = drawn_vjp
            else:
                continue  # drawn sample: gradient stops here
            for j, q in enumerate(node.parents):
                if live[q]:
                    g = vjp(node, values, a, j)
                    if g is not None:
                        adj[q] = g if adj[q] is None else adj[q] + g
    return adj


def gradients(graph: Graph, cost, wrt, trace: Trace) -> dict[int, np.ndarray]:
    """d(cost)/d(node output) for each node in `wrt`, over the given trace.

    Unreachable targets get exact zero tensors, so the result is always keyed
    by the full `wrt` list.
    """
    cost = graph.node_id(cost)
    if graph.nodes[cost].shape != ():
        raise ValueError(f"cost node {cost} is not scalar")
    wrt = [graph.node_id(w) for w in wrt]
    adj = backward(graph, trace, {cost: np.ones(())}, need=wrt)
    out = {}
    for w in wrt:
        g = adj[w]
        out[w] = as_tensor(g) if g is not None else np.zeros(graph.nodes[w].shape)
    return out
