"""Computation graphs mixing deterministic ops with discrete sampling nodes.

A `Graph` is a static DAG built once, then evaluated many times against bound
input and parameter tensors. `forward` runs in one of two modes:

* ``Mode.STOCHASTIC`` draws every sampling node from its distribution, records
  the log-probability of the draw, and blocks gradient flow at the sample.
* ``Mode.MEAN_FIELD`` propagates distribution means instead, producing a fully
  differentiable deterministic relaxation of the same network.

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
from dataclasses import dataclass, field

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


DET_OPS = frozenset(
    {
        "affine",
        "sigmoid",
        "tanh",
        "softmax",
        "softplus",
        "add",
        "sub",
        "mul",
        "sum",
        "mean",
        "log",
        "exp",
        "logsumexp",
        "concat",
        "slice",
        "square",
    }
)
DIST_TAGS = frozenset({"bernoulli", "categorical"})


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
    rng_seed: int | None
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
        if kind in (Kind.DETERMINISTIC, Kind.STOCHASTIC, Kind.STOP_GRADIENT, Kind.COST):
            shape = _infer_shape(
                kind, op, [self.nodes[p].shape for p in parents], attrs
            )
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
        if node.op == "bernoulli":
            return BernoulliLayer(logits)
        return CategoricalLayer(logits.reshape(-1, node.k))

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


def _infer_shape(kind, op, pshapes, attrs) -> tuple[int, ...]:
    if kind == Kind.STOP_GRADIENT:
        (s,) = pshapes
        return s
    if kind == Kind.COST:
        (s,) = pshapes
        if s != ():
            raise ValueError(f"cost parent must be scalar, got shape {s}")
        return s
    if kind == Kind.STOCHASTIC:
        (s,) = pshapes
        if len(s) != 1:
            raise ValueError(f"{op} logits must be 1-D, got shape {s}")
        if op == "categorical":
            k = attrs.get("k")
            if not k or s[0] % k != 0:
                raise ValueError(f"categorical width {s[0]} not divisible by k={k}")
        return s

    if op == "affine":
        xs, ws, bs = pshapes
        if len(ws) != 2 or len(xs) != 1 or len(bs) != 1:
            raise ValueError(f"affine expects x[n], w[m,n], b[m]; got {pshapes}")
        if ws[1] != xs[0] or ws[0] != bs[0]:
            raise ValueError(
                f"affine shape mismatch: x{xs} w{ws} b{bs}"
            )
        return (ws[0],)
    if op in ("sigmoid", "tanh", "softplus", "square", "log", "exp"):
        return pshapes[0]
    if op == "softmax":
        s = pshapes[0]
        k = attrs.get("k")
        if k is not None and (len(s) != 1 or s[0] % k != 0):
            raise ValueError(f"grouped softmax: shape {s} not divisible by k={k}")
        return s
    if op in ("add", "sub", "mul"):
        a, b = pshapes
        if a != b:
            raise ValueError(f"{op}: operand shapes differ, {a} vs {b}")
        return a
    if op in ("sum", "mean"):
        return ()
    if op == "logsumexp":
        s = pshapes[0]
        k = attrs.get("k")
        if len(s) != 1 or not k or s[0] % k != 0:
            raise ValueError(f"logsumexp: shape {s} not divisible by k={k}")
        return (s[0] // k,)
    if op == "concat":
        total = 0
        for s in pshapes:
            if len(s) > 1:
                raise ValueError("concat takes scalars and 1-D vectors only")
            total += s[0] if s else 1
        return (total,)
    if op == "slice":
        (s,) = pshapes
        start, stop = attrs["span"]
        if len(s) != 1 or not (0 <= start < stop <= s[0]):
            raise ValueError(f"slice bounds ({start},{stop}) invalid for shape {s}")
        return (stop - start,)
    raise ValueError(f"unknown op {op!r}")


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
                v = _eval_op(node, values)
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

    return Trace(mode, values, logprobs, rng_seed, frozenset(barriers))


def _eval_op(node: Node, values) -> np.ndarray:
    op = node.op
    p = node.parents
    if op == "affine":
        return values[p[1]] @ values[p[0]] + values[p[2]]
    if op == "sigmoid":
        return sigmoid(values[p[0]])
    if op == "tanh":
        return np.tanh(values[p[0]])
    if op == "softmax":
        x = values[p[0]]
        if node.k is not None:
            return softmax(x.reshape(-1, node.k), axis=-1).reshape(node.shape)
        return softmax(x, axis=-1)
    if op == "softplus":
        return softplus(values[p[0]])
    if op == "add":
        return values[p[0]] + values[p[1]]
    if op == "sub":
        return values[p[0]] - values[p[1]]
    if op == "mul":
        return values[p[0]] * values[p[1]]
    if op == "sum":
        return np.asarray(np.sum(values[p[0]]))
    if op == "mean":
        return np.asarray(np.mean(values[p[0]]))
    if op == "log":
        return np.log(values[p[0]])
    if op == "exp":
        return np.exp(values[p[0]])
    if op == "logsumexp":
        x = values[p[0]].reshape(-1, node.k)
        m = np.max(x, axis=-1)
        return m + np.log(np.sum(np.exp(x - m[:, None]), axis=-1))
    if op == "concat":
        return np.concatenate([np.atleast_1d(values[q]) for q in p])
    if op == "slice":
        start, stop = node.span
        return values[p[0]][start:stop]
    if op == "square":
        x = values[p[0]]
        return x * x
    raise ValueError(f"unknown op {op!r}")


# -- reverse mode --------------------------------------------------------------


def mean_vjp(node: Node, logits: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Adjoint through the mean map of a stochastic node, at the given logits."""
    if node.op == "bernoulli":
        m = sigmoid(logits)
        return adj * m * (1.0 - m)
    probs = softmax(logits.reshape(-1, node.k), axis=-1)
    a = adj.reshape(-1, node.k)
    return (probs * (a - np.sum(a * probs, axis=-1, keepdims=True))).reshape(
        node.shape
    )


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
    node. Only live nodes (see `Graph.liveness`) are swept, and an op skips
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

    def acc(j, v):
        adj[j] = v if adj[j] is None else adj[j] + v

    values = trace.values
    with np.errstate(all="ignore"):
        for i in range(n - 1, -1, -1):
            a = adj[i]
            if a is None or not live[i]:
                continue
            node = graph.nodes[i]
            kind = node.kind
            if kind in (Kind.INPUT, Kind.PARAMETER):
                continue
            if kind == Kind.STOP_GRADIENT:
                continue
            if kind == Kind.COST:
                if live[node.parents[0]]:
                    acc(node.parents[0], a)
                continue
            if kind == Kind.STOCHASTIC:
                if not live[node.parents[0]]:
                    continue
                logits = values[node.parents[0]]
                if stochastic_vjp is not None and i in trace.barriers:
                    ga = stochastic_vjp(node, logits, values[i], a)
                    if ga is not None:
                        acc(node.parents[0], ga)
                elif i in trace.barriers:
                    pass  # drawn sample: gradient stops here
                else:
                    acc(node.parents[0], mean_vjp(node, logits, a))
                continue
            _op_vjp(node, values, a, acc, live)
    return adj


def _op_vjp(node: Node, values, a, acc, live) -> None:
    """Accumulate the op's parent adjoints, computing only those of live parents."""
    op = node.op
    p = node.parents
    if op == "affine":
        if live[p[0]]:
            acc(p[0], values[p[1]].T @ a)
        if live[p[1]]:
            acc(p[1], np.outer(a, values[p[0]]))
        if live[p[2]]:
            acc(p[2], a)
    elif op == "add":
        if live[p[0]]:
            acc(p[0], a)
        if live[p[1]]:
            acc(p[1], a)
    elif op == "sub":
        if live[p[0]]:
            acc(p[0], a)
        if live[p[1]]:
            acc(p[1], -a)
    elif op == "mul":
        if live[p[0]]:
            acc(p[0], a * values[p[1]])
        if live[p[1]]:
            acc(p[1], a * values[p[0]])
    elif op == "concat":
        off = 0
        for q in p:
            s = values[q].shape
            width = s[0] if s else 1
            if live[q]:
                acc(q, a[off : off + width].reshape(s))
            off += width
    elif not live[p[0]]:
        return  # the remaining ops have one parent
    elif op == "sigmoid":
        y = values[node.id]
        acc(p[0], a * y * (1.0 - y))
    elif op == "tanh":
        y = values[node.id]
        acc(p[0], a * (1.0 - y * y))
    elif op == "softmax":
        y = values[node.id]
        if node.k is not None:
            yk = y.reshape(-1, node.k)
            ak = a.reshape(-1, node.k)
            g = yk * (ak - np.sum(ak * yk, axis=-1, keepdims=True))
            acc(p[0], g.reshape(node.shape))
        else:
            acc(p[0], y * (a - np.sum(a * y, axis=-1, keepdims=True)))
    elif op == "softplus":
        acc(p[0], a * sigmoid(values[p[0]]))
    elif op == "sum":
        acc(p[0], np.full(values[p[0]].shape, float(a)))
    elif op == "mean":
        x = values[p[0]]
        acc(p[0], np.full(x.shape, float(a) / max(x.size, 1)))
    elif op == "log":
        acc(p[0], a / values[p[0]])
    elif op == "exp":
        acc(p[0], a * values[node.id])
    elif op == "logsumexp":
        x = values[p[0]].reshape(-1, node.k)
        acc(p[0], (softmax(x, axis=-1) * a[:, None]).reshape(values[p[0]].shape))
    elif op == "slice":
        g = np.zeros(values[p[0]].shape)
        start, stop = node.span
        g[start:stop] = a
        acc(p[0], g)
    elif op == "square":
        acc(p[0], 2.0 * a * values[p[0]])
    else:
        raise ValueError(f"unknown op {op!r}")


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
