"""Computation graphs mixing deterministic ops with discrete sampling nodes.

A `Graph` is a static DAG built once, then evaluated many times against bound
input and parameter tensors. `forward` runs in one of two modes:

* ``Mode.STOCHASTIC`` draws every sampling node from its distribution, records
  the log-probability of the draw, and blocks gradient flow at the sample.
* ``Mode.MEAN_FIELD`` propagates distribution means instead, producing a fully
  differentiable deterministic relaxation of the same network.

Rows. Every value carries a leading row axis, `[rows, *node.shape]`, one
row per example, draw or forced configuration; this is the one statement of
that contract, which the rest of the package points to:

* Parameters are bound in their nodes' shapes and hold one row, as do
  one-row inputs and the nodes computed from them alone; one row broadcasts
  against many.
* A bound input or `forced` value is in its node's shape (one row) or
  `[B, *node.shape]`, and a seed is one seed or a sequence of B. A pass has
  the B they share; any other disagreement is a ValueError naming the node.
* Grouped input rows: in a pass drawn from B seeds, the rowed inputs may
  instead have k rows, k dividing B, and input row j then serves the B/k
  consecutive pass rows from j * B/k (k = 1 is the broadcast above; forced
  values keep 1 or B rows). Every value that only inputs and parameters
  reach is computed at k rows, a drawn node samples each input row's B/k
  draws from one layer over that row's logits, and an op (or a forced
  node) that meets a k-row value beside B-row ones reads it repeated, the
  repeat made once per value per pass. Before `forward` returns, every
  k-row value and drawn layer is widened to B rows, so a `Trace` holds 1 or
  B rows per value and no reader sees the grouping. A non-finite k-row
  value is named at the first pass row that reads it. `estimate` rejects
  grouped inputs: its Taylor anchor passes draw no seeds.
* Row i computes what a one-row pass at row i of each rowed input and forced
  value computes (to the order of BLAS's sums in a many-row product), and
  draws what a one-row pass at `seeds[i]` draws, from its own stream
  `rng.stream(seeds[i])`, node after node in topological order.
* An adjoint has its node's rows. One flowing into a node with fewer rows is
  summed over the rows, so a parameter's adjoint is the sum of every row's;
  an affine weight's is `A.T @ X` at any row count. `backward(...,
  per_row=True)` keeps the rows apart instead, an affine weight's as their
  factors (`RowFactors`).
* Per-row results (`Trace.logprob`, an estimate's cost, log-probability and
  diagnostics) have one entry per row.

Each op is described once, in the `_OPS` table (deterministic ops: shape rule,
forward map, per-parent vjp) or the `_SAMPLERS` table (sampling ops: shape
rule, and the layer class that holds all of the family's math); construction,
both forward modes and the reverse sweep all read their op's entry.

`gradients` runs reverse-mode accumulation over a recorded `Trace`. Sampling
nodes behave as gradient barriers exactly when the trace marks them as drawn
(or forced); in mean-field traces they differentiate through the mean map.
`backward(..., need=...)` computes only the adjoints on a differentiable path
from the requested nodes (activity analysis), so a sweep whose reader looks
at a few nodes skips the rest of the graph.

Graphs are append-only during construction and treated as immutable afterwards,
so a built graph can be shared read-only across threads; the only state a
built graph gains is its caches (id lists by kind, liveness masks). All values are dense float64
arrays; any non-finite entry produced by evaluation is an error naming its
node and row (`NonFiniteError`), not a silent value.

Validation. A validated pass checks, in topological order, every bound input
and computed value on every pass, and each parameter once per binding (`bind`,
which `forward` applies on entry to a plain mapping): the first validated pass
to read a parameter records its finiteness there, for later passes to read.
So a binding must not outlive an in-place change to its arrays: bind again
after one.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import rng as _rng
from .distributions import BernoulliLayer, CategoricalLayer
from .numerics import as_tensor, logsumexp, sigmoid, softmax, softmax_adjoint, softplus


class Kind(enum.IntEnum):
    INPUT = 0
    PARAMETER = 1
    DETERMINISTIC = 2
    STOCHASTIC = 3
    COST = 4


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
    k: int | None = None  # group width (categorical cells, softmax/logsumexp groups)
    span: tuple[int, int] | None = None  # slice bounds
    init: str | None = None  # parameter init rule: "fan_in" or "zeros"


class NonFiniteError(ValueError):
    """A forward pass produced a non-finite entry at `node`, first in row
    `row`; `row` is None for the mean-field pass, whose rows are no draw's."""

    def __init__(self, node: int, row: int | None):
        where = "the mean-field pass" if row is None else f"row {row}"
        super().__init__(f"non-finite value produced at node {node} in {where}")
        self.node = node
        self.row = row


@dataclass
class Trace:
    """One forward evaluation of `rows` rows of `graph`: every node's value
    as `[1 or rows, *node.shape]`, each stochastic node's layer (over those
    logits), the log-probability of each row's drawn and forced samples
    (`[rows]`, zeros in mean-field mode) and the drawn or forced nodes
    (`barriers`)."""

    mode: Mode
    values: list[np.ndarray]
    layers: dict[int, BernoulliLayer | CategoricalLayer]
    logprob: np.ndarray
    barriers: frozenset[int]
    graph: Graph

    def cost_value(self, node_id: int) -> float:
        """A scalar node's value in a one-row trace."""
        return self.values[node_id].item()


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

    def parameter(self, shape, name=None, init="fan_in") -> int:
        return self._add(Kind.PARAMETER, shape=tuple(shape), name=name, init=init)

    def affine(self, x, w, b, name=None) -> int:
        return self._add(Kind.DETERMINISTIC, "affine", (x, w, b), name=name)

    def sigmoid(self, x, name=None) -> int:
        return self._add(Kind.DETERMINISTIC, "sigmoid", (x,), name=name)

    def tanh(self, x, name=None) -> int:
        return self._add(Kind.DETERMINISTIC, "tanh", (x,), name=name)

    def softmax(self, x, k, name=None) -> int:
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

    def cost(self, x, name=None) -> int:
        return self._add(Kind.COST, None, (x,), name=name)

    # -- lookups -----------------------------------------------------------

    def node_id(self, ref) -> int:
        if isinstance(ref, str):
            try:
                return self._names[ref]
            except KeyError:
                raise KeyError(f"no node named {ref!r}") from None
        if isinstance(ref, (bool, np.bool_)) or not isinstance(ref, (int, np.integer)):
            raise TypeError(f"node id must be an integer or a name, got {ref!r}")
        nid = int(ref)
        if not 0 <= nid < len(self.nodes):
            raise KeyError(f"no node with id {nid}")
        return nid

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

    def liveness(self, need, barriers: frozenset, through_barriers: bool) -> list[bool]:
        """Which nodes a sweep that reads only `need` (ids or names) must visit.

        A node is live iff it is in `need` or one of its parents is live
        through a differentiable edge. The stochastic nodes in `barriers` pass
        no adjoint on unless `through_barriers` (a sweep with a
        `stochastic_vjp`). Memoized until the next node is appended.
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
                elif node.id in barriers and not through_barriers:
                    continue
                else:
                    live[node.id] = any(live[p] for p in node.parents)
            self._live[key] = live
        return live


# -- op table -------------------------------------------------------------------
#
# Every op is described once. Its shape rule maps the parents' shapes and the
# node's attributes (`k`, `span`) to the output shape and raises ValueError on
# a bad combination, wrong arity included. A deterministic op (`Op`) also
# has `forward(node, values)`, its value read off the list of node values,
# and `vjp(node, values, adjoint, j)`, the adjoint of its j-th parent. Values
# and adjoints are `[rows, *shape]`; parents with one row broadcast, and a vjp
# may return more rows than its parent has (`backward` sums them). An adjoint
# may have more rows than its node's value, whose one row then broadcasts. A
# sampling op (`Sampler`) has its layer class, which holds all of its family's
# math. Adding an op means one entry here plus one builder method.


class Op(NamedTuple):
    shape: Callable[[list, dict], tuple]
    forward: Callable[[Node, list], np.ndarray]
    vjp: Callable[[Node, list, np.ndarray, int], np.ndarray]


class Sampler(NamedTuple):
    shape: Callable[[list, dict], tuple]
    layer: type  # built from the node's logits and its `k`


def _shape_rule(kind: Kind, op):
    """Shape rule for a node of this kind and op; None for inputs and parameters."""
    if kind in (Kind.DETERMINISTIC, Kind.STOCHASTIC):
        table = _OPS if kind == Kind.DETERMINISTIC else _SAMPLERS
        if op not in table:
            raise ValueError(f"unknown {kind.name.lower()} op {op!r}")
        return table[op].shape
    return _cost_shape if kind == Kind.COST else None


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


def _affine(node, values):
    x, w, b = node.parents
    return values[x] @ values[w][0].T + values[b]


def _affine_vjp(node, values, a, j):
    x, w, _ = node.parents
    if j == 0:
        return a @ values[w][0]
    if j == 2:
        return a
    return (a.T @ values[x])[None]  # the sum of the rows' outer products


class RowFactors:
    """Per-row gradients of an affine weight `[m, n]`, kept as factors: a
    list of `(a, x)` pairs, `a` the rows of the adjoint at an affine output
    (`[rows, m]`) and `x` the rows of that affine's input (`[rows or 1, n]`,
    one row serving every row). Row r's gradient is the sum over pairs of
    the outer products `a[r] x[r]^T`, in the order the sweep added them.
    `dense` forms any rows of the weight at a time and `total` the rows'
    sum. Adding factors joins their pairs; adding an array forms them all."""

    __array_ufunc__ = None  # `array + factors` calls `__radd__`

    def __init__(self, pairs: list):
        self.pairs = pairs

    def __len__(self) -> int:
        return max(len(a) for a, _x in self.pairs)

    @property
    def shape(self) -> tuple:
        a, x = self.pairs[0]
        return (len(self), a.shape[1], x.shape[1])

    @property
    def nbytes(self) -> int:
        """The bytes of the pairs' arrays, as `ndarray.nbytes` counts them."""
        return sum(a.nbytes + x.nbytes for a, x in self.pairs)

    def __add__(self, other):
        if isinstance(other, RowFactors):
            return RowFactors(self.pairs + other.pairs)
        return self.dense() + other

    def __radd__(self, other):
        return other + self.dense()

    def dense(self, index=slice(None)) -> np.ndarray:
        """The rows' gradients at the weight rows `index`, `[rows, *w[index].shape]`."""
        out = None
        for a, x in self.pairs:
            # einsum forms the products faster than `a[:, index, None] * x[:, None, :]`
            g = np.einsum("ri,rj->rij", a[:, index], x)
            out = g if out is None else out + g
        return out

    def total(self) -> np.ndarray:
        """The sum of every row's gradient, `[m, n]`: one product `A.T @ X`
        over the pairs' rows stacked in order."""
        a = np.concatenate([a for a, _x in self.pairs])
        x = np.concatenate([x if len(x) == len(a_) else np.broadcast_to(x, (len(a_),) + x.shape[1:])
                            for a_, x in self.pairs])
        return a.T @ x


def _affine_per_row_vjp(node, values, a, j):
    """`_affine_vjp`, with the rows' weight adjoints kept as `RowFactors`."""
    if j != 1:
        return _affine_vjp(node, values, a, j)
    return RowFactors([(a, values[node.parents[0]])])


# the vjps a `per_row` sweep uses instead of the table's
_PER_ROW_VJPS = {"affine": _affine_per_row_vjp}


def _groups(node, x):
    """A `[rows, width]` value as `[rows, width // k, k]`."""
    return x.reshape(len(x), -1, node.k)


def _softmax(node, values):
    x = values[node.parents[0]]
    return softmax(_groups(node, x), axis=-1).reshape(x.shape)


def _logsumexp_vjp(node, values, a, j):
    g = softmax(_groups(node, values[node.parents[0]]), axis=-1) * a[:, :, None]
    return g.reshape(len(g), -1)


def _per_row(a, x):
    """The per-row scalars `a` spread over the shape of a row of `x`."""
    return np.repeat(a, x[0].size).reshape((len(a),) + x.shape[1:])


def _flat(x):
    return x.reshape(len(x), -1)


def _concat_shape(pshapes, attrs):
    if not pshapes or any(len(s) > 1 for s in pshapes):
        raise ValueError(f"takes one or more scalars and 1-D vectors; got {pshapes}")
    return (sum(s[0] if s else 1 for s in pshapes),)


def _concat(node, values):
    parts = [_flat(values[q]) for q in node.parents]
    rows = max(len(p) for p in parts)
    return np.concatenate(
        [p if len(p) == rows else np.broadcast_to(p, (rows, p.shape[1])) for p in parts], axis=1)


def _concat_vjp(node, values, a, j):
    off = sum(values[q][0].size for q in node.parents[:j])
    x = values[node.parents[j]]
    return a[:, off : off + x[0].size].reshape((len(a),) + x.shape[1:])


def _slice_shape(pshapes, attrs):
    s = _unary_shape(pshapes, attrs)
    start, stop = attrs["span"]
    if len(s) != 1 or not (0 <= start < stop <= s[0]):
        raise ValueError(f"bounds ({start},{stop}) invalid for shape {s}")
    return (stop - start,)


def _slice_vjp(node, values, a, j):
    g = np.zeros((len(a),) + values[node.parents[0]].shape[1:])
    start, stop = node.span
    g[:, start:stop] = a
    return g


def _pass_vjp(node, values, a, j):
    return a


# lambdas name their arguments n(ode), v(alues), a(djoint) and j (parent index)
_OPS: dict[str, Op] = {
    "affine": Op(_affine_shape, _affine, _affine_vjp),
    "sigmoid": Op(_unary_shape, lambda n, v: sigmoid(v[n.parents[0]]),
                  lambda n, v, a, j: a * v[n.id] * (1.0 - v[n.id])),
    "tanh": Op(_unary_shape, lambda n, v: np.tanh(v[n.parents[0]]),
               lambda n, v, a, j: a * (1.0 - v[n.id] * v[n.id])),
    "softmax": Op(_grouped_shape, _softmax, lambda n, v, a, j: softmax_adjoint(v[n.id], a, n.k)),
    "softplus": Op(_unary_shape, lambda n, v: softplus(v[n.parents[0]]),
                   lambda n, v, a, j: a * sigmoid(v[n.parents[0]])),
    "add": Op(_binary_shape, lambda n, v: v[n.parents[0]] + v[n.parents[1]], _pass_vjp),
    "sub": Op(_binary_shape, lambda n, v: v[n.parents[0]] - v[n.parents[1]],
              lambda n, v, a, j: -a if j else a),
    "mul": Op(_binary_shape, lambda n, v: v[n.parents[0]] * v[n.parents[1]],
              lambda n, v, a, j: a * v[n.parents[1 - j]]),
    "sum": Op(_reduce_shape, lambda n, v: _flat(v[n.parents[0]]).sum(axis=1),
              lambda n, v, a, j: _per_row(a, v[n.parents[0]])),
    "mean": Op(_reduce_shape, lambda n, v: _flat(v[n.parents[0]]).mean(axis=1),
               lambda n, v, a, j: _per_row(a / max(v[n.parents[0]][0].size, 1), v[n.parents[0]])),
    "logsumexp": Op(lambda s, attrs: (_grouped_shape(s, attrs)[0] // attrs["k"],),
                    lambda n, v: logsumexp(_groups(n, v[n.parents[0]])), _logsumexp_vjp),
    "concat": Op(_concat_shape, _concat, _concat_vjp),
    "slice": Op(_slice_shape, lambda n, v: v[n.parents[0]][:, n.span[0] : n.span[1]], _slice_vjp),
    "square": Op(_unary_shape, lambda n, v: v[n.parents[0]] * v[n.parents[0]],
                 lambda n, v, a, j: 2.0 * a * v[n.parents[0]]),
}


_SAMPLERS: dict[str, Sampler] = {
    "bernoulli": Sampler(_logits_shape, BernoulliLayer),
    "categorical": Sampler(_grouped_shape, CategoricalLayer),
}


# -- forward -----------------------------------------------------------------


def _resolve(graph: Graph, bindings, out=None) -> dict[int, np.ndarray]:
    out = {} if out is None else out
    for key, val in (bindings or {}).items():
        out[graph.node_id(key)] = as_tensor(val)
    return out


class Binding(dict):
    """Parameter values by node id, bound by `bind` to `graph`; `finite` holds
    the ids of those a validated pass found finite (see the module docstring)."""

    __slots__ = ("graph", "finite")  # no instance dict: `forward` makes one per plain mapping


def bind(graph: Graph, params) -> Binding:
    """`params` (keyed by node id or name) bound to `graph`; a binding made
    for `graph` is returned as it is, and one made for another is rejected."""
    if not isinstance(params, Binding):
        out = Binding()
        out.graph, out.finite = graph, set()
        return _resolve(graph, params, out)
    if params.graph is not graph:
        raise ValueError("parameters are bound to another graph")
    return params


def _rowed(graph: Graph, bindings, what: str) -> dict[int, np.ndarray]:
    """Bound inputs or forced values as `[rows, *node.shape]`; a value in
    its node's shape is one row."""
    out = {}
    for nid, v in _resolve(graph, bindings).items():
        shape = graph.nodes[nid].shape
        if v.shape == shape:
            v = v[None]
        elif v.shape[1:] != shape:
            raise ValueError(f"{what} {nid}: shape {v.shape} != {shape} or (rows,) + {shape}")
        out[nid] = v
    return out


def _pass_rows(*bound) -> tuple[int, str | None]:
    """The row count that the `(what, {node id: rows value})` groups share,
    one row broadcasting, and the name of a value that has it (None for one
    row)."""
    rows, source = 1, None
    for what, values in bound:
        for nid, v in values.items():
            if len(v) == 1:
                continue
            if source is None:
                rows, source = len(v), f"{what} {nid}"
            elif len(v) != rows:
                raise ValueError(f"{what} {nid} has {len(v)} rows, but {source} has {rows}")
    return rows, source


def forward(
    graph: Graph,
    inputs=None,
    params=None,
    mode: Mode = Mode.STOCHASTIC,
    rng_seed=None,
    forced: dict[int, np.ndarray] | None = None,
    validate: bool = True,
    reuse: Trace | None = None,
) -> Trace:
    """Evaluate every node; returns a Trace covering the whole graph. How
    inputs, forced values and seeds give the pass its rows, grouped input
    rows included: see the module docstring.

    `forced` prescribes outcomes for stochastic nodes, by id. Forced nodes
    are treated exactly like drawn samples: their log-probability is
    recorded per row in STOCHASTIC mode and they block gradients in both
    modes. `rng_seed` is needed only when some stochastic node is drawn.
    `params` is a `Binding` or a mapping, bound on entry. With `validate`,
    the first non-finite entry in topological order raises `NonFiniteError`
    naming its node and row; bound inputs and computed values are checked on
    every pass, parameters once per binding (see the module docstring).

    `reuse` is an earlier trace of this graph over the same inputs and
    parameters whose values at the forced nodes are the forced ones: every
    node that no free stochastic node (one not in `forced`) reaches takes
    its value from it, unchecked, and a forced node among them also its
    layer, so only what the free nodes change is computed again.
    """
    inputs = _rowed(graph, {**graph.constants, **(inputs or {})}, "input")
    params = bind(graph, params)
    forced = _rowed(graph, forced, "forced value for node")
    for fid in forced:
        if graph.nodes[fid].kind != Kind.STOCHASTIC:
            raise ValueError(f"forced value for non-stochastic node {fid}")
    if mode == Mode.MEAN_FIELD and rng_seed is not None:
        raise ValueError("mean-field evaluation takes no rng seed")
    drawn = [graph.nodes[i] for i in graph.stochastic_ids if i not in forced]
    u = None  # the pass's uniforms: one row per seed, split over `drawn` in order
    if mode == Mode.STOCHASTIC and drawn:
        if rng_seed is None:
            raise ValueError(f"rng_seed required to draw nodes {[n.id for n in drawn]}")
        seeds = [rng_seed] if np.ndim(rng_seed) == 0 else rng_seed
        rows = len(seeds)
        group, source = _pass_rows(("input", inputs))
        frows, fsource = _pass_rows(("forced value for node", forced))
        if frows not in (1, rows):  # name the forced value below
            group, source = frows, fsource
        if group > rows or rows % group or frows not in (1, rows):
            raise ValueError(f"cannot draw nodes {[n.id for n in drawn]} from {rows} "
                             "seeds" + (f": {source} has {group} rows" if source else ""))
        u = _rng.uniforms(seeds, sum(_SAMPLERS[n.op].layer.uniforms(n.shape[0], n.k)
                                     for n in drawn))
    else:
        rows = group = _pass_rows(("input", inputs), ("forced value for node", forced))[0]
    # grouped input rows: a value with `group` rows serves `r` pass rows each
    grouped = 1 < group < rows
    r = rows // group
    wide: dict[int, np.ndarray] = {}  # grouped values repeated to the pass's rows
    fresh = None  # with `reuse`: the nodes some free stochastic node reaches
    if reuse is not None:
        if reuse.graph is not graph:
            raise ValueError("reused trace is of another graph")
        fresh = graph.liveness([i for i in graph.stochastic_ids if i not in forced],
                               frozenset(), True)

    n = len(graph.nodes)
    values: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    layers: dict[int, BernoulliLayer | CategoricalLayer] = {}
    logprob = np.zeros(rows)
    barriers: set[int] = set()
    used = 0  # uniforms taken by the nodes drawn so far

    with np.errstate(all="ignore"):
        for node in graph.nodes:
            k = node.kind
            check = validate
            if fresh is not None and not fresh[node.id]:
                v = reuse.values[node.id]
                if k == Kind.STOCHASTIC:  # forced, and pinned to the reused value
                    layer = layers[node.id] = reuse.layers[node.id]
                    if mode == Mode.STOCHASTIC:
                        logprob += layer.log_prob(v, checked=True)
                    barriers.add(node.id)
                check = False
            elif k == Kind.INPUT or k == Kind.PARAMETER:
                v = inputs.get(node.id) if k == Kind.INPUT else params.get(node.id)
                if v is None:
                    raise ValueError(f"unbound {k.name.lower()} {node.name or node.id!r}")
                if k == Kind.PARAMETER:
                    if v.shape != node.shape:
                        raise ValueError(
                            f"parameter {node.id}: bound shape {v.shape} != {node.shape}")
                    v = v[None]
                    if check and node.id not in params.finite:
                        if not np.isfinite(v).all():
                            raise NonFiniteError(node.id, 0)
                        params.finite.add(node.id)
                    check = False
            elif k == Kind.DETERMINISTIC:
                vals = values
                if grouped and len(node.parents) > 1:
                    lens = [len(values[q]) for q in node.parents]
                    if group in lens and rows in lens:  # read the grouped parents repeated
                        vals = list(values)
                        for q, m in zip(node.parents, lens):
                            if m == group:
                                vals[q] = _widened(values, wide, q, r)
                v = _OPS[node.op].forward(node, vals)
            elif k == Kind.STOCHASTIC:
                # draws are 0/1, forced values are checked, and the mean of
                # finite logits is finite: only bound values and ops overflow
                check = False
                cls, logits = _SAMPLERS[node.op].layer, values[node.parents[0]]
                split = grouped and len(logits) == group
                if split and node.id in forced:  # forced values have 1 or `rows` rows
                    logits, split = _widened(values, wide, node.parents[0], r), False
                # a grouped draw's layer is `[group, 1, width]`: each row's
                # mean serves its r rows of uniforms; the trace keeps one
                # over the widened logits
                layer = layers[node.id] = cls(logits[:, None] if split else logits, node.k)
                if node.id in forced:
                    try:
                        v = layer.validate(forced[node.id])
                    except ValueError as err:
                        raise ValueError(f"forced value for node {node.id}: {err}") from None
                    if mode == Mode.STOCHASTIC:
                        logprob += layer.log_prob(v, checked=True)
                    barriers.add(node.id)
                elif mode == Mode.STOCHASTIC:
                    take = layer.uniforms(node.shape[0], node.k)
                    ut = u[:, used : used + take]
                    used += take
                    v = layer.sample(ut.reshape(group, r, take) if split else ut)
                    lp = layer.log_prob(v, checked=True)
                    if split:
                        v, lp = v.reshape(rows, -1), lp.reshape(rows)
                        layers[node.id] = cls(_widened(values, wide, node.parents[0], r), node.k)
                    logprob += lp
                    barriers.add(node.id)
                else:
                    v = layer.mean()
            else:  # COST: its parent's value, checked there
                v = values[node.parents[0]]
                check = False

            if check and not np.isfinite(v).all():
                bad = ~np.isfinite(v).reshape(len(v), -1).all(axis=1)
                row = int(np.argmax(bad))
                # a grouped value's row j first serves pass row j * r
                raise NonFiniteError(node.id, row * r if grouped and len(v) == group else row)
            values[node.id] = v

    if grouped:
        values = [_widened(values, wide, i, r) if len(v) == group else v
                  for i, v in enumerate(values)]
    return Trace(mode, values, layers, logprob, frozenset(barriers), graph)


def _widened(values: list, wide: dict, q: int, r: int) -> np.ndarray:
    """Grouped value `q` with each row repeated `r` times; made once per pass."""
    v = wide.get(q)
    if v is None:
        v = wide[q] = np.repeat(values[q], r, axis=0)
    return v


# -- reverse mode --------------------------------------------------------------


def _fit_rows(g: np.ndarray, rows: int, per_row: bool = False) -> np.ndarray:
    """An adjoint with its node's row count: summed over the rows when the
    node has one row (kept apart with `per_row`), and spread over them when
    only the adjoint has one."""
    if len(g) == rows or (per_row and len(g) > rows):
        return g
    if rows == 1:
        return g.sum(axis=0, keepdims=True)
    return np.broadcast_to(g, (rows,) + g.shape[1:])


def backward(
    graph: Graph,
    trace: Trace,
    seeds: dict[int, np.ndarray],
    stochastic_vjp=None,
    need=None,
    per_row: bool = False,
) -> list:
    """Reverse sweep from injected adjoints; returns the adjoint list, each
    with its node's rows (see the module docstring).

    A seed is in its node's shape (the same seed for every row) or has a
    leading row axis. With `per_row` no adjoint is summed over rows, so a
    parameter's holds one gradient per row, `[rows, *shape]`, and an affine
    weight's is kept as `RowFactors`: no `[rows, m, n]` array is built. A
    weight that some other op also reads, or that is itself computed, gets
    its rows' products formed.

    A stochastic node that is not a barrier passes its adjoint on through its
    layer's mean map. `stochastic_vjp(layer, value, adj) -> logit_adjoint`,
    when given, replaces the barrier behavior at drawn stochastic nodes; its
    arrays are `[rows, width]`. Both read the layer the trace holds.

    `need` lists the nodes whose adjoints the caller reads; None means every
    node. Only live nodes (see `Graph.liveness`) are swept, and a node skips
    the adjoint of each parent that is not live before computing it, so dead
    entries stay None (or hold just their seed). Every live adjoint is
    bitwise the same as in the full sweep: all its contributions come from
    live nodes, added in the same order.
    """
    n = len(graph.nodes)
    values = trace.values
    if len(values) != n:
        raise ValueError("trace does not cover the graph")
    if need is None:
        live = [True] * n
    else:
        live = graph.liveness(need, trace.barriers, stochastic_vjp is not None)
    adj: list = [None] * n
    for sid, sval in seeds.items():
        v = as_tensor(sval)
        if v.shape == graph.nodes[sid].shape:
            v = v[None]
        v = _fit_rows(v, len(values[sid]), per_row)
        adj[sid] = v if adj[sid] is None else adj[sid] + v

    def sampler_vjp(node, values, a, j):
        layer = trace.layers[node.id]
        if node.id in trace.barriers:
            return stochastic_vjp(layer, values[node.id], a)
        return layer.mean_vjp(a)

    with np.errstate(all="ignore"):
        for i in range(n - 1, -1, -1):
            a = adj[i]
            if a is None or not live[i]:
                continue
            node = graph.nodes[i]
            kind = node.kind
            if kind == Kind.DETERMINISTIC:
                vjp = _OPS[node.op].vjp
                if per_row:
                    vjp = _PER_ROW_VJPS.get(node.op, vjp)
                    if isinstance(a, RowFactors):  # a computed weight: its op reads rows
                        a = a.dense()
            elif kind == Kind.COST:
                vjp = _pass_vjp
            elif kind != Kind.STOCHASTIC:
                continue  # inputs and parameters pass nothing on
            elif i not in trace.barriers or stochastic_vjp is not None:
                vjp = sampler_vjp
            else:
                continue  # drawn sample: gradient stops here
            for j, q in enumerate(node.parents):
                if live[q]:
                    g = vjp(node, values, a, j)
                    if len(g) != len(values[q]):
                        g = _fit_rows(g, len(values[q]), per_row)
                    adj[q] = g if adj[q] is None else adj[q] + g
    return adj


def gradients(graph: Graph, cost, wrt, trace: Trace) -> dict[int, np.ndarray]:
    """d(cost)/d(node output) for each node in `wrt`, in the node's shape,
    summed over the trace's rows (the gradient of the rows' total cost).

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
        out[w] = g.sum(axis=0) if g is not None else np.zeros(graph.nodes[w].shape)
    return out
