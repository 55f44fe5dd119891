"""Shared test fixtures: canonical graphs, an independent closed-form evaluator
for Bernoulli chains, finite-difference utilities, and the environment child
processes import `muprop` from.

The chain evaluator reimplements the layered estimators with plain numpy and
no engine calls, so engine results can be checked against a second derivation.
"""
from __future__ import annotations

import itertools
import os
from pathlib import Path

import numpy as np

import muprop
from muprop import Graph, Mode, forward, gradients
from muprop.oracle import config_blocks


def child_env():
    """Environment in which a child process imports the `muprop` under test.

    The parent directory of the imported package goes first on PYTHONPATH as
    an absolute path, so the child finds it from any working directory.
    """
    src = str(Path(muprop.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def config_rows(graph):
    """Every joint configuration {stochastic node id: value}, one by one: the
    rows of `config_blocks`, in order."""
    for _start, forced in config_blocks(graph):
        for i in range(len(forced[graph.stochastic_ids[0]])):
            yield {sid: forced[sid][i] for sid in graph.stochastic_ids}


def sig(z):
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))


def single_unit(power: int = 2):
    """One Bernoulli unit driven by a scalar logit parameter; cost = x**power."""
    g = Graph()
    th = g.parameter((), "th", init="zeros")
    h = g.bernoulli(g.concat(th))
    y = g.sum(h)
    t = y
    for _ in range(power - 1):
        t = g.mul(t, y)
    c = g.cost(t)
    return g, th, c


# -- independent closed-form evaluation of Bernoulli chains ------------------------


def chain_forward_stats(layout: dict, config: list):
    """Per-layer anchors, sampled logits, and derivative chains for one config.

    `layout` comes from the chain builder: weights [(W, b)], cost constants a, t,
    input x. `config` lists the sampled 0/1 vector per layer, bottom to top.
    """
    weights = layout["weights"]
    a, t, x0 = layout["a"], layout["t"], layout["x"]
    n = len(weights)
    xbar = [np.asarray(x0, dtype=np.float64)]
    zbar = []
    for W, b in weights:
        z = W @ xbar[-1] + b
        zbar.append(z)
        xbar.append(sig(z))
    z_s = []
    parent = np.asarray(x0, dtype=np.float64)
    for (W, b), smp in zip(weights, config):
        z_s.append(W @ parent + b)
        parent = np.asarray(smp, dtype=np.float64)

    def f(v):
        return float(np.sum((a * v - t) ** 2))

    def fprime(v):
        return 2.0 * a * (a * v - t)

    # D[l] = d f(xbar_n) / d xbar_l, rows, 1-indexed by layer
    D = [None] * (n + 1)
    D[n] = fprime(xbar[n])
    for l in range(n - 1, 0, -1):
        s = sig(zbar[l])  # sigma'(zbar_{l+1}) = s(1-s) with zbar list 0-indexed
        J = (s * (1.0 - s))[:, None] * weights[l][0]
        D[l] = D[l + 1] @ J
    return {
        "xbar": xbar,
        "zbar": zbar,
        "z_s": z_s,
        "D": D,
        "f": f,
        "fprime": fprime,
        "f_val": f(np.asarray(config[-1], dtype=np.float64)),
        "f_bar": f(xbar[n]),
        "n": n,
    }


def chain_closed_form(layout: dict, config: list, form: str) -> dict:
    """Gradient of one estimator draw for a Bernoulli chain, engine-free.

    form "per_node": every layer's score is weighted by the full-cost Taylor
    residual anchored at that layer. form "layered": the residual telescopes
    through per-layer linearizations, so layer l's score collects the summed
    curvature corrections of all layers at or above it. Both share the same
    analytic mean term.
    """
    st = chain_forward_stats(layout, config)
    n, D = st["n"], st["D"]
    xbar, zbar, z_s = st["xbar"], st["zbar"], st["z_s"]
    weights = layout["weights"]
    samples = [np.asarray(c, dtype=np.float64) for c in config]

    if form == "per_node":
        coef = [
            st["f_val"] - st["f_bar"] - float(D[l] @ (samples[l - 1] - xbar[l]))
            for l in range(1, n + 1)
        ]
    elif form == "layered":
        s_k = []
        for k in range(1, n):
            sb = sig(zbar[k])
            J_next = (sb * (1.0 - sb))[:, None] * weights[k][0]
            R = sig(z_s[k]) - xbar[k + 1] - J_next @ (samples[k - 1] - xbar[k])
            s_k.append(float(D[k + 1] @ R))
        s_k.append(st["f_val"] - st["f_bar"] - float(D[n] @ (samples[n - 1] - xbar[n])))
        coef = [sum(s_k[l - 1 :]) for l in range(1, n + 1)]
    else:
        raise ValueError(form)

    grads = {}
    for l in range(1, n + 1):
        mu = sig(z_s[l - 1])
        score = samples[l - 1] - mu
        mean_term = D[l] * mu * (1.0 - mu)
        seed = score * coef[l - 1] + mean_term
        parent = layout["x"] if l == 1 else samples[l - 2]
        grads[f"w{l-1}"] = np.outer(seed, parent)
        grads[f"b{l-1}"] = seed
    return grads


def chain_config_prob(layout: dict, config: list) -> float:
    """Joint probability of a chain configuration, engine-free."""
    logp = 0.0
    parent = np.asarray(layout["x"], dtype=np.float64)
    for (W, b), smp in zip(layout["weights"], config):
        z = W @ parent + b
        v = np.asarray(smp, dtype=np.float64)
        logp -= float(np.sum(np.logaddexp(0.0, (1.0 - 2.0 * v) * z)))
        parent = v
    return float(np.exp(logp))


def chain_configs(layout: dict):
    dims = [len(b) for _W, b in layout["weights"]]
    spaces = [
        [np.array(bits, dtype=np.float64) for bits in itertools.product((0.0, 1.0), repeat=d)]
        for d in dims
    ]
    return itertools.product(*spaces)


# -- finite differences on deterministic evaluations --------------------------------


def mf_fd_max_err(graph, cost, inputs, params, step: float = 1e-5) -> float:
    """Central differences of the mean-propagation cost vs one adjoint sweep."""
    cost = graph.node_id(cost)
    trace = forward(graph, inputs, params, mode=Mode.MEAN_FIELD)
    grads = gradients(graph, cost, graph.param_ids, trace)
    bound = {graph.node_id(k): np.array(v, dtype=np.float64) for k, v in (params or {}).items()}

    def cost_at():
        named = {graph.nodes[w].name or w: v for w, v in bound.items()}
        tr = forward(graph, inputs, named, mode=Mode.MEAN_FIELD, validate=False)
        return tr.cost_value(cost)

    worst = 0.0
    for w in graph.param_ids:
        base = bound[w]
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = base[idx]
            base[idx] = orig + step
            up = cost_at()
            base[idx] = orig - step
            dn = cost_at()
            base[idx] = orig
            fd = (up - dn) / (2.0 * step)
            g = float(grads[w][idx])
            worst = max(worst, abs(g - fd) / max(1e-8, abs(fd)))
    return worst


def det_graph(seed: int):
    """Random stochastic-free graph exercising the deterministic op set."""
    r = np.random.default_rng(seed)
    g = Graph()
    d = int(r.integers(2, 5))
    x = g.input((d,), "x")
    inputs = {"x": r.uniform(-1.0, 1.0, d)}
    params = {}

    def fresh(name, shape):
        params[name] = r.uniform(-0.9, 0.9, shape)
        return g.parameter(shape, name)

    h = x
    width = d
    for li in range(int(r.integers(1, 4))):
        out_w = int(r.integers(2, 5))
        w = fresh(f"w{li}", (out_w, width))
        b = fresh(f"b{li}", (out_w,))
        h = g.affine(h, w, b)
        act = r.choice(["tanh", "sigmoid", "softplus", "square", "none"])
        if act != "none":
            h = getattr(g, act)(h)
        if out_w % 2 == 0 and r.random() < 0.4:
            h = g.softmax(h, k=2)
        width = out_w
    if r.random() < 0.5 and width >= 2:
        h = g.concat(g.slice(h, 0, 1), g.slice(h, 1, width))
    extra = fresh("v", (width,))
    mixed = g.mul(h, extra)
    tail = g.logsumexp(mixed, k=width) if r.random() < 0.4 else g.mean(mixed)
    cost = g.cost(g.add(g.sum(g.square(h)), g.sum(tail)))
    return g, cost, inputs, params
