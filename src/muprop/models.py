"""Model builders: structured output prediction and sigmoid belief networks.

Architectures are given as strings like "392-200-200-392" (dims separated by
dashes). A hidden token "200x10" means 200 categorical units over 10 choices;
plain hidden tokens are Bernoulli layers. Builders return graphs whose `meta`
holds the `task` ("structured_prediction" or "variational"), the `cost` node
and one more handle: the structured predictor's `logp_nodes` (each stack's
log p(y | h), which `evaluate_nll` reads) or the variational model's
`bound_node` (the bound, minus the cost).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle as _oracle
from . import rng as _rng
from .graph import Graph, Mode, bind, forward
from .numerics import logsumexp


@dataclass(frozen=True)
class ArchToken:
    units: int
    k: int = 0  # 0 = plain width or Bernoulli layer; >0 = categorical

    @property
    def width(self) -> int:
        return self.units * self.k if self.k else self.units


def parse_arch(text: str) -> tuple[ArchToken, ...]:
    toks = []
    for part in text.strip().split("-"):
        if "x" in part:
            u, _, k = part.partition("x")
            tok = ArchToken(int(u), int(k))
            if tok.k < 2:
                raise ValueError(f"categorical token {part!r} needs k >= 2")
        else:
            tok = ArchToken(int(part))
        if tok.units < 1:
            raise ValueError(f"bad layer size in {text!r}")
        toks.append(tok)
    if len(toks) < 2:
        raise ValueError(f"architecture {text!r} needs at least two layers")
    return tuple(toks)


def _sample(g: Graph, logits, k: int = 0):
    """A stochastic layer: categorical over groups of k logits, else Bernoulli."""
    return g.categorical(logits, k=k) if k else g.bernoulli(logits)


def _log_prob(g: Graph, value, logits, k: int = 0):
    """Scalar log-probability of `value` under `_sample(g, logits, k)`.

    sum(v * l) minus the log-normalizer: sum(softplus(l)) for Bernoulli
    units, the sum of per-group logsumexps for categorical ones.
    """
    picked = g.sum(g.mul(value, logits))
    norm = g.logsumexp(logits, k=k) if k else g.softplus(logits)
    return g.sub(picked, g.sum(norm))


def build_structured_predictor(arch: str, m: int = 1) -> Graph:
    """Predict the target half from the input half through stochastic layers.

    The cost is -log((1/m) sum_s p(y | h_s)) with the average taken inside the
    graph over m independent hidden configurations sharing one set of weights.
    """
    if m < 1:
        raise ValueError("need m >= 1 samples")
    toks = parse_arch(arch)
    if toks[0].k or toks[-1].k:
        raise ValueError("input and output widths must be plain sizes")
    in_dim, out_dim = toks[0].units, toks[-1].units
    hidden = toks[1:-1]
    if not hidden:
        raise ValueError("need at least one stochastic hidden layer")

    g = Graph()
    x = g.input((in_dim,), "x")
    y = g.input((out_dim,), "y")
    layer_params = []
    prev_w = in_dim
    for li, tok in enumerate(hidden):
        w = g.parameter((tok.width, prev_w), f"w{li}")
        b = g.parameter((tok.width,), f"b{li}", init="zeros")
        layer_params.append((w, b))
        prev_w = tok.width
    w_out = g.parameter((out_dim, prev_w), "w_out")
    b_out = g.parameter((out_dim,), "b_out", init="zeros")

    logps = []
    for _ in range(m):
        h = x
        for tok, (w, b) in zip(hidden, layer_params):
            h = _sample(g, g.affine(h, w, b), tok.k)
        ylogits = g.affine(h, w_out, b_out)
        logps.append(_log_prob(g, y, ylogits))

    stack = g.concat(*logps)
    lse = g.sum(g.logsumexp(stack, k=m))
    cost = g.cost(g.sub(g.constant(math.log(m), "log_m"), lse))
    g.meta.update(task="structured_prediction", cost=cost, logp_nodes=tuple(logps))
    return g


@dataclass(frozen=True)
class VariationalModel:
    graph: Graph
    cost: int
    latents: tuple
    generative: tuple  # parameter ids of p
    inference: tuple  # parameter ids of q


def build_sbn_variational(arch: str) -> VariationalModel:
    """Layered belief net trained through its variational bound.

    `arch` lists latent layers top-down with the observation width last, e.g.
    "200-200-784". Inference runs bottom-up from the observation, one stochastic
    layer per latent; the generative side scores the sampled latents top-down
    from a learned prior. The cost is log q(h|x) - log p(x,h), whose expectation
    under q is the negative bound.
    """
    toks = parse_arch(arch)
    if toks[-1].k:
        raise ValueError("observation width must be a plain size")
    obs_dim = toks[-1].units
    latent_toks = toks[:-1]  # top-down
    if not latent_toks:
        raise ValueError("need at least one latent layer")

    g = Graph()
    x = g.input((obs_dim,), "x")

    # inference: bottom-up, h1 from x, h2 from h1, ...
    bottom_up = list(reversed(latent_toks))
    latents = []
    q_terms = []
    inference = []
    h = x
    prev_w = obs_dim
    for li, tok in enumerate(bottom_up):
        w = g.parameter((tok.width, prev_w), f"q_w{li}")
        b = g.parameter((tok.width,), f"q_b{li}", init="zeros")
        inference += [w, b]
        logits = g.affine(h, w, b)
        h = _sample(g, logits, tok.k)
        latents.append(h)
        q_terms.append(_log_prob(g, h, logits, tok.k))
        prev_w = tok.width

    # generative: prior over the top latent, then top-down conditionals, then x
    top_tok = bottom_up[-1]
    prior = g.parameter((top_tok.width,), "p_prior", init="zeros")
    generative = [prior]
    p_terms = [_log_prob(g, latents[-1], prior, top_tok.k)]
    for li in range(len(bottom_up) - 1, 0, -1):
        above, below = bottom_up[li], bottom_up[li - 1]
        w = g.parameter((below.width, above.width), f"p_w{li}")
        b = g.parameter((below.width,), f"p_b{li}", init="zeros")
        generative += [w, b]
        p_terms.append(_log_prob(g, latents[li - 1], g.affine(latents[li], w, b), below.k))
    w = g.parameter((obs_dim, bottom_up[0].width), "p_w0")
    b = g.parameter((obs_dim,), "p_b0", init="zeros")
    generative += [w, b]
    p_terms.append(_log_prob(g, x, g.affine(latents[0], w, b)))

    total_q = q_terms[0]
    for t in q_terms[1:]:
        total_q = g.add(total_q, t)
    total_p = p_terms[0]
    for t in p_terms[1:]:
        total_p = g.add(total_p, t)
    bound = g.sub(total_p, total_q)
    cost = g.cost(g.sub(total_q, total_p))
    g.meta.update(task="variational", cost=cost, bound_node=bound)
    return VariationalModel(
        graph=g,
        cost=cost,
        latents=tuple(latents),
        generative=tuple(generative),
        inference=tuple(inference),
    )


def init_params(graph: Graph, seed: int) -> dict[str, np.ndarray]:
    """Fan-in-scaled uniform weights, zeros elsewhere, keyed by parameter name."""
    out = {}
    for pid in graph.param_ids:
        node = graph.nodes[pid]
        key = node.name if node.name else pid
        if node.init == "zeros":
            out[key] = np.zeros(node.shape)
        else:
            fan_in = node.shape[-1] if node.shape else 1
            scale = 1.0 / math.sqrt(max(1, fan_in))
            out[key] = _rng.stream(seed, pid).uniform(-scale, scale, node.shape)
    return out


def evaluate_nll(
    graph_or_model,
    params,
    data,
    n_samples: int = 100,
    seed: int = 0,
) -> float:
    """Average per-example negative log likelihood estimate over a dataset.

    Structured prediction: importance-free multi-sample estimate
    -log((1/S) sum_s p(y|h_s)) with S = `n_samples` hidden draws. Variational
    models: the Monte Carlo average of the negative bound.

    An example takes ceil(S / m) rounds of the pass, where m is the number
    of values one pass yields (the structured predictor's m stacks, else 1),
    and keeps its first S values. Round r of example i is one row (see
    `graph` for rows), drawn from seed `rng.fold(seed, i, r)`. A stochastic
    pass holds as many whole examples as `oracle._block_rows` rows take,
    each bound once as an input row that serves its rounds' rows (grouped
    input rows, see `graph`); an example whose rounds exceed a block runs
    them in near-equal passes of at most a block, with its input as one row.
    """
    graph = graph_or_model.graph if isinstance(graph_or_model, VariationalModel) else graph_or_model
    if n_samples < 1:
        raise ValueError("need at least one evaluation sample")
    # what one pass yields, and how the examples' n_samples values each
    # reduce to a per-example NLL
    if graph.meta["task"] == "structured_prediction":
        X, Y = data
        reads = graph.meta["logp_nodes"]  # the m log p(y | h_s) of the pass

        def reduce(vals):  # -log_mean_exp of each row
            return (-(logsumexp(vals, axis=1) - np.log(n_samples))).tolist()
    else:
        X, Y = (data[0] if isinstance(data, tuple) else data), None
        reads = (graph.meta["cost"],)

        def reduce(vals):
            return [sum(v.tolist()) / n_samples for v in vals]
    bound = {"x": np.asarray(X)} if Y is None else {"x": np.asarray(X), "y": np.asarray(Y)}
    if len(X) == 0:
        raise ValueError("empty evaluation set")
    rounds = -(-n_samples // len(reads))
    vals = np.empty((len(X) * rounds, len(reads)))  # row i * rounds + r: example i, round r
    block = _oracle._block_rows(graph)
    # each pass: examples lo..hi-1, each at the rounds in `rs`
    if rounds <= block:  # whole examples
        per = block // rounds
        passes = [(lo, min(lo + per, len(X)), np.arange(rounds)) for lo in range(0, len(X), per)]
    else:  # each example in near-equal parts of at most a block
        passes = [(i, i + 1, rs) for i in range(len(X))
                  for rs in np.array_split(np.arange(rounds), -(-rounds // block))]
    params = bind(graph, params)
    for lo, hi, rs in passes:
        example, r = np.repeat(np.arange(lo, hi), len(rs)), np.tile(rs, hi - lo)
        tr = forward(graph, {k: v[lo:hi] for k, v in bound.items()}, params,
                     mode=Mode.STOCHASTIC, rng_seed=_rng.fold(seed, example, r), validate=False)
        vals[example * rounds + r] = np.column_stack([tr.values[n] for n in reads])
    vals = vals.reshape(len(X), rounds * len(reads))[:, :n_samples]
    return sum(reduce(vals)) / len(X)
