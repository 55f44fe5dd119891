"""Build a small computation graph and walk through its evaluation modes.

The same graph supports three views: a mean-field pass that replaces each
sampling layer with its mean (fully differentiable), a stochastic pass that
draws hard 0/1 values (gradients stop at the draws), and forced evaluation
that pins chosen outcomes for enumeration-style work. Every value carries a
leading row axis: a draw is one row, and forcing B configurations at once
evaluates them as the B rows of one pass.
"""
import numpy as np

from muprop import Graph, Mode, backward, forward, gradients

g = Graph()
x = g.input((3,), "x")
w = g.parameter((2, 3), "w")
b = g.parameter((2,), "b", init="zeros")
h = g.bernoulli(g.affine(x, w, b))  # two binary units
v = g.parameter((2,), "v")
cost = g.cost(g.sum(g.square(g.mul(h, v))))

inputs = {"x": np.array([0.5, -1.0, 0.25])}
params = {
    "w": np.array([[0.8, -0.3, 0.1], [0.2, 0.5, -0.7]]),
    "b": np.zeros(2),
    "v": np.array([1.5, -2.0]),
}

print("mean-field: samples relax to their means, everything is differentiable")
mf = forward(g, inputs, params, mode=Mode.MEAN_FIELD)
print("  hidden means (one row):", np.round(mf.values[h][0], 4))
print("  cost:", round(mf.cost_value(cost), 6))
grads = gradients(g, cost, [w, v], mf)
print("  d cost / d v:", np.round(grads[v], 4))
print("  d cost / d w row 0:", np.round(grads[w][0], 4))

print("\nstochastic: hard samples, reproducible per seed")
for seed in (0, 1, 0):
    tr = forward(g, inputs, params, rng_seed=seed)
    print(f"  seed {seed}: h = {tr.values[h][0]}, cost = {tr.cost_value(cost):.4f}, "
          f"log p(h) = {tr.logprob[0]:.4f}")

tr = forward(g, inputs, params, rng_seed=0)
grads = gradients(g, cost, [w, v], tr)
print("  d cost / d w is zero past the draw:", np.all(grads[w] == 0.0))
print("  d cost / d v still flows:", np.round(grads[v], 4))

print("\nforced: pin the outcome to evaluate a chosen configuration")
tr = forward(g, inputs, params, forced={h: np.array([1.0, 0.0])})
print("  cost at h=[1,0]:", round(tr.cost_value(cost), 6))
print("  log p of that outcome:", round(float(tr.logprob[0]), 6))

print("\nforced rows: every configuration of h in one pass, one row each")
configs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
tr = forward(g, inputs, params, forced={h: configs})
print("  cost per row:", np.round(tr.values[cost], 6))
print("  probabilities sum to", round(float(np.exp(tr.logprob).sum()), 12))

print("\nadjoints from custom seeds (here: d of the hidden sum, not the cost)")
adj = backward(g, mf, {h: np.ones(2)})
print("  d sum(h_mean) / d b:", np.round(adj[b][0], 4))

print("\nfinite-difference check of the mean-field gradient in w[0,0]")
eps = 1e-6
for delta in (eps, -eps):
    p2 = dict(params, w=params["w"] + np.array([[delta, 0, 0], [0, 0, 0]]))
    val = forward(g, inputs, p2, mode=Mode.MEAN_FIELD).cost_value(cost)
    print(f"  cost at w[0,0]{delta:+.0e}: {val:.10f}")
fd = (forward(g, inputs, dict(params, w=params["w"] + np.array([[eps, 0, 0], [0, 0, 0]])),
              mode=Mode.MEAN_FIELD).cost_value(cost)
      - forward(g, inputs, dict(params, w=params["w"] - np.array([[eps, 0, 0], [0, 0, 0]])),
                mode=Mode.MEAN_FIELD).cost_value(cost)) / (2 * eps)
exact = gradients(g, cost, [w], forward(g, inputs, params, mode=Mode.MEAN_FIELD))[w][0, 0]
print(f"  central difference {fd:.8f} vs adjoint {exact:.8f}")
