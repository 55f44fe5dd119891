"""Sampling layers: densities, scores, enumeration, mean-map adjoints, moment checks."""
import math

import mpmath
import numpy as np
import pytest

from muprop.distributions import BernoulliLayer, CategoricalLayer
from muprop.estimators import HALF_CLAMP
from muprop.graph import _SAMPLERS
from muprop.numerics import sigmoid
from muprop.rng import stream

mpmath.mp.dps = 40


def test_bernoulli_log_prob_reference_values():
    layer = BernoulliLayer(np.array([2.0, -1.0]))
    # 50-digit reference: log sigma(2) + log(1 - sigma(-1))
    want = float(mpmath.log(mpmath.mpf(1) / (1 + mpmath.exp(-2)))
                 + mpmath.log(1 - mpmath.mpf(1) / (1 + mpmath.exp(1))))
    got = layer.log_prob(np.array([1.0, 0.0]))
    assert got == pytest.approx(want, rel=1e-14)
    # symmetric point: every outcome of n fair units has probability 2^-n
    fair = BernoulliLayer(np.zeros(3))
    for v in fair.support(3):
        assert fair.log_prob(v) == pytest.approx(3 * math.log(0.5), rel=1e-15)


def test_bernoulli_log_prob_stays_finite_in_the_tails():
    layer = BernoulliLayer(np.array([800.0, -800.0]))
    lp = layer.log_prob(np.array([0.0, 1.0]))  # two very improbable outcomes
    assert np.isfinite(lp) and lp == pytest.approx(-1600.0, rel=1e-12)
    assert layer.log_prob(np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-300)


def test_bernoulli_validation():
    layer = BernoulliLayer(np.zeros(2))
    with pytest.raises(ValueError, match="0/1"):
        layer.log_prob(np.array([0.5, 0.0]))
    with pytest.raises(ValueError, match="shape"):
        layer.score(np.zeros(3))


def test_categorical_log_prob_and_validation():
    logits = np.array([0.0, 1.0, -1.0, 2.0, 0.0, 0.0])
    layer = CategoricalLayer(logits, 3)
    v = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.0])
    want = float(
        mpmath.log(mpmath.exp(1) / (1 + mpmath.exp(1) + mpmath.exp(-1)))
        + mpmath.log(mpmath.exp(2) / (mpmath.exp(2) + 2))
    )
    assert layer.log_prob(v) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError, match="one-hot"):
        layer.log_prob(np.array([1.0, 1.0, 0.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="shape"):
        layer.log_prob(np.ones(3))
    # a value in the [units, k] layout is not in the node's shape
    with pytest.raises(ValueError, match="shape"):
        layer.log_prob(v.reshape(2, 3))


def test_scores_have_zero_mean_over_the_support():
    """E[d log p / d logits] = 0 is what makes score-weighted estimates work."""
    rng = np.random.default_rng(11)
    for _ in range(5):
        layer = BernoulliLayer(rng.normal(size=3))
        total = np.zeros(3)
        for v in layer.support(3):
            total += math.exp(layer.log_prob(v)) * layer.score(v)
        assert np.allclose(total, 0.0, atol=1e-14)
    for _ in range(5):
        layer = CategoricalLayer(rng.normal(size=6), 3)
        total = np.zeros(6)
        for v in layer.support(6, 3):
            total += math.exp(layer.log_prob(v)) * layer.score(v)
        assert np.allclose(total, 0.0, atol=1e-14)


def test_support_probabilities_sum_to_one():
    layer = BernoulliLayer(np.array([0.7, -0.4, 1.3]))
    supp = layer.support(3)
    assert len(supp) == 8 and len({v.tobytes() for v in supp}) == 8
    total = sum(math.exp(layer.log_prob(v)) for v in supp)
    assert total == pytest.approx(1.0, rel=1e-14)

    cat = CategoricalLayer(np.array([0.2, -1.0, 0.5, 0.0, 0.3, -0.3]), 3)
    supp = cat.support(6, 3)
    assert len(supp) == 9 and len({v.tobytes() for v in supp}) == 9
    total = sum(math.exp(cat.log_prob(v)) for v in supp)
    assert total == pytest.approx(1.0, rel=1e-14)


def test_sampling_moments_track_means():
    gen = stream(123)
    layer = BernoulliLayer(np.array([0.9, -0.6, 0.0, 2.2]))
    n = 2000
    draws = np.stack([layer.sample(gen.random(layer.uniforms(4))) for _ in range(n)])
    assert set(np.unique(draws)) <= {0.0, 1.0}
    m = layer.mean()
    se = np.sqrt(m * (1 - m) / n)
    assert np.all(np.abs(draws.mean(axis=0) - m) < 4 * se + 1e-9)

    cat = CategoricalLayer(np.array([1.0, 0.0, -1.0]), 3)
    draws = np.stack([cat.sample(gen.random(cat.uniforms(3, 3))) for _ in range(n)])
    assert np.all(draws.sum(axis=-1) == 1.0)
    m = cat.mean()
    se = np.sqrt(m * (1 - m) / n)
    assert np.all(np.abs(draws.mean(axis=0) - m) < 4 * se)


def test_categorical_sampling_covers_all_categories():
    gen = stream(5)
    cat = CategoricalLayer(np.zeros(4), 4)
    counts = np.zeros(4)
    for _ in range(400):
        counts += cat.sample(gen.random(cat.uniforms(4, 4)))
    assert np.all(counts > 50)  # fair 4-way units leave no category empty


def test_mean_matches_sigmoid_and_softmax():
    logits = np.array([-3.0, 0.0, 3.0])
    assert np.allclose(BernoulliLayer(logits).mean(), sigmoid(logits))
    cat = CategoricalLayer(np.array([0.0, math.log(3.0)]), 2)
    assert np.allclose(cat.mean(), [0.25, 0.75])


# One case per sampling family: node-shaped logits and the node's `k`, then
# `half` hand values (k, logits, value, adjoint, want, clamped units). The last
# unit of each is an outcome too rare for its probability to survive the clamp.
FAMILY_CASES = {
    "bernoulli": (np.array([0.7, -0.4, 1.3]), None,
                  (None, [0.0, 0.0, 40.0], [1.0, 1.0, 0.0], [3.0, 2.0, 1.0], [0.75, 0.5, 0.0], 1)),
    "categorical": (np.array([0.2, -1.0, 0.5, 0.0, 0.3, -0.3]), 3,
                    (2, [0.0, 0.0, 40.0, -40.0], [1.0, 0.0, 0.0, 1.0],
                     [1.0, 0.0, 1.0, 0.0], [0.25, -0.25, 0.0, 0.0], 1)),
}


@pytest.mark.parametrize("op", sorted(_SAMPLERS))
def test_family_protocol(op):
    """The rules every sampling family provides, checked on its layer class."""
    assert op in FAMILY_CASES, f"sampling family {op!r} has no case in FAMILY_CASES"
    logits, k, (h_k, h_logits, h_value, h_adj, h_want, h_clamped) = FAMILY_CASES[op]
    cls = _SAMPLERS[op].layer
    layer = cls(logits, k)
    shape = logits.shape

    # mean_vjp against central differences of <adjoint, mean()>
    adj = np.random.default_rng(7).normal(size=shape)
    step = 1e-6
    fd = np.zeros(shape)
    for idx in np.ndindex(shape):
        up, dn = logits.copy(), logits.copy()
        up[idx] += step
        dn[idx] -= step
        fd[idx] = np.sum(adj * (cls(up, k).mean() - cls(dn, k).mean())) / (2 * step)
    assert np.allclose(layer.mean_vjp(adj), fd, rtol=1e-6, atol=1e-8)

    # the support: distinct node-shaped values, sized from the width and k
    # alone, total probability one, scores averaging to zero
    supp = cls.support(shape[0], k)
    assert len(supp) == cls.support_size(shape[0], k) == len({v.tobytes() for v in supp})
    assert all(v.shape == shape for v in supp)
    probs = [math.exp(layer.log_prob(v)) for v in supp]
    assert sum(probs) == pytest.approx(1.0, rel=1e-14)
    mean_score = sum(p * layer.score(v) for p, v in zip(probs, supp))
    assert np.allclose(mean_score, 0.0, atol=1e-14)

    got, clamped = cls(np.array(h_logits), h_k).half(np.array(h_value), np.array(h_adj), HALF_CLAMP)
    assert np.allclose(got, h_want, atol=1e-15) and clamped == h_clamped
