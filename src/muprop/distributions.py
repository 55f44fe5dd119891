"""Discrete sampling layers parameterized by logits, one class per family.

Both layers expose `mean`, `sample`, `log_prob`, `score` (the gradient of the
log-density with respect to the logits, which has the closed form value - mean
for both families), `mean_vjp` (the adjoint through the mean map), `half`
(the rescaled-derivative logit adjoint), and the enumeration `support` /
`support_size`, which depend only on the logits' shape. Logits are the only
parameterization; probabilities never appear in interfaces.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .numerics import as_tensor, logsumexp, sigmoid, softmax, softmax_adjoint, softplus


@dataclass(frozen=True)
class BernoulliLayer:
    """Vector of independent binary units, P(x_i = 1) = sigmoid(logits_i)."""

    logits: np.ndarray  # shape [n]

    def mean(self) -> np.ndarray:
        return sigmoid(self.logits)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(self.logits.shape)
        return (u < self.mean()).astype(np.float64)

    def validate(self, value: np.ndarray) -> np.ndarray:
        value = as_tensor(value)
        if value.shape != self.logits.shape:
            raise ValueError(
                f"value shape {value.shape} != logits shape {self.logits.shape}"
            )
        if not np.all((value == 0.0) | (value == 1.0)):
            raise ValueError("binary layer value must be exactly 0/1")
        return value

    def log_prob(self, value: np.ndarray, checked: bool = False) -> float:
        if not checked:
            value = self.validate(value)
        # sum of v*log(m) + (1-v)*log(1-m), folded into one softplus per unit
        return float(-np.sum(softplus((1.0 - 2.0 * value) * self.logits)))

    def score(self, value: np.ndarray, checked: bool = False) -> np.ndarray:
        if not checked:
            value = self.validate(value)
        return value - self.mean()

    def mean_vjp(self, adj: np.ndarray) -> np.ndarray:
        m = self.mean()
        return adj * m * (1.0 - m)

    def half(self, value: np.ndarray, adj: np.ndarray, clamp: float) -> tuple[np.ndarray, int]:
        """adj * sigmoid'(l) / (2 P(x)) per unit, and the count of P(x) below `clamp`."""
        m = self.mean()
        p = np.where(value == 1.0, m, 1.0 - m)
        return adj * m * (1.0 - m) / (2.0 * np.maximum(p, clamp)), int(np.count_nonzero(p < clamp))

    @staticmethod
    def support_size(shape) -> int:
        return 2 ** shape[0]

    @staticmethod
    def support(shape) -> list[np.ndarray]:
        """Every value, in binary counting order (unit 0 is the lowest bit)."""
        return [np.array(bits[::-1]) for bits in itertools.product((0.0, 1.0), repeat=shape[0])]


@dataclass(frozen=True)
class CategoricalLayer:
    """Rows of independent k-way units; values are one-hot rows.

    P(unit u takes category j) = softmax(logits[u])_j. Sampling inverts the
    per-row CDF so a single uniform draw per unit decides the category.
    """

    logits: np.ndarray  # shape [u, k]

    def mean(self) -> np.ndarray:
        return softmax(self.logits, axis=-1)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        probs = self.mean()
        cdf = np.cumsum(probs, axis=-1)
        r = rng.random((self.logits.shape[0], 1))
        idx = np.minimum((cdf <= r).sum(axis=-1), self.logits.shape[1] - 1)
        return np.eye(self.logits.shape[1])[idx]

    def validate(self, value: np.ndarray) -> np.ndarray:
        value = as_tensor(value)
        if value.shape != self.logits.shape:
            raise ValueError(
                f"value shape {value.shape} != logits shape {self.logits.shape}"
            )
        one_hot = np.all((value == 0.0) | (value == 1.0)) and np.all(
            value.sum(axis=-1) == 1.0
        )
        if not one_hot:
            raise ValueError("categorical layer value must be one-hot rows")
        return value

    def log_prob(self, value: np.ndarray, checked: bool = False) -> float:
        if not checked:
            value = self.validate(value)
        picked = np.sum(self.logits * value, axis=-1)
        return float(np.sum(picked - logsumexp(self.logits, axis=-1)))

    def score(self, value: np.ndarray, checked: bool = False) -> np.ndarray:
        if not checked:
            value = self.validate(value)
        return value - self.mean()

    def mean_vjp(self, adj: np.ndarray) -> np.ndarray:
        return softmax_adjoint(self.mean(), adj, self.logits.shape[-1])

    def half(self, value: np.ndarray, adj: np.ndarray, clamp: float) -> tuple[np.ndarray, int]:
        """[adj . (x - 1/k)] * dP(x)/dl / P(x) per unit, and the count of P(x) below `clamp`."""
        probs = self.mean()
        coeff = np.sum(adj * (value - 1.0 / self.logits.shape[-1]), axis=-1, keepdims=True)
        sel_p = np.sum(probs * value, axis=-1, keepdims=True)  # P(x), per unit
        jac_sel = sel_p * (value - probs)  # d P(x) / d logits, per unit
        return coeff * jac_sel / np.maximum(sel_p, clamp), int(np.count_nonzero(sel_p < clamp))

    @staticmethod
    def support_size(shape) -> int:
        return shape[1] ** shape[0]

    @staticmethod
    def support(shape) -> list[np.ndarray]:
        """Every value, in `itertools.product` order over the units' categories."""
        units, k = shape
        eye = np.eye(k)
        return [eye[list(idx)] for idx in itertools.product(range(k), repeat=units)]
