"""Discrete sampling layers parameterized by logits, one class per family.

Both layers expose `mean`, `sample`, `log_prob`, `score` (the gradient of the
log-density with respect to the logits, value - mean for both families),
`mean_vjp` (the adjoint through the mean map), `half` (the rescaled-derivative
logit adjoint), and the enumeration `support` / `support_size`, which depend
only on the node's width and group width `k`. Every array a layer takes or
returns is `[..., width]`: the node's 1-D shape after any leading axes, which
broadcast (the engine passes one row axis; see `graph` for rows). `log_prob`
returns one value per row. `sample` turns each row of uniforms (`uniforms`
per row, from the node's width and `k`) into that row's draw, so a pass of
many rows draws them all at once. `CategoricalLayer` groups the last axis
into units of `k` internally. A layer computes its mean at most once, on
first use, so `sample`, `score`, `mean_vjp` and `half` share it. `support`
returns every value of a node as the rows of one array.
"""
from __future__ import annotations

import numpy as np

from .numerics import as_tensor, logsumexp, sigmoid, softmax, softmax_adjoint, softplus


class _Layer:
    """Logits as `[..., width]`, and the group width `k` of a grouped family."""

    def __init__(self, logits: np.ndarray, k: int | None = None):
        self.logits = logits
        self.k = k
        self._mean: np.ndarray | None = None

    def _check_shape(self, value: np.ndarray) -> np.ndarray:
        value = as_tensor(value)
        if value.ndim != self.logits.ndim or value.shape[-1:] != self.logits.shape[-1:]:
            raise ValueError(f"value shape {value.shape} != logits shape {self.logits.shape}")
        return value


class BernoulliLayer(_Layer):
    """Vector of independent binary units, P(x_i = 1) = sigmoid(logits_i); ungrouped (`k` is None)."""

    def mean(self) -> np.ndarray:
        if self._mean is None:
            self._mean = sigmoid(self.logits)
        return self._mean

    def sample(self, u: np.ndarray) -> np.ndarray:
        """One draw per row of `u`, uniforms `[rows, width]`."""
        return (u < self.mean()).astype(np.float64)

    def validate(self, value: np.ndarray) -> np.ndarray:
        value = self._check_shape(value)
        if not np.all((value == 0.0) | (value == 1.0)):
            raise ValueError("binary layer value must be exactly 0/1")
        return value

    def log_prob(self, value: np.ndarray, checked: bool = False) -> np.ndarray:
        if not checked:
            value = self.validate(value)
        # sum of v*log(m) + (1-v)*log(1-m), folded into one softplus per unit
        return -np.sum(softplus((1.0 - 2.0 * value) * self.logits), axis=-1)

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
    def uniforms(width: int, k: int | None = None) -> int:
        """Uniforms one draw takes: one per unit."""
        return width

    @staticmethod
    def support_size(width: int, k: int | None = None) -> int:
        return 2 ** width

    @staticmethod
    def support(width: int, k: int | None = None) -> np.ndarray:
        """Every value as one row, in binary counting order (unit 0 is the lowest bit)."""
        index = np.arange(2 ** width)[:, None]
        return ((index >> np.arange(width)) & 1).astype(np.float64)


class CategoricalLayer(_Layer):
    """Independent k-way units, P(unit u takes category j) = softmax(logits[uk : uk+k])_j.

    Values are one-hot groups. Sampling inverts each unit's CDF, so one
    uniform draw per unit decides its category.
    """

    def _units(self, a: np.ndarray) -> np.ndarray:
        """A `[..., width]` array as `[..., units, k]`."""
        return a.reshape(a.shape[:-1] + (-1, self.k))

    def mean(self) -> np.ndarray:
        if self._mean is None:
            self._mean = softmax(self._units(self.logits), axis=-1).reshape(self.logits.shape)
        return self._mean

    def sample(self, u: np.ndarray) -> np.ndarray:
        """One draw per row of `u`, uniforms `[rows, units]`."""
        cdf = np.cumsum(self._units(self.mean()), axis=-1)
        idx = np.minimum((cdf <= u[..., None]).sum(axis=-1), self.k - 1)
        return np.eye(self.k)[idx].reshape(u.shape[:-1] + (-1,))

    def validate(self, value: np.ndarray) -> np.ndarray:
        value = self._check_shape(value)
        binary = np.all((value == 0.0) | (value == 1.0))
        if not (binary and np.all(self._units(value).sum(axis=-1) == 1.0)):
            raise ValueError("categorical layer value must be one-hot groups")
        return value

    def log_prob(self, value: np.ndarray, checked: bool = False) -> np.ndarray:
        if not checked:
            value = self.validate(value)
        units = self._units(self.logits)
        picked = np.sum(units * self._units(value), axis=-1)
        return np.sum(picked - logsumexp(units, axis=-1), axis=-1)

    def score(self, value: np.ndarray, checked: bool = False) -> np.ndarray:
        if not checked:
            value = self.validate(value)
        return value - self.mean()

    def mean_vjp(self, adj: np.ndarray) -> np.ndarray:
        return softmax_adjoint(self.mean(), adj, self.k)

    def half(self, value: np.ndarray, adj: np.ndarray, clamp: float) -> tuple[np.ndarray, int]:
        """[adj . (x - 1/k)] * dP(x)/dl / P(x) per unit, and the count of P(x) below `clamp`."""
        probs, value, adj = self._units(self.mean()), self._units(value), self._units(adj)
        coeff = np.sum(adj * (value - 1.0 / self.k), axis=-1, keepdims=True)
        sel_p = np.sum(probs * value, axis=-1, keepdims=True)  # P(x), per unit
        jac_sel = sel_p * (value - probs)  # d P(x) / d logits, per unit
        g = coeff * jac_sel / np.maximum(sel_p, clamp)
        return g.reshape(g.shape[:-2] + (-1,)), int(np.count_nonzero(sel_p < clamp))

    @staticmethod
    def uniforms(width: int, k: int) -> int:
        """Uniforms one draw takes: one per unit of `k` categories."""
        return width // k

    @staticmethod
    def support_size(width: int, k: int) -> int:
        return k ** (width // k)

    @staticmethod
    def support(width: int, k: int) -> np.ndarray:
        """Every value as one row, in `itertools.product` order over the units'
        categories (the last unit changes fastest)."""
        units = width // k
        index = np.arange(k ** units)[:, None] // k ** np.arange(units - 1, -1, -1) % k
        return np.eye(k)[index].reshape(len(index), width)
