"""Stable scalar/array primitives shared across the package."""
from __future__ import annotations

import numpy as np


def as_tensor(x) -> np.ndarray:
    """Coerce to a C-contiguous float64 array (the engine's value type)."""
    a = np.asarray(x, dtype=np.float64)
    # ascontiguousarray would promote 0-d to 1-d, so only call it when needed
    return a if a.flags["C_CONTIGUOUS"] else np.ascontiguousarray(a)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-softplus(-x)): never exponentiates a positive argument
    x = np.asarray(x, dtype=np.float64)
    return np.exp(-np.logaddexp(0.0, -x))


def softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax_adjoint(y: np.ndarray, a: np.ndarray, k: int) -> np.ndarray:
    """Adjoint `a` through a softmax over groups of `k` entries of the last axis,
    at its output `y`; leading axes broadcast."""
    yk, ak = y.reshape(y.shape[:-1] + (-1, k)), a.reshape(a.shape[:-1] + (-1, k))
    out = yk * (ak - np.sum(ak * yk, axis=-1, keepdims=True))
    return out.reshape(out.shape[:-2] + (-1,))


def logsumexp(x: np.ndarray, axis: int = -1) -> np.ndarray:
    m = np.max(x, axis=axis, keepdims=True)
    out = m.squeeze(axis) + np.log(np.sum(np.exp(x - m), axis=axis))
    return out


def log_mean_exp(x: np.ndarray) -> float:
    """Stable log((1/n) * sum(exp(x))) over a 1-D array."""
    x = np.asarray(x, dtype=np.float64)
    return float(logsumexp(x, axis=0) - np.log(x.size))
