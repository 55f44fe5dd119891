"""Dataset loading and preparation: IDX files, binarization, synthetic tasks."""
from __future__ import annotations

import os
import struct

import numpy as np

from . import rng as _rng

IMAGE_MAGIC = 0x00000803


def load_idx(path) -> np.ndarray:
    """Read one big-endian IDX image file into a uint8 [n, rows, cols] array."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated header")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != IMAGE_MAGIC:
        raise ValueError(f"{path}: bad magic 0x{magic:08x}")
    if len(raw) < 16:
        raise ValueError(f"{path}: truncated header")
    n, rows, cols = struct.unpack(">III", raw[4:16])
    body = raw[16:]
    if len(body) != n * rows * cols:
        raise ValueError(f"{path}: truncated payload ({len(body)} of {n * rows * cols} bytes)")
    return np.frombuffer(body, dtype=np.uint8).reshape(n, rows, cols).copy()


def resolve_data_dir(data_dir: str | None) -> str:
    d = data_dir or os.environ.get("MUPROP_DATA_DIR")
    if not d:
        raise ValueError("no data directory: pass --data-dir or set MUPROP_DATA_DIR")
    if not os.path.isdir(d):
        raise ValueError(f"data directory not found: {d}")
    return d


def load_mnist(data_dir: str | None, split: str = "train") -> np.ndarray:
    """Flattened intensities in [0, 1], shape (n, 784)."""
    d = resolve_data_dir(data_dir)
    name = {"train": "train-images-idx3-ubyte", "test": "t10k-images-idx3-ubyte"}[split]
    imgs = load_idx(os.path.join(d, name))
    return imgs.reshape(len(imgs), -1).astype(np.float64) / 255.0


def binarize(intensities: np.ndarray, seed: int = 0, mode: str = "resample") -> np.ndarray:
    """Map [0, 1] intensities to {0, 1}: threshold at 0.5 or sample each pixel."""
    x = np.asarray(intensities, dtype=np.float64)
    if mode == "threshold":
        return (x > 0.5).astype(np.float64)
    if mode == "resample":
        u = _rng.stream(seed, 3).random(x.shape)
        return (u < x).astype(np.float64)
    raise ValueError(f"unknown binarization mode {mode!r}")


def split_halves(binary: np.ndarray):
    """Top half of each flattened image as input, bottom half as target."""
    b = np.asarray(binary, dtype=np.float64)
    half = b.shape[1] // 2
    return b[:, :half], b[:, half:]


def synthetic_multimodal(
    n: int,
    in_dim: int = 8,
    out_dim: int = 8,
    n_prototypes: int = 4,
    flip: float = 0.05,
    seed: int = 0,
):
    """Completion task whose conditional target distribution is bimodal.

    Each input prototype owns two equally likely binary target patterns, so a
    deterministic predictor is forced to split the difference while a sampler
    can commit to one mode per draw. Returns (X, Y) with values in {0, 1}.
    """
    if n < 1:
        raise ValueError("need at least one example")
    r = _rng.stream(seed, 5)
    protos_x = (r.random((n_prototypes, in_dim)) < 0.5).astype(np.float64)
    protos_y = (r.random((n_prototypes, 2, out_dim)) < 0.5).astype(np.float64)
    which = r.integers(0, n_prototypes, n)
    mode = r.integers(0, 2, n)
    X = protos_x[which]
    Y = protos_y[which, mode]
    noise = (r.random((n, in_dim)) < flip).astype(np.float64)
    X = np.abs(X - noise)
    return X, Y


def synthetic_binary(n: int, dim: int = 8, n_prototypes: int = 4, flip: float = 0.05, seed: int = 0):
    """Noisy binary prototype mixture for density modeling. Returns (n, dim)."""
    if n < 1:
        raise ValueError("need at least one example")
    r = _rng.stream(seed, 6)
    protos = (r.random((n_prototypes, dim)) < 0.5).astype(np.float64)
    which = r.integers(0, n_prototypes, n)
    X = protos[which]
    noise = (r.random((n, dim)) < flip).astype(np.float64)
    return np.abs(X - noise)
