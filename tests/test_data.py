"""IDX parsing, binarization, and the synthetic task generators."""
import struct

import numpy as np
import pytest

from muprop.data import (
    binarize,
    load_idx,
    load_mnist,
    resolve_data_dir,
    split_halves,
    synthetic_binary,
    synthetic_multimodal,
)


def write_images(path, arr):
    n, rows, cols = arr.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x803, n, rows, cols))
        fh.write(arr.astype(np.uint8).tobytes())


def test_idx_image_round_trip(tmp_path):
    arr = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    p = tmp_path / "imgs"
    write_images(p, arr)
    assert np.array_equal(load_idx(p), arr)


def test_idx_error_reporting(tmp_path):
    p = tmp_path / "bad"
    p.write_bytes(struct.pack(">I", 0x12345))
    with pytest.raises(ValueError, match="truncated header"):
        load_idx(p)
    p.write_bytes(struct.pack(">II", 0x12345, 3))
    with pytest.raises(ValueError, match="bad magic"):
        load_idx(p)
    p.write_bytes(struct.pack(">II", 0x803, 2))
    with pytest.raises(ValueError, match="truncated header"):
        load_idx(p)
    p.write_bytes(struct.pack(">IIII", 0x803, 2, 3, 4) + b"\x00" * 5)
    with pytest.raises(ValueError, match="truncated payload"):
        load_idx(p)
    # label files are not read: only images are loaded
    p.write_bytes(struct.pack(">II", 0x801, 2) + b"\x00" * 2)
    with pytest.raises(ValueError, match="bad magic 0x00000801"):
        load_idx(p)


def test_load_mnist_scales_and_flattens(tmp_path, monkeypatch):
    arr = np.full((3, 28, 28), 255, dtype=np.uint8)
    arr[0, 0, 0] = 0
    write_images(tmp_path / "train-images-idx3-ubyte", arr)
    write_images(tmp_path / "t10k-images-idx3-ubyte", arr[:1])
    x = load_mnist(str(tmp_path), "train")
    assert x.shape == (3, 784)
    assert x[0, 0] == 0.0 and x[2, 70] == 1.0
    assert load_mnist(str(tmp_path), "test").shape == (1, 784)
    monkeypatch.setenv("MUPROP_DATA_DIR", str(tmp_path))
    assert resolve_data_dir(None) == str(tmp_path)
    monkeypatch.delenv("MUPROP_DATA_DIR")
    with pytest.raises(ValueError, match="no data directory"):
        resolve_data_dir(None)
    with pytest.raises(ValueError, match="not found"):
        resolve_data_dir(str(tmp_path / "missing"))


def test_binarize_modes():
    x = np.array([[0.0, 0.4, 0.6, 1.0]])
    assert np.array_equal(binarize(x, mode="threshold"), [[0, 0, 1, 1]])
    b1 = binarize(np.tile(x, (500, 1)), seed=8)
    b2 = binarize(np.tile(x, (500, 1)), seed=8)
    assert np.array_equal(b1, b2)
    assert set(np.unique(b1)) <= {0.0, 1.0}
    # per-pixel rates track the intensities (hard pixels exactly, soft within 4 SE)
    rates = b1.mean(axis=0)
    assert rates[0] == 0.0 and rates[3] == 1.0
    se = np.sqrt(0.4 * 0.6 / 500)
    assert abs(rates[1] - 0.4) < 4 * se and abs(rates[2] - 0.6) < 4 * se
    assert not np.array_equal(b1, binarize(np.tile(x, (500, 1)), seed=9))
    with pytest.raises(ValueError, match="binarization"):
        binarize(x, mode="fuzzy")


def test_split_halves():
    b = np.arange(12, dtype=np.float64).reshape(2, 6)
    left, right = split_halves(b)
    assert np.array_equal(left, b[:, :3]) and np.array_equal(right, b[:, 3:])


def test_synthetic_multimodal_shape_and_determinism():
    X, Y = synthetic_multimodal(300, in_dim=6, out_dim=5, seed=2)
    X2, Y2 = synthetic_multimodal(300, in_dim=6, out_dim=5, seed=2)
    assert X.shape == (300, 6) and Y.shape == (300, 5)
    assert np.array_equal(X, X2) and np.array_equal(Y, Y2)
    assert set(np.unique(X)) <= {0.0, 1.0} and set(np.unique(Y)) <= {0.0, 1.0}
    with pytest.raises(ValueError):
        synthetic_multimodal(0)


def test_synthetic_multimodal_targets_are_bimodal():
    X, Y = synthetic_multimodal(2000, flip=0.0, seed=4)
    # group targets by exact input pattern; each prototype has two target modes
    rows = {}
    for x, y in zip(X, Y):
        rows.setdefault(tuple(x), set()).add(tuple(y))
    counts = sorted(len(v) for v in rows.values())
    assert max(counts) == 2
    assert sum(c == 2 for c in counts) >= 3  # nearly all prototypes show both


def test_synthetic_binary_prototype_structure():
    X = synthetic_binary(1000, dim=7, flip=0.0, seed=3)
    assert X.shape == (1000, 7)
    patterns = {tuple(r) for r in X}
    assert len(patterns) <= 4
    noisy = synthetic_binary(1000, dim=7, flip=0.2, seed=3)
    assert len({tuple(r) for r in noisy}) > 4  # flips spread mass off prototypes
    with pytest.raises(ValueError):
        synthetic_binary(0)
