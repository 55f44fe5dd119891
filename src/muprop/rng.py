"""Counter-based random streams with explicit derivation.

Every source of randomness in the package flows through `stream`, keyed by a
64-bit seed plus integer labels (node id, step, sample index, ...). Streams are
mutually independent for distinct keys and reproducible across runs and
platforms because Philox is a pure counter-based generator. `uniforms` draws
the first values of many seeds' streams, one row each, without building a
generator per seed.
"""
from __future__ import annotations

import threading

import numpy as np

_MASK = (1 << 64) - 1


def _mix(z: int) -> int:
    # splitmix64 finalizer
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def fold(seed: int, *labels):
    """Derive a new 64-bit seed from `seed` and integer labels.

    Labels may also be integer arrays, broadcast against each other: the
    result is then a uint64 array of their broadcast shape, each entry bit
    for bit the scalar `fold` of its labels (uint64 arithmetic wraps as
    `& _MASK` does; a negative label wraps modulo 2**64 in both).
    """
    z = seed & _MASK
    shape = None  # the array labels' broadcast shape, once there is one
    for lab in labels:
        if isinstance(lab, np.ndarray):
            shape = np.broadcast_shapes(lab.shape, shape or ())
            # a 0-d label runs as one row: NumPy scalars, unlike arrays, warn
            # when a uint64 product wraps
            lab = lab.astype(np.uint64).reshape(lab.shape or (1,))
        else:
            lab = lab & _MASK
        z = _mix((z + 0x9E3779B97F4A7C15 & _MASK) + lab & _MASK)
    return z if shape is None else z.reshape(shape)


def stream(seed: int, *labels: int) -> np.random.Generator:
    """Independent generator for (seed, labels)."""
    return np.random.Generator(np.random.Philox(key=fold(seed, *labels)))


# one re-keyable Philox per thread, for `uniforms`: building a generator costs
# about 20 us, and `uniforms` sets the whole state before each draw, so no
# draw depends on what the generator drew before
_local = threading.local()


def uniforms(seeds, count: int) -> np.ndarray:
    """`[len(seeds), count]` uniforms on [0, 1): row i is bit for bit
    `stream(seeds[i]).random(count)`.

    A Philox stream is its key plus a counter, so setting a generator's state
    to (key, counter 0) starts the stream afresh; this re-keys one generator
    per thread instead of building one per seed (a third of the cost).
    """
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = np.random.Generator(np.random.Philox(key=0))
    bitgen = gen.bit_generator
    zeros = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": None},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    keys = np.zeros((len(seeds), 2), dtype=np.uint64)
    keys[:, 0] = [int(seed) & _MASK for seed in seeds]
    out = np.empty((len(seeds), count))
    for row, key in zip(out, keys):
        state["state"]["key"] = key
        bitgen.state = state
        gen.random(count, out=row)
    return out
