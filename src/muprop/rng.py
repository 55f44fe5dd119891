"""Counter-based random streams with explicit derivation.

Every source of randomness in the package flows through `stream`, keyed by a
64-bit seed plus integer labels (node id, step, sample index, ...). Streams are
mutually independent for distinct keys and reproducible across runs and
platforms because Philox is a pure counter-based generator. `uniforms` draws
the first values of many seeds' streams, one row each, without building a
generator per seed. It has two paths, bit for bit alike: few rows or long
ones re-key one C Philox per row; many short rows (the rule is at
`_ARRAY_ROWS`, `_ARRAY_COUNT`) run Philox-4x64-10 as NumPy array arithmetic
over all rows at once (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC 2011).
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


# one re-keyable Philox per thread, for `uniforms`' C path: building one costs
# about 20 us, and `uniforms` sets the whole state before each draw, so no
# draw depends on what the generator drew before
_local = threading.local()

# The array path has a fixed cost of about 190 NumPy calls (0.15 ms on a
# 2-core Xeon VM) and costs more per value than the C path, which costs about
# 3 us a row; so it pays off only for many short rows. Inside this rectangle
# of rows x count it was at least as fast at every shape timed (CHANGES.md
# has the timings).
_ARRAY_ROWS, _ARRAY_COUNT = 96, 32

# Philox-4x64-10's multipliers (words 0 and 2) and key increments (key words 0 and 1)
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], np.uint64).reshape(2, 1, 1)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], np.uint64)
_LO32, _U32, _U11 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(11)


def uniforms(seeds, count: int) -> np.ndarray:
    """`[len(seeds), count]` uniforms on [0, 1): row i is bit for bit
    `stream(seeds[i]).random(count)`.

    `seeds` is a sequence of ints, masked to 64 bits as `fold` masks them, or
    an integer array (a uint64 array from `fold` is used as it is). Many
    short rows, at least `_ARRAY_ROWS` of at most `_ARRAY_COUNT` values, take
    the array path (`_philox_uniforms`). Other shapes re-key one
    C generator per thread: a Philox stream is its key plus a counter, so
    setting a generator's state to (key, counter 0) starts the stream afresh,
    at a third of the cost of building one per seed.
    """
    if not isinstance(seeds, np.ndarray):
        seeds = [int(seed) & _MASK for seed in seeds]
    keys = np.asarray(seeds, dtype=np.uint64)  # an integer array wraps as `& _MASK` does
    if len(keys) >= _ARRAY_ROWS and count <= _ARRAY_COUNT:
        return _philox_uniforms(keys, count)
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = np.random.Generator(np.random.Philox(key=0))
    bitgen = gen.bit_generator
    zeros = np.zeros(4, dtype=np.uint64)
    key = np.zeros(2, dtype=np.uint64)  # [seed, 0], as `Philox(key=seed)` keys itself
    state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    out = np.empty((len(keys), count))
    for row, seed in zip(out, keys):
        key[0] = seed
        bitgen.state = state
        gen.random(count, out=row)
    return out


def _philox_uniforms(keys: np.ndarray, count: int) -> np.ndarray:
    """`uniforms` as array arithmetic: Philox-4x64-10 over every row's key
    `[seed, 0]` and counters 1..ceil(count / 4), as `Philox.random` steps its
    counter before each block of four 64-bit words, each word a double
    `(word >> 11) * 2**-53`. The 128-bit products are formed from 32-bit
    halves. Words 0 and 2 of each block are held as one `[2, blocks, rows]`
    array and words 1 and 3 as another, so a round is one pass over each."""
    rows = len(keys)
    key = np.zeros((10, 2, 1, rows), np.uint64)  # round r's key: [seed, 0] + r * W
    key[:, 0, 0] = keys
    key += (np.arange(10, dtype=np.uint64)[:, None] * _PHILOX_W)[:, :, None, None]
    even = np.zeros((2, -(-count // 4), 1), np.uint64)  # words 0 and 2: the counter
    even[0, :, 0] = np.arange(1, even.shape[1] + 1)
    odd = np.zeros((2, 1, 1), np.uint64)  # words 1 and 3
    mlo, mhi = _PHILOX_M & _LO32, _PHILOX_M >> _U32
    for k in key:
        lo, hi = even & _LO32, even >> _U32  # the 128-bit even * M from 32-bit halves
        mid = hi * mlo + (lo * mlo >> _U32)
        high = hi * mhi + (mid >> _U32) + ((mid & _LO32) + lo * mhi >> _U32)
        even, odd = high[::-1] ^ odd ^ k, (even * _PHILOX_M)[::-1]
    words = np.stack((even, odd)) >> _U11  # [odd, word pair, block, row]
    return words.transpose(3, 2, 1, 0).reshape(rows, -1)[:, :count] * 2.0 ** -53
