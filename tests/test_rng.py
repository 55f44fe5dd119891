"""`rng.uniforms`: both of its paths draw, row for row and bit for bit, what
`rng.stream(seed).random(count)` draws."""
import numpy as np
import pytest

from muprop import rng

MAX_COUNT = 4100  # counts cross the 4-word block boundaries many times over
SPECIAL = [0, (1 << 64) - 1, -12345]  # a negative Python int masks to 2**64 - 12345


def seeds(rows: int) -> list[int]:
    draws = np.random.default_rng(17).integers(0, 1 << 64, rows, dtype=np.uint64)
    return (SPECIAL + [int(s) for s in draws])[:rows]


def as_array(seed_list: list[int]) -> np.ndarray:
    return np.array([s & ((1 << 64) - 1) for s in seed_list], dtype=np.uint64)


# few rows take the C path at every count; many rows (`_ARRAY_ROWS`) take the
# array path up to `_ARRAY_COUNT` values a row and the C path beyond
FEW, MANY = len(SPECIAL) + 1, rng._ARRAY_ROWS


def reference(keys: list[int]) -> np.ndarray:
    """Each seed's first `MAX_COUNT` values, as bits: a stream's first values
    are a prefix of its longer draw."""
    ref = np.stack([rng.stream(s).random(MAX_COUNT) for s in keys])
    for count in (1, 5, 33):
        for i, s in enumerate(keys):
            assert rng.stream(s).random(count).tobytes() == ref[i, :count].tobytes()
    return ref.view(np.uint64)


@pytest.mark.parametrize("rows, counts", [
    (FEW, range(1, MAX_COUNT + 1)),
    # every count the array path takes and then some; the C path past them
    # is the few rows' C path, drawn here at the block boundaries only
    (MANY, list(range(1, 4 * rng._ARRAY_COUNT + 1)) + [399, 400, 401, 2200, 4097, MAX_COUNT]),
], ids=["few", "many"])
def test_uniforms_rows_are_their_streams(rows, counts):
    keys = seeds(rows)
    bits, array = reference(keys), as_array(keys)
    for count in counts:
        got = rng.uniforms(array, count)
        assert got.shape == (rows, count) and got.flags.c_contiguous, count
        assert np.array_equal(got.view(np.uint64), bits[:, :count]), count


def test_the_array_path_is_philox_at_every_count():
    """The array arithmetic itself, at counts past those the rule gives it."""
    keys = seeds(FEW)
    bits, array = reference(keys), as_array(keys)
    for count in range(1, MAX_COUNT + 1):
        assert np.array_equal(rng._philox_uniforms(array, count).view(np.uint64),
                              bits[:, :count]), count


@pytest.mark.parametrize("rows", [FEW, MANY])
def test_seed_lists_and_seed_arrays_draw_alike(rows):
    keys = seeds(rows)
    for count in list(range(1, 2 * rng._ARRAY_COUNT + 2)) + [400, 2200]:
        got = rng.uniforms(keys, count)
        assert got.tobytes() == rng.uniforms(as_array(keys), count).tobytes(), count
        for i, s in enumerate(keys[: len(SPECIAL)]):
            assert got[i].tobytes() == rng.stream(s).random(count).tobytes(), (count, s)
    # a signed integer array wraps modulo 2**64, as a Python int's mask does
    signed = np.array([-12345, 7] * rows, dtype=np.int64)
    assert rng.uniforms(signed, 5).tobytes() == rng.uniforms([-12345, 7] * rows, 5).tobytes()


def test_the_rule_sends_many_short_rows_to_the_array_path(monkeypatch):
    taken = []
    real = rng._philox_uniforms
    monkeypatch.setattr(rng, "_philox_uniforms", lambda keys, count: taken.append(
        (len(keys), count)) or real(keys, count))
    # evaluation blocks of an 8-4-8 net take the array path; one-row draws,
    # wide evaluation blocks and wide moments blocks stay on the C path
    shapes = [(819, 4), (100, 8), (1, 4), (40, 7), (30, 400), (18, 200), (50, 2200),
              (rng._ARRAY_ROWS, rng._ARRAY_COUNT), (rng._ARRAY_ROWS, rng._ARRAY_COUNT + 1)]
    for rows, count in shapes:
        rng.uniforms(np.arange(rows, dtype=np.uint64), count)
    assert taken == [(819, 4), (100, 8), (rng._ARRAY_ROWS, rng._ARRAY_COUNT)]
