"""`tools/exactness_digest.py --compare`: each value's error is measured
against the largest |value| of its own leaf, and values that differ only in
the sign of zero are counted."""
import importlib.util
import os
from pathlib import Path
from unittest import mock

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "exactness_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("exactness_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the tool pins BLAS threads for its own process
        spec.loader.exec_module(tool)
    return tool


def write_dump(tool, path, variance, lone):
    """A dump whose `moments` group holds a variance leaf, a leaf of one
    small value and an exact leaf; every other group is empty."""
    arrays = {}
    for name, _run in tool.GROUPS:
        sink = tool.Sink(keep=True)
        if name == "moments":
            tool._feed(sink, [variance, lone, "c,vn"])
        arrays.update(sink.arrays(name))
    np.savez(path, **arrays)
    return path


def test_compare_measures_each_value_against_its_leaf(tmp_path):
    tool = load_tool()
    variance = np.array([[2.4, 4.1e-7], [0.3, -1.2]])
    ref = write_dump(tool, tmp_path / "ref.npz", variance, 4.1e-7)

    def status(variance, lone=4.1e-7):
        new = write_dump(tool, tmp_path / "new.npz", variance, lone)
        return tool.compare(str(new), str(ref), tol=1e-12)

    assert status(variance) == 0
    noise = variance.copy()
    noise[0, 1] += 1e-15  # 2.4e-9 of the entry, 4e-16 of its leaf's scale
    assert status(noise) == 0
    error = variance.copy()
    error[0, 0] += 1e-9  # the leaf's largest entry
    assert status(error) == 1
    # a leaf of one small value is its own scale
    assert status(variance, 4.1e-7 + 1e-15) == 1


def test_compare_counts_values_that_differ_only_in_the_sign_of_zero(tmp_path, capsys):
    tool = load_tool()
    variance = np.array([[2.4, 0.0], [0.3, -1.2]])
    ref = write_dump(tool, tmp_path / "ref.npz", variance, 4.1e-7)
    flipped = variance.copy()
    flipped[0, 1] = -0.0
    new = write_dump(tool, tmp_path / "new.npz", flipped, 4.1e-7)
    capsys.readouterr()
    assert tool.compare(str(new), str(ref), tol=0.0) == 0
    line = next(s for s in capsys.readouterr().out.splitlines() if s.startswith("moments"))
    assert "differ       1  sign-only       1  worst relative error 0.000e+00" in line
