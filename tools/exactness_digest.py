"""Print one SHA-256 digest per group of estimator, oracle and training outputs.

Two source trees whose digests agree produce bitwise identical outputs on
every case below, so a refactor that must not change any number is checked by
running this tool on the tree before and after it:

    python3 tools/exactness_digest.py                  # this checkout's src/
    python3 tools/exactness_digest.py /path/to/src     # another tree's src/

A change that may reassociate floating-point sums in some group is checked
by dumping every hashed value and comparing the dumps; `--compare` prints,
per group, the count of float values whose bits differ, how many of those
compare equal as floats (differ only as +0.0 vs -0.0: `sign-only`), and the
worst relative error max |a - b| / max(1e-8, max |leaf|), each value measured
against the largest finite |value| of its own array (leaf) in the second
dump, so a tiny entry beside large ones is held to the leaf's scale; with
`--tol REL` it also exits 1 when some group's worst relative error exceeds
REL:

    python3 tools/exactness_digest.py --dump new.npz
    python3 tools/exactness_digest.py /path/to/src --dump old.npz
    python3 tools/exactness_digest.py --compare new.npz old.npz --tol 1e-12

Arrays are hashed and dumped with a leading axis of one row dropped, and a
single value as a plain float, so an engine that gives its values a leading
row axis (one row per draw) hashes the same numbers as one that does not.

It uses only public names that have been stable across refactors (`forward`,
`estimate`, the oracle functions, the model builders, `run_experiment`,
`load_checkpoint`), so it also runs against an exported copy of an older
commit. BLAS is pinned to one thread so matrix products reduce in one order.
The groups:

* forced:   every forced configuration of `sample_family(0..9)`, each
            estimator (score estimators with flags none, `c` and `c,idb`):
            grads, cost, log-probability and diagnostics;
* oracle:   `exact_expected_cost_and_grad`, `estimator_expectation` and
            `finite_difference_check`, and `estimator_expectation` of each
            score estimator (flags `c,idb`) against a baseline state
            warmed by 50 draws (non-zero statistics, a trained net);
* moments:  2,000-draw `empirical_moments` per estimator (flags `c` and
            `c,vn,idb` where allowed) on `sample_family(0..9)`, with the
            final baseline state. 2,000 draws run as one block on four of
            these graphs (seeds 0, 3, 7 and 8) and as two on the other six,
            and a block's moments are summed in a different order from a
            loop over draws, so this group is compared by `--compare` (to
            float reassociation), not by digest;
* draws:    3 seeded draws per estimator (flags `c,vn,idb` where allowed)
            at 8-4-4-8, 2x3-3x4-8, 392-200-200-392 and 200x10-784;
* nll:      `evaluate_nll` at 8-4-8 (m = 2) and 2x3-4-8 (4 examples, 3 to 7
            samples), 8-4-8 (64 examples x 100 samples, the shape of gate
            6's evaluation: 819-row blocks, whose uniforms take
            `rng.uniforms`' array path), 392-200-200-392 (3 examples x 10
            samples) and
            200x10-784 (2 x 3). Evaluation runs many rows through one
            matrix product, whose sums BLAS orders differently from a
            one-row product's, so this group is compared by `--compare`;
* training: `run_experiment` at 8-4-8, 392-200-200-392 (batch 10) and
            200x10-784 for every estimator: the columns of metrics.jsonl and
            metrics.csv, parsed so that their numbers compare as floats, a
            column's floats as one array (an in-run evaluation is an `nll`
            case), and the checkpoint tensors;
* shared:   the 8-4-8 training runs at m = 2, where each weight feeds two
            affine nodes per example. A step sums the batch's weight
            gradients as one product over every example's pairs of rows,
            in a different order from a per-example fold, so this group is
            compared by `--compare`.
"""
from __future__ import annotations

import argparse
import ast
import csv
import hashlib
import json
import math
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SCORE = ("lr", "muprop", "muprop_rollout")
ESTIMATORS = SCORE + ("st", "half")


class Sink:
    """A SHA-256 digest of the values fed to it and, with `keep`, the values
    themselves: float leaves in `floats`, every other leaf's bytes in
    `exact`, and each leaf's kind and shape in `layout`."""

    def __init__(self, keep: bool = False):
        self.hash = hashlib.sha256()
        self.keep = keep
        self.floats: list[np.ndarray] = []
        self.exact: list[bytes] = []
        self.layout: list[str] = []

    def update(self, data: bytes) -> None:
        self.hash.update(data)

    def leaf(self, value) -> None:
        if not self.keep:
            return
        if isinstance(value, bytes):
            self.exact.append(value)
            self.layout.append(f"b{len(value)}")
        else:
            self.floats.append(np.ravel(value))
            self.layout.append(f"f{np.shape(value)}")

    def hexdigest(self) -> str:
        return self.hash.hexdigest()

    def arrays(self, group: str) -> dict[str, np.ndarray]:
        return {
            f"{group}.floats": np.concatenate(self.floats) if self.floats else np.zeros(0),
            f"{group}.exact": np.frombuffer(b"".join(self.exact), dtype=np.uint8),
            f"{group}.layout": np.frombuffer("\n".join(self.layout).encode(), dtype=np.uint8),
        }


def _feed(h: Sink, obj) -> None:
    """Hash a nest of dicts, sequences, arrays and scalars, keys sorted."""
    if isinstance(obj, np.ndarray) and obj.ndim and obj.shape[0] == 1:
        obj = obj.reshape(obj.shape[1:])  # one row: the node's shape
    if isinstance(obj, np.ndarray) and obj.ndim == 0:
        obj = float(obj)
    if isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            h.update(repr(key).encode())
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj, dtype=np.float64)
        h.update(repr(obj.shape).encode())
        h.update(a.tobytes())
        h.leaf(a)
    elif isinstance(obj, bytes):
        h.update(obj)
        h.leaf(obj)
    elif isinstance(obj, (float, np.floating)):
        h.update(repr(float(obj)).encode())
        h.leaf(np.float64(obj))
    else:
        h.update(repr(obj).encode())
        h.leaf(repr(obj).encode())


def _estimate_record(est) -> dict:
    return {"grads": est.grads, "cost": est.cost, "logprob": est.logprob,
            "diag": est.node_diag, "extra": est.extra}


def _forced(mp, h) -> None:
    from muprop.oracle import config_blocks, sample_family

    for seed in range(10):
        fam = sample_family(seed)
        sids = fam.graph.stochastic_ids
        # one configuration at a time: the rows of the enumeration's blocks
        configs = [{sid: block[sid][i] for sid in sids}
                   for _start, block in config_blocks(fam.graph)
                   for i in range(len(block[sids[0]]))]
        for name in ESTIMATORS:
            for flags in (((), ("c",), ("c", "idb")) if name in SCORE else ((),)):
                cfg = mp.EstimatorConfig(name, flags=flags)
                for forced in configs:
                    est = mp.estimate(cfg, fam.graph, fam.cost, fam.inputs, fam.params,
                                      rng_seed=None, baselines=mp.BaselineState(seed=seed),
                                      forced=forced, idb_input=fam.inputs["x"])
                    _feed(h, _estimate_record(est))


def _oracle(mp, h) -> None:
    from muprop.oracle import sample_family

    for seed in range(10):
        fam = sample_family(seed)
        args = (fam.graph, fam.cost, fam.inputs, fam.params)
        report = mp.exact_expected_cost_and_grad(*args)
        _feed(h, [report.expected_cost, report.grads, report.config_count])
        for name in ESTIMATORS:
            flags = ("c", "idb") if name in SCORE else ()
            _feed(h, mp.estimator_expectation(mp.EstimatorConfig(name, flags=flags), *args))
        if seed < 3:
            _feed(h, mp.finite_difference_check(*args))
    # read-only baselines against non-zero statistics: a state warmed by 50
    # draws (moving b and v, a trained idb net), which the expectations
    # must read and leave as it was
    fam = sample_family(4)
    args = (fam.graph, fam.cost, fam.inputs, fam.params)
    state = mp.BaselineState(seed=4)
    mp.empirical_moments(mp.EstimatorConfig("muprop", flags=("c", "idb")), *args, n_samples=50,
                         seed=4, baselines=state)
    for name in SCORE:
        _feed(h, mp.estimator_expectation(mp.EstimatorConfig(name, flags=("c", "idb")), *args,
                                          baselines=state))
    _feed(h, [state.b, state.v, [state.idb.w1, state.idb.b1, state.idb.w2, state.idb.b2]])


def _moments(mp, h) -> None:
    from muprop.oracle import sample_family

    for seed in range(10):
        fam = sample_family(seed)
        args = (fam.graph, fam.cost, fam.inputs, fam.params)
        for name in ESTIMATORS:
            for flags in ((("c",), ("c", "vn", "idb")) if name in SCORE else ((),)):
                state = mp.BaselineState(seed=seed)
                mean, var, cost = mp.empirical_moments(
                    mp.EstimatorConfig(name, flags=flags), *args, n_samples=2000, seed=seed,
                    baselines=state)
                idb = [] if state.idb is None else [state.idb.w1, state.idb.b1, state.idb.w2,
                                                    state.idb.b2]
                _feed(h, [mean, var, cost, state.b, state.v, idb])


def _draws(mp, h) -> None:
    from muprop.data import synthetic_binary, synthetic_multimodal

    for arch, sop in (("8-4-4-8", True), ("2x3-3x4-8", False), ("392-200-200-392", True),
                      ("200x10-784", False)):
        if sop:
            graph = mp.build_structured_predictor(arch)
            cost = graph.meta["cost"]
        else:
            vm = mp.build_sbn_variational(arch)
            graph, cost = vm.graph, vm.cost
        params = mp.init_params(graph, seed=3)
        toks = arch.split("-")
        if sop:
            X, Y = synthetic_multimodal(3, int(toks[0]), int(toks[-1]), seed=4)
            examples = [{"x": X[i], "y": Y[i]} for i in range(3)]
        else:
            X = synthetic_binary(3, int(toks[-1]), seed=4)
            examples = [{"x": X[i]} for i in range(3)]
        for name in ESTIMATORS:
            cfg = mp.EstimatorConfig(name, flags=("c", "vn", "idb") if name in SCORE else ())
            state = mp.BaselineState(seed=7)
            for i, inputs in enumerate(examples):
                est = mp.estimate(cfg, graph, cost, inputs, params, rng_seed=100 + i,
                                  baselines=state, idb_input=inputs["x"])
                _feed(h, _estimate_record(est))


def _nll(mp, h) -> None:
    from muprop.data import synthetic_binary, synthetic_multimodal

    g = mp.build_structured_predictor("8-4-8", m=2)
    params = mp.init_params(g, seed=5)
    X, Y = synthetic_multimodal(4, 8, 8, seed=6)
    for n in range(3, 8):
        _feed(h, mp.evaluate_nll(g, params, (X, Y), n_samples=n, seed=n))
    vm = mp.build_sbn_variational("2x3-4-8")
    params = mp.init_params(vm.graph, seed=5)
    X = synthetic_binary(4, 8, seed=6)
    for n in range(3, 8):
        _feed(h, mp.evaluate_nll(vm, params, X, n_samples=n, seed=n))
    # many narrow rows per pass
    g = mp.build_structured_predictor("8-4-8")
    X, Y = synthetic_multimodal(64, 8, 8, seed=7)
    _feed(h, mp.evaluate_nll(g, mp.init_params(g, seed=5), (X, Y), n_samples=100, seed=10))
    # wide layers: many rows per matrix product
    g = mp.build_structured_predictor("392-200-200-392")
    X, Y = synthetic_multimodal(3, 392, 392, seed=6)
    _feed(h, mp.evaluate_nll(g, mp.init_params(g, seed=5), (X, Y), n_samples=10, seed=8))
    vm = mp.build_sbn_variational("200x10-784")
    X = synthetic_binary(2, 784, seed=6)
    _feed(h, mp.evaluate_nll(vm, mp.init_params(vm.graph, seed=5), X, n_samples=3, seed=9))


def _cell(text: str):
    """A CSV cell as the number it spells, else as its text."""
    try:
        value = json.loads(text)
    except ValueError:
        return text
    return value if isinstance(value, (int, float)) else text


SMALL = dict(train_size=40, eval_size=8, eval_samples=4, epochs=2, batch_size=3)


def _columns(rows: list[dict]) -> dict:
    """Metric rows as columns: each column's floats as one array, so that
    `--compare` measures a logged value at its column's scale, and the
    column's other entries (ints, bools, None, text) with their row index."""
    out = {}
    for key in rows[0]:
        column = [row[key] for row in rows]
        out[key] = (np.array([v for v in column if isinstance(v, float)]),
                    [(i, v) for i, v in enumerate(column) if not isinstance(v, float)])
    return out


def _training(mp, h) -> None:
    _train_runs(mp, h, (
        ("structured_prediction", "8-4-8", SMALL),
        ("structured_prediction", "392-200-200-392",
         dict(train_size=20, eval_size=2, eval_samples=2, epochs=1, batch_size=10)),
        ("variational", "200x10-784",
         dict(train_size=6, eval_size=2, eval_samples=2, epochs=1, batch_size=3)),
    ))


def _shared(mp, h) -> None:
    _train_runs(mp, h, (("structured_prediction", "8-4-8", dict(SMALL, m_train=2)),))


def _train_runs(mp, h, runs) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for task, arch, sizes in runs:
            for name in ESTIMATORS:
                out = os.path.join(tmp, f"{arch}-{name}")
                cfg = mp.ExperimentConfig(
                    task=task, arch=arch, estimator=name, flags=("c", "vn", "idb"),
                    seed=2, out_dir=out, log_every=1, eval_every=4, **sizes)
                mp.run_experiment(cfg)
                with open(os.path.join(out, "metrics.jsonl")) as fh:
                    _feed(h, _columns([json.loads(line) for line in fh]))
                with open(os.path.join(out, "metrics.csv"), newline="") as fh:
                    _feed(h, _columns([{key: _cell(text) for key, text in row.items()}
                                       for row in csv.DictReader(fh)]))
                tensors, _meta = mp.load_checkpoint(os.path.join(out, "model.ckpt"))
                _feed(h, tensors)


GROUPS = (("forced", _forced), ("oracle", _oracle), ("moments", _moments), ("draws", _draws),
          ("nll", _nll), ("training", _training), ("shared", _shared))


def _leaf_scales(layout: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each float value's scale: max(1e-8, the largest finite |value| of its
    leaf), the leaves' sizes read off a dump's `layout`."""
    sizes = np.array([math.prod(ast.literal_eval(line[1:]))
                      for line in bytes(layout).decode().split("\n") if line.startswith("f")],
                     dtype=np.int64)
    leaf_max = np.zeros(len(sizes))
    full = sizes > 0
    if values.size:
        mag = np.where(np.isfinite(values), np.abs(values), 0.0)
        leaf_max[full] = np.maximum.reduceat(mag, (np.cumsum(sizes) - sizes)[full])
    return np.maximum(1e-8, np.repeat(leaf_max, sizes))


def compare(path_a: str, path_b: str, tol: float | None = None) -> int:
    """Print each group's worst relative error between two dumps. Returns 1
    if a group's layout or its exact (non-float) values differ, if a value
    is finite in one dump only, or if a group's worst relative error exceeds
    `tol` (when given)."""
    a, b = np.load(path_a), np.load(path_b)
    status = 0
    for name, _run in GROUPS:
        if not all(f"{name}.{part}" in d.files for d in (a, b) for part in ("floats", "layout")):
            print(f"{name:9s} missing from a dump")
            status = 1
            continue
        x, y = a[f"{name}.floats"], b[f"{name}.floats"]
        same_layout = np.array_equal(a[f"{name}.layout"], b[f"{name}.layout"])
        if not (same_layout and np.array_equal(a[f"{name}.exact"], b[f"{name}.exact"])):
            print(f"{name:9s} layouts or exact values differ")
            status = 1
            continue
        finite = np.isfinite(x) & np.isfinite(y)
        if not np.array_equal(x[~finite], y[~finite], equal_nan=True):
            status = 1
        xf, yf = x[finite], y[finite]
        bits = xf.view(np.int64) != yf.view(np.int64)
        differ = int(np.count_nonzero(bits))
        sign_only = int(np.count_nonzero(bits & (xf == yf)))  # +0.0 vs -0.0
        scale = _leaf_scales(b[f"{name}.layout"], y)
        rel = np.abs(xf - yf) / scale[finite]
        worst = float(np.max(rel, initial=0.0))
        over = tol is not None and worst > tol
        print(f"{name:9s} values {x.size:8d}  differ {differ:7d}  sign-only {sign_only:7d}  "
              f"worst relative error {worst:.3e}" + (f"  above {tol:g}" if over else ""))
        if over:
            status = 1
    return status


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="?", default=os.path.join(HERE, os.pardir, "src"),
                    help="the src/ directory to import muprop from")
    ap.add_argument("--dump", metavar="PATH.npz", help="also write every hashed value")
    ap.add_argument("--compare", nargs=2, metavar=("A.npz", "B.npz"),
                    help="compare two dumps instead of computing digests")
    ap.add_argument("--tol", type=float, metavar="REL",
                    help="with --compare, fail when a group's worst relative error exceeds REL")
    args = ap.parse_args(argv[1:])
    if args.tol is not None and not args.compare:
        ap.error("--tol needs --compare")
    if args.compare:
        return compare(*args.compare, tol=args.tol)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import muprop as mp

    if not os.path.abspath(mp.__file__).startswith(src + os.sep):
        sys.exit(f"imported muprop from {mp.__file__}, not from {src}")
    dump: dict[str, np.ndarray] = {}
    for name, run in GROUPS:
        h = Sink(keep=bool(args.dump))
        run(mp, h)
        print(f"{name:9s} {h.hexdigest()}")
        if args.dump:
            dump.update(h.arrays(name))
    if args.dump:
        np.savez_compressed(args.dump, **dump)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
