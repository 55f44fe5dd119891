"""Print one SHA-256 digest per group of estimator, oracle and training outputs.

Two source trees whose digests agree produce bitwise identical outputs on
every case below, so a refactor that must not change any number is checked by
running this tool on the tree before and after it:

    python3 tools/exactness_digest.py                  # this checkout's src/
    python3 tools/exactness_digest.py /path/to/src     # another tree's src/

It uses only public names that have been stable across refactors (`forward`,
`estimate`, the oracle functions, the model builders, `run_experiment`,
`load_checkpoint`), so it also runs against an exported copy of an older
commit. BLAS is pinned to one thread so matrix products reduce in one order.
The groups:

* forced:   every forced configuration of `sample_family(0..9)`, each
            estimator (score estimators with flags none, `c` and `c,idb`):
            grads, cost, log-probability and diagnostics;
* oracle:   `exact_expected_cost_and_grad`, `estimator_expectation`, 20-draw
            `empirical_moments` and `finite_difference_check`;
* draws:    3 seeded draws per estimator (flags `c,vn,idb` where allowed)
            at 8-4-4-8, 2x3-3x4-8, 392-200-200-392 and 200x10-784;
* nll:      `evaluate_nll` for structured prediction and a variational SBN;
* training: `run_experiment` at 8-4-8 and 200x10-784 for every estimator:
            metrics.jsonl, metrics.csv and the checkpoint tensors.
"""
from __future__ import annotations

import hashlib
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SCORE = ("lr", "muprop", "muprop_rollout")
ESTIMATORS = SCORE + ("st", "half")


def _feed(h, obj) -> None:
    """Hash a nest of dicts, sequences, arrays and scalars, keys sorted."""
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
        h.update(repr(obj.shape).encode())
        h.update(np.ascontiguousarray(obj, dtype=np.float64).tobytes())
    elif isinstance(obj, bytes):
        h.update(obj)
    else:
        h.update(repr(float(obj) if isinstance(obj, np.floating) else obj).encode())


def _estimate_record(est) -> dict:
    return {"grads": est.grads, "cost": est.cost, "logprob": est.logprob,
            "diag": est.node_diag, "extra": est.extra}


def _forced(mp, h) -> None:
    from muprop.oracle import enumerate_configs, sample_family

    for seed in range(10):
        fam = sample_family(seed)
        for name in ESTIMATORS:
            for flags in (((), ("c",), ("c", "idb")) if name in SCORE else ((),)):
                cfg = mp.EstimatorConfig(name, flags=flags)
                for forced in enumerate_configs(fam.graph):
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
            mean, var, cost = mp.empirical_moments(
                mp.EstimatorConfig(name, flags=("c",) if name in SCORE else ()), *args,
                n_samples=20, seed=seed, baselines=mp.BaselineState())
            _feed(h, [mean, var, cost])
        if seed < 3:
            _feed(h, mp.finite_difference_check(*args))


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


def _training(mp, h) -> None:
    runs = (
        ("structured_prediction", "8-4-8", dict(train_size=40, eval_size=8, eval_samples=4, epochs=2)),
        ("variational", "200x10-784", dict(train_size=6, eval_size=2, eval_samples=2, epochs=1)),
    )
    with tempfile.TemporaryDirectory() as tmp:
        for task, arch, sizes in runs:
            for name in ESTIMATORS:
                out = os.path.join(tmp, f"{arch}-{name}")
                cfg = mp.ExperimentConfig(
                    task=task, arch=arch, estimator=name, flags=("c", "vn", "idb"),
                    batch_size=3, seed=2, out_dir=out, log_every=1, eval_every=4, **sizes)
                mp.run_experiment(cfg)
                for fname in ("metrics.jsonl", "metrics.csv"):
                    with open(os.path.join(out, fname), "rb") as fh:
                        _feed(h, fh.read())
                tensors, _meta = mp.load_checkpoint(os.path.join(out, "model.ckpt"))
                _feed(h, tensors)


GROUPS = (("forced", _forced), ("oracle", _oracle), ("draws", _draws),
          ("nll", _nll), ("training", _training))


def main(argv) -> int:
    src = os.path.abspath(argv[1] if len(argv) > 1 else os.path.join(HERE, os.pardir, "src"))
    sys.path.insert(0, src)
    import muprop as mp

    if not os.path.abspath(mp.__file__).startswith(src + os.sep):
        sys.exit(f"imported muprop from {mp.__file__}, not from {src}")
    for name, run in GROUPS:
        h = hashlib.sha256()
        run(mp, h)
        print(f"{name:9s} {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
