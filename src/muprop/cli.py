"""Command-line interface: `muprop train` and `muprop verify`."""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .estimators import ESTIMATORS, SCORE_ESTIMATORS, EstimatorConfig
from .oracle import (
    empirical_moments,
    estimator_expectation,
    exact_expected_cost_and_grad,
    finite_difference_check,
    grad_relative_error,
    sample_family,
)
from .training import ExperimentConfig, run_experiment, run_sweep

# Larger presets for full-scale runs; these need an on-disk image dataset.
EXTENDED_PROFILES = {
    "sop-mnist": {
        "task": "structured_prediction",
        "arch": "392-200-200-392",
        "dataset": "mnist",
        "batch_size": 100,
        "epochs": 200,
        "train_size": 60000,
        "eval_size": 10000,
        "eval_samples": 100,
    },
    "sbn-mnist-1": {
        "task": "variational",
        "arch": "200-784",
        "dataset": "mnist",
        "batch_size": 100,
        "epochs": 200,
        "train_size": 60000,
        "eval_size": 10000,
        "eval_samples": 100,
    },
    "sbn-mnist-2": {
        "task": "variational",
        "arch": "200-200-784",
        "dataset": "mnist",
        "batch_size": 100,
        "epochs": 200,
        "train_size": 60000,
        "eval_size": 10000,
        "eval_samples": 100,
    },
    "sbn-mnist-cat": {
        "task": "variational",
        "arch": "200x10-784",
        "dataset": "mnist",
        "batch_size": 100,
        "epochs": 200,
        "train_size": 60000,
        "eval_size": 10000,
        "eval_samples": 100,
    },
}


def _parse_flags(text: str) -> tuple:
    return tuple(p for p in text.split(",") if p) if text else ()


def _build_train_config(args) -> ExperimentConfig:
    base: dict = {}
    if args.extended:
        if args.extended not in EXTENDED_PROFILES:
            raise SystemExit(f"unknown profile {args.extended!r}; choose from {sorted(EXTENDED_PROFILES)}")
        base.update(EXTENDED_PROFILES[args.extended])
    if args.config:
        with open(args.config) as fh:
            base.update(json.load(fh))
    overrides = {
        "task": args.task,
        "arch": args.arch,
        "estimator": args.estimator,
        "flags": _parse_flags(args.flags) if args.flags is not None else None,
        "lr": args.lr,
        "momentum": args.momentum,
        "batch_size": args.batch,
        "epochs": args.epochs,
        "seed": args.seed,
        "dataset": args.dataset,
        "data_dir": args.data_dir,
        "out_dir": args.out_dir,
        "eval_samples": args.eval_samples,
        "train_size": args.train_size,
        "eval_size": args.eval_size,
        "m_train": args.m,
        "max_steps": args.steps,
        "log_every": args.log_every,
        "eval_every": args.eval_every,
    }
    base.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig.from_dict(base)


def cmd_train(args) -> int:
    cfg = _build_train_config(args)
    if args.dry_run:
        print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
        return 0
    if args.sweep:
        out = run_sweep(cfg, [float(v) for v in args.sweep.split(",") if v])
        print(json.dumps({"best_lr": out["best_lr"], "best": out["best"]}, indent=2, sort_keys=True))
        return 0
    summary = run_experiment(cfg)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 1 if summary["diverged"] else 0


def cmd_verify(args) -> int:
    """Check estimator expectations against enumeration on random graphs."""
    worst = {name: 0.0 for name in SCORE_ESTIMATORS}
    bias = {name: 0.0 for name in ESTIMATORS if name not in SCORE_ESTIMATORS}
    fd_worst = 0.0
    for i in range(args.graphs):
        fam = sample_family(args.seed + i)
        exact = exact_expected_cost_and_grad(fam.graph, fam.cost, fam.inputs, fam.params)
        for name in SCORE_ESTIMATORS:
            got = estimator_expectation(EstimatorConfig(name), fam.graph, fam.cost, fam.inputs, fam.params)
            worst[name] = max(worst[name], grad_relative_error(got, exact.grads))
        for name in bias:
            got = estimator_expectation(EstimatorConfig(name), fam.graph, fam.cost, fam.inputs, fam.params)
            bias[name] = max(bias[name], grad_relative_error(got, exact.grads))
        if i < args.fd_graphs:
            fd_worst = max(fd_worst, finite_difference_check(fam.graph, fam.cost, fam.inputs, fam.params))

    fam = sample_family(args.seed)
    var_rows = {}
    for name in ("lr", "muprop"):
        _mean, var, _c = empirical_moments(
            EstimatorConfig(name), fam.graph, fam.cost, fam.inputs, fam.params,
            n_samples=args.samples, seed=args.seed,
        )
        var_rows[name] = float(sum(np.sum(v) for v in var.values()))

    report = {
        "graphs": args.graphs,
        "samples": args.samples,
        "max_rel_err": worst,
        "bias_observed": bias,
        "fd_max_rel_err": fd_worst,
        "total_variance": var_rows,
        "pass": all(v < args.tol for v in worst.values()) and fd_worst < 1e-4,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report["pass"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="muprop", description="Discrete stochastic gradient estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("train", help="train a model with a chosen estimator")
    tr.add_argument("--config", help="JSON config file")
    tr.add_argument("--extended", help=f"preset profile: {', '.join(sorted(EXTENDED_PROFILES))}")
    tr.add_argument("--task", choices=("structured_prediction", "variational"))
    tr.add_argument("--arch")
    tr.add_argument("--estimator", choices=ESTIMATORS)
    tr.add_argument("--flags", help="comma-separated baseline flags: c,vn,idb")
    tr.add_argument("--lr", type=float)
    tr.add_argument("--sweep", help="comma-separated learning rates to sweep")
    tr.add_argument("--momentum", type=float)
    tr.add_argument("--batch", type=int)
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--steps", type=int, help="hard cap on update steps")
    tr.add_argument("--seed", type=int)
    tr.add_argument("--dataset", choices=("synthetic", "mnist"))
    tr.add_argument("--data-dir")
    tr.add_argument("--out-dir")
    tr.add_argument("--eval-samples", type=int)
    tr.add_argument("--train-size", type=int)
    tr.add_argument("--eval-size", type=int)
    tr.add_argument("--m", type=int, help="objective samples per example")
    tr.add_argument("--log-every", type=int)
    tr.add_argument("--eval-every", type=int)
    tr.add_argument("--dry-run", action="store_true", help="print the resolved config and exit")
    tr.set_defaults(fn=cmd_train)

    ve = sub.add_parser("verify", help="enumeration and finite-difference checks")
    ve.add_argument("--graphs", type=int, default=20)
    ve.add_argument("--fd-graphs", type=int, default=3)
    ve.add_argument("--samples", type=int, default=2000)
    ve.add_argument("--seed", type=int, default=0)
    ve.add_argument("--tol", type=float, default=1e-9)
    ve.add_argument("--out", help="also write the JSON report here")
    ve.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
