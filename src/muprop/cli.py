"""Command-line interface: `muprop train` and `muprop verify`."""
from __future__ import annotations

import argparse
import dataclasses
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
_FULL_SCALE = {"dataset": "mnist", "batch_size": 100, "epochs": 200, "train_size": 60000,
               "eval_size": 10000, "eval_samples": 100}
EXTENDED_PROFILES = {
    name: {"task": task, "arch": arch, **_FULL_SCALE}
    for name, task, arch in (
        ("sop-mnist", "structured_prediction", "392-200-200-392"),
        ("sbn-mnist-1", "variational", "200-784"),
        ("sbn-mnist-2", "variational", "200-200-784"),
        ("sbn-mnist-cat", "variational", "200x10-784"),
    )
}


def _parse_flags(text: str) -> tuple:
    return tuple(p for p in text.split(",") if p)


def _build_train_config(args) -> ExperimentConfig:
    """Profile, then `--config` file, then every flag given; each flag's dest is its field."""
    base: dict = {}
    if args.extended:
        if args.extended not in EXTENDED_PROFILES:
            raise SystemExit(f"unknown profile {args.extended!r}; choose from {sorted(EXTENDED_PROFILES)}")
        base.update(EXTENDED_PROFILES[args.extended])
    if args.config:
        with open(args.config) as fh:
            base.update(json.load(fh))
    given = ((f.name, getattr(args, f.name)) for f in dataclasses.fields(ExperimentConfig))
    base.update((name, value) for name, value in given if value is not None)
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
        for name in ESTIMATORS:  # unbiased ones into `worst`, biased ones into `bias`
            got = estimator_expectation(EstimatorConfig(name), fam.graph, fam.cost, fam.inputs, fam.params)
            errors = worst if name in worst else bias
            errors[name] = max(errors[name], grad_relative_error(got, exact.grads))
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
    tr.add_argument("--flags", type=_parse_flags, help="comma-separated baseline flags: c,vn,idb")
    tr.add_argument("--lr", type=float)
    tr.add_argument("--sweep", help="comma-separated learning rates to sweep")
    tr.add_argument("--momentum", type=float)
    tr.add_argument("--batch", type=int, dest="batch_size")
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--steps", type=int, dest="max_steps", help="hard cap on update steps")
    tr.add_argument("--seed", type=int)
    tr.add_argument("--dataset", choices=("synthetic", "mnist"))
    tr.add_argument("--data-dir")
    tr.add_argument("--out-dir")
    tr.add_argument("--eval-samples", type=int)
    tr.add_argument("--train-size", type=int)
    tr.add_argument("--eval-size", type=int)
    tr.add_argument("--m", type=int, dest="m_train", help="objective samples per example")
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
