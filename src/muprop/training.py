"""Training loop, checkpoints, metrics files, and learning-rate sweeps.

Runs are deterministic given the config: data, initialization, sampling, and
shuffling all derive from the config seed through counter-based streams.
Metrics go to `metrics.jsonl` with a CSV mirror; wall-clock timings live in a
separate `timing.jsonl` so the primary metrics files are reproducible
byte-for-byte across machines.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import os
import struct
import time
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .data import binarize, load_mnist, split_halves, synthetic_binary, synthetic_multimodal
from .estimators import SCORE_ESTIMATORS, BaselineState, EstimatorConfig, estimate
from .graph import RowFactors, bind
from .models import build_sbn_variational, build_structured_predictor, evaluate_nll, init_params

METRIC_FIELDS = (
    "step",
    "epoch",
    "train_cost",
    "eval_nll",
    "grad_norm",
    "signal_var",
    "diverged",
)


@dataclass
class ExperimentConfig:
    task: str = "structured_prediction"  # or "variational"
    arch: str = "8-4-8"
    estimator: str = "muprop"
    flags: tuple = ("c",)
    lr: float = 0.1
    momentum: float = 0.9
    batch_size: int = 10
    epochs: int = 10
    seed: int = 0
    dataset: str = "synthetic"  # or "mnist"
    data_dir: str | None = None
    out_dir: str = "runs/out"
    train_size: int = 200
    eval_size: int = 64
    eval_samples: int = 20
    m_train: int = 1
    log_every: int = 0  # extra metric rows every n steps; 0 = first/last only
    eval_every: int = 0  # extra eval rows every n steps; 0 = first/last only
    max_steps: int = 0  # 0 = no cap

    def __post_init__(self):
        for name, least in (("batch_size", 1), ("epochs", 0), ("max_steps", 0),
                            ("log_every", 0), ("eval_every", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        bad = set(d) - known
        if bad:
            raise ValueError(f"unknown config keys {sorted(bad)}")
        cfg = cls(**d)
        cfg.flags = tuple(cfg.flags)
        return cfg


def sgd_momentum_step(params: dict, grads: dict, velocity: dict, lr: float, momentum: float):
    """v' = momentum v - lr g;  p' = p + v'. Mutates and returns (params, velocity):
    each velocity array is updated in place, and each parameter is a new array."""
    with np.errstate(all="ignore"):  # overflow is caught by the divergence check
        for key, g in grads.items():
            p = np.asarray(params[key], dtype=np.float64)
            v = velocity.get(key)
            if v is None:
                v = velocity[key] = np.zeros_like(p)
            v *= momentum
            v -= lr * g
            params[key] = p + v
    return params, velocity


# -- checkpoints -----------------------------------------------------------------

CKPT_MAGIC = b"MPCKPT01"


def save_checkpoint(path, tensors: dict, meta: dict | None = None) -> None:
    """Binary checkpoint: magic, JSON manifest, then float64 little-endian blob.

    The bytes go to a temporary file in the same directory that then replaces
    `path`, so an interrupted save leaves any earlier checkpoint intact.
    """
    entries = []
    arrays = []
    offset = 0
    for key in sorted(tensors):
        a = np.asarray(tensors[key])
        entries.append({"name": str(key), "shape": list(a.shape), "offset": offset, "count": a.size})
        arrays.append(a)
        offset += a.size
    manifest = json.dumps({"tensors": entries, "meta": meta or {}}, sort_keys=True).encode()
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CKPT_MAGIC)
            fh.write(struct.pack("<I", len(manifest)))
            fh.write(manifest)
            for a in arrays:  # a copy only where `a` is not C-ordered little-endian float64
                fh.write(np.ascontiguousarray(a, dtype="<f8"))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Returns (tensors, meta); rejects wrong magic or truncated payloads."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic)")
    if len(raw) < 12:
        raise ValueError(f"{path}: truncated header ({len(raw)} of 12 bytes)")
    (mlen,) = struct.unpack("<I", raw[8:12])
    manifest = json.loads(raw[12 : 12 + mlen])
    blob = raw[12 + mlen :]
    tensors = {}
    total = sum(e["count"] for e in manifest["tensors"])
    if len(blob) != 8 * total:
        raise ValueError(f"{path}: truncated payload ({len(blob)} of {8 * total} bytes)")
    flat = np.frombuffer(blob, dtype="<f8")
    for e in manifest["tensors"]:
        a = flat[e["offset"] : e["offset"] + e["count"]].reshape(e["shape"]).copy()
        tensors[e["name"]] = a
    return tensors, manifest["meta"]


def _baseline_tensors(state: BaselineState) -> dict:
    out = {}
    if state.b:
        ids = sorted(state.b)
        out["baseline/ids"] = np.array(ids, dtype=np.float64)
        out["baseline/b"] = np.array([state.b[i] for i in ids])
        out["baseline/v"] = np.array([state.v.get(i, 0.0) for i in ids])
    if state.idb is not None:
        out["idb/w1"] = state.idb.w1
        out["idb/b1"] = state.idb.b1
        out["idb/w2"] = state.idb.w2
        out["idb/b2"] = state.idb.b2
    return out


# -- metrics ---------------------------------------------------------------------


class MetricsWriter:
    def __init__(self, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        self.jsonl_path = os.path.join(out_dir, "metrics.jsonl")
        self.csv_path = os.path.join(out_dir, "metrics.csv")
        self.timing_path = os.path.join(out_dir, "timing.jsonl")
        self._jsonl = open(self.jsonl_path, "w")
        self._csvf = open(self.csv_path, "w", newline="")
        self._csv = csv.DictWriter(self._csvf, fieldnames=METRIC_FIELDS)
        self._csv.writeheader()
        self._timing = open(self.timing_path, "w")

    def row(self, **kw) -> dict:
        row = {k: kw.get(k) for k in METRIC_FIELDS}
        wall = kw.get("wall_ms")
        self._jsonl.write(json.dumps(row, sort_keys=True) + "\n")
        self._csv.writerow({k: ("" if row[k] is None else row[k]) for k in METRIC_FIELDS})
        if wall is not None:
            self._timing.write(json.dumps({"step": row["step"], "wall_ms": wall}) + "\n")
        return row

    def close(self):
        for fh in (self._jsonl, self._csvf, self._timing):
            fh.close()


# -- experiment ------------------------------------------------------------------


def _build_task(cfg: ExperimentConfig):
    if cfg.task == "structured_prediction":
        g = build_structured_predictor(cfg.arch, m=cfg.m_train)
        return g, g.meta["cost"]
    if cfg.task == "variational":
        vm = build_sbn_variational(cfg.arch)
        return vm.graph, vm.cost
    raise ValueError(f"unknown task {cfg.task!r}")


def _load_data(cfg: ExperimentConfig, epoch_seed: int):
    """Returns ((train inputs...), (eval inputs...)) as task-shaped tuples."""
    if cfg.dataset == "synthetic":
        # one draw so train and eval share the same prototypes
        total = cfg.train_size + cfg.eval_size
        if cfg.task == "structured_prediction":
            toks = cfg.arch.split("-")
            in_dim, out_dim = int(toks[0]), int(toks[-1])
            X, Y = synthetic_multimodal(total, in_dim, out_dim, seed=_rng.fold(cfg.seed, 21))
            n = cfg.train_size
            return (X[:n], Y[:n]), (X[n:], Y[n:])
        dim = int(cfg.arch.split("-")[-1])
        X = synthetic_binary(total, dim, seed=_rng.fold(cfg.seed, 21))
        n = cfg.train_size
        return (X[:n],), (X[n:],)
    if cfg.dataset == "mnist":
        train = load_mnist(cfg.data_dir, "train")[: cfg.train_size]
        test = load_mnist(cfg.data_dir, "test")[: cfg.eval_size]
        btr = binarize(train, seed=epoch_seed)  # resampled every epoch
        bte = binarize(test, seed=_rng.fold(cfg.seed, 23), mode="threshold")
        if cfg.task == "structured_prediction":
            return split_halves(btr), split_halves(bte)
        return (btr,), (bte,)
    raise ValueError(f"unknown dataset {cfg.dataset!r}")


def _grad_norm(grads: dict) -> float:
    return math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Train one model with one estimator; returns the summary dict.

    Writes metrics.jsonl / metrics.csv / timing.jsonl, a final checkpoint, and
    summary.json into `cfg.out_dir`. Aborts (with `diverged` set) if the batch
    cost or any gradient goes non-finite.
    """
    graph, cost = _build_task(cfg)
    # only the score-function estimators take baseline flags; the rest run without
    flags = list(cfg.flags) if cfg.estimator in SCORE_ESTIMATORS else []
    est_cfg = EstimatorConfig(cfg.estimator, flags=frozenset(flags))
    params = init_params(graph, seed=_rng.fold(cfg.seed, 11))
    velocity: dict = {}
    baselines = BaselineState(seed=_rng.fold(cfg.seed, 12))
    writer = MetricsWriter(cfg.out_dir)
    try:
        sop = cfg.task == "structured_prediction"

        (train, evalset) = _load_data(cfg, epoch_seed=_rng.fold(cfg.seed, 31, 0))
        n_train = len(train[0])

        def eval_now(step_seed: int) -> float:
            return evaluate_nll(graph, params, evalset if sop else evalset[0], n_samples=cfg.eval_samples, seed=step_seed)

        step = 0
        diverged = False
        nll0 = eval_now(_rng.fold(cfg.seed, 41, 0))
        writer.row(step=0, epoch=0, train_cost=None, eval_nll=nll0, grad_norm=None, signal_var=None, diverged=False)
        best = (nll0, 0)
        t_start = time.perf_counter()

        for epoch in range(cfg.epochs):
            if cfg.dataset == "mnist" and epoch > 0:
                (train, _unused) = _load_data(cfg, epoch_seed=_rng.fold(cfg.seed, 31, epoch))
            order = _rng.stream(cfg.seed, 32, epoch).permutation(n_train)
            for lo in range(0, n_train, cfg.batch_size):
                batch = order[lo : lo + cfg.batch_size]
                acc: dict = {}
                cost_acc = 0.0
                sig_acc = []
                t0 = time.perf_counter()
                bound = bind(graph, params)  # the step's examples share one finiteness memo
                for i in batch:
                    if sop:
                        inputs = {"x": train[0][i], "y": train[1][i]}
                    else:
                        inputs = {"x": train[0][i]}
                    with np.errstate(all="ignore"):  # non-finite is caught below
                        est = estimate(
                            est_cfg,
                            graph,
                            cost,
                            inputs,
                            bound,
                            rng_seed=_rng.fold(cfg.seed, 33, step, int(i)),
                            baselines=baselines,
                            idb_input=inputs["x"],
                            validate=step == 0,
                            per_row=True,
                        )
                    cost_acc += est.cost.item()
                    for pid, g in est.grads.items():  # factors join, summed at the step
                        acc[pid] = acc[pid] + g if pid in acc else g
                    if est.node_diag:
                        sig_acc.append(float(np.mean([d["signal"] for d in est.node_diag.values()])))
                del bound  # held through the update, it would keep every old weight alive
                scale = 1.0 / len(batch)
                grads = {pid: (g.total() if isinstance(g, RowFactors) else g[0]) * scale
                         for pid, g in acc.items()}
                batch_cost = cost_acc * scale
                gnorm = _grad_norm(grads)
                if not (math.isfinite(batch_cost) and math.isfinite(gnorm)):
                    diverged = True
                    writer.row(step=step + 1, epoch=epoch, train_cost=None, eval_nll=None,
                               grad_norm=None, signal_var=None, diverged=True)
                    break
                named = {graph.nodes[pid].name: g for pid, g in grads.items()}
                sgd_momentum_step(params, named, velocity, cfg.lr, cfg.momentum)
                step += 1
                wall = (time.perf_counter() - t0) * 1000.0
                if cfg.log_every and step % cfg.log_every == 0:
                    nll = None
                    if cfg.eval_every and step % cfg.eval_every == 0:
                        nll = eval_now(_rng.fold(cfg.seed, 41, step))
                        if nll < best[0]:
                            best = (nll, step)
                    sv = float(np.var(sig_acc)) if len(sig_acc) > 1 else None
                    writer.row(step=step, epoch=epoch, train_cost=batch_cost, eval_nll=nll,
                               grad_norm=gnorm, signal_var=sv, diverged=False, wall_ms=wall)
                if cfg.max_steps and step >= cfg.max_steps:
                    break
            if diverged or (cfg.max_steps and step >= cfg.max_steps):
                break

        final_nll = None
        if not diverged:
            final_nll = eval_now(_rng.fold(cfg.seed, 42))
            if final_nll < best[0]:
                best = (final_nll, step)
            writer.row(step=step, epoch=cfg.epochs, train_cost=None, eval_nll=final_nll,
                       grad_norm=None, signal_var=None, diverged=False)
    finally:
        writer.close()

    tensors = {f"param/{k}": v for k, v in params.items()}
    tensors.update({f"velocity/{k}": v for k, v in velocity.items()})
    tensors.update(_baseline_tensors(baselines))
    save_checkpoint(
        os.path.join(cfg.out_dir, "model.ckpt"),
        tensors,
        meta={"config": cfg.to_dict(), "step": step},
    )
    summary = {
        "task": cfg.task,
        "arch": cfg.arch,
        "estimator": cfg.estimator,
        "flags": flags,
        "lr": cfg.lr,
        "seed": cfg.seed,
        "steps": step,
        "diverged": diverged,
        "initial_eval_nll": nll0,
        "final_eval_nll": final_nll,
        "best_eval_nll": best[0],
        "best_step": best[1],
        "train_seconds": round(time.perf_counter() - t_start, 3),
        "out_dir": cfg.out_dir,
    }
    with open(os.path.join(cfg.out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return summary


def pick_best(results) -> dict:
    """Best sweep entry: lowest final bound, diverged runs never win, ties go
    to the smaller learning rate."""
    if not results:
        raise ValueError("empty sweep")
    def key(r):
        bad = r["diverged"] or r["final_eval_nll"] is None
        return (bad, r["final_eval_nll"] if not bad else math.inf, r["lr"])
    return min(results, key=key)


def run_sweep(cfg: ExperimentConfig, lrs) -> dict:
    """Run one experiment per learning rate; pick the best final bound."""
    lrs = [float(v) for v in lrs]
    if not lrs:
        raise ValueError("empty sweep")
    results = []
    for lr in lrs:
        sub = dataclasses.replace(cfg, lr=lr, out_dir=os.path.join(cfg.out_dir, f"lr_{lr:g}"))
        results.append(run_experiment(sub))
    winner = pick_best(results)
    out = {"sweep": results, "best_lr": winner["lr"], "best": winner}
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "sweep.json"), "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
    return out
