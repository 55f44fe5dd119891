"""The three workloads of the muprop benchmark and their correctness checks.

Every workload interleaves two streams of operations in one closed loop,
each kept at its share of the elapsed time:

* training: cycles of one `run_experiment` per estimator and one
  `evaluate_nll` of the trained `muprop` parameters, read back from the
  checkpoint, on a held-out set;
* oracle: graphs checked by enumeration (`exact_expected_cost_and_grad` plus
  `estimator_expectation`, and `finite_difference_check` on one graph of the
  `oracle` workload), and `empirical_moments` for `lr` and `muprop`.

Interleaving spreads every metric's samples over the whole run, so a slow
minute of a shared machine does not land on one metric only. All inputs
derive from the workload seed; the program only receives the generated
data, parameters and configs. Calls go through the `muprop` package
attributes at call time, so the tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import muprop
from muprop import oracle as _oracle
from muprop.data import synthetic_binary, synthetic_multimodal

ESTIMATORS = ("lr", "muprop", "muprop_rollout", "st", "half")
UNBIASED = ("lr", "muprop", "muprop_rollout")
MOMENT_ESTIMATORS = ("lr", "muprop")
EVAL_SAMPLES = 100  # the presets' eval_samples
REL_TOL = 1e-8  # gate 1: unbiased expectation vs enumerated gradient
FD_TOL = 1e-4  # `muprop verify`: finite differences vs enumerated gradient


def derive(seed: int, *labels) -> int:
    """Seed for one input of the run, independent of the program's own RNG code."""
    words = [int(seed) & 0xFFFFFFFF]
    words += [lab if isinstance(lab, int) else zlib.crc32(lab.encode()) for lab in labels]
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0] >> 1)


@dataclass(frozen=True)
class TrainSpec:
    task: str
    arch: str
    flags: tuple  # baseline flags of the unbiased estimators
    batch_size: int
    train_size: int  # examples per run_experiment epoch
    epochs: int
    lr: float
    eval_size: int  # held-out examples of the evals inside run_experiment
    eval_samples: int
    heldout: int  # examples of the standalone evaluate_nll


@dataclass(frozen=True)
class Workload:
    name: str
    train: TrainSpec
    train_share: float  # share of the run's time for the training stream
    moment_draws: int  # draws per empirical_moments call
    narrow_arch: str = ""  # the task at a narrow width, for enumeration
    chain_sizes: tuple = ()  # make_chain layer widths of the large enumeration
    fd_chain_sizes: tuple = ()  # make_chain layer widths of the finite-difference check

    @property
    def family(self) -> bool:
        """Oracle stream on sample_family graphs (else on the narrow task)."""
        return not self.narrow_arch


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sop-train",
            train=TrainSpec("structured_prediction", "392-200-200-392", ("c",), 100, 200, 1,
                            0.01, 1, 10, heldout=30),
            train_share=0.6,
            moment_draws=100,
            narrow_arch="392-4-4-392",  # 2**8 hidden configurations
        ),
        Workload(
            name="sbn-cat-train",
            # one step of 50 examples per run: a run takes 1.5-3 s, so each
            # estimator gets three or four runs spread over a benchmark run; the
            # per-run work (build, init, evals, checkpoint) is about 9 % of it
            train=TrainSpec("variational", "200x10-784", ("c", "vn", "idb"), 50, 50, 1,
                            0.01, 1, 10, heldout=6),
            train_share=0.75,
            moment_draws=10,
            narrow_arch="2x10-784",  # 10**2 latent configurations
        ),
        Workload(
            name="oracle",
            # gate 6's training traffic: the 8-4-8 completion task at batch 10
            train=TrainSpec("structured_prediction", "8-4-8", ("c",), 10, 200, 2,
                            0.2, 4, 100, heldout=64),
            train_share=0.4,
            moment_draws=100,
            chain_sizes=(3, 4, 4, 4),  # 12 binary units: 4,096 configurations
            fd_chain_sizes=(3, 3, 3),  # 6 binary units, 24 parameter entries
        ),
    )
}
FAMILY_GRAPHS = 256  # sample_family graphs generated per run; used in turn


# -- set-up -------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything generated before the first timed operation."""

    model: object  # graph or VariationalModel for evaluate_nll
    graph: object
    cost: int
    heldout: object  # evaluate_nll data argument
    examples: list  # input dicts of single held-out examples
    moment_params: dict
    fixed_cases: list  # oracle cases run once, first: (graph, cost, inputs, params, estimators, fd)
    cases: list  # oracle cases used in turn


def _task_model(spec: TrainSpec, arch: str):
    if spec.task == "structured_prediction":
        g = muprop.build_structured_predictor(arch, m=1)
        return g, g, g.meta["cost"]
    vm = muprop.build_sbn_variational(arch)
    return vm, vm.graph, vm.cost


def _heldout(spec: TrainSpec, seed: int):
    dims = [int(t) for t in spec.arch.split("-") if "x" not in t]
    if spec.task == "structured_prediction":
        X, Y = synthetic_multimodal(spec.heldout, dims[0], dims[-1], seed=derive(seed, "heldout"))
        return (X, Y), [{"x": X[i], "y": Y[i]} for i in range(len(X))]
    X = synthetic_binary(spec.heldout, dims[-1], seed=derive(seed, "heldout"))
    return X, [{"x": X[i]} for i in range(len(X))]


def _chain_case(seed: int, label: str, sizes: tuple, estimators: tuple, fd: bool):
    fam, _layout = _oracle.make_chain(derive(seed, label), len(sizes) - 1, sizes=list(sizes))
    return (fam.graph, fam.cost, fam.inputs, fam.params, estimators, fd)


def _oracle_cases(wl: Workload, seed: int, examples: list) -> tuple[list, list]:
    if not wl.family:
        _m, g, cost = _task_model(wl.train, wl.narrow_arch)
        cases = [(g, cost, examples[u % len(examples)],
                  muprop.init_params(g, seed=derive(seed, "narrow", u)), ESTIMATORS, False)
                 for u in range(8)]
        return [], cases
    fixed = [
        _chain_case(seed, "chain", wl.chain_sizes, ("muprop",), False),
        _chain_case(seed, "fd-chain", wl.fd_chain_sizes, ESTIMATORS, True),
    ]
    cases = []
    for i in range(FAMILY_GRAPHS):
        fam = _oracle.sample_family(derive(seed, "family", i))
        cases.append((fam.graph, fam.cost, fam.inputs, fam.params, ESTIMATORS, False))
    return fixed, cases


def setup(wl: Workload, seed: int) -> Inputs:
    """Data generation, graph builds and one warm-up draw per estimator."""
    spec = wl.train
    model, graph, cost = _task_model(spec, spec.arch)
    heldout, examples = _heldout(spec, seed)
    moment_params = muprop.init_params(graph, seed=derive(seed, "moment-params"))
    fixed, cases = _oracle_cases(wl, seed, examples)
    for k, name in enumerate(ESTIMATORS):
        flags = spec.flags if name in UNBIASED else ()
        muprop.estimate(muprop.EstimatorConfig(name, flags=flags), graph, cost, examples[0],
                        moment_params, rng_seed=derive(seed, "warm-up", k),
                        baselines=muprop.BaselineState(), idb_input=examples[0]["x"])
    return Inputs(model, graph, cost, heldout, examples, moment_params, fixed, cases)


# -- bookkeeping --------------------------------------------------------------


@dataclass
class Tally:
    """Operations, failures and the timed work of one pass over a workload."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    runs: dict = field(default_factory=lambda: {n: [] for n in ESTIMATORS})  # (examples, s)
    evals: list = field(default_factory=list)  # (examples, seconds) per evaluate_nll
    configs: list = field(default_factory=list)  # (configs, seconds) per oracle graph
    draws: list = field(default_factory=list)  # (draws, seconds) per moments call
    units: dict = field(default_factory=lambda: {"train": 0, "eval": 0, "oracle": 0})

    def op(self, problems: list, label: str) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(problems)}")
        return not problems


def _finite(x) -> bool:
    return x is not None and math.isfinite(float(x))


def check_run(cfg, summary: dict) -> tuple[list, dict | None]:
    """Problems with a finished run_experiment, plus its reloaded parameters."""
    problems = []
    if summary["diverged"]:
        problems.append("diverged")
    want_steps = cfg.epochs * -(-cfg.train_size // cfg.batch_size)
    if summary["steps"] != want_steps:
        problems.append(f"ran {summary['steps']} of {want_steps} steps")
    for key in ("initial_eval_nll", "final_eval_nll"):
        if not _finite(summary[key]):
            problems.append(f"{key} = {summary[key]!r}")
    with open(os.path.join(cfg.out_dir, "metrics.jsonl")) as fh:
        for line in fh:
            nll = json.loads(line)["eval_nll"]
            if nll is not None and not _finite(nll):
                problems.append(f"metrics row eval_nll = {nll!r}")
    params = None
    try:
        tensors, meta = muprop.load_checkpoint(os.path.join(cfg.out_dir, "model.ckpt"))
    except (OSError, ValueError) as exc:
        problems.append(f"checkpoint does not reload: {exc}")
    else:
        bad = sorted(k for k, v in tensors.items() if not np.all(np.isfinite(v)))
        if bad:
            problems.append(f"non-finite checkpoint tensors {bad}")
        if meta.get("step") != summary["steps"]:
            problems.append("checkpoint step disagrees with the summary")
        params = {k[len("param/"):]: v for k, v in tensors.items() if k.startswith("param/")}
    return problems, params


def _guarded(fn, *args, **kwargs):
    """(result, problems): an exception raised by the program is a failed operation."""
    try:
        return fn(*args, **kwargs), []
    except Exception as exc:  # the benchmark records the failure and keeps running
        return None, [f"raised {type(exc).__name__}: {exc}"]


# -- operations -----------------------------------------------------------------


class Pass:
    """One closed-loop pass over a workload; units are numbered per stream."""

    # One training cycle. The evaluation of the muprop run comes early in the
    # cycle, so a run that ends mid-cycle still evaluates every muprop run.
    CYCLE = ("lr", "muprop", "eval", "muprop_rollout", "st", "half")
    TRAIN_UNITS = len(CYCLE)

    def __init__(self, wl: Workload, seed: int, inputs: Inputs, out_root: str, tracer=None):
        self.wl, self.seed, self.inputs = wl, seed, inputs
        self.out_root, self.tracer = out_root, tracer
        self.tally = Tally()
        self.trained: dict[int, dict] = {}  # cycle -> reloaded muprop parameters

    def _phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    # -- training stream

    def train_unit(self, i: int) -> None:
        cycle, k = divmod(i, self.TRAIN_UNITS)
        if self.CYCLE[k] == "eval":
            self._phase("eval")
            self.evaluate(cycle)
        else:
            self._phase("train")
            self.train_run(cycle, self.CYCLE[k])

    def train_run(self, cycle: int, name: str) -> None:
        spec = self.wl.train
        cfg = muprop.ExperimentConfig(
            task=spec.task, arch=spec.arch, estimator=name,
            flags=spec.flags if name in UNBIASED else (),
            lr=spec.lr, momentum=0.9, batch_size=spec.batch_size, epochs=spec.epochs,
            train_size=spec.train_size, eval_size=spec.eval_size,
            eval_samples=spec.eval_samples,
            seed=derive(self.seed, "train", cycle, ESTIMATORS.index(name)),
            dataset="synthetic", out_dir=os.path.join(self.out_root, f"cycle{cycle}-{name}"),
        )
        t0 = time.perf_counter()
        summary, problems = _guarded(muprop.run_experiment, cfg)
        dt = time.perf_counter() - t0
        if summary is not None:
            problems, params = check_run(cfg, summary)
            if name == "muprop" and params is not None:
                self.trained[cycle] = params
        # the checkpoint is the only large output; the rest goes with out_root
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(cfg.out_dir, "model.ckpt"))
        if self.tally.op(problems, f"run_experiment {name} cycle {cycle}"):
            examples = cfg.epochs * cfg.train_size
            self.tally.runs[name].append((examples, dt))
            self.tally.units["train"] += examples

    def evaluate(self, cycle: int) -> None:
        params = self.trained.pop(cycle, None)
        if params is None:
            return  # the muprop run failed and was counted
        inputs = self.inputs
        t0 = time.perf_counter()
        nll, problems = _guarded(muprop.evaluate_nll, inputs.model, params, inputs.heldout,
                                 n_samples=EVAL_SAMPLES, seed=derive(self.seed, "eval", cycle))
        dt = time.perf_counter() - t0
        if nll is not None and not _finite(nll):
            problems = [f"evaluate_nll returned {nll!r}"]
        if self.tally.op(problems, f"evaluate_nll cycle {cycle}"):
            n = len(inputs.examples)
            self.tally.evals.append((n, dt))
            self.tally.units["eval"] += n * EVAL_SAMPLES

    # -- oracle stream: the fixed cases once, then (enumerate, moments lr, moments muprop)

    def oracle_unit(self, i: int) -> None:
        self._phase("oracle")
        inputs = self.inputs
        fixed = inputs.fixed_cases
        if i < len(fixed):
            self.oracle_graph(fixed[i], f"oracle fixed graph {i}")
            return
        u, k = divmod(i - len(fixed), 1 + len(MOMENT_ESTIMATORS))
        case = inputs.cases[u % len(inputs.cases)]
        if k == 0:
            self.oracle_graph(case, f"oracle graph {u}")
            return
        if self.wl.family:
            graph, cost, example, params = case[:4]
        else:  # moments at the task's full width
            graph, cost, params = inputs.graph, inputs.cost, inputs.moment_params
            example = inputs.examples[u % len(inputs.examples)]
        name = MOMENT_ESTIMATORS[k - 1]
        self.moments(name, graph, cost, example, params, derive(self.seed, "moments", u, k),
                     f"empirical_moments {name} unit {u}")

    def oracle_graph(self, case, label: str) -> None:
        """Exact gradient, each estimator's exact expectation, optional FD check."""
        graph, cost, inputs, params, estimators, fd = case
        t0 = time.perf_counter()
        exact, problems = _guarded(muprop.exact_expected_cost_and_grad, graph, cost, inputs,
                                   params)
        expectations = {}
        fd_err = None
        if exact is not None:
            for name in estimators:
                got, errs = _guarded(muprop.estimator_expectation, muprop.EstimatorConfig(name),
                                     graph, cost, inputs, params)
                problems += errs
                expectations[name] = got
            if fd:
                fd_err, errs = _guarded(muprop.finite_difference_check, graph, cost, inputs,
                                        params)
                problems += errs
        dt = time.perf_counter() - t0
        for name in UNBIASED:
            got = expectations.get(name)
            if got is not None:
                err = _oracle.grad_relative_error(got, exact.grads)
                if not err < REL_TOL:
                    problems.append(f"{name} expectation off by {err:.3e} (relative)")
        if fd_err is not None and not fd_err < FD_TOL:
            problems.append(f"finite differences off by {fd_err:.3e} (relative)")
        if self.tally.op(problems, label):
            visits = _config_visits(graph, params, estimators, fd)
            self.tally.configs.append((visits, dt))
            self.tally.units["oracle"] += visits

    def moments(self, name, graph, cost, inputs, params, seed: int, label: str) -> None:
        n = self.wl.moment_draws
        t0 = time.perf_counter()
        out, problems = _guarded(
            muprop.empirical_moments, muprop.EstimatorConfig(name, flags=("c",)), graph, cost,
            inputs, params, n_samples=n, seed=seed, baselines=muprop.BaselineState(),
        )
        dt = time.perf_counter() - t0
        if out is not None:
            mean, var, mean_cost = out
            arrays = list(mean.values()) + list(var.values())
            if not (_finite(mean_cost) and all(np.all(np.isfinite(a)) for a in arrays)):
                problems = ["non-finite moment"]
        if self.tally.op(problems, label):
            self.tally.draws.append((n, dt))
            self.tally.units["oracle"] += n

    # -- scheduling

    def run(self, seconds: float) -> Tally:
        """Run the stream furthest below its time share until `seconds` have passed
        and each stream has done its first round (a cycle; the first oracle units)."""
        streams = [
            _Stream(self.wl.train_share, self.train_unit, self.TRAIN_UNITS),
            _Stream(1.0 - self.wl.train_share, self.oracle_unit,
                    len(self.inputs.fixed_cases) + 1 + len(MOMENT_ESTIMATORS)),
        ]
        start = time.perf_counter()
        try:
            while True:
                if time.perf_counter() - start < seconds:
                    pending = streams
                else:
                    pending = [s for s in streams if s.done < s.first_round]
                if not pending:
                    return self.tally
                s = min(pending, key=lambda s: s.spent / s.share)
                t0 = time.perf_counter()
                s.unit(s.done)
                s.spent += time.perf_counter() - t0
                s.done += 1
        finally:
            self._phase(None)


@dataclass
class _Stream:
    share: float  # of the elapsed time
    unit: Callable[[int], None]  # runs unit i of the stream
    first_round: int  # units every run completes
    done: int = 0
    spent: float = 0.0


def _config_visits(graph, params, estimators, fd: bool) -> int:
    """Configurations visited by one oracle graph check, once per visiting call."""
    count = _oracle.config_count(graph)
    calls = 1 + len(estimators)
    if fd:
        entries = sum(int(np.asarray(v).size) for v in params.values())
        calls += 1 + 2 * entries
    return calls * count


# -- end-to-end metrics ---------------------------------------------------------


def _rate(pairs) -> float:
    work = sum(p[0] for p in pairs)
    secs = sum(p[1] for p in pairs)
    return work / secs if secs > 0 else 0.0


def throughput(tally: Tally) -> dict:
    """Work per second, pooled over the run: total work over total wall time.

    Single operations on a shared machine swing by a third from one second
    to the next, so rates pool every sample of the run rather than take a
    median of a handful. The training rate of all estimators together is
    that of one equal-sized run per estimator, at each estimator's rate.
    """
    per = {name: _rate(tally.runs[name]) for name in ESTIMATORS}
    out = {"train_examples_per_s": (
        len(per) / sum(1.0 / r for r in per.values()) if all(per.values()) else 0.0)}
    for name in ESTIMATORS:
        out[f"train_examples_per_s.{name}"] = per[name]
    out["eval_examples_per_s"] = _rate(tally.evals)
    out["oracle_configs_per_s"] = _rate(tally.configs)
    out["moment_draws_per_s"] = _rate(tally.draws)
    return out


THROUGHPUT_UNITS = {
    "train_examples_per_s": "examples/s",
    **{f"train_examples_per_s.{n}": "examples/s" for n in ESTIMATORS},
    "eval_examples_per_s": "examples/s",
    "oracle_configs_per_s": "configs/s",
    "moment_draws_per_s": "draws/s",
}
