"""Spans around the public functions of each `muprop` module.

The tracer patches every module binding a caller can reach: the defining
module, the package namespace, and every `from .x import f` copy in the
other `muprop` modules, plus the sampling-layer methods. Spans stay in
memory (name, start, end, parent, root operation) until `write` is called;
`per_layer` turns them into self times and counts.

Nothing under `src/` is edited: `install` swaps attributes and `uninstall`
puts the originals back.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

# (defining module, attribute, span name). Span names are "<layer>.<function>".
FUNCTIONS = (
    ("muprop.training", "run_experiment", "training.run_experiment"),
    ("muprop.training", "sgd_momentum_step", "training.sgd_momentum_step"),
    ("muprop.training", "save_checkpoint", "training.save_checkpoint"),
    ("muprop.estimators", "estimate", "estimators.estimate"),
    ("muprop.estimators", "lr_estimate", "estimators.lr_estimate"),
    ("muprop.estimators", "muprop_estimate", "estimators.muprop_estimate"),
    ("muprop.estimators", "muprop_rollout_estimate", "estimators.muprop_rollout_estimate"),
    ("muprop.estimators", "st_estimate", "estimators.st_estimate"),
    ("muprop.estimators", "half_estimate", "estimators.half_estimate"),
    ("muprop.estimators", "mean_field_pass", "estimators.mean_field_pass"),
    ("muprop.estimators", "apply_baselines", "estimators.apply_baselines"),
    ("muprop.estimators", "idb_update", "estimators.idb_update"),
    ("muprop.graph", "forward", "graph.forward"),
    ("muprop.graph", "backward", "graph.backward"),
    ("muprop.rng", "stream", "rng.stream"),
    ("muprop.models", "build_structured_predictor", "models.build_structured_predictor"),
    ("muprop.models", "build_sbn_variational", "models.build_sbn_variational"),
    ("muprop.models", "init_params", "models.init_params"),
    ("muprop.models", "evaluate_nll", "models.evaluate_nll"),
    ("muprop.oracle", "exact_expected_cost_and_grad", "oracle.exact_expected_cost_and_grad"),
    ("muprop.oracle", "estimator_expectation", "oracle.estimator_expectation"),
    ("muprop.oracle", "empirical_moments", "oracle.empirical_moments"),
    ("muprop.oracle", "finite_difference_check", "oracle.finite_difference_check"),
)
# Work `run_experiment` does once per run, whatever its number of examples.
PER_RUN_FUNCTIONS = ("models.build_structured_predictor", "models.build_sbn_variational",
                     "models.init_params", "models.evaluate_nll", "training.save_checkpoint")
LAYER_CLASSES = ("BernoulliLayer", "CategoricalLayer")
LAYER_METHODS = ("sample", "log_prob", "score", "mean")


def _mode_suffix(mode) -> str:
    return "mean_field" if getattr(mode, "value", mode) == "mean_field" else "stochastic"


def _forward_mode(args, kwargs) -> str:
    mode = kwargs["mode"] if "mode" in kwargs else (args[3] if len(args) > 3 else "stochastic")
    return _mode_suffix(mode)


def _backward_mode(args, kwargs) -> str:
    trace = kwargs["trace"] if "trace" in kwargs else args[1]
    return _mode_suffix(trace.mode)


class Tracer:
    """Records spans while installed; one root operation per outermost call.

    `phase` labels the root operations that start while it is set ("train",
    "eval" or "oracle"), so per-layer numbers can be split by workload phase.
    Spans live in flat arrays (a traced run makes about a million of them).
    """

    def __init__(self) -> None:
        self.names: list[str] = []  # span name by name id
        self.name_of: array = array("H")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("q")
        self.root: array = array("q")
        self.extra: dict[int, tuple] = {}  # span index -> on_return value
        self.root_phase: dict[int, str | None] = {}
        self.phase: str | None = None
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- installation ---------------------------------------------------------

    def _wrap(self, fn, name, name_of=None, on_return=None):
        stack, clock = self._stack, time.perf_counter
        names, starts, ends = self.name_of, self.start, self.end
        parents, roots, extra = self.parent, self.root, self.extra
        fixed = self._name_id(name)
        if name_of is not None:
            ids = {suffix: self._name_id(f"{name}.{suffix}") for suffix in ("stochastic", "mean_field")}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            if stack:
                parent = stack[-1]
                root = roots[parent]
            else:
                parent = -1
                root = idx
                self.root_phase[idx] = self.phase
            names.append(fixed if name_of is None else ids[name_of(args, kwargs)])
            parents.append(parent)
            roots.append(root)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if on_return is not None:
                extra[idx] = on_return(args, kwargs, out)
            return out

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import muprop  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "muprop" or n.startswith("muprop."))]
        hooks = {
            "graph.forward": dict(name_of=_forward_mode),
            "graph.backward": dict(name_of=_backward_mode, on_return=self._adjoint_bytes),
            "estimators.estimate": dict(on_return=_passes),
        }
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name, **hooks.get(name, {}))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        dist = sys.modules["muprop.distributions"]
        for cls_name in LAYER_CLASSES:
            cls = getattr(dist, cls_name)
            for meth in LAYER_METHODS:
                fn = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(fn, f"distributions.{meth}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _adjoint_bytes(self, args, kwargs, adj):
        graph = kwargs["graph"] if "graph" in kwargs else args[0]
        sids = frozenset(graph.stochastic_ids)
        total = at_stochastic = 0
        for i, a in enumerate(adj):
            if a is not None:
                nb = getattr(a, "nbytes", 8)
                total += nb
                if i in sids:
                    at_stochastic += nb
        return (total, at_stochastic)

    # -- analysis -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def span_name(self, i: int) -> str:
        return self.names[self.name_of[i]]

    def write(self, path: str) -> None:
        """Gzipped TSV, one span a line: id, parent, root, phase, name, start, end, extra."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\troot\tphase\tname\tstart_s\tend_s\textra\n")
            for i in range(len(self)):
                root = self.root[i]
                extra = self.extra.get(i)
                fh.write(f"{i}\t{self.parent[i]}\t{root}\t{self.root_phase.get(root)}\t"
                         f"{self.span_name(i)}\t{self.start[i]!r}\t{self.end[i]!r}\t"
                         f"{'' if extra is None else ','.join(map(str, extra))}\n")

    def aggregate(self):
        """{(phase, span name): [calls, self seconds]} plus per-phase adjoint bytes."""
        n = len(self)
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        table: dict = defaultdict(lambda: [0, 0.0])
        extras: dict = defaultdict(lambda: defaultdict(float))
        names, name_of, root, root_phase = self.names, self.name_of, self.root, self.root_phase
        run_id = self._ids.get("training.run_experiment")
        fixed_ids = {self._ids.get(f) for f in PER_RUN_FUNCTIONS} - {None}
        for i in range(n):
            phase = root_phase.get(root[i])
            name = names[name_of[i]]
            row = table[(phase, name)]
            row[0] += 1
            row[1] += (end[i] - start[i]) - child[i]
            if name_of[i] == run_id:
                extras[phase]["run_s"] += end[i] - start[i]
            elif name_of[i] in fixed_ids and parent[i] >= 0 and name_of[parent[i]] == run_id:
                extras[phase]["per_run_fixed_s"] += end[i] - start[i]
            if name.startswith("graph.backward"):
                mode = name.rsplit(".", 1)[1]
                total, at_stochastic = self.extra[i]
                extras[phase]["adjoint_bytes"] += total
                extras[phase][f"adjoint_bytes.{mode}"] += total
                extras[phase][f"adjoint_bytes_at_stochastic.{mode}"] += at_stochastic
        return table, extras


def _passes(args, kwargs, est):
    return (est.stochastic_passes, est.mean_field_passes)


def self_seconds(table, phase: str, *prefixes: str) -> float:
    return sum(v[1] for (p, name), v in table.items()
               if p == phase and name.startswith(prefixes))


def calls(table, phase: str, *prefixes: str) -> int:
    return sum(v[0] for (p, name), v in table.items()
               if p == phase and name.startswith(prefixes))


def per_layer(tracer: Tracer, units: dict) -> dict:
    """Per-layer metrics as {name: (value, unit)}, per unit of the phase's work.

    `units` maps phase -> count: trained examples ("train"), evaluated
    example x sample pairs ("eval"), enumerated configurations plus moment
    draws ("oracle").
    """
    table, extras = tracer.aggregate()

    def us(phase, *prefixes):
        return (1e6 * self_seconds(table, phase, *prefixes) / max(units.get(phase, 0), 1), "us")

    def per(phase, *prefixes):
        return (calls(table, phase, *prefixes) / max(units.get(phase, 0), 1), "count")

    ex = extras["train"]
    mf_bytes = ex["adjoint_bytes.mean_field"]
    return {
        "train.training.self_us": us("train", "training.run_experiment"),
        "train.training.sgd_us": us("train", "training.sgd_momentum_step"),
        "train.training.checkpoint_us": us("train", "training.save_checkpoint"),
        "train.models.build_us": us("train", "models.build_", "models.init_params"),
        "train.models.eval_us": us("train", "models.evaluate_nll"),
        "train.estimators.dispatch_us": us("train", "estimators.estimate"),
        "train.estimators.seed_assembly_us": us(
            "train", "estimators.lr_estimate", "estimators.muprop_", "estimators.st_estimate",
            "estimators.half_estimate", "estimators.mean_field_pass"),
        "train.estimators.baselines_us": us(
            "train", "estimators.apply_baselines", "estimators.idb_update"),
        "train.graph.forward_stochastic_us": us("train", "graph.forward.stochastic"),
        "train.graph.forward_mean_field_us": us("train", "graph.forward.mean_field"),
        "train.graph.backward_stochastic_us": us("train", "graph.backward.stochastic"),
        "train.graph.backward_mean_field_us": us("train", "graph.backward.mean_field"),
        "train.distributions_us": us("train", "distributions."),
        "train.rng_us": us("train", "rng."),
        "train.graph.forward_calls": per("train", "graph.forward"),
        "train.graph.backward_calls": per("train", "graph.backward"),
        "train.distributions.calls": per("train", "distributions."),
        "train.rng.stream_calls": per("train", "rng.stream"),
        "train.graph.adjoint_mb": (
            ex["adjoint_bytes"] / 1e6 / max(units.get("train", 0), 1), "MB"),
        "train.training.per_run_fixed_frac": (
            ex["per_run_fixed_s"] / ex["run_s"] if ex["run_s"] else 0.0, "ratio"),
        "train.graph.mean_field_useful_frac": (
            ex["adjoint_bytes_at_stochastic.mean_field"] / mf_bytes if mf_bytes else 0.0, "ratio"),
        "eval.models.self_us": us("eval", "models.evaluate_nll"),
        "eval.graph.forward_stochastic_us": us("eval", "graph.forward.stochastic"),
        "eval.distributions_us": us("eval", "distributions."),
        "eval.rng_us": us("eval", "rng."),
        "eval.graph.forward_calls": per("eval", "graph.forward"),
        "oracle.exact.self_us": us("oracle", "oracle.exact_expected_cost_and_grad"),
        "oracle.expect.self_us": us("oracle", "oracle.estimator_expectation"),
        "oracle.moments.self_us": us("oracle", "oracle.empirical_moments"),
        "oracle.fd.self_us": us("oracle", "oracle.finite_difference_check"),
        "oracle.estimators_us": us("oracle", "estimators."),
        "oracle.graph.forward_us": us("oracle", "graph.forward"),
        "oracle.graph.backward_us": us("oracle", "graph.backward"),
        "oracle.distributions_us": us("oracle", "distributions."),
        "oracle.rng_us": us("oracle", "rng."),
        "oracle.graph.forward_calls": per("oracle", "graph.forward"),
        "oracle.rng.stream_calls": per("oracle", "rng.stream"),
    }
