"""Checks on the benchmark itself: tracing must not change results, must see
every forward pass an estimator reports, and must leave no wrapper behind.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import muprop  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402

SEED = 5
WALL_CLOCK_FIELDS = ("train_seconds", "out_dir")


def _bindings():
    """Every callable reachable from a muprop module or sampling-layer class."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is not None and (name == "muprop" or name.startswith("muprop.")):
            for key, value in vars(mod).items():
                if callable(value):
                    out[(name, key)] = value
    for cls in (muprop.BernoulliLayer, muprop.CategoricalLayer):
        for key, value in vars(cls).items():
            if callable(value):
                out[(cls.__name__, key)] = value
    return out


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One sop-train training cycle untraced and traced, plus one traced oracle graph."""
    sop = W.WORKLOADS["sop-train"]
    fam = W.WORKLOADS["oracle"]
    sop_inputs = W.setup(sop, SEED)
    fam_inputs = W.setup(fam, SEED)
    plain_dir = str(tmp_path_factory.mktemp("plain"))
    traced_dir = str(tmp_path_factory.mktemp("traced"))

    plain = W.Pass(sop, SEED, sop_inputs, plain_dir)
    for i in range(W.Pass.TRAIN_UNITS):
        plain.train_unit(i)

    before = _bindings()
    tr = tracing.Tracer()
    traced = W.Pass(sop, SEED, sop_inputs, traced_dir, tracer=tr)
    oracle = W.Pass(fam, SEED, fam_inputs, traced_dir, tracer=tr)
    oracle.tally = traced.tally
    tr.install()
    try:
        for i in range(W.Pass.TRAIN_UNITS):
            traced.train_unit(i)
        # the finite-difference graph, then one family graph and its two moments calls
        for i in range(1, 5):
            oracle.oracle_unit(i)
    finally:
        tr.uninstall()
    after = _bindings()
    return dict(plain=plain.tally, traced=traced.tally, plain_dir=plain_dir,
                traced_dir=traced_dir, tracer=tr, before=before, after=after)


def test_tracing_leaves_run_outputs_unchanged(runs):
    assert runs["plain"].failures == [] and runs["traced"].failures == []
    for name in W.ESTIMATORS:
        a = os.path.join(runs["plain_dir"], f"cycle0-{name}")
        b = os.path.join(runs["traced_dir"], f"cycle0-{name}")
        for fname in ("metrics.jsonl", "metrics.csv"):
            with open(os.path.join(a, fname), "rb") as fa, open(os.path.join(b, fname), "rb") as fb:
                assert fa.read() == fb.read(), (name, fname)
        summaries = []
        for d in (a, b):
            with open(os.path.join(d, "summary.json")) as fh:
                s = json.load(fh)
            summaries.append({k: v for k, v in s.items() if k not in WALL_CLOCK_FIELDS})
        assert summaries[0] == summaries[1], name


def test_span_counts_match_reported_passes(runs):
    tr = runs["tracer"]
    seen = {}
    for i in range(len(tr)):
        name = tr.span_name(i)
        if name == "estimators.estimate":
            seen.setdefault(i, {"stochastic": 0, "mean_field": 0})
        elif name.startswith("graph.forward."):
            p = tr.parent[i]
            while p >= 0 and tr.span_name(p) != "estimators.estimate":
                p = tr.parent[p]
            if p >= 0:
                seen.setdefault(p, {"stochastic": 0, "mean_field": 0})[name.rsplit(".", 1)[1]] += 1
    assert seen
    for i, got in seen.items():
        assert (got["stochastic"], got["mean_field"]) == tr.extra[i], tr.span_name(tr.root[i])

    table, _extras = tr.aggregate()
    # one estimator draw per trained example, every estimator exercised
    assert tracing.calls(table, "train", "estimators.estimate") == runs["traced"].units["train"]
    for fn in ("lr_estimate", "muprop_estimate", "muprop_rollout_estimate", "st_estimate",
               "half_estimate"):
        assert tracing.calls(table, "train", f"estimators.{fn}") > 0, fn
    # forced draws (estimator_expectation) and shared mean-field passes (empirical_moments)
    assert tracing.calls(table, "oracle", "estimators.estimate") > 0
    assert tracing.calls(table, "oracle", "oracle.finite_difference_check") == 1
    assert tracing.calls(table, "eval", "models.evaluate_nll") == 1


def test_uninstall_restores_every_binding(runs):
    before, after = runs["before"], runs["after"]
    assert before.keys() == after.keys()
    for key, value in before.items():
        assert after[key] is value, key
        assert not hasattr(value, "__perfbench_original__"), key


def test_run_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
