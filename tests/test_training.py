"""Optimizer, checkpoints, metrics files, and the experiment loop."""
import json
import os
import struct

import numpy as np
import pytest

from muprop import (
    BaselineState,
    EstimatorConfig,
    ExperimentConfig,
    estimate,
    init_params,
    load_checkpoint,
    run_experiment,
    save_checkpoint,
)
from muprop import training
from muprop.estimators import ESTIMATORS, SCORE_ESTIMATORS
from muprop.rng import fold, stream
from muprop.training import (
    CKPT_MAGIC,
    METRIC_FIELDS,
    MetricsWriter,
    pick_best,
    run_sweep,
    sgd_momentum_step,
)


def small_config(out_dir, **kw):
    base = dict(
        task="structured_prediction",
        arch="4-2-4",
        estimator="muprop",
        flags=("c",),
        lr=0.05,
        epochs=2,
        batch_size=8,
        train_size=24,
        eval_size=8,
        eval_samples=4,
        seed=0,
        out_dir=str(out_dir),
    )
    base.update(kw)
    return ExperimentConfig.from_dict(base)


def test_sgd_momentum_hand_values():
    w = np.zeros(())
    params = {"w": w}
    vel = {}
    sgd_momentum_step(params, {"w": np.ones(())}, vel, lr=0.1, momentum=0.9)
    assert vel["w"] == pytest.approx(-0.1) and params["w"] == pytest.approx(-0.1)
    v = vel["w"]
    sgd_momentum_step(params, {"w": np.ones(())}, vel, lr=0.1, momentum=0.9)
    assert vel["w"] is v and v == 0.9 * -0.1 - 0.1 * 1.0  # in place, same roundings
    assert vel["w"] == pytest.approx(-0.19)
    assert params["w"] == pytest.approx(-0.29)
    assert w == 0.0  # the caller's parameter array is never written


def test_config_round_trip_rejects_unknown_keys():
    cfg = ExperimentConfig(arch="8-4-8", flags=("c", "vn"))
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"archh": "8-4-8"})


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "model.ckpt"
    tensors = {
        "w": np.arange(6, dtype=np.float64).reshape(2, 3),
        "scalar": np.array(3.25),
        "vec": np.array([1.5, -2.0]),
    }
    save_checkpoint(path, tensors, meta={"step": 12})
    loaded, meta = load_checkpoint(path)
    assert meta == {"step": 12}
    assert set(loaded) == set(tensors)
    for k in tensors:
        assert loaded[k].shape == tensors[k].shape
        assert np.array_equal(loaded[k], tensors[k])
    assert loaded["scalar"].shape == ()


def test_checkpoint_bytes_are_each_tensor_as_little_endian_float64(tmp_path):
    """Whatever a tensor's dtype, byte order or strides, the file holds its
    values as C-ordered little-endian float64, and a 0-d tensor's shape is
    recorded as `()`: the bytes built by hand below."""
    tensors = {
        "f32": np.array([[1.5, -2.25], [3.0, 0.1]], dtype=np.float32),
        "big": np.array([1.0, -0.0, 7.5e300], dtype=">f8"),
        "strided": np.arange(12.0).reshape(3, 4)[:, ::2].T,
        "scalar": np.array(-3.25),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tensors, meta={"step": 3})
    entries, blobs, offset = [], [], 0
    for key in sorted(tensors):
        a = np.asarray(tensors[key], dtype=np.float64)
        entries.append({"name": key, "shape": list(a.shape), "offset": offset, "count": a.size})
        blobs.append(a.astype("<f8").tobytes())
        offset += a.size
    manifest = json.dumps({"tensors": entries, "meta": {"step": 3}}, sort_keys=True).encode()
    want = CKPT_MAGIC + struct.pack("<I", len(manifest)) + manifest + b"".join(blobs)
    assert path.read_bytes() == want
    assert load_checkpoint(path)[0]["scalar"].shape == ()


def test_checkpoint_corruption_detection(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones(4)})
    raw = path.read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTMAGIC" + raw[8:])
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(bad)
    bad.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(bad)
    bad.write_bytes(raw[:9])
    with pytest.raises(ValueError, match="truncated header"):
        load_checkpoint(bad)
    for cut in range(len(raw)):  # inside the magic, the header, the manifest, the payload
        bad.write_bytes(raw[:cut])
        with pytest.raises(ValueError):
            load_checkpoint(bad)


def test_checkpoint_save_replaces_the_file_atomically(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones(3)})
    before = path.read_bytes()

    def interrupted(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        save_checkpoint(path, {"w": np.zeros(3)})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]


def test_metrics_files_are_closed_when_training_raises(tmp_path, monkeypatch):
    def failing_estimate(*args, **kwargs):
        raise RuntimeError("estimator failed")

    monkeypatch.setattr("muprop.training.estimate", failing_estimate)
    with pytest.raises(RuntimeError, match="estimator failed") as failure:
        run_experiment(small_config(tmp_path))
    # the traceback keeps run_experiment's frame, and so its writer, alive
    assert failure.tb is not None
    rows = [json.loads(s) for s in open(tmp_path / "metrics.jsonl")]
    assert [r["step"] for r in rows] == [0]  # the initial row reached the file
    assert len(open(tmp_path / "metrics.csv").read().splitlines()) == 2


def test_metrics_writer_files_mirror_each_other(tmp_path):
    w = MetricsWriter(str(tmp_path))
    w.row(step=0, epoch=0, train_cost=None, eval_nll=5.0, grad_norm=None,
          signal_var=None, diverged=False)
    w.row(step=1, epoch=0, train_cost=2.5, eval_nll=None, grad_norm=1.25,
          signal_var=0.5, diverged=False, wall_ms=3.0)
    w.close()
    lines = [json.loads(s) for s in open(w.jsonl_path)]
    assert [set(r) for r in lines] == [set(METRIC_FIELDS)] * 2
    assert lines[0]["eval_nll"] == 5.0 and lines[1]["train_cost"] == 2.5
    csv_lines = open(w.csv_path).read().strip().splitlines()
    assert csv_lines[0] == ",".join(METRIC_FIELDS)
    assert csv_lines[1].split(",")[3] == "5.0"  # eval_nll column
    assert csv_lines[2].split(",")[2] == "2.5"  # train_cost column
    assert csv_lines[1].split(",")[2] == ""     # None becomes empty
    timing = [json.loads(s) for s in open(w.timing_path)]
    assert timing == [{"step": 1, "wall_ms": 3.0}]


def test_run_experiment_smoke_and_artifacts(tmp_path):
    cfg = small_config(tmp_path / "run")
    summary = run_experiment(cfg)
    assert summary["diverged"] is False
    assert summary["steps"] == 2 * 3  # 24 examples / batch 8 * 2 epochs
    assert summary["final_eval_nll"] is not None
    assert summary["best_eval_nll"] <= summary["initial_eval_nll"] + 1e-12
    out = tmp_path / "run"
    for name in ("metrics.jsonl", "metrics.csv", "timing.jsonl",
                 "model.ckpt", "summary.json"):
        assert (out / name).exists()
    rows = [json.loads(s) for s in open(out / "metrics.jsonl")]
    assert rows[0]["step"] == 0 and rows[0]["eval_nll"] is not None
    assert rows[-1]["eval_nll"] == summary["final_eval_nll"]
    tensors, meta = load_checkpoint(out / "model.ckpt")
    assert meta["step"] == summary["steps"]
    assert any(k.startswith("param/") for k in tensors)
    assert any(k.startswith("velocity/") for k in tensors)
    assert any(k.startswith("baseline/") for k in tensors)


def test_run_experiment_is_byte_deterministic(tmp_path):
    import hashlib
    digests = []
    for tag in ("a", "b"):
        cfg = small_config(tmp_path / tag, seed=3)
        run_experiment(cfg)
        h = hashlib.sha256()
        for name in ("metrics.jsonl", "metrics.csv"):
            h.update((tmp_path / tag / name).read_bytes())
        digests.append(h.hexdigest())
    assert digests[0] == digests[1]
    cfg = small_config(tmp_path / "c", seed=4)
    run_experiment(cfg)
    h = hashlib.sha256()
    for name in ("metrics.jsonl", "metrics.csv"):
        h.update((tmp_path / "c" / name).read_bytes())
    assert h.hexdigest() != digests[0]


def test_periodic_logging_and_step_cap(tmp_path):
    cfg = small_config(tmp_path / "run", log_every=1, eval_every=2, max_steps=4)
    summary = run_experiment(cfg)
    assert summary["steps"] == 4
    rows = [json.loads(s) for s in open(tmp_path / "run" / "metrics.jsonl")]
    steps = [r["step"] for r in rows]
    assert steps == [0, 1, 2, 3, 4, 4]  # initial, four live rows, final eval
    assert rows[2]["eval_nll"] is not None  # eval_every=2 fired at step 2
    assert rows[1]["eval_nll"] is None
    timing = [json.loads(s) for s in open(tmp_path / "run" / "timing.jsonl")]
    assert [t["step"] for t in timing] == [1, 2, 3, 4]
    assert all(t["wall_ms"] > 0 for t in timing)


def test_divergence_abort(tmp_path):
    cfg = small_config(tmp_path / "run", lr=float("inf"), epochs=3)
    summary = run_experiment(cfg)
    assert summary["diverged"] is True
    assert summary["final_eval_nll"] is None
    assert summary["steps"] <= 2
    rows = [json.loads(s) for s in open(tmp_path / "run" / "metrics.jsonl")]
    assert rows[-1]["diverged"] is True


def test_variational_task_trains(tmp_path):
    cfg = small_config(tmp_path / "run", task="variational", arch="3-6",
                       estimator="lr", epochs=1)
    summary = run_experiment(cfg)
    assert summary["diverged"] is False
    assert summary["final_eval_nll"] is not None


def test_idb_flag_builds_and_stores_the_net(tmp_path):
    cfg = small_config(tmp_path / "run", flags=("c", "idb"), epochs=1)
    run_experiment(cfg)
    tensors, _ = load_checkpoint(tmp_path / "run" / "model.ckpt")
    assert "idb/w1" in tensors and tensors["idb/w1"].shape[1] == 4


def test_zero_epochs_keeps_initial_row_only(tmp_path):
    cfg = small_config(tmp_path / "run", epochs=0)
    summary = run_experiment(cfg)
    assert summary["steps"] == 0
    rows = [json.loads(s) for s in open(tmp_path / "run" / "metrics.jsonl")]
    assert len(rows) == 2  # initial eval and final eval, no training rows
    assert summary["initial_eval_nll"] is not None


def test_pick_best_prefers_lower_bound_then_smaller_lr():
    rows = [
        {"lr": 0.1, "final_eval_nll": 2.0, "diverged": False},
        {"lr": 0.03, "final_eval_nll": 2.0, "diverged": False},
        {"lr": 0.3, "final_eval_nll": 1.5, "diverged": True},
        {"lr": 1.0, "final_eval_nll": None, "diverged": False},
    ]
    assert pick_best(rows)["lr"] == 0.03  # tie on nll goes to the smaller lr
    rows[0]["final_eval_nll"] = 1.0
    assert pick_best(rows)["lr"] == 0.1
    assert pick_best([{"lr": 9.0, "final_eval_nll": None, "diverged": True}])["lr"] == 9.0
    with pytest.raises(ValueError, match="empty"):
        pick_best([])


def test_run_sweep_writes_report(tmp_path):
    cfg = small_config(tmp_path / "sweep", epochs=1, max_steps=2)
    out = run_sweep(cfg, [0.3, 0.05])
    assert out["best_lr"] in (0.3, 0.05)
    assert len(out["sweep"]) == 2
    report = json.load(open(tmp_path / "sweep" / "sweep.json"))
    assert report["best_lr"] == out["best_lr"]
    assert {r["lr"] for r in report["sweep"]} == {0.3, 0.05}
    assert os.path.isdir(tmp_path / "sweep" / "lr_0.3")
    with pytest.raises(ValueError, match="empty"):
        run_sweep(cfg, [])


def test_summary_reports_the_flags_the_estimator_ran_with(tmp_path):
    for name, flags, want in (("st", ("c",), []), ("half", ("c", "vn"), []),
                              ("lr", ("c", "vn"), ["c", "vn"])):
        out = tmp_path / name
        summary = run_experiment(small_config(out, estimator=name, flags=flags, max_steps=1))
        assert summary["flags"] == want, name
        assert json.loads((out / "summary.json").read_text())["flags"] == want, name


# (task, arch, m, batch): m = 2 shares each weight between two affine nodes
STEP_CASES = (
    ("structured_prediction", "8-4-8", 1, 4),
    ("structured_prediction", "8-4-8", 2, 4),
    ("structured_prediction", "392-200-200-392", 1, 4),
    ("variational", "200x10-784", 1, 5),
    ("structured_prediction", "3-2x3-5", 1, 4),
    ("variational", "3-2x3-5", 1, 4),
)
STEP_ESTIMATORS = [(name, flags) for name in ESTIMATORS
                   for flags in (((), ("c",), ("c", "vn"), ("c", "vn", "idb"))
                                 if name in SCORE_ESTIMATORS else ((),))]


def loop_step_grads(cfg):
    """Step 1's gradients as a loop of one-example estimates with dense
    weight gradients, folded by `np.add` in batch order, at the run's
    initial parameters, seeds, batch order and evolving baseline state."""
    graph, cost = training._build_task(cfg)
    est_cfg = EstimatorConfig(cfg.estimator, flags=cfg.flags)
    params = init_params(graph, seed=fold(cfg.seed, 11))
    baselines = BaselineState(seed=fold(cfg.seed, 12))
    train, _evalset = training._load_data(cfg, epoch_seed=fold(cfg.seed, 31, 0))
    order = stream(cfg.seed, 32, 0).permutation(len(train[0]))
    acc = {}
    for i in order[: cfg.batch_size]:
        inputs = dict(zip(("x", "y"), (t[i] for t in train)))
        est = estimate(est_cfg, graph, cost, inputs, params, rng_seed=fold(cfg.seed, 33, 0, int(i)),
                       baselines=baselines, idb_input=inputs["x"])
        for pid, g in est.grads.items():
            acc[pid] = np.add(acc[pid], g) if pid in acc else np.add(0.0, g)
    return {graph.nodes[pid].name: g * (1.0 / cfg.batch_size) for pid, g in acc.items()}


@pytest.mark.parametrize("task,arch,m,batch", STEP_CASES,
                         ids=[f"{c[0][:3]}-{c[1]}-m{c[2]}" for c in STEP_CASES])
@pytest.mark.parametrize("name,flags", STEP_ESTIMATORS,
                         ids=[f"{n}-{','.join(f) or 'none'}" for n, f in STEP_ESTIMATORS])
def test_step_gradient_matches_a_loop_of_example_estimates(tmp_path, monkeypatch, task, arch, m,
                                                           batch, name, flags):
    """A step's gradient, each weight's formed by one product over the
    batch's factor rows, is the per-example loop's to 1e-12 of each
    parameter's largest |entry|."""
    steps = []

    def capture(params, grads, velocity, lr, momentum):
        steps.append({k: np.array(g) for k, g in grads.items()})
        return sgd_momentum_step(params, grads, velocity, lr, momentum)

    monkeypatch.setattr(training, "sgd_momentum_step", capture)
    cfg = small_config(tmp_path / "run", task=task, arch=arch, m_train=m, batch_size=batch,
                       train_size=batch, estimator=name, flags=flags, epochs=1, eval_size=1,
                       eval_samples=1, seed=5)
    run_experiment(cfg)
    want = loop_step_grads(cfg)
    assert len(steps) == 1 and steps[0].keys() == want.keys()
    for key, g in want.items():
        err = np.max(np.abs(steps[0][key] - g), initial=0.0)
        assert err <= 1e-12 * np.max(np.abs(g), initial=0.0), (key, err)


def test_training_makes_one_estimate_call_per_trained_example(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["rng_seed"])
        return estimate(*args, **kwargs)

    monkeypatch.setattr(training, "estimate", counted)
    summary = run_experiment(small_config(tmp_path / "run", train_size=10, batch_size=4))
    assert summary["steps"] == 2 * 3  # batches of 4, 4 and 2 in each epoch
    assert len(calls) == 2 * 10 and len(set(calls)) == len(calls)
