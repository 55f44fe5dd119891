"""Optimizer, checkpoints, metrics files, and the experiment loop."""
import json
import os

import numpy as np
import pytest

from muprop import ExperimentConfig, load_checkpoint, run_experiment, save_checkpoint
from muprop.training import (
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
    params = {"w": np.zeros(())}
    vel = {}
    sgd_momentum_step(params, {"w": np.ones(())}, vel, lr=0.1, momentum=0.9)
    assert vel["w"] == pytest.approx(-0.1) and params["w"] == pytest.approx(-0.1)
    sgd_momentum_step(params, {"w": np.ones(())}, vel, lr=0.1, momentum=0.9)
    assert vel["w"] == pytest.approx(-0.19)
    assert params["w"] == pytest.approx(-0.29)


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
