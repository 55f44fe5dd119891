"""Command-line entry points: train, sweep, verify, profiles."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from muprop.cli import EXTENDED_PROFILES, main
from muprop.training import ExperimentConfig

from helpers import child_env

VERIFY_ARGS = ["verify", "--graphs", "1", "--fd-graphs", "0", "--samples", "20"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_dry_run_prints_resolved_config(capsys, tmp_path):
    code, out = run_cli(
        capsys, "train", "--dry-run", "--arch", "6-3-6",
        "--estimator", "lr", "--flags", "c,vn", "--lr", "0.2",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    cfg = json.loads(out)
    assert cfg["arch"] == "6-3-6"
    assert cfg["estimator"] == "lr"
    assert cfg["flags"] == ["c", "vn"]
    assert cfg["lr"] == 0.2


def test_profile_resolution_and_flag_precedence(capsys, tmp_path):
    for name, want_arch in (
        ("sop-mnist", "392-200-200-392"),
        ("sbn-mnist-1", "200-784"),
        ("sbn-mnist-2", "200-200-784"),
        ("sbn-mnist-cat", "200x10-784"),
    ):
        code, out = run_cli(capsys, "train", "--dry-run", "--extended", name)
        cfg = json.loads(out)
        assert code == 0 and cfg["arch"] == want_arch
        assert cfg["dataset"] == "mnist" and cfg["batch_size"] == 100
        assert cfg["epochs"] == 200 and cfg["train_size"] == 60000
    # explicit flags override the profile
    _, out = run_cli(capsys, "train", "--dry-run", "--extended", "sop-mnist",
                     "--epochs", "3")
    assert json.loads(out)["epochs"] == 3
    with pytest.raises(SystemExit):
        run_cli(capsys, "train", "--dry-run", "--extended", "nope")


def test_every_config_field_has_its_flag(capsys):
    argv = ["--task", "variational", "--arch", "4-2x2-4", "--estimator", "lr",
            "--flags", "c,vn", "--lr", "0.3", "--momentum", "0.5", "--batch", "7",
            "--epochs", "2", "--seed", "4", "--dataset", "mnist", "--data-dir", "d",
            "--out-dir", "o", "--train-size", "5", "--eval-size", "6",
            "--eval-samples", "3", "--m", "2", "--log-every", "2", "--eval-every", "3",
            "--steps", "9"]
    _, out = run_cli(capsys, "train", "--dry-run", *argv)
    cfg = json.loads(out)
    default = ExperimentConfig().to_dict()
    assert len(cfg) == 19 and all(cfg[k] != default[k] for k in default)
    assert (cfg["batch_size"], cfg["m_train"], cfg["max_steps"]) == (7, 2, 9)


def test_config_file_layering(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"arch": "4-2-4", "lr": 0.7, "epochs": 5}))
    _, out = run_cli(capsys, "train", "--dry-run", "--config", str(cfgfile))
    cfg = json.loads(out)
    assert cfg["arch"] == "4-2-4" and cfg["lr"] == 0.7
    # CLI flags take precedence over the file
    _, out = run_cli(capsys, "train", "--dry-run", "--config", str(cfgfile),
                     "--lr", "0.1")
    assert json.loads(out)["lr"] == 0.1
    for stale in ({"bogus": 1}, {"arch": "4-2-4", "xbar": "1/k"}, {"idb_lr": 0.01},
                  {"binarization": "resample"}):
        cfgfile.write_text(json.dumps(stale))
        with pytest.raises(ValueError, match="unknown config keys"):
            run_cli(capsys, "train", "--dry-run", "--config", str(cfgfile))


def test_train_command_runs_small_experiment(capsys, tmp_path):
    code, out = run_cli(
        capsys, "train", "--arch", "4-2-4", "--estimator", "muprop",
        "--epochs", "1", "--train-size", "16", "--eval-size", "8",
        "--eval-samples", "4", "--batch", "8", "--out-dir", str(tmp_path / "r"),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["diverged"] is False and summary["steps"] == 2
    assert (tmp_path / "r" / "summary.json").exists()


def test_sweep_command(capsys, tmp_path):
    code, out = run_cli(
        capsys, "train", "--arch", "4-2-4", "--epochs", "1", "--steps", "2",
        "--train-size", "16", "--eval-size", "8", "--eval-samples", "2",
        "--batch", "8", "--sweep", "0.05,0.2", "--out-dir", str(tmp_path / "s"),
    )
    assert code == 0
    assert json.loads(out)["best_lr"] in (0.05, 0.2)
    assert (tmp_path / "s" / "sweep.json").exists()


def test_verify_command_reports_and_gates(capsys, tmp_path):
    report_path = tmp_path / "verify.json"
    code, out = run_cli(
        capsys, "verify", "--graphs", "3", "--fd-graphs", "1",
        "--samples", "200", "--out", str(report_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert set(report["max_rel_err"]) == {"lr", "muprop", "muprop_rollout"}
    assert all(v < 1e-9 for v in report["max_rel_err"].values())
    assert report["bias_observed"]["st"] > 1e-3  # visibly biased on this family
    assert report["fd_max_rel_err"] < 1e-4
    assert json.loads(report_path.read_text()) == report
    # an impossible tolerance must flip the exit code
    code, _ = run_cli(capsys, "verify", "--graphs", "1", "--fd-graphs", "0",
                      "--samples", "50", "--tol", "1e-18")
    assert code == 1


def test_bad_arguments_exit_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["train", "--estimator", "bogus", "--dry-run"])
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["unknown-command"])


@pytest.mark.parametrize("flag, value, message", [
    ("--batch", "-1", "batch_size must be at least 1, got -1"),
    ("--batch", "0", "batch_size must be at least 1, got 0"),
    ("--epochs", "-1", "epochs must be at least 0, got -1"),
    ("--steps", "-1", "max_steps must be at least 0, got -1"),
    ("--log-every", "-1", "log_every must be at least 0, got -1"),
    ("--eval-every", "-1", "eval_every must be at least 0, got -1"),
])
def test_train_rejects_bad_counts_before_writing(tmp_path, flag, value, message):
    out = tmp_path / "run"
    with pytest.raises(ValueError, match=message):
        main(["train", "--arch", "6-3-6", flag, value, "--out-dir", str(out)])
    assert not out.exists()


def declared_console_script(name):
    """The `module:function` that `[project.scripts]` declares for `name`."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        return tomllib.load(f)["project"]["scripts"][name]


def test_module_and_console_entry_points():
    r = subprocess.run([sys.executable, "-m", "muprop", "train", "--dry-run"],
                       capture_output=True, text=True, env=child_env())
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["task"]
    # Run the declared console-script target through the same wrapper an
    # installer writes for it, so no install step is needed.
    module, function = declared_console_script("muprop").split(":")
    wrapper = f"import sys; from {module} import {function}; sys.exit({function}())"
    r = subprocess.run([sys.executable, "-c", wrapper, *VERIFY_ARGS],
                       capture_output=True, text=True, env=child_env())
    assert r.returncode == 0, r.stderr


@pytest.mark.skipif(shutil.which("muprop") is None,
                    reason="no `muprop` executable on PATH (package not installed)")
def test_installed_console_script():
    r = subprocess.run(["muprop", *VERIFY_ARGS],
                       capture_output=True, text=True, env=child_env())
    assert r.returncode == 0, r.stderr


def test_profiles_cover_the_full_scale_runs():
    assert set(EXTENDED_PROFILES) == {
        "sop-mnist", "sbn-mnist-1", "sbn-mnist-2", "sbn-mnist-cat",
    }
    for prof in EXTENDED_PROFILES.values():
        assert prof["eval_size"] == 10000 and prof["eval_samples"] == 100
