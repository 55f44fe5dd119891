"""Demos: the quick ones run to completion, and every `muprop` import resolves."""
import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("[0-9][0-9]_*.py"))
QUICK = ("01", "02", "03", "04")  # a few seconds together; 05 and 06 train for longer


def test_all_six_demos_are_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name[:2])
def test_demo_muprop_imports_resolve(demo):
    for node in ast.walk(ast.parse(demo.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "muprop":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{demo.name}: {node.module}.{alias.name}"


@pytest.mark.parametrize("demo", [d for d in DEMOS if d.name[:2] in QUICK], ids=lambda d: d.name[:2])
def test_quick_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                          text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
