"""Every experiment script imports cleanly, so a renamed or deleted public
name fails here rather than in a user's run; the cheap ones also run end to
end on the smallest mesh."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


@pytest.mark.parametrize("name", ["gauge_comparison", "affine_tracking_demo"])
def test_script_runs_on_small_mesh(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py"), "--n", "4"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
