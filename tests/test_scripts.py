"""Every experiment script imports cleanly, so a renamed or deleted public
name fails here rather than in a user's run; the cheap ones also run end to
end on the smallest mesh."""

import importlib.util
import json
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


def _bench_record_child(name, *args):
    """Last JSON line of a child of ``scripts/bench_record.py`` run with args."""
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "scripts" / "bench_record.py"
    )
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, "-c", getattr(bench_record, name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_bench_record_ladder_child_runs_on_small_mesh():
    rung = _bench_record_child("LADDER_CHILD", "4", "1")
    assert rung["n"] == 4 and rung["track_complete"] and len(rung["track_s"]) == 1


def test_bench_record_hf_child_tracks_on_small_mesh():
    rung = _bench_record_child("HF_CHILD", "4", "1")
    assert rung["n"] == 4 and rung["track_complete"] and rung["track_s"] > 0


def test_bench_record_build_child_runs_on_small_mesh():
    # the bench_n24 greedy converges on its first sweep, the sinebump_n12
    # greedy enriches
    for config in ("bench_n24", "sinebump_n12"):
        rung = _bench_record_child("BUILD_CHILD", "4", config)
        assert (rung["config"], rung["n"]) == (config, 4)
        assert rung["build_s"] > 0 and rung["peak_rss_mb"] > 0
