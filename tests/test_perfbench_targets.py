"""The benchmark's calls into the program must keep working.

``perfbench/spans.py`` looks its targets up by attribute name only when a
traced run starts, so a renamed function would otherwise break only
``perfbench/run.py --trace 1``. ``perfbench/cases.py`` calls the program the
way a benchmark run does, so a changed signature or a stricter check of its
inputs would otherwise break only ``perfbench/run.py``.
"""

import importlib.util
import os
import warnings

import pytest

from cavityrb import bench, tracking
from cavityrb.config import load_config, parse_config
from cavityrb.problem import CavityProblem

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name):
    path = os.path.join(ROOT, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


def test_module_and_kernel_targets_resolve(spans):
    for name, owner, attr, _ in spans.MODULE_TARGETS + spans.KERNEL_TARGETS:
        assert callable(getattr(owner, attr, None)), name


def test_method_targets_are_problem_methods(spans):
    for name, attr in spans.METHOD_TARGETS:
        assert attr in vars(CavityProblem), name


@pytest.mark.parametrize("system", ["high-fidelity", "reduced"])
@pytest.mark.parametrize("name", sorted(os.listdir(os.path.join(ROOT, "configs"))))
def test_benchmark_tracking_config_matches_the_run_config(name, system):
    # perfbench builds its tracking settings itself, so that it can measure
    # older commits too; it must keep deriving what ``cavityrb track`` does
    cfg = load_config(os.path.join(ROOT, "configs", name))
    assert _load("cases").tracking_config(cfg, system) == cfg.tracking_config(system)


def _workload(name, tmp_path, **overrides):
    """The workload on its benchmark config, seed 1, with ``overrides``."""
    run = _load("run")
    base, defaults, _ = run.WORKLOADS[name]
    text = run.generated_config(
        os.path.join(ROOT, base), {**defaults, "seed": "1", **overrides}
    )
    return _load("cases").WORKLOADS[name](parse_config(text), str(tmp_path), 1)


@pytest.mark.parametrize("name", ["offline-bump", "online-affine", "hf-track"])
def test_workload_runs_on_a_coarse_mesh(name, tmp_path):
    # the benchmark's own config with mesh_n = 4: set-up, one op and the
    # check must run; on so coarse a mesh the checks themselves may fail
    workload = _workload(name, tmp_path, mesh_n="4")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        workload.setup()
        failed, err = workload.check(workload.op())
    assert isinstance(failed, list) and isinstance(err, float)


# The tracking checks compare the endpoint labels and crossings with
# ``cases.rectangle_modes``, whose order inside each degenerate t = 0
# cluster is the order the seeding gives: a change to it fails here, not
# only as a benchmark run whose outputs are incorrect.


def test_hf_track_passes_its_check(tmp_path):
    workload = _workload("hf-track", tmp_path)
    workload.setup()
    failed, _ = workload.check(workload.op())
    assert failed == []


def test_online_affine_trace_check_passes(tmp_path):
    # the reduced op needs a basis built by the greedy (seconds at n = 24);
    # the high-fidelity march of the same config has the same seeded order
    workload = _workload("online-affine", tmp_path)
    config = _load("cases").tracking_config(workload.cfg, "high-fidelity")
    trace = tracking.track(config, bench.build_problem(workload.cfg))
    assert workload.check_trace(trace) == []


def test_benchmark_ops_share_the_mesh_maps(tmp_path, monkeypatch):
    # set-up builds only the mesh and each op a fresh problem on it; the
    # mesh keeps the assembly maps, so the first op builds them and no
    # later op does
    import cavityrb.assembly as assembly_mod

    calls = []
    build = assembly_mod.build_metric_maps

    def counting(m, affine):
        calls.append(affine)
        return build(m, affine)

    monkeypatch.setattr(assembly_mod, "build_metric_maps", counting)
    workload = _workload("hf-track", tmp_path, mesh_n="4")
    workload.setup()
    assert calls == []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        workload.op()
        workload.op()
    assert calls == [True]
