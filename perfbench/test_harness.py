"""Self-test of the benchmark harness on a tiny mesh (mesh_n = 4).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py

Runs every workload through ``run.main`` with ``mesh_n = 4`` added to its
overrides, untraced and traced, and checks that the last line names every
metric of BENCHMARK.json with its unit. The scaling of op times to
reference seconds is checked on made-up intervals.
On so coarse a mesh the tracking checks may fail; the harness must count
such ops and finish the run anyway. A second test injects a raising op
and a failing check and checks the failure accounting exactly.
"""

from __future__ import annotations

import json
import os
import time

import pytest

import calibration
import cases
import run
import workload
from cavityrb.errors import NumericalError

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed(name, trace, monkeypatch, capsys):
    base_config, overrides, setups = run.WORKLOADS[name]
    monkeypatch.setitem(run.WORKLOADS, name,
                        (base_config, {**overrides, "mesh_n": "4"}, setups))
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace)])
    out, err = capsys.readouterr()
    assert code == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert result["attempted"] >= (2 if trace else 1)
    assert result["correct"] == (result["failed"] == 0)
    if not trace:
        ok_share = result["metrics"]["ok_share"]["value"]
        assert ok_share == (result["attempted"] - result["failed"]) / result["attempted"]


class _Sabotaged(cases.HfTrack):
    """hf-track whose second op raises and whose fourth op fails its check.

    Every other op passes its check, whatever the coarse mesh gives.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ops = 0

    def op(self):
        self.ops += 1
        if self.ops == 2:
            raise NumericalError("injected failure")
        return self.ops, super().op()

    def check(self, output):
        number, _ = output
        return (["injected check failure"] if number == 4 else []), 1e-3


def test_failed_ops_are_counted(tmp_path, monkeypatch):
    monkeypatch.setitem(cases.WORKLOADS, "hf-track", _Sabotaged)
    monkeypatch.chdir(ROOT)
    config = tmp_path / "config.cfg"
    config.write_text(run.generated_config(
        "configs/affine_n16.cfg", {"mesh_n": "4", "track_system": "high-fidelity"}))
    result = {"attempted": 0}
    seconds = 1.0
    while result["attempted"] < 5:
        result = workload.run("hf-track", str(config), 1, seconds, 0, time.time(),
                              str(tmp_path))
        seconds *= 2
    assert result["failed"] == 2
    assert [f.split(":")[0] for f in result["failures"]] == ["op 1", "op 3"]
    assert result["max_rel_err"] == 1e-3


def test_ops_scaled_by_nearest_passes():
    reference = calibration.REFERENCE_S["dense"]
    near = [(float(t), t + 2.0 * reference) for t in range(calibration.NEAREST)]
    far = [(100.0, 110.0)] * calibration.NEAREST
    op = (2.0, 3.0)
    assert calibration.ops_in_reference_s([op], far + near + far, "dense") == [
        pytest.approx(0.5)
    ]
