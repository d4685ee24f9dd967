"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root (the tier-1 suite does not collect it):

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs once untraced and once traced at --scale tiny against
the stored tiny references; the output check must reject a perturbed
result; and the harness must refuse to run where the sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS["tiny"]))
def test_tiny_run_reports_every_metric(workload, trace):
    out = _bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0",
                 "--trace", str(trace), "--scale", "tiny")
    assert out.returncode == 0, out.stderr
    *_, detail, final = out.stdout.strip().splitlines()
    final, detail = json.loads(final), json.loads(detail)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({m["name"]: m["unit"] for m in declared}
            == {k: v["unit"] for k, v in final["metrics"].items()})
    assert detail["stored_references"] == detail["cases"]
    assert detail["outputs_identical"] is True


def test_output_check_rejects_a_changed_result(tmp_path):
    spec = run.WORKLOADS["tiny"]["mc_three_estimators"]
    inputs = run.Inputs(spec, 0, 0, tmp_path)
    result, outdir, _ = run.Invoker(tmp_path)(inputs.argv, False)
    assert result is not None
    reference = run.load_references("mc_three_estimators")[run.reference_key("tiny", 0, 0)]
    assert run.check_outputs(inputs, outdir, reference) == ([], True)

    rows = reference["files"]["experiment_cells.csv"]["rows"]
    column = rows[0].index("mean_u")
    for scale, rejected in ((1 + 1e-12, False), (1 + 1e-3, True)):
        changed = json.loads(json.dumps(reference))
        cell = changed["files"]["experiment_cells.csv"]["rows"][1]
        cell[column] = repr(float(cell[column]) * scale)
        changed["files"]["experiment_cells.csv"]["sha256"] = "0"
        problems, identical = run.check_outputs(inputs, outdir, changed)
        assert bool(problems) is rejected and identical is False


def test_missing_reference_fails_the_run(monkeypatch):
    monkeypatch.setattr(run, "load_references", lambda workload: {})
    outcome = run.run_workload("mc_three_estimators", "tiny", 0, 0, False)
    assert outcome["correct"] is False and outcome["failed"] == outcome["attempted"]
    assert "no stored reference" in outcome["detail"]["problems"][0]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                 "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
