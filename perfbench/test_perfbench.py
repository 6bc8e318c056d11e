"""Tests of the benchmark itself: corrupted outputs count as failed
operations, traced self times add up to the traced wall time, a layer the
program no longer has is reported absent, and BENCHMARK.json names what the
code reports.  Inputs are kept small so the file runs in seconds."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import pb_trace  # noqa: E402
import pb_workloads  # noqa: E402
import run  # noqa: E402
from antipodal import boundary, harness, kernels  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _small_spectral():
    return pb_workloads.SpectralSweep(grid=(1 / 16, 1 / 32, 1 / 64), hull_points=400)


def _traced_pass(workload):
    with pb_trace.Tracer() as tracer:
        output = tracer.call(pb_trace.ROOT_SPAN, workload.run_pass)
    return output, pb_trace.Profile(tracer.spans, tracer.absent)


def test_benchmark_json_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} == set(pb_workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    layer_units = {name: unit for name, (unit, _) in pb_trace.LAYER_METRICS.items()}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == {**layer_units, **run.RUN_LAYER_METRICS}
    names = [w["name"] for w in SPEC["workloads"]] + [
        m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)


def test_flipped_count_raises_error_rate(tmp_path):
    class FlippedEdges(pb_workloads.GraphTails):
        def run_pass(self):
            out = super().run_pass()
            rc, text = out[1]
            header, row = text.splitlines()
            fields = row.split(",")
            fields[1] = str(int(fields[1]) + 1)
            out[1] = (rc, f"{header}\n{','.join(fields)}\n")
            return out

    result = run.measure(FlippedEdges(n=600, grid=(1 / 16, 1 / 32)), 3, 0.0, False,
                         tmp_path)
    assert result["attempted"] == 2 and result["failed"] == 1  # the other row is clean
    assert result["metrics"]["success_rate"]["value"] < 1.0


def test_altered_csv_byte_fails_margin_report(tmp_path):
    workload = pb_workloads.MarginReport()
    workload.setup(1, tmp_path)
    lines = workload.record.read_text(encoding="ascii").splitlines()
    margin = min(float(line.rsplit(",", 1)[1]) for line in lines[1:])
    assert workload.check((lines, margin)) == 0
    altered = list(lines)
    altered[12] = altered[12][:-1] + ("3" if altered[12][-1] != "3" else "4")
    assert workload.check((altered, margin)) == 1


def test_self_times_add_up_to_traced_wall():
    workload = _small_spectral()
    output, profile = _traced_pass(workload)
    assert workload.check(output) == 0
    modules = profile.module_self_times()
    assert sum(modules.values()) == pytest.approx(profile.wall(), rel=1e-9)
    assert {"bench", "harness", "spectral", "kernels"} <= set(modules)
    metrics = pb_trace.layer_metrics(profile)
    assert 0.0 < metrics["spectral.lambda1_s"] <= metrics["spectral.bound_chain_s"]
    assert metrics["spectral.matvecs"] > 0
    lines, _ = output
    assert metrics["boundary.boxes"] == sum(int(line.split(",")[1]) for line in lines[1:])
    # the wrappers are gone once the tracer exits
    assert harness.sweep_spectral.__module__ == "antipodal.harness"
    assert not hasattr(harness.sweep_spectral, "__wrapped__")


def test_missing_layer_is_reported_absent(monkeypatch):
    def bincount_matvec(self, x):
        return np.bincount(self.row_index, weights=x[self.indices], minlength=self.k)

    monkeypatch.setattr(boundary.AntipodalGraph, "matvec", bincount_matvec)
    monkeypatch.delattr(kernels, "csr_matvec")
    workload = _small_spectral()
    output, profile = _traced_pass(workload)
    assert workload.check(output) == 0
    metrics = pb_trace.layer_metrics(profile)
    for name in ("kernels.csr_matvec_s", "kernels.csr_matvec_calls",
                 "kernels.csr_matvec_bytes"):
        assert metrics[name] is None
    assert metrics["spectral.matvecs"] > 0
    assert metrics["spectral.lambda1_s"] > 0.0


def test_traced_run_prints_every_per_layer_metric(monkeypatch, capsys):
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setitem(pb_workloads.WORKLOADS, "annuli-covers",
                        lambda: pb_workloads.AnnuliCovers([(0.5, 0.01), (0.05, 0.001)]))
    assert run.main(["--workload", "annuli-covers", "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 4 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["annuli.cover_s"]["value"] > 0.0


def test_refuses_to_run_without_the_package(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    done = subprocess.run([sys.executable, str(copy / "run.py"), "--workload",
                           "margin-report"], capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_absent_metric_is_left_out_of_the_result_line():
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"kernels.csr_matvec_s": {"value": None, "unit": "s"},
                          "spectral.matvecs": {"value": 12.0, "unit": "count"}}}
    line = json.loads(run._final_line(result))
    assert line["metrics"] == {"spectral.matvecs": {"value": 12.0, "unit": "count"}}
