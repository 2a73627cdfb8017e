"""Short runs of every workload: each prints every metric of BENCHMARK.json
by name with its unit, checks pass, and the benchmark refuses to run
without the program; and the host-speed correction of operation times.

    python3 -m pytest layerbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
RUN = SPEC["command"][1:]


def run_bench(cwd, workload, trace, seconds=2):
    return subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    report = "\n".join(lines[:-1])
    assert "threads_pinned" in report and "no operation waits" in report
    if trace:
        assert "trace.overhead_s" in report and "expect bloch.*" in report
    else:
        assert f"{workload}: op_tail_s is p" in report
        assert "failed_ratio 0 " in report


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_corrected_latency_scales_by_nearby_reference_time():
    sys.path.insert(0, os.path.join(ROOT, "layerbench"))
    import run
    r = run.Run()
    r.latencies = [0.1] * 20
    r.refs = [run.REF_NOMINAL_S] * 10 + [2 * run.REF_NOMINAL_S] * 10
    corrected = r.corrected()
    assert corrected[0] == pytest.approx(0.1)
    assert corrected[-1] == pytest.approx(0.05)
