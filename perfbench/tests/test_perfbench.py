"""Tests of the benchmark itself: tiny smoke runs and failure accounting.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tniso  # noqa: E402
from tniso import analysis, cli  # noqa: E402

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "paper-cli": lambda seed, d: workloads.PaperCli(seed, d),
    "classify-ladder": lambda seed, d: workloads.ClassifyLadder(seed, d, rungs=((2, 2, 1),)),
    "simulate-d20": lambda seed, d: workloads.SimulateD20(seed, d, dims=(2, 2, 1), rounds=3),
}


def _run_tiny(name, tmp_path, cycles=2, tracer=None):
    workload = TINY[name](3, str(tmp_path))
    rec = workloads.Recorder(tracer)
    workload.setup()
    workload.warmup()
    for i in range(cycles):
        workload.cycle(rec, i)
        rec.end_cycle()
    return workload, rec


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_each_workload(name, tmp_path):
    workload, rec = _run_tiny(name, tmp_path)
    assert rec.failures == []
    assert rec.attempted > 0
    assert workloads.geomean_across_kinds(rec.samples, workload.op_kinds) > 0
    # one probe before every timed operation
    assert len(rec.probe) == sum(len(v) for k, v in rec.samples.items() if k != "cycle")
    assert min(rec.probe) > 0
    assert workloads.geomean_across_kinds(rec.samples, workload.aux_kinds) > 0
    assert len(rec.samples["cycle"]) >= 2


def test_traced_tiny_ladder_counts_classify_fan_out(tmp_path):
    tr = tracer_mod.Tracer()
    tr.install(tniso)
    try:
        _, rec = _run_tiny("classify-ladder", tmp_path, tracer=tr)
    finally:
        tr.uninstall()
    assert rec.failures == []
    metrics = tr.per_layer_metrics()
    assert list(metrics) == list(tracer_mod.PER_LAYER)
    assert metrics["analysis.detect_structure.per_classify"] == 14
    assert metrics["analysis.is_preserved.per_classify"] == 4
    assert metrics["analysis.build_correction.per_classify"] == 2
    assert metrics["analysis.detect_structure.rejected"] > 0
    # every binding is restored, including the re-exports in other modules
    assert analysis.trace_norm is tniso.opcore.trace_norm
    assert not hasattr(analysis.classify, "__wrapped__")


def test_wrong_verdict_counts_as_failed(tmp_path, monkeypatch):
    real = analysis.classify

    def flipped(*args, **kwargs):
        report = real(*args, **kwargs)
        report.preserved = not report.preserved
        return report

    monkeypatch.setattr(analysis, "classify", flipped)
    _, rec = _run_tiny("classify-ladder", tmp_path)
    classify_failures = [f for f in rec.failures if f.startswith(("classify", "reject"))]
    # every classify and every near-miss verdict is now wrong
    assert len(classify_failures) == 2 * len(rec.samples["cycle"])
    assert rec.failed <= rec.attempted


def test_nondeterministic_report_body_counts_as_failed(tmp_path, monkeypatch):
    real = cli.estimate_epsilon
    calls = iter(range(10**6))

    def drifting(*args, **kwargs):
        est = real(*args, **kwargs)
        est.upper_bound *= 1.0 + 1e-9 * next(calls)
        return est

    monkeypatch.setattr(cli, "estimate_epsilon", drifting)
    _, rec = _run_tiny("paper-cli", tmp_path)
    drift = [f for f in rec.failures if "differs from the first pass" in f]
    assert drift, rec.failures
    assert all(f.split()[0] in ("simulate", "epsilon", "example") for f in drift)


def test_tail_is_the_value_with_ten_samples_beyond():
    samples = {"a": [float(i) for i in range(40)]}
    value, pct, n = workloads.tail(samples, ("a",))
    assert (value, n) == (29.0, 40)
    assert pct == pytest.approx(75.0)
    assert workloads.tail({"a": [1.0, 2.0]}, ("a",))[:2] == (2.0, 100.0)


def _result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-cli", "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _result_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        record = json.loads((ROOT / "perfbench" / "out" / "paper-cli-seed5-trace0.json").read_text())
        # a zero-second run still times every set-up sample, after its one cycle
        assert len(record["named"]["setup_s"]["runs_s"]) == run.SETUP_SAMPLES
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
