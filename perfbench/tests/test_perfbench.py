"""The benchmark's own tests, at smoke size (seconds, not minutes).

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

WORKLOADS = ("paper_sweep", "lossy_campaign", "serve_mixed", "scenario_uav")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(workload, trace, cwd=ROOT, seconds="1"):
    return subprocess.run(
        [
            sys.executable, os.path.join(cwd, "perfbench", "run.py"),
            "--workload", workload, "--seed", "5", "--seconds", seconds,
            "--trace", str(trace), "--size", "smoke",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    out = run_bench(workload, trace=0)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in doc["metrics"].values())
    printed = out.stdout
    for name, unit in list(declared.items()) + [("error_rate", "ratio")]:
        assert any(
            line.split()[:1] == [name] and unit in line.split()
            for line in printed.splitlines()
        ), f"{name} [{unit}] not printed"


def test_traced_run_prints_every_per_layer_metric():
    out = run_bench("serve_mixed", trace=1, seconds="2")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    assert metrics["obs.coverage"] >= 0.95
    assert metrics["store.hits"] == metrics["store.misses"] == 8
    assert metrics["store.hit_ratio"] == 0.5
    assert metrics["sim.trials"] == 8
    assert metrics["net.propagate_calls"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = run_bench("lossy_campaign", trace=0, cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _perturb(monkeypatch, workload):
    """Change one metric of every op result the program returns."""
    from repro.experiments import common
    from repro.scenario.run import ScenarioResult

    def bump(fn, key):
        def wrapper(*args, **kwargs):
            metrics = dict(fn(*args, **kwargs))
            metrics[key] += 1.0
            return metrics
        return wrapper

    if workload == "paper_sweep":
        monkeypatch.setattr(
            common, "paper_trial_metrics",
            bump(common.paper_trial_metrics, "gmle_ccm_slots"),
        )
    elif workload == "scenario_uav":
        monkeypatch.setattr(
            ScenarioResult, "metrics", bump(ScenarioResult.metrics, "slots_total")
        )
    else:
        monkeypatch.setattr(
            common.SessionBatchTrial, "_metrics",
            bump(common.SessionBatchTrial._metrics, "slots"),
        )


def _run_in_process(tmp_path, workload, monkeypatch=None):
    wl = workloads.WORKLOADS[workload](5, "smoke", str(tmp_path))
    wl.setup()
    try:
        wl.warmup()
        if monkeypatch is not None:
            with monkeypatch.context() as patch:
                _perturb(patch, workload)
                wl.loop(time.perf_counter() + 0.5)
        else:
            wl.loop(time.perf_counter() + 0.5)
        wl.verify()
    finally:
        wl.close()
    return len(wl.bad) / len(wl.ops)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_ops_pass_every_check(tmp_path, workload):
    assert _run_in_process(tmp_path, workload) == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_op_result_raises_error_rate(tmp_path, monkeypatch, workload):
    # The loop runs on the perturbed program; the oracle, repeat or
    # direct run in verify() does not, so the sampled op must differ.
    assert _run_in_process(tmp_path, workload, monkeypatch) > 0.0
