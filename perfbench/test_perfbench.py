"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
TINY = ("--seed", "3", "--seconds", "0.5")


def run_bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"),
                           *args], cwd=root, capture_output=True, text=True,
                          timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload: str, trace: int) -> None:
    out = result(run_bench("--workload", workload, "--trace", str(trace),
                           *TINY))
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in out["metrics"].items()}
            == {m["name"]: m["unit"] for m in wanted})
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    if not trace:
        assert out["metrics"]["success_rate"]["value"] == 1.0


@pytest.mark.parametrize("workload", ["hybrid-detailed", "comm-alltoall"])
def test_wrong_reference_digest_fails_units(workload: str,
                                            tmp_path: Path) -> None:
    table = json.loads((HERE / "reference.json").read_text())
    table[workload] = {key: "0" * 16 for key in table[workload]}
    wrong = tmp_path / "reference.json"
    wrong.write_text(json.dumps(table))
    out = result(run_bench("--workload", workload, "--trace", "0",
                           "--reference", str(wrong), *TINY))
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] >= 1
    assert out["metrics"]["success_rate"]["value"] == 0.0


@pytest.mark.parametrize("module", ["wl_hybrid", "wl_alltoall", "wl_sweep"])
def test_seed_reaches_inputs(module: str, tmp_path: Path) -> None:
    workload = importlib.import_module(module).Workload
    first, second, again = (workload(seed, {}, tmp_path).inputs_digest()
                            for seed in (1, 2, 1))
    assert first != second
    assert first == again


def test_design_sweep_guards() -> None:
    from wl_sweep import job_failure
    rows = [{"network.link_bandwidth": 1.0, "events": 7}]
    cold = {"state": "done", "error": None, "total": 1,
            "cache": {"hits": 0, "misses": 1, "stores": 1}}
    warm = {**cold, "cache": {"hits": 1, "misses": 0, "stores": 0}}
    assert job_failure(0, cold, rows, rows) == ""
    assert job_failure(1, warm, rows, rows) == ""
    # A warm job that simulated again, or a cold job served from the
    # store, is a failed unit even when its rows are right.
    assert "cache" in job_failure(1, cold, rows, rows)
    assert "cache" in job_failure(0, warm, rows, rows)
    assert "rows" in job_failure(1, warm, [{**rows[0], "events": 8}], rows)
    assert "failed" in job_failure(0, {**cold, "state": "failed"}, None,
                                   rows)


def test_latencies_scale_to_reference_host_speed() -> None:
    from common import PROBE_REF_MS
    from run import scaled_latencies
    # A unit between probes at the reference speed keeps its latency; one
    # between probes twice as slow counts half of it, or 1/sqrt(2) of it
    # if it slows only half as strongly (in log terms) as the probe.
    probes = [PROBE_REF_MS, PROBE_REF_MS, 2 * PROBE_REF_MS, 2 * PROBE_REF_MS]
    assert scaled_latencies([10.0, 15.0, 20.0], probes, 1.0) == pytest.approx(
        [10.0, 10.0, 10.0])
    assert scaled_latencies([10.0, 20.0], probes[1:], 0.5) == pytest.approx(
        [10.0 / 1.5 ** 0.5, 20.0 / 2 ** 0.5])


def test_fails_without_program_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], *TINY, "--trace", "0",
                     root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
