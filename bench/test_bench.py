"""Self-tests of the benchmark on tiny inputs.

Run from the root of the repository with ``python3 -m pytest bench -q``.
"""

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["scenes", "corpus", "decide"]


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_spec_lists_the_metrics_the_code_reports():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == run.E2E_METRICS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracing.LAYER_METRICS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, report = run.run(workload, 3, 0.5, False, ROOT, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert report["fail_ratio"] == 0
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_accounts_for_its_wall_time(workload):
    result, report = run.run(workload, 3, 0.5, True, ROOT, tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    m = {name: v["value"] for name, v in result["metrics"].items()}
    wall = m["trace.wall_s"]
    assert report["self_s_total"] + m["trace.unattributed_s"] == pytest.approx(wall, rel=1e-9)
    assert 0 < m["trace.unattributed_s"] < wall
    covering = [v for name, v in m.items() if name.startswith(("covering.", "render."))]
    if workload == "decide":
        assert not any(covering)
        assert m["criteria.decides_per_canon"] > 0
    else:
        assert m["covering.verify_covering.calls"] > 0 and m["field.sub.calls"] > 0


def test_host_speed_samples_are_left_out_of_timings():
    before = signal.getsignal(signal.SIGALRM)
    with probes.HostSpeed() as host:
        t0, c0 = time.perf_counter(), host.clock()
        while time.perf_counter() - t0 < 1.0:
            pass
        c1, t1 = host.clock(), time.perf_counter()
    assert len(host.took) >= 3
    assert (t1 - t0) - (c1 - c0) == pytest.approx(host.paused, abs=1e-3)
    assert host.scale(t0, t1) == pytest.approx(probes.YARDSTICK_REF_S / statistics.median(host.took))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_long_timings_are_scaled_by_the_mean_sample_inside_them():
    host = probes.HostSpeed()
    host.at = [0.25 * i for i in range(40)]
    host.took = [2e-3 if i % 4 else 6e-3 for i in range(40)]
    # 10 s hold 40 samples: the mean, which counts the slow quarter
    assert host.scale(0.0, 10.0) == pytest.approx(probes.YARDSTICK_REF_S / 3e-3)
    # 0.5 s hold 2: the median of the 3 s around them
    assert host.scale(4.9, 5.4) == pytest.approx(probes.YARDSTICK_REF_S / 2e-3)


def test_inputs_follow_the_seed(tmp_path):
    digests = []
    for seed in (5, 5, 6):
        _, wl, _ = run.setup(ROOT, tmp_path / "work", "decide", seed, 0, True, time.perf_counter)
        digests.append(wl.inputs_sha256)
    assert digests[0] == digests[1] != digests[2]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
