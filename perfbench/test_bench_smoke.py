"""Smoke test of the benchmark itself (``pytest perfbench/``; not tier-1).

Each workload runs twice with 2 tiny rounds, untraced and traced: every
metric ``BENCHMARK.json`` declares must come out as a finite number or an
explicit null, the ledger must tile, and the simulated clock and every
exact count must repeat bit-identically.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench

HERE = Path(__file__).resolve().parent
SPEC = bench.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def run_bench(*args, cwd=None, script=HERE / "bench.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd,
        capture_output=True, text=True, timeout=600, check=False,
    )


def tiny_run(name, out):
    proc = run_bench("--workload", name, "--rounds", "2", "--json", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(out.read_text())["workloads"][name]


def test_declared_names_fit_the_contract():
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    names = WORKLOADS + END_TO_END + PER_LAYER
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert bench.EXACT <= set(END_TO_END + PER_LAYER)
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_emits_every_metric_and_repeats(name, tmp_path):
    first = tiny_run(name, tmp_path / "a.json")
    again = tiny_run(name, tmp_path / "b.json")
    metrics = first["metrics"]
    assert first["correct"] and first["failed"] == 0, first["errors"]
    assert first["missing_seams"] == []
    for metric in END_TO_END + PER_LAYER:
        value = metrics[metric]  # KeyError = declared but never emitted
        assert value is None or math.isfinite(value), (metric, value)
    for metric in END_TO_END:
        assert metrics[metric] > 0, metric
    # layer self times + hand-off tile the traced cost of an op
    layers = sum(v for k, v in metrics.items()
                 if k.endswith(".self_us_per_op"))
    traced = metrics["driver.trace_overhead"] * metrics["host_us_per_op"]
    assert layers + metrics["kernel.handoff_us_per_op"] == \
        pytest.approx(traced, rel=0.02)
    assert metrics["kernel.handoff_us_per_op"] > 0
    assert metrics["rmi.retries"] == metrics["rmi.dedup_hits"] == 0
    assert (metrics["obs.events_per_op"] > 0) == (name == "rmi_sync_obs")
    for metric in sorted(bench.EXACT):
        assert metrics[metric] == again["metrics"][metric], metric


@pytest.mark.parametrize("trace,declared", [(0, END_TO_END), (1, PER_LAYER)])
def test_contract_line(trace, declared):
    proc = run_bench("--workload", "rmi_batch", "--seed", "5",
                     "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == declared
    units = {m["name"]: m["unit"]
             for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for metric, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == units[metric]
        assert math.isfinite(entry["value"])


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "rmi_sync", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path,
                     script=tmp_path / HERE.name / "bench.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
