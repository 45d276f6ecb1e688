"""Tests of the benchmark itself, at tiny shapes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness
import tracing

sys.path.insert(0, harness.SRC)

with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
END_TO_END = {metric["name"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"] for metric in SPEC["per_layer"]}

TINY = harness.Workload("tiny-perdnn", "perdnn", 60, 25, 3, 16, 1)
TINY_SPILL = harness.Workload(
    "tiny-spill", "perdnn", 80, 25, 3, 24, 2, spill=True
)
TINY_FLASH = harness.Workload(
    "tiny-flash", "none", 60, 25, 4, 16, 1, flash_crowd=True
)


def _originals() -> dict:
    return {
        (id(owner), attr): owner.__dict__[attr]
        for owner, attr in tracing.installed_attributes()
    }


def test_declared_workloads_are_the_runnable_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


def test_layer_map_covers_every_per_layer_metric():
    with open(
        os.path.join(harness.ROOT, "perfbench", "layers.json"),
        encoding="utf-8",
    ) as handle:
        layers = json.load(handle)
    assert set(layers) == PER_LAYER
    for entry in layers.values():
        assert set(entry["moves"]) <= END_TO_END
        assert entry["workloads"]
        assert set(entry["workloads"]) <= set(harness.WORKLOADS)


@pytest.mark.parametrize("workload", [TINY, TINY_FLASH], ids=lambda w: w.name)
def test_untraced_run_emits_every_end_to_end_metric(workload, tmp_path):
    report, line = harness.measure(workload, 3, 0.01, False, str(tmp_path))
    assert line["correct"], report["report"]["failures"]
    assert line["failed"] == 0
    assert line["attempted"] >= harness.MIN_CALLS
    assert set(line["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in line["metrics"].values())
    block = report["report"]
    assert set(block["host"]) == {"nproc", "python", "numpy", "git_sha"}
    throughput = block["statistics"]["client_steps_per_cpu_s"]
    assert throughput["statistic"] == "max (fastest call)"
    assert throughput["samples"] == line["attempted"]
    assert throughput["median"] <= line["metrics"]["client_steps_per_cpu_s"][
        "value"
    ]
    assert len(block["setup_cpu_seconds"]) == harness.SETUP_REPEATS


def test_traced_run_emits_per_layer_metrics_and_restores_originals(tmp_path):
    before = _originals()
    report, line = harness.measure(TINY_SPILL, 3, 0.01, True, str(tmp_path))
    assert _originals() == before
    assert line["correct"], report["report"]["failures"]
    assert set(line["metrics"]) == PER_LAYER
    values = {name: m["value"] for name, m in line["metrics"].items()}
    # Spans recorded in the two shard worker processes came back.
    assert values["checkpoint.dataset_read.s"] > 0
    assert values["large_scale.self.s"] > 0
    assert values["sharding.shard_run.s_max"] >= values[
        "sharding.shard_run.s_p50"
    ] > 0
    assert values["checkpoint.bytes_written"] > 0
    assert 0 < values["trace.unattributed_frac"] < 1


def test_originals_are_restored_when_the_traced_block_raises():
    from repro.simulation import sharding

    before = _originals()
    original = sharding.run_large_scale_sharded
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            assert sharding.run_large_scale_sharded is not original
            raise RuntimeError("boom")
    assert _originals() == before
    assert sharding.run_large_scale_sharded is original


def test_digest_must_repeat_across_runs_and_a_tampered_one_is_flagged(
    tmp_path,
):
    scratch = str(tmp_path)
    first, line = harness.measure(TINY, 5, 0.01, False, scratch)
    assert line["correct"]
    digest = first["report"]["telemetry_sha256"]
    second, line = harness.measure(TINY, 5, 0.01, False, scratch)
    assert line["correct"]
    assert second["report"]["telemetry_sha256"] == digest

    ledger = harness.DigestLedger(os.path.join(scratch, "digests.json"))
    ledger.record(f"{TINY.name}/seed=5", "0" * 64)
    report, line = harness.measure(TINY, 5, 0.01, False, scratch)
    assert not line["correct"]
    assert line["failed"] == line["attempted"] > 0
    assert all("digest" in f for f in report["report"]["failures"])


def test_checks_flag_broken_conservation(tmp_path):
    inputs = harness.build_inputs(TINY_FLASH, 2)
    inputs.planned_usable = harness.planned_usable(inputs)
    _, _, result = harness.run_sharded(inputs, str(tmp_path))
    assert harness.check_result(result, inputs) == []

    result.extras["sharding"]["clients_per_shard"][0] += 1
    result.extras["overload"]["shed"] += 1
    problems = harness.check_result(result, inputs)
    assert any("clients_per_shard" in p for p in problems)
    assert any("offered" in p for p in problems)


def test_seed_determines_the_inputs():
    def points(seed):
        dataset = harness.build_inputs(TINY, seed).dataset
        return np.concatenate([t.points for t in dataset.trajectories])

    assert np.array_equal(points(1), points(1))
    assert not np.array_equal(points(1), points(2))


def test_exits_nonzero_without_the_simulator_sources(tmp_path):
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(harness.ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "perdnn-100k",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
