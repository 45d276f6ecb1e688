"""Schema and plumbing of the perf harness (``repro bench``).

The CI bench-smoke step runs the quick harness and asserts the document
it writes; these tests pin the schema contract it relies on without
paying for the full workloads.
"""

import json
import re
import statistics

import pytest

from repro import bench
from repro.bench import (
    BENCH_CASES,
    REQUIRED_RESULTS,
    SCHEMA,
    _repeat_seconds,
    assert_schema,
    bench_partition,
    measure_scale,
    summary_lines,
    write_results,
)
from repro.cli import build_parser
from repro.simulation.spec import RunSpec


def minimal_doc():
    """The smallest document assert_schema accepts."""
    results = {}
    for name, keys in REQUIRED_RESULTS.items():
        results[name] = {key: 1.0 for key in keys}
    # summary_lines additionally reads these display fields.
    results["forest_fit"].update(trees=1, n_train=1)
    results["forest_predict_single"].update(calls=1)
    results["forest_predict_batch"].update(rows=1, features=1, trees=1)
    results["partition_planning"].update(plans=1)
    results["large_scale"].update(clients=1, steps=1)
    for name in results:
        if name.startswith("large_scale_sharded"):
            results[name].update(
                seconds_min=1.0,
                clients_steps_per_second_per_worker=1.0,
                peak_rss_mb=1.0,
                clients=1, steps=1, shards=1, workers=1, shard_size=1,
            )
    return {
        "schema": SCHEMA,
        "mode": "quick",
        "seed": 0,
        "repeats": 1,
        "results": results,
    }


class TestSchema:
    def test_minimal_document_passes(self):
        assert_schema(minimal_doc())

    def test_wrong_schema_tag_rejected(self):
        doc = minimal_doc()
        doc["schema"] = "perdnn-bench/0"
        with pytest.raises(ValueError, match="schema tag"):
            assert_schema(doc)

    def test_missing_benchmark_rejected(self):
        doc = minimal_doc()
        del doc["results"]["partition_planning"]
        with pytest.raises(ValueError, match="partition_planning"):
            assert_schema(doc)

    @pytest.mark.parametrize("bad", [0.0, -1.0, None, "fast"])
    def test_nonpositive_timing_rejected(self, bad):
        doc = minimal_doc()
        doc["results"]["forest_fit"]["seconds_median"] = bad
        with pytest.raises(ValueError, match="forest_fit.seconds_median"):
            assert_schema(doc)

    def test_real_benchmark_satisfies_schema(self):
        # One cheap real benchmark end to end; the expensive forest and
        # large-scale ones run in benchmarks/bench_perf_hotpaths.py.
        results = bench_partition(quick=True, seed=0, repeats=1)
        doc = minimal_doc()
        doc["results"].update(results)
        assert_schema(doc)
        plan = results["partition_planning"]
        assert plan["cached_seconds_median"] < plan["seconds_median"]


class TestOutput:
    def test_write_results_roundtrip(self, tmp_path):
        doc = minimal_doc()
        path = write_results(doc, tmp_path / "out" / "BENCH_perf.json")
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle) == doc

    def test_summary_lines_cover_every_benchmark(self):
        lines = summary_lines(minimal_doc())
        text = "\n".join(lines)
        for fragment in (
            "forest fit", "batch", "partition", "large scale", "sharded"
        ):
            assert fragment in text

    def test_committed_artifact_is_valid(self):
        # BENCH_perf.json at the repo root is regenerated by `repro bench`;
        # whatever is committed must satisfy the current schema.
        import os

        root = os.path.join(os.path.dirname(__file__), "..")
        with open(
            os.path.join(root, "BENCH_perf.json"), encoding="utf-8"
        ) as handle:
            doc = json.load(handle)
        assert_schema(doc)
        assert doc["mode"] == "full"
        # The sharded-simulator entry documents city scale: 10k+ clients
        # with a throughput figure.
        sharded = doc["results"]["large_scale_sharded"]
        assert sharded["clients"] >= 10000
        assert sharded["clients_steps_per_second"] > 0
        # Only production paths are timed: no case or field refers to a
        # scalar reference implementation.
        for name, entry in doc["results"].items():
            assert "reference" not in name
            assert not any("reference" in key for key in entry)


class TestCli:
    def test_parser_accepts_bench_flags(self):
        args = build_parser().parse_args(
            ["bench", "--quick", "--repeats", "2", "--seed", "9",
             "--out", "x.json"]
        )
        assert args.command == "bench"
        assert args.quick and args.repeats == 2 and args.seed == 9
        assert args.out == "x.json"

    def test_repeats_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--repeats", "0"])
        capsys.readouterr()

    def test_only_help_names_every_case(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        listed = re.search(r"run a single benchmark case \(([^)]*)\)", text)
        assert listed.group(1).split(", ") == list(BENCH_CASES)


class TestMeasureScale:
    def test_two_mode_row_reports_labelled_fields(self, monkeypatch):
        # A tiny row (24 users in 2 shards) through the one measurement
        # function: every field the city-scale entries share, plus the
        # interleaved baseline of the second mode.  The horizon asks for
        # more steps than the 12-step trace replays, so the throughput
        # must divide by the steps actually simulated.
        tiny = RunSpec(
            model="mobilenet", users=24, dataset_steps=12, steps=8,
            shard_size=12, record_events=False,
        )
        monkeypatch.setitem(bench.SCALE_SPECS, "tiny", (tiny, tiny))
        monkeypatch.setattr(bench, "CHECKPOINTED", ("tiny",))
        entries = measure_scale(
            "tiny", quick=True, seed=0, repeats=2, workers=2
        )
        assert set(entries) == {"tiny", "tiny_checkpointed"}
        for entry in entries.values():
            times = entry["seconds_all"]
            assert len(times) == 2
            assert entry["seconds_min"] == min(times)
            assert entry["seconds_median"] == statistics.median(times)
            assert entry["seconds_min"] <= entry["seconds_median"]
            assert entry["shards"] == 2
            assert entry["clients"] == 24 and entry["steps"] < tiny.steps
            assert entry["clients_steps_per_second"] == (
                entry["clients"] * entry["steps"] / entry["seconds_min"]
            )
            assert entry["clients_steps_per_second_per_worker"] == (
                entry["clients_steps_per_second"] / entry["workers"]
            )
            assert entry["peak_rss_mb"] > 0
        checkpointed = entries["tiny_checkpointed"]
        assert checkpointed["baseline_seconds_all"] == (
            entries["tiny"]["seconds_all"]
        )
        assert checkpointed["overhead_fraction"] == statistics.median(
            run / base
            for run, base in zip(
                checkpointed["seconds_all"],
                checkpointed["baseline_seconds_all"],
            )
        ) - 1.0


REPEATED_CASES = (
    "large_scale_sharded",
    "large_scale_sharded_checkpointed",
    "large_scale_sharded_100k",
    "large_scale_sharded_1m",
)


def committed_doc():
    import os

    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "BENCH_perf.json"), encoding="utf-8") as f:
        return json.load(f)


class TestRepeatStatistics:
    @pytest.mark.parametrize(
        "times", [[3.0], [5.0, 1.0], [4.0, 1.0, 9.0, 2.0], [2.5, 2.5, 7.0]]
    )
    def test_median_is_the_median_and_min_the_min(self, times):
        stats = _repeat_seconds(times)
        assert stats["seconds_median"] == statistics.median(times)
        assert stats["seconds_min"] == min(times)
        assert stats["seconds_min"] <= stats["seconds_median"]
        assert stats["seconds_all"] == times

    @pytest.mark.parametrize("case", REPEATED_CASES)
    def test_committed_repeats_are_labelled_honestly(self, case):
        entry = committed_doc()["results"][case]
        for prefix in ("", "baseline_"):
            if f"{prefix}seconds_all" not in entry:
                continue
            times = entry[f"{prefix}seconds_all"]
            median = entry[f"{prefix}seconds_median"]
            assert median == statistics.median(times)
            assert entry[f"{prefix}seconds_min"] == min(times)
            assert entry[f"{prefix}seconds_min"] <= median
