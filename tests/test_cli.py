"""Tests for the command-line interface."""

import pytest

from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_models_command(self):
        args = build_parser().parse_args(["models"])
        assert args.command == "models"

    def test_partition_defaults(self):
        args = build_parser().parse_args(["partition"])
        assert args.model == "inception"
        assert args.slowdown == 1.0
        assert not args.verbose

    def test_invalid_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["partition", "--model", "lenet-9000"])

    def test_extended_zoo_models_accepted(self):
        args = build_parser().parse_args(["partition", "--model", "alexnet"])
        assert args.model == "alexnet"

    def test_simulate_policy_choices(self):
        args = build_parser().parse_args(
            ["simulate", "--policy", "routing", "--dataset", "geolife"]
        )
        assert args.policy == "routing"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--policy", "bogus"])

    def test_telemetry_command_parses(self):
        args = build_parser().parse_args(["telemetry", "run.json"])
        assert args.command == "telemetry"
        assert args.snapshot == "run.json"
        assert args.top == 10

    @pytest.mark.parametrize("value", ["-1", "-30"])
    def test_telemetry_top_must_be_non_negative(self, capsys, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["telemetry", "run.json", "--top", value]
            )
        assert "non-negative integer" in capsys.readouterr().err

    def test_telemetry_top_zero_is_accepted(self):
        args = build_parser().parse_args(
            ["telemetry", "run.json", "--top", "0"]
        )
        assert args.top == 0

    @pytest.mark.parametrize("flag", ["--users", "--steps", "--dataset-steps"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_simulate_rejects_non_positive_counts(self, capsys, flag, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", flag, value])
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--users", "--steps", "--dataset-steps"])
    @pytest.mark.parametrize("value", ["2.5", "many"])
    def test_simulate_rejects_non_integer_counts(self, capsys, flag, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", flag, value])
        assert "invalid int value" in capsys.readouterr().err

    def test_predictors_rejects_non_positive_counts(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predictors", "--users", "0"])
        assert "positive integer" in capsys.readouterr().err

    def test_simulate_faults_choices(self):
        args = build_parser().parse_args(["simulate", "--faults", "churn"])
        assert args.faults == "churn"
        assert build_parser().parse_args(["simulate"]).faults == "none"
        # Unknown names parse fine; main() rejects them with a listing.
        args = build_parser().parse_args(["simulate", "--faults", "meteor"])
        assert args.faults == "meteor"

    def test_simulate_overload_choices(self):
        args = build_parser().parse_args(["simulate"])
        assert args.overload == "off"
        assert args.queue_capacity == 8
        args = build_parser().parse_args(
            ["simulate", "--overload", "redirect", "--queue-capacity", "2"]
        )
        assert args.overload == "redirect"
        assert args.queue_capacity == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--overload", "panic"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--queue-capacity", "0"])

    def test_faults_command_parses(self):
        assert build_parser().parse_args(["faults"]).command == "faults"
        assert build_parser().parse_args(["faults", "--list"]).list

    @pytest.mark.parametrize("command", ["simulate", "predictors", "bench"])
    def test_seed_must_be_non_negative(self, capsys, command):
        # numpy refuses negative seeds deep inside the run.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--seed", "-1"])
        assert exc.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err
        assert build_parser().parse_args([command, "--seed", "0"]).seed == 0

    @pytest.mark.parametrize("flag", ["--radius", "--hysteresis"])
    @pytest.mark.parametrize("value", ["-5", "nan", "inf"])
    def test_simulate_distances_must_be_finite_non_negative(
        self, capsys, flag, value
    ):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["simulate", flag, value])
        assert exc.value.code == 2
        assert "finite non-negative number" in capsys.readouterr().err
        args = build_parser().parse_args(["simulate", flag, "0"])
        assert getattr(args, flag[2:]) == 0.0


    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0.5"])
    def test_partition_slowdown_must_be_finite_and_at_least_one(
        self, capsys, value
    ):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["partition", "--slowdown", value])
        assert exc.value.code == 2
        assert "finite number >= 1" in capsys.readouterr().err
        args = build_parser().parse_args(["partition", "--slowdown", "1"])
        assert args.slowdown == 1.0

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "1.5"])
    def test_handoff_fraction_must_be_a_finite_share(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["handoff", "--fraction", value])
        assert exc.value.code == 2
        assert "number in [0, 1]" in capsys.readouterr().err
        for share in ("0", "1"):
            args = build_parser().parse_args(["handoff", "--fraction", share])
            assert args.fraction == float(share)

    @pytest.mark.parametrize(
        "flags",
        [["--queries", "0"], ["--switch-after", "0"], ["--switch-after", "-1"]],
    )
    def test_handoff_counts_must_be_positive(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["handoff", *flags])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--remote-worker", "127.0.0.1:1"],
            ["shard-worker"],
        ],
    )
    def test_remote_dispatch_is_not_a_command(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


class TestCommands:
    def test_models_runs(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in ("mobilenet", "inception", "resnet"):
            assert name in out

    def test_partition_runs(self, capsys):
        assert main(["partition", "--model", "mobilenet"]) == 0
        out = capsys.readouterr().out
        assert "plan latency" in out
        assert "MB" in out

    def test_partition_verbose_lists_chunks(self, capsys):
        assert main(["partition", "--model", "mobilenet", "--verbose"]) == 0
        assert "[  0]" in capsys.readouterr().out

    def test_handoff_runs(self, capsys):
        assert main(
            [
                "handoff", "--model", "mobilenet", "--fraction", "1.0",
                "--queries", "10", "--switch-after", "5",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "<- server change" in out
        assert "peak after switch" in out

    @pytest.mark.parametrize("switch_after", ["4", "10"])
    def test_handoff_switch_must_fall_inside_the_queries(
        self, capsys, switch_after
    ):
        argv = ["handoff", "--queries", "4", "--switch-after", switch_after]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --switch-after")
        assert captured.out == ""

    def test_simulate_runs(self, capsys):
        assert main(
            [
                "simulate", "--dataset", "kaist", "--model", "mobilenet",
                "--policy", "none", "--steps", "8", "--users", "4",
                "--dataset-steps", "60",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "hit ratio" in out
        assert "total queries" in out

    def test_simulate_routing_policy(self, capsys):
        assert main(
            [
                "simulate", "--dataset", "kaist", "--model", "mobilenet",
                "--policy", "routing", "--steps", "8", "--users", "4",
                "--dataset-steps", "60",
            ]
        ) == 0
        assert "policy: routing" in capsys.readouterr().out

    def test_simulate_writes_and_telemetry_summarizes(self, capsys, tmp_path):
        snapshot = tmp_path / "run.telemetry.json"
        assert main(
            [
                "simulate", "--dataset", "kaist", "--model", "mobilenet",
                "--policy", "none", "--steps", "5", "--users", "3",
                "--dataset-steps", "50", "--telemetry", str(snapshot),
            ]
        ) == 0
        assert "telemetry snapshot" in capsys.readouterr().out
        assert snapshot.exists()
        assert main(["telemetry", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "counters" in out
        assert "events" in out
        assert "cold_start: " in out  # event tally by kind
        assert "query.completed" in out

    def test_telemetry_top_caps_the_counter_list(self, capsys, tmp_path):
        snapshot = tmp_path / "run.telemetry.json"
        assert main(
            [
                "simulate", "--model", "mobilenet", "--policy", "none",
                "--steps", "4", "--users", "3", "--dataset-steps", "50",
                "--telemetry", str(snapshot),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["telemetry", str(snapshot), "--top", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(i for i, line in enumerate(lines)
                      if line.startswith("counters ("))
        total = int(lines[header].split("(")[1].split(")")[0])
        assert lines[header + 1] == f"  ... {total} more"

    def test_telemetry_missing_file_errors(self, capsys, tmp_path):
        assert main(["telemetry", str(tmp_path / "nope.json")]) == 1
        assert "no such snapshot" in capsys.readouterr().err

    def test_telemetry_directory_errors(self, capsys, tmp_path):
        assert main(["telemetry", str(tmp_path)]) == 1
        assert "cannot read snapshot" in capsys.readouterr().err

    def test_simulate_traces_too_short_to_train_exit_2(self, capsys):
        assert main(
            [
                "simulate", "--model", "mobilenet", "--users", "1",
                "--dataset-steps", "2", "--steps", "2",
            ]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "prediction_history" in captured.err

    def test_faults_lists_profiles(self, capsys):
        assert main(["faults"]) == 0
        out = capsys.readouterr().out
        for name in ("none", "churn", "flaky-backhaul", "flash-crowd",
                     "blackout"):
            assert name in out

    def test_faults_list_flag(self, capsys):
        assert main(["faults", "--list"]) == 0
        assert "flash-crowd" in capsys.readouterr().out

    def test_simulate_unknown_faults_profile_lists_known(self, capsys):
        assert main(["simulate", "--faults", "meteor"]) == 2
        err = capsys.readouterr().err
        assert "unknown fault profile 'meteor'" in err
        for name in ("churn", "flash-crowd", "blackout"):
            assert name in err

    def test_simulate_with_overload_reports_outcomes(self, capsys):
        assert main(
            [
                "simulate", "--dataset", "kaist", "--model", "mobilenet",
                "--policy", "none", "--steps", "8", "--users", "4",
                "--dataset-steps", "60", "--faults", "flash-crowd",
                "--overload", "redirect", "--queue-capacity", "1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "overload policy:    redirect" in out
        assert "offered windows" in out
        assert "shed queries" in out
        assert "redirected queries" in out
        assert "queue wait p99" in out

    def test_simulate_with_faults_reports_availability(self, capsys):
        assert main(
            [
                "simulate", "--dataset", "kaist", "--model", "mobilenet",
                "--policy", "none", "--steps", "8", "--users", "4",
                "--dataset-steps", "60", "--faults", "churn",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "faults profile" in out and "churn" in out
        assert "availability" in out
        assert "local fallback" in out

    def test_simulate_creates_nested_telemetry_dirs(self, capsys, tmp_path):
        snapshot = tmp_path / "deeply" / "nested" / "run.telemetry.json"
        assert main(
            [
                "simulate", "--dataset", "kaist", "--model", "mobilenet",
                "--policy", "none", "--steps", "5", "--users", "3",
                "--dataset-steps", "50", "--telemetry", str(snapshot),
            ]
        ) == 0
        assert snapshot.exists()

    def test_simulate_unwritable_telemetry_path_errors(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        target = blocker / "run.telemetry.json"  # parent is a regular file
        assert main(
            [
                "simulate", "--dataset", "kaist", "--model", "mobilenet",
                "--policy", "none", "--steps", "5", "--users", "3",
                "--dataset-steps", "50", "--telemetry", str(target),
            ]
        ) == 1
        err = capsys.readouterr().err
        assert "cannot write telemetry snapshot" in err
        assert len(err.strip().splitlines()) == 1


class TestShardedSimulate:
    def test_parser_accepts_sharding_flags(self):
        args = build_parser().parse_args(
            ["simulate", "--workers", "4", "--shard-size", "64"]
        )
        assert args.workers == 4
        assert args.shard_size == 64

    def test_sharding_defaults_to_unsharded(self):
        args = build_parser().parse_args(["simulate"])
        assert args.workers == 1
        assert args.shard_size is None

    @pytest.mark.parametrize("flag", ["--workers", "--shard-size"])
    def test_sharding_counts_must_be_positive(self, capsys, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", flag, "0"])
        capsys.readouterr()

    def test_chaos_kill_shard_must_be_non_negative(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--shard-size", "2", "--chaos-kill-shard", "-3"]
            )
        assert "non-negative integer" in capsys.readouterr().err
        args = build_parser().parse_args(
            ["simulate", "--shard-size", "2", "--chaos-kill-shard", "0",
             "--chaos-kill-shard", "4"]
        )
        assert args.chaos_kill_shard == [0, 4]

    @pytest.mark.parametrize(
        "flag", ["--chaos-seed", "--chaos-max-injections"]
    )
    def test_chaos_counts_must_be_non_negative(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["simulate", "--shard-size", "2", flag, "-1"]
            )
        assert exc.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err
        args = build_parser().parse_args(["simulate", flag, "0"])
        assert getattr(args, flag[2:].replace("-", "_")) == 0

    def test_hang_chaos_without_timeout_exits_2_before_set_up(
        self, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("refusal must come before any set-up")

        monkeypatch.setattr(cli, "_make_partitioner", never)
        monkeypatch.setattr(cli, "_make_dataset", never)
        assert main(
            [
                "simulate", "--model", "mobilenet", "--steps", "4",
                "--users", "4", "--dataset-steps", "40",
                "--shard-size", "2", "--chaos-hang", "0.5",
            ]
        ) == 2
        captured = capsys.readouterr()
        assert "--shard-timeout" in captured.err
        assert captured.out == ""

    def test_chaos_kill_shard_past_the_plan_exits_2(self, capsys):
        assert main(
            [
                "simulate", "--model", "mobilenet", "--steps", "4",
                "--users", "4", "--dataset-steps", "40",
                "--shard-size", "2", "--chaos-kill-shard", "99",
            ]
        ) == 2
        captured = capsys.readouterr()
        assert "always_kill" in captured.err and "[99]" in captured.err
        assert "sharding:" not in captured.out

    def test_traces_too_short_to_train_exit_2(self, capsys):
        assert main(
            [
                "simulate", "--model", "mobilenet", "--users", "2",
                "--dataset-steps", "3", "--shard-size", "1",
            ]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "prediction_history" in captured.err

    def test_sharded_run_reports_decomposition(self, capsys):
        assert main(
            [
                "simulate", "--dataset", "kaist", "--model", "mobilenet",
                "--policy", "perdnn", "--steps", "4", "--users", "8",
                "--dataset-steps", "40", "--shard-size", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "sharding:" in out
        assert "shards" in out
        # The driver plans every reachable key once; shards re-plan none.
        plan_line = next(
            line for line in out.splitlines() if line.startswith("plan cache:")
        )
        assert "/ 0 replans, " in plan_line
        assert " prewarmed)" in plan_line

    def test_sharded_snapshot_has_no_worker_meta(self, capsys, tmp_path):
        # The CI smoke `cmp`s snapshots from different --workers runs, so
        # worker count must never leak into the exported bytes.
        import json

        path = tmp_path / "sharded.telemetry.json"
        assert main(
            [
                "simulate", "--model", "mobilenet", "--policy", "perdnn",
                "--steps", "4", "--users", "8", "--dataset-steps", "40",
                "--workers", "2", "--shard-size", "2",
                "--telemetry", str(path),
            ]
        ) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        assert doc["meta"]["shard_size"] == 2
        assert "workers" not in doc["meta"]


class TestProfile:
    """``--profile`` profiles the calling process only, so a sharded run
    must keep every shard in it (one worker, nothing to kill)."""

    RUN = [
        "simulate", "--model", "mobilenet", "--steps", "4", "--users", "8",
        "--dataset-steps", "40",
    ]

    def test_unsharded_run_prints_table(self, capsys):
        assert main([*self.RUN, "--profile", "5"]) == 0
        out = capsys.readouterr().out
        assert "profile (top 5 by cumulative time):" in out
        assert "(run_large_scale)" in out
        assert "hit ratio" in out

    def test_inline_sharded_run_prints_table(self, capsys):
        assert main([*self.RUN, "--shard-size", "4", "--profile", "5"]) == 0
        out = capsys.readouterr().out
        assert "profile (top 5 by cumulative time):" in out
        assert "run_large_scale" in out
        assert "sharding:" in out

    def test_inline_sharded_profile_sees_the_shards(self, capsys):
        # A limit past the function count lists every profiled function.
        assert main([*self.RUN, "--shard-size", "4", "--profile", "5000"]) == 0
        out = capsys.readouterr().out
        assert "(_run_shard_job)" in out
        assert "(run_large_scale)" in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "2"],
            ["--shard-size", "4", "--shard-timeout", "30"],
            ["--shard-size", "4", "--chaos-kill", "0.5"],
        ],
    )
    def test_process_fleets_refused_before_any_work(
        self, capsys, monkeypatch, flags
    ):
        def never(*args, **kwargs):
            raise AssertionError("refusal must come before any set-up")

        monkeypatch.setattr(cli, "_make_partitioner", never)
        monkeypatch.setattr(cli, "_make_dataset", never)
        assert main([*self.RUN, *flags, "--profile", "5"]) == 2
        captured = capsys.readouterr()
        assert "--workers 1" in captured.err
        assert captured.out == ""
