"""Tests of the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        actions = {action.dest: action for action in parser._subparsers._group_actions}
        choices = actions["command"].choices
        assert set(choices) >= {"table2", "table3", "fig7", "fig8", "fig9", "ablations",
                                "area", "deploy-cnn", "deploy-resnet", "scenarios"}

    def test_serve_takes_recalibration_flags(self):
        args = build_parser().parse_args(
            ["serve", "--recalibrate", "--drift-s", "60", "--drift-sigma", "0.3"])
        assert args.recalibrate and args.drift_s == 60.0

    def test_precompile_takes_prune_bounds(self):
        args = build_parser().parse_args(
            ["precompile", "--store", "./s", "--prune-max-entries", "4",
             "--prune-max-age-days", "7"])
        assert args.prune_max_entries == 4
        assert args.prune_max_age_days == 7.0

    def test_deploy_subcommands_take_method(self):
        parser = build_parser()
        for command in ("deploy-cnn", "deploy-resnet"):
            args = parser.parse_args([command, "--preset", "smoke",
                                      "--method", "reck"])
            assert args.method == "reck"
            assert not hasattr(args, "backend")

    @pytest.mark.parametrize("command", [
        ["deploy-cnn"], ["deploy-resnet"], ["serve"],
        ["precompile", "--store", "./s"]])
    @pytest.mark.parametrize("value", ["auto", "column"])
    def test_no_subcommand_takes_a_backend(self, command, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--backend", value])

    def test_backends_takes_no_calibration_flags(self):
        parser = build_parser()
        assert parser.parse_args(["backends", "--output", "b.json"]).output == "b.json"
        for flag in ("--calibrate", "--dimensions", "--batch", "--repeats", "--seed"):
            with pytest.raises(SystemExit):
                parser.parse_args(["backends", flag])

    def test_requires_a_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            main(["table2", "--preset", "gigantic"])


class TestExecution:
    def test_area_command_prints_paper_numbers(self, capsys):
        assert main(["area"]) == 0
        output = capsys.readouterr().out
        assert "FCNN" in output and "ResNet-32" in output
        assert "31.7" in output        # the paper's FCNN MZI count (x1e4)

    def test_backends_reports_the_native_kernel_only(self, tmp_path, capsys):
        output_path = tmp_path / "backends.json"
        assert main(["backends", "--output", str(output_path)]) == 0
        output = capsys.readouterr().out
        assert "native kernel:" in output
        assert "size limit" not in output
        payload = json.loads(output_path.read_text())
        assert sorted(payload) == ["load_error", "native"]
        assert "available" in payload["native"]

    def test_table2_smoke_with_json_output(self, tmp_path, capsys):
        output_path = tmp_path / "rows.json"
        assert main(["table2", "--preset", "smoke", "--workloads", "fcnn",
                     "--output", str(output_path)]) == 0
        stdout = capsys.readouterr().out
        assert "Table II" in stdout
        rows = json.loads(output_path.read_text())
        assert rows[0]["model"] == "FCNN"

    def test_fig9_smoke_single_workload(self, capsys):
        assert main(["fig9", "--preset", "smoke", "--workloads", "fcnn"]) == 0
        assert "decoder" in capsys.readouterr().out.lower()

    def test_scenarios_lists_the_registry(self, capsys):
        assert main(["scenarios"]) == 0
        output = capsys.readouterr().out
        for name in ("thermal_drift", "crosstalk", "fabrication"):
            assert name in output

    def test_precompile_populates_then_warm_hits(self, tmp_path, capsys):
        store = tmp_path / "store"
        argv = ["precompile", "--store", str(store), "--preset", "smoke",
                "--workloads", "fcnn"]
        assert main(argv) == 0
        assert "compiled + stored" in capsys.readouterr().out
        # the second build of the identical deployment comes off the store
        assert main(argv) == 0
        assert "warm hit" in capsys.readouterr().out
        output_path = tmp_path / "precompile.json"
        assert main(argv + ["--refresh", "--output", str(output_path)]) == 0
        assert "rewritten" in capsys.readouterr().out
        report = json.loads(output_path.read_text())
        assert report["stats"]["saves"] == 1 and report["stats"]["deletes"] == 1

    def test_serve_workers_table_reports_threads_and_startup(self, monkeypatch,
                                                             capsys):
        from repro.experiments import serving

        def replica(threads, startup_s):
            return {"alive": True, "restarts": 0, "blas_threads": threads,
                    "startup_s": startup_s}

        def fake_rows(*_args, worker_counts, **_kwargs):
            assert worker_counts == [1, 2]
            return [serving.ShardRow(
                workers=workers, requests=8, clients=2, images_per_request=1,
                seconds=0.1, requests_per_s=80.0, samples_per_s=80.0,
                max_parity=0.0, overload_retries=0, replicas=replicas)
                for workers, replicas in [
                    (1, {"r0": replica(2, 0.25)}),
                    (2, {"r0": replica(1, 0.5), "r1": replica(None, 0.75)})]]

        monkeypatch.setattr(serving, "run_shard_benchmark", fake_rows)
        assert main(["serve", "--preset", "smoke", "--workload", "fcnn",
                     "--workers", "1", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(line for line in lines if line.startswith("workers"))
        assert header.rstrip().endswith("BLAS threads  start-up")
        rows = {line.split()[0]: line.split() for line in lines
                if line[:1].isdigit()}
        # distinct blas_threads over the row's replicas ("?" = not pinned),
        # then the slowest replica's start-up
        assert rows["1"][-3:] == ["2", "0.25", "s"]
        assert rows["2"][-3:] == ["1/?", "0.75", "s"]

    def test_serve_populates_then_warm_hits(self, tmp_path, capsys):
        output_path = tmp_path / "serve.json"
        argv = ["serve", "--preset", "smoke", "--workload", "fcnn",
                "--max-batch", "1", "8", "--requests", "16", "--clients", "2",
                "--store", str(tmp_path / "store"), "--output", str(output_path)]
        assert main(argv) == 0
        assert "miss (populated)" in capsys.readouterr().out
        # a second process-equivalent run compiles straight off the store
        assert main(argv) == 0
        assert "warm hit" in capsys.readouterr().out
        report = json.loads(output_path.read_text())
        assert sorted(report) == ["plan", "serving"]
        assert report["plan"]["max_deviation"] <= 1e-12
        assert [row["max_batch"] for row in report["serving"]] == [1, 8]
        assert all(row["requests"] == 16 for row in report["serving"])
