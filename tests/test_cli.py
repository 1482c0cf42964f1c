"""Tests for the repro-seaice command-line interface."""

from __future__ import annotations

import warnings

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_autolabel_defaults(self):
        args = build_parser().parse_args(["autolabel"])
        assert args.backend == "auto"
        assert args.scenes == 4
        # One vocabulary: no job-shape names beside the backend names, and no thread backend.
        for command, backend in [("autolabel", "mapreduce"), ("autolabel", "thread"), ("classify", "thread"),
                                 ("serve", "thread")]:
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--backend", backend])

    def test_scaling_table_choices(self):
        args = build_parser().parse_args(["scaling", "--table", "2"])
        assert args.table == "2"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scaling", "--table", "9"])

    def test_train_arguments(self):
        args = build_parser().parse_args(["train", "--scenes", "3", "--epochs", "5"])
        assert args.scenes == 3 and args.epochs == 5
        # in-process, the experiment's batch, micro-shards left to the derived default
        assert (args.workers, args.batch_size, args.micro_shards) == (0, 8, None)


class TestCommands:
    def test_autolabel_command_runs(self, capsys):
        archive = ["autolabel", "--scenes", "1", "--scene-size", "64", "--tile-size", "32"]
        assert main(archive) == 0
        assert "ssim_vs_manual" in capsys.readouterr().out
        assert main(archive + ["--workers", "2"]) == 0  # fans out like `classify --workers 2`
        assert "ssim_vs_manual" in capsys.readouterr().out

    def test_scaling_tables_2_and_3(self, capsys):
        assert main(["scaling", "--table", "2"]) == 0
        assert "Table II" in capsys.readouterr().out
        assert main(["scaling", "--table", "3"]) == 0
        assert "Table III" in capsys.readouterr().out

    def test_train_command_prints_one_json_document(self, capsys):
        import json as json_mod

        assert main(["train", "--scenes", "1", "--scene-size", "64", "--tile-size", "16", "--epochs", "1"]) == 0
        document = json_mod.loads(capsys.readouterr().out)
        assert len(document["table4"]) == 2 and document["table5"] and 0.0 < document["autolabel_ssim"] <= 1.0
        assert set(document["models"]) == {"man", "auto"} and "faults" not in document
        for run in document["models"].values():
            assert len(run["weights_digest"]) == 64 and len(run["losses"]) == 1
            assert (run["target_workers"], run["micro_shards"], run["ring_rebuilds"], run["resumes"]) == (0, 2, 0, 0)

    def test_prep_command_runs(self, capsys):
        assert main(["prep", "--scenes", "1", "--scene-size", "64", "--tile-size", "32"]) == 0
        assert "seconds_per_scene" in capsys.readouterr().out

    def test_prep_command_with_overlap(self, capsys):
        assert main(["prep", "--scenes", "1", "--scene-size", "64", "--tile-size", "32", "--overlap", "8"]) == 0
        out = capsys.readouterr().out
        assert '"tile_overlap": 8' in out

    def test_classify_defaults(self):
        args = build_parser().parse_args(["classify"])
        assert args.overlap == 0 and args.workers == 1

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--registry", "models/"])
        assert args.registry == "models/"
        assert args.port == 8080 and args.max_batch == 16
        assert not args.demo

    def test_serve_batch_window_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--registry", "models/", "--batch-window-ms", "5"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_demo_flags(self):
        args = build_parser().parse_args(["serve", "--demo", "--demo-epochs", "0", "--port", "0"])
        assert args.demo and args.demo_epochs == 0 and args.port == 0

    def test_classify_command_runs(self, capsys):
        # Bare ``--workers N`` is the documented way to fan out: no warning.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "classify", "--scene-size", "64", "--tile-size", "32", "--overlap", "8",
                "--workers", "2", "--epochs", "0", "--no-filter",
            ])
        assert code == 0
        assert not [w for w in caught if "--workers" in str(w.message)]
        out = capsys.readouterr().out
        assert "tiles_per_s" in out and '"overlap": 8' in out

    def test_serve_without_registry_errors(self, capsys):
        assert main(["serve"]) == 2
        assert "--registry" in capsys.readouterr().err

    def test_serve_empty_registry_errors(self, tmp_path, capsys):
        assert main(["serve", "--registry", str(tmp_path)]) == 2
        assert "no models" in capsys.readouterr().err

    def test_serve_inference_config_file_rejects_unknown_keys(self, tmp_path, capsys):
        import json as json_mod

        config_path = tmp_path / "inference.json"
        config_path.write_text(json_mod.dumps({"tile_size": 32, "bogus": 1}))
        with pytest.raises(ValueError, match="unknown InferenceConfig keys"):
            main(["serve", "--registry", str(tmp_path), "--inference-config", str(config_path)])


class TestBenchCommand:
    def test_parser_accepts_bench(self):
        args = build_parser().parse_args(["bench", "inference_throughput", "--smoke"])
        assert args.name == "inference_throughput" and args.smoke

    def test_list_prints_available_benchmarks(self, capsys):
        assert main(["bench", "--list"]) == 0
        import json as json_mod

        payload = json_mod.loads(capsys.readouterr().out)
        assert "inference_throughput" in payload["benchmarks"]
        assert "serving_throughput" in payload["benchmarks"]

    def test_no_name_lists(self, capsys):
        assert main(["bench"]) == 0
        assert "benchmarks" in capsys.readouterr().out

    def test_unknown_benchmark_errors(self, capsys):
        assert main(["bench", "nope"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_serve_max_warm_flag(self):
        args = build_parser().parse_args(["serve", "--demo", "--max-warm", "2"])
        assert args.max_warm == 2


class TestProfileCommand:
    def test_training_profile_honours_model_flags_and_reports_the_budget(self, tmp_path, capsys):
        import json as json_mod

        out = tmp_path / "PROFILE_training.json"
        assert main(["profile", "training", "--depth", "3", "--base-channels", "4", "--tile-size", "16",
                     "--batch-size", "2", "--batches", "2", "--epochs", "1", "--output", str(out)]) == 0
        report = json_mod.loads(out.read_text())["training"]
        # --depth 3: three encoders and decoders in the per-block table, not the fixed depth-2 model.
        assert {"enc2", "dec2"} <= set(report["per_epoch"][0]["layers"])
        kinds = report["by_kind"]
        assert {"Conv2D", "ReLU", "Dropout", "MaxPool2D", "UpConv2D", "Concat"} == set(kinds)
        # --base-channels/--depth reach the model: 2 steps x (3 encoders + bottleneck + 3 decoders) x 2 ReLUs.
        assert kinds["ReLU"]["calls"] == 2 * 7 * 2 and kinds["MaxPool2D"]["calls"] == 2 * 3
        assert kinds["Concat"]["calls"] == 2 * 3
        assert sum(cell["share"] for cell in kinds.values()) == pytest.approx(1.0, abs=1e-2)
        assert all(cell["forward_ms"] >= 0.0 and cell["backward_ms"] >= 0.0 for cell in kinds.values())
        assert report["checkpoint_ms"] > 0.0
