"""Tests for the command-line experiment runner."""

import pytest

from repro.cli import _EXPERIMENTS, build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.experiment == "table1"
        assert args.seed == 1

    def test_seed_flag(self):
        args = build_parser().parse_args(["fig8", "--seed", "9"])
        assert args.seed == 9


class TestDispatch:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in _EXPERIMENTS:
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["tableX"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Weather" in out

    def test_runs_fig6(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "decay" in out

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "results.md"
        assert main(["table1", "--output", str(out)]) == 0
        text = out.read_text()
        assert "## table1" in text
        assert "Weather" in text

    def test_scale_flag_accepted(self, capsys):
        assert main(["table1", "--scale", "0.5"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_experiment_registry_covers_all_artifacts(self):
        expected = {f"table{i}" for i in (1, 2, 3, 4, 5, 6)} | \
            {f"fig{i}" for i in range(1, 9)} | {
                "ablation-losses", "ablation-norm", "ablation-init",
                "ablation-joint", "ablation-selection",
                "ablation-finegrained",
            }
        assert set(_EXPERIMENTS) == expected


class TestServeSim:
    def test_serve_sim_runs(self, capsys):
        assert main(["serve-sim", "--cities", "2", "--days", "6"]) == 0
        out = capsys.readouterr().out
        assert "serve-sim:" in out
        assert "claims/sec" in out
        assert "cache hit rate" in out

    def test_serve_sim_snapshot(self, capsys, tmp_path):
        snap = tmp_path / "state"
        assert main(["serve-sim", "--cities", "2", "--days", "4",
                     "--snapshot", str(snap)]) == 0
        assert (snap / "service.json").exists()
        assert (snap / "claims.npz").exists()

    def test_serve_sim_listed(self, capsys):
        assert main(["list"]) == 0
        assert "serve-sim" in capsys.readouterr().out


class TestTraceCli:
    def test_summarize_prints_run_report(self, tmp_path, capsys):
        from repro.core.solver import crh
        from repro.observability import JsonlTracer

        from .conftest import make_synthetic

        dataset, _ = make_synthetic(n_objects=20)
        path = tmp_path / "run.jsonl"
        with JsonlTracer(path) as tracer:
            crh(dataset, tracer=tracer)
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "runs: CRH" in out

    def test_summarize_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["trace", "summarize",
                     str(tmp_path / "nope.jsonl")]) == 2
        assert "no such file" in capsys.readouterr().err
