"""Bench harness: suite runs, BENCH snapshots, comparison gating, CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    SUITE,
    cases_by_name,
    compare_benches,
    load_bench,
    machine_info,
    run_suite,
    write_bench,
)
from repro.bench.harness import default_output_path, run_case
from repro.cli import main

#: the cheapest cases, for tests that only need a populated snapshot
_FAST = ["core/vote"]
_TINY = 0.02


def _tiny_snapshot(label="t", cases=_FAST, **overrides):
    snapshot = run_suite(label, scale=_TINY, cases=cases_by_name(cases),
                         verbose=False)
    snapshot.update(overrides)
    return snapshot


class TestSuite:
    def test_pinned_names_are_stable(self):
        names = [case.name for case in SUITE]
        assert names == [
            "core/median",
            "core/vote",
            "core/deviations",
            "backend/dense",
            "backend/sparse",
            "backend/process-w1",
            "backend/process-w2",
            "backend/process-w4",
            "backend/mmap",
            "fig7/scaling_point",
            "streaming/icrh_chunks",
            "serving/ingest_read",
            "serving/metrics_overhead",
            "baseline/median-sparse",
            "baseline/catd-process-w2",
            "baseline/truthfinder-sparse",
        ]

    def test_cases_by_name_exact_and_prefix(self):
        assert [c.name for c in cases_by_name(["backend/dense"])] == \
            ["backend/dense"]
        assert [c.name for c in cases_by_name(["backend/"])] == \
            ["backend/dense", "backend/sparse", "backend/process-w1",
             "backend/process-w2", "backend/process-w4", "backend/mmap"]

    def test_cases_by_name_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown bench case"):
            cases_by_name(["no/such"])

    def test_run_case_metrics_shape(self):
        case = cases_by_name(["core/vote"])[0]
        metrics = run_case(case, scale=_TINY)
        assert metrics["seconds"] > 0
        assert 0.0 < metrics["phase_coverage"] <= 1.0
        assert metrics["kernel_calls"]["segment_weighted_vote"] == 5
        assert metrics["peak_tracemalloc_kib"] >= 0

    def test_engine_case_carries_kernel_breakdown(self):
        case = cases_by_name(["backend/sparse"])[0]
        metrics = run_case(case, scale=_TINY)
        assert set(metrics["phase_seconds"]) >= {
            "setup", "weight_step", "truth_step"}
        assert metrics["kernel_seconds"]


class TestSnapshots:
    def test_snapshot_schema_and_round_trip(self, tmp_path):
        snapshot = _tiny_snapshot()
        assert snapshot["bench_schema"] == BENCH_SCHEMA
        assert set(snapshot) >= {"label", "created_unix", "scale",
                                 "machine", "git", "cases"}
        assert set(machine_info()) == {"platform", "python", "numpy",
                                       "cpu_count"}
        path = write_bench(snapshot,
                           default_output_path("t", tmp_path))
        assert path.name == "BENCH_t.json"
        assert load_bench(path) == json.loads(path.read_text())

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"bench_schema": 999}))
        with pytest.raises(ValueError, match="unsupported bench_schema"):
            load_bench(path)


class TestCompare:
    def test_same_suite_runs_pass_within_noise(self):
        a = _tiny_snapshot("a")
        b = _tiny_snapshot("b")
        result = compare_benches(a, b, threshold=2.0)
        assert result.ok
        assert "OK" in result.render()

    def test_regression_beyond_threshold_fails(self):
        a = _tiny_snapshot("a")
        b = json.loads(json.dumps(a))
        case = b["cases"]["core/vote"]
        case["seconds"] = a["cases"]["core/vote"][
            "seconds"] * 10 + 1.0
        result = compare_benches(a, b, threshold=1.5)
        assert not result.ok
        assert result.regressions[0].name == "core/vote"
        assert "REGRESSION" in result.render()

    def test_small_absolute_deltas_never_gate(self):
        a = _tiny_snapshot("a")
        b = json.loads(json.dumps(a))
        # 10x slower but still under the absolute noise floor.
        b["cases"]["core/vote"]["seconds"] = 0.001
        a["cases"]["core/vote"]["seconds"] = 0.0001
        assert compare_benches(a, b, min_seconds=0.02).ok

    def test_memory_regression_gates(self):
        a = _tiny_snapshot("a")
        b = json.loads(json.dumps(a))
        b["cases"]["core/vote"][
            "peak_tracemalloc_kib"] = 10_000_000
        result = compare_benches(a, b)
        assert not result.ok
        assert "memory" in result.regressions[0].causes[0]

    def test_scale_mismatch_is_an_error(self):
        a = _tiny_snapshot("a")
        b = _tiny_snapshot("b", scale=0.5)
        with pytest.raises(ValueError, match="scale mismatch"):
            compare_benches(a, b)

    def test_unmatched_cases_reported_but_do_not_gate(self):
        a = _tiny_snapshot("a")
        b = json.loads(json.dumps(a))
        b["cases"]["extra/case"] = b["cases"]["core/vote"]
        result = compare_benches(a, b)
        assert result.ok
        assert result.only_cand == ["extra/case"]


class TestBenchCli:
    def test_list_cases(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig7/scaling_point" in out

    def test_run_writes_snapshot(self, tmp_path, capsys):
        code = main(["bench", "--label", "clitest", "--scale",
                     str(_TINY), "--case", "core/vote",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        snapshot = load_bench(tmp_path / "BENCH_clitest.json")
        assert snapshot["label"] == "clitest"
        assert "core/vote" in snapshot["cases"]
        assert "wrote" in capsys.readouterr().out

    def test_unknown_case_exits_2(self, capsys):
        assert main(["bench", "--case", "bogus"]) == 2
        assert "unknown bench case" in capsys.readouterr().err

    def test_compare_exit_codes(self, tmp_path, capsys):
        a = _tiny_snapshot("a")
        write_bench(a, tmp_path / "a.json")
        write_bench(a, tmp_path / "b.json")
        assert main(["bench", "compare", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")]) == 0
        slow = json.loads(json.dumps(a))
        slow["cases"]["core/vote"]["seconds"] += 100.0
        write_bench(slow, tmp_path / "slow.json")
        assert main(["bench", "compare", str(tmp_path / "a.json"),
                     str(tmp_path / "slow.json")]) == 1
        bad = {"bench_schema": 999}
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        assert main(["bench", "compare", str(tmp_path / "a.json"),
                     str(tmp_path / "bad.json")]) == 2
        capsys.readouterr()


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
