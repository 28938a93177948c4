"""The tracing subsystem: record emission, aggregation, and neutrality.

Covers the acceptance properties of the observability layer: one record
per iteration, trace/result agreement on the objective series, lossless
JSONL round-trips, engine counters that actually count, and — most
importantly — that tracing changes no numerical result and the disabled
path stays out of the way.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from tests.conftest import make_synthetic
from repro import crh
from repro.core.regularizers import ExponentialWeights
from repro.datasets import WeatherConfig, generate_weather_dataset
from repro.experiments.harness import run_method_table
from repro.observability import (
    METRIC_FIELDS,
    JsonlTracer,
    MemoryTracer,
    NullTracer,
    RunReport,
    Tracer,
    run_finished,
    tracer_from_env,
)
from repro.parallel import parallel_crh
from repro.streaming import icrh


@pytest.fixture()
def workload():
    return make_synthetic(n_objects=40, n_sources=4, seed=7)


class TestSolverTracing:
    def test_one_iteration_record_per_iteration(self, workload):
        dataset, _ = workload
        tracer = MemoryTracer()
        result = crh(dataset, tracer=tracer)
        report = RunReport.from_records(tracer.records)
        iterations = report.iterations()
        assert len(iterations) == result.iterations
        assert [r["iteration"] for r in iterations] == list(
            range(1, result.iterations + 1)
        )
        # exactly one run_start and one run_end envelope the iterations
        assert len(report.events("run_start")) == 1
        assert len(report.events("run_end")) == 1
        assert len(tracer.records) == result.iterations + 2

    def test_objective_series_matches_result_history(self, workload):
        dataset, _ = workload
        tracer = MemoryTracer()
        result = crh(dataset, tracer=tracer)
        series = RunReport.from_records(tracer.records).objective_series()
        assert series == pytest.approx(result.objective_history)

    def test_objective_series_non_increasing_for_convex_pair(self):
        """On simulated data with the convex loss pair and the exact
        Eq. 5 normalizer, the traced objective decreases monotonically
        (from the second iteration, as in ``test_solver``)."""
        dataset, _ = make_synthetic(n_objects=80, seed=3)
        tracer = MemoryTracer()
        result = crh(
            dataset,
            categorical_loss="probability",
            continuous_loss="squared",
            weight_scheme=ExponentialWeights("sum"),
            max_iterations=30,
            tol=0.0,
            tracer=tracer,
        )
        series = RunReport.from_records(tracer.records).objective_series()
        assert series == pytest.approx(result.objective_history)
        assert (np.diff(np.array(series)[1:]) <= 1e-9).all()

    def test_iteration_records_carry_phase_measurements(self, workload):
        dataset, _ = workload
        tracer = MemoryTracer()
        crh(dataset, tracer=tracer)
        for record in tracer.events("iteration"):
            assert record["truth_seconds"] >= 0.0
            assert record["weight_seconds"] >= 0.0
            assert record["weight_delta"] >= 0.0
            assert record["truth_changes"] >= 0
            assert len(record["weights"]) == dataset.n_sources

    def test_truth_changes_settle_to_zero_at_convergence(self, workload):
        dataset, _ = workload
        tracer = MemoryTracer()
        result = crh(dataset, tracer=tracer)
        if result.converged:
            assert tracer.events("iteration")[-1]["truth_changes"] == 0


class TestTracingNeutrality:
    def test_null_tracer_and_none_give_identical_results(self, workload):
        dataset, _ = workload
        plain = crh(dataset)
        nulled = crh(dataset, tracer=NullTracer())
        traced_tracer = MemoryTracer()
        traced = crh(dataset, tracer=traced_tracer)
        for other in (nulled, traced):
            np.testing.assert_array_equal(plain.weights, other.weights)
            assert plain.iterations == other.iterations
            assert plain.objective_history == pytest.approx(
                other.objective_history
            )
        assert len(traced_tracer.records) > 0

    def test_null_tracer_emits_nothing(self):
        tracer = NullTracer()
        assert not tracer.enabled
        tracer.emit({"event": "iteration"})  # accepted, dropped
        tracer.close()

    def test_parallel_results_unchanged_by_tracer(self, workload):
        dataset, _ = workload
        plain = parallel_crh(dataset)
        traced = parallel_crh(dataset, tracer=MemoryTracer())
        np.testing.assert_allclose(plain.weights, traced.weights)

    def test_streaming_results_unchanged_by_tracer(self, small_weather):
        plain = icrh(small_weather.dataset, window=1)
        traced = icrh(small_weather.dataset, window=1,
                      tracer=MemoryTracer())
        np.testing.assert_allclose(plain.weights, traced.weights)


class TestJsonlRoundTrip:
    def test_file_round_trip(self, workload, tmp_path):
        dataset, _ = workload
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(path) as tracer:
            result = crh(dataset, tracer=tracer)
        memory = MemoryTracer()
        crh(dataset, tracer=memory)

        def stable(records):  # wall-clock fields differ run to run
            timing = ("truth_seconds", "weight_seconds",
                      "elapsed_seconds")
            return [{k: v for k, v in r.items() if k not in timing}
                    for r in records]

        report = RunReport.from_file(path)
        assert stable(report.records) == stable(memory.records)
        assert report.objective_series() == pytest.approx(
            result.objective_history
        )

    def test_to_json_from_json_inverse(self, workload):
        dataset, _ = workload
        tracer = MemoryTracer()
        crh(dataset, tracer=tracer)
        report = RunReport.from_records(tracer.records)
        again = RunReport.from_json(report.to_json())
        assert again.records == report.records
        assert again.to_json() == report.to_json()

    def test_every_line_is_flat_json_with_envelope(self, workload, tmp_path):
        dataset, _ = workload
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(path) as tracer:
            crh(dataset, tracer=tracer)
        from repro.observability import SCHEMA_VERSION
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert record["v"] == SCHEMA_VERSION
            assert record["event"]

    def test_every_emitted_field_is_in_the_glossary(self, workload,
                                                    small_weather):
        dataset, _ = workload
        tracer = MemoryTracer()
        crh(dataset, tracer=tracer)
        parallel_crh(dataset, tracer=tracer)
        icrh(small_weather.dataset, window=1, tracer=tracer)
        unknown = {
            field
            for record in tracer.records for field in record
        } - set(METRIC_FIELDS)
        assert not unknown, f"undocumented trace fields: {sorted(unknown)}"


class TestServingTotals:
    """RunReport aggregation over TruthService ingest/read records."""

    def _traced_service(self):
        from repro.data import DatasetSchema, continuous
        from repro.streaming import Claim, TruthService

        tracer = MemoryTracer()
        service = TruthService(DatasetSchema.of(continuous("p0")),
                               window=1, tracer=tracer)
        for batch in range(3):  # fresh objects per batch advance windows
            service.ingest([
                Claim(batch * 4 + i % 4, "p0", f"s{i % 3}", float(i),
                      float(batch))
                for i in range(6)
            ])
        service.flush()
        service.get_truth(service.object_ids)
        service.get_truth(service.object_ids)  # warm second read
        return service, tracer

    def test_totals_match_the_service_counters(self):
        service, tracer = self._traced_service()
        totals = RunReport.from_records(tracer.records).serving_totals()
        metrics = service.metrics()
        assert totals["ingest_batches"] == 3
        assert totals["ingested_claims"] == metrics["ingested_claims"]
        # the flush-time seal happens outside any ingest record, so the
        # trace sees exactly one seal fewer than the live counter
        assert totals["windows_sealed"] == 2
        assert metrics["windows_sealed"] == 3
        assert totals["read_calls"] == 2
        assert totals["read_objects"] == metrics["read_objects"]
        assert totals["cache_hits"] == metrics["cache_hits"]
        assert totals["cache_misses"] == metrics["cache_misses"]
        assert totals["cache_hit_rate"] == pytest.approx(
            metrics["cache_hit_rate"])

    def test_summary_renders_the_serving_line(self):
        _, tracer = self._traced_service()
        summary = RunReport.from_records(tracer.records).summary()
        assert "serving: 18 claim(s) ingested over 3 batch(es)" in summary
        assert "cache hits" in summary

    def test_trace_free_report_has_no_serving_totals(self):
        report = RunReport.from_records(
            [{"event": "run_start", "v": 3}])
        assert report.serving_totals() == {}
        assert "serving:" not in report.summary()

    def test_counter_totals_include_serving_counters(self):
        _, tracer = self._traced_service()
        totals = RunReport.from_records(tracer.records).counter_totals()
        assert totals["ingested_claims"] == 18
        assert totals["read_objects"] > 0

    def test_cli_summarize_aggregates_serving_trace(self, tmp_path,
                                                    capsys):
        from repro.cli import main
        from repro.data import DatasetSchema, continuous
        from repro.streaming import Claim, TruthService

        path = tmp_path / "serve.jsonl"
        with JsonlTracer(path) as tracer:
            service = TruthService(DatasetSchema.of(continuous("p0")),
                                   window=1, tracer=tracer)
            service.ingest([Claim(0, "p0", "s0", 1.0, 0.0),
                            Claim(0, "p0", "s1", 2.0, 1.0)])
            service.flush()
            service.get_truth([0])
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "serving: 2 claim(s) ingested over 1 batch(es)" in out


class TestConcurrentAppend:
    def test_parallel_appenders_interleave_whole_lines(self, tmp_path):
        """``append_record``'s O_APPEND single-write discipline: many
        threads appending to one JSONL file must never tear or
        interleave partial lines."""
        import threading

        from repro.observability.tracer import append_record

        path = tmp_path / "shared.jsonl"
        n_threads, per_thread = 8, 200

        def pound(thread_id: int) -> None:
            for i in range(per_thread):
                append_record(path, {
                    "event": "benchmark", "v": 3,
                    "thread": thread_id, "seq": i,
                    "pad": "x" * (64 + (i % 7) * 16),
                })

        threads = [threading.Thread(target=pound, args=(t,))
                   for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert len(records) == n_threads * per_thread
        by_thread = {}
        for record in records:
            by_thread.setdefault(record["thread"], []).append(
                record["seq"])
        # every thread's lines arrived whole and exactly once
        for thread_id, seqs in by_thread.items():
            assert sorted(seqs) == list(range(per_thread)), thread_id


class TestMapReduceCounters:
    def test_counters_nonzero_on_small_run(self, workload):
        dataset, _ = workload
        tracer = MemoryTracer()
        parallel_crh(dataset, tracer=tracer)
        report = RunReport.from_records(tracer.records)
        totals = report.counter_totals()
        for counter in ("jobs_run", "map_invocations",
                        "reduce_invocations", "shuffled_records",
                        "side_file_reads", "side_file_writes"):
            assert totals.get(counter, 0) > 0, counter
        assert len(report.events("mapreduce_job")) == totals["jobs_run"]
        assert report.simulated_seconds() > 0.0

    def test_counter_totals_do_not_double_count_run_end(self, workload):
        """Counters snapshot on ``run_end`` are running totals; the
        report must not add the cumulative per-record values on top."""
        dataset, _ = workload
        tracer = MemoryTracer()
        parallel_crh(dataset, tracer=tracer)
        report = RunReport.from_records(tracer.records)
        per_job = sum(r["shuffled_records"]
                      for r in report.events("mapreduce_job"))
        assert report.counter_totals()["shuffled_records"] == per_job


class TestStreamingTracing:
    def test_chunk_records_and_counters(self, small_weather):
        tracer = MemoryTracer()
        stream = icrh(small_weather.dataset, window=1, tracer=tracer)
        report = RunReport.from_records(tracer.records)
        chunks = report.chunks()
        assert len(chunks) == stream.result.iterations
        assert [r["chunk"] for r in chunks] == list(
            range(1, len(chunks) + 1)
        )
        totals = report.counter_totals()
        assert totals["window_advances"] == len(chunks)
        # decay applies from the second chunk on (Algorithm 2 line 4)
        assert totals["decay_applications"] == len(chunks) - 1

    def test_first_chunk_reports_all_sources_as_new(self, small_weather):
        tracer = MemoryTracer()
        icrh(small_weather.dataset, window=1, tracer=tracer)
        first = tracer.events("chunk")[0]
        assert first["new_sources"] == first["n_sources"]


class TestHarnessTracing:
    def test_method_run_record_per_fit(self, workload):
        dataset, truth = workload

        class _Generated:
            def __init__(self):
                self.dataset = dataset
                self.truth = truth

        tracer = MemoryTracer()
        run_method_table(
            "traced", {"syn": lambda seed: _Generated()},
            methods=("CRH", "Mean"), seeds=(1, 2), tracer=tracer,
        )
        runs = tracer.events("method_run")
        assert len(runs) == 4  # 2 methods x 2 seeds
        assert {r["method"] for r in runs} == {"CRH", "Mean"}
        crh_runs = [r for r in runs if r["method"] == "CRH"]
        assert all("error_rate" in r and "mnad" in r for r in crh_runs)


class TestRecordsAndTracers:
    def test_run_finished_rejects_undocumented_counters(self):
        with pytest.raises(ValueError, match="undocumented"):
            run_finished(iterations=1, not_a_counter=3)

    def test_tracers_satisfy_protocol(self):
        assert isinstance(NullTracer(), Tracer)
        assert isinstance(MemoryTracer(), Tracer)

    def test_tracer_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert tracer_from_env() is None
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        tracer = tracer_from_env()
        assert tracer is not None
        with tracer:
            tracer.emit({"event": "benchmark", "v": 1})
        # env tracers append so a session can accumulate one file
        with tracer_from_env() as second:
            second.emit({"event": "benchmark", "v": 1})
        assert len(RunReport.from_file(path).records) == 2
        assert "REPRO_TRACE" not in os.environ or True


class TestCliTrace:
    def test_cli_writes_trace_and_prints_summary(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "cli.jsonl"
        code = main(["fig4", "--trace", str(path)])
        assert code == 0
        report = RunReport.from_file(path)
        experiments = report.events("experiment")
        assert [r["experiment"] for r in experiments] == ["fig4"]
        out = capsys.readouterr().out
        assert "experiments: fig4" in out


class TestMultiRunReports:
    """RunReport over traces holding several runs back to back."""

    def _two_run_trace(self):
        dataset, _ = make_synthetic(n_objects=30)
        tracer = MemoryTracer()
        crh(dataset, tracer=tracer, max_iterations=3)
        parallel_crh(dataset, tracer=tracer)
        return RunReport(tracer.records)

    def test_interleaved_run_start_end_pair_up(self):
        report = self._two_run_trace()
        starts = report.events("run_start")
        ends = report.events("run_end")
        assert [r["method"] for r in starts] == ["CRH", "Parallel-CRH"]
        assert len(ends) == 2
        # each run_end follows its run_start in stream order
        order = [r["event"] for r in report.records
                 if r["event"] in ("run_start", "run_end")]
        assert order == ["run_start", "run_end", "run_start", "run_end"]

    def test_counter_totals_do_not_double_count_across_runs(self):
        dataset, _ = make_synthetic(n_objects=30)
        tracer = MemoryTracer()
        parallel_crh(dataset, tracer=tracer)
        single = RunReport(tracer.records).counter_totals()
        parallel_crh(dataset, tracer=tracer)
        double = RunReport(tracer.records).counter_totals()
        # identical runs: totals over two runs are exactly twice one
        # run's totals (run_end counters are per-run running totals and
        # must sum over run_end records only, never re-add per-job rows)
        for name, value in single.items():
            assert double[name] == 2 * value, name

    def test_weight_trajectory_nan_padded_when_sources_grow(self):
        # A stream whose later chunks introduce new sources: rows from
        # before the growth must be NaN-padded to the final K.
        records = [
            {"event": "chunk", "v": 2, "chunk": 1,
             "weights": [1.0, 2.0]},
            {"event": "chunk", "v": 2, "chunk": 2,
             "weights": [1.0, 2.0, 3.0]},
        ]
        trajectory = RunReport(records).weight_trajectory()
        assert trajectory.shape == (2, 3)
        assert np.isnan(trajectory[0, 2])
        assert not np.isnan(trajectory[1]).any()
        np.testing.assert_array_equal(trajectory[0, :2], [1.0, 2.0])


class TestParallelismRecords:
    """run_start/run_end fields added for the process backend."""

    def test_run_started_carries_n_workers(self):
        from repro.observability import run_started

        record = run_started(method="crh", n_sources=3, n_objects=5,
                             n_properties=1, n_workers=2)
        assert record["n_workers"] == 2
        without = run_started(method="crh", n_sources=3, n_objects=5,
                              n_properties=1)
        assert "n_workers" not in without

    def test_run_finished_passes_parallelism_fields(self):
        record = run_finished(iterations=4, converged=True,
                              parallel_efficiency=0.75,
                              backend="sparse",
                              backend_reason="worker crashed")
        assert record["parallel_efficiency"] == 0.75
        assert record["backend"] == "sparse"
        assert record["backend_reason"] == "worker crashed"

    def test_new_fields_are_documented(self):
        assert "n_workers" in METRIC_FIELDS
        assert "parallel_efficiency" in METRIC_FIELDS

    def test_summary_renders_efficiency_and_degradation(self):
        report = RunReport.from_records([
            {"event": "run_end", "iterations": 3,
             "parallel_efficiency": 0.5},
            {"event": "run_end", "iterations": 2, "backend": "sparse",
             "backend_reason": "worker crashed"},
        ])
        summary = report.summary()
        assert "50% parallel efficiency" in summary
        assert "degraded to sparse backend" in summary

    def test_traced_process_run_reports_efficiency(self, workload):
        dataset, _ = workload
        tracer = MemoryTracer()
        crh(dataset, backend="process", max_iterations=4, n_workers=2,
            tracer=tracer)
        (start,) = [r for r in tracer.records
                    if r["event"] == "run_start"]
        (end,) = [r for r in tracer.records if r["event"] == "run_end"]
        assert start["backend"] == "process"
        assert start["n_workers"] == 2
        assert 0.0 <= end["parallel_efficiency"] <= 1.0
        assert "parallel efficiency" in \
            RunReport.from_records(tracer.records).summary()
