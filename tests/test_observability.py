"""The tracing subsystem: record emission, aggregation, and neutrality.

Covers the acceptance properties of the observability layer: one record
per iteration, trace/result agreement on the objective series, lossless
JSONL round-trips, engine counters that actually count, and — most
importantly — that tracing changes no numerical result and the
untraced path stays out of the way.
"""

from __future__ import annotations

import io
import json
import re

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
    RunReport,
    MetricsRegistry,
    Tracer,
    exposition_metric_names,
    record as build_record,
    write_prometheus,
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


def _assert_bit_identical(plain, traced) -> None:
    np.testing.assert_array_equal(plain.weights, traced.weights)
    assert plain.iterations == traced.iterations
    assert plain.objective_history == traced.objective_history
    for a, b in zip(plain.truths.columns, traced.truths.columns):
        np.testing.assert_array_equal(a, b)


class TestTracingNeutrality:
    def test_untraced_and_traced_give_identical_results(self, workload):
        dataset, _ = workload
        tracer = MemoryTracer()
        _assert_bit_identical(crh(dataset), crh(dataset, tracer=tracer))
        assert len(tracer.records) > 0

    def test_untraced_and_traced_process_runs_identical(self, workload):
        dataset, _ = workload
        tracer = MemoryTracer()
        plain = crh(dataset, backend="process", n_workers=2)
        traced = crh(dataset, backend="process", n_workers=2,
                     tracer=tracer)
        assert plain.backend == traced.backend == "process"
        _assert_bit_identical(plain, traced)
        assert tracer.events("run_end")

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

    def test_every_glossary_key_is_emitted(self, workload, small_weather,
                                           tmp_path, capsys):
        """The reverse gate: a glossary entry no producer emits is dead
        vocabulary, so every key must come out of a traced batch run, a
        CLI or benchmark record, or an exercised TruthService."""
        from repro.cli import main
        from repro.streaming import TruthService, iter_dataset_claims

        dataset, truth = workload
        tracer = MemoryTracer()
        crh(dataset, backend="sparse", tracer=tracer)
        crh(dataset, backend="process", n_workers=2, tracer=tracer)
        crh(dataset, backend="mmap", tracer=tracer)
        parallel_crh(dataset, tracer=tracer)
        icrh(small_weather.dataset, window=1, tracer=tracer)

        class _Generated:
            def __init__(self):
                self.dataset = dataset
                self.truth = truth

        run_method_table("glossary", {"syn": lambda seed: _Generated()},
                         methods=("CRH",), seeds=(1,), tracer=tracer)
        cli_trace = tmp_path / "cli.jsonl"
        assert main(["fig4", "--trace", str(cli_trace)]) == 0
        capsys.readouterr()
        records = (tracer.records
                   + RunReport.from_file(cli_trace).records
                   + [build_record("benchmark", name="glossary",
                                  seconds=0.1)])
        emitted = {field for record in records for field in record}

        weather = small_weather.dataset
        registry = MetricsRegistry()
        service = TruthService(weather.schema, window=2,
                               codecs=weather.codecs(), tracer=registry)
        service.ingest(iter_dataset_claims(weather))
        service.flush()
        service.get_truth(list(weather.object_ids[:5]))
        prom = write_prometheus(registry, tmp_path / "serve.prom")
        emitted |= set(service.metrics())
        emitted |= {entry["name"]
                    for kind in registry.snapshot().values()
                    for entry in kind}
        emitted |= exposition_metric_names(prom.read_text())

        dead = sorted(set(METRIC_FIELDS) - emitted)
        assert not dead, f"glossary keys nothing emits: {dead}"


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
        """Every record, not just run_end, refuses fields the glossary
        does not document."""
        with pytest.raises(ValueError, match="undocumented"):
            build_record("run_end", iterations=1, not_a_counter=3)
        with pytest.raises(ValueError, match="not_a_field"):
            build_record("iteration", iteration=1, not_a_field=0.5)

    def test_record_drops_none_and_converts_numpy(self):
        from repro.observability import SCHEMA_VERSION

        built = build_record("chunk", chunk=np.int64(2), n_objects=None,
                             weights=np.array([0.5, 1.5]),
                             weight_delta=np.float64(0.25))
        assert built == {"event": "chunk", "v": SCHEMA_VERSION,
                         "chunk": 2, "weights": [0.5, 1.5],
                         "weight_delta": 0.25}
        assert type(built["chunk"]) is int
        assert json.loads(json.dumps(built)) == built

    def test_tracers_satisfy_protocol(self):
        assert isinstance(MemoryTracer(), Tracer)
        assert isinstance(JsonlTracer(io.StringIO()), Tracer)


class TestTornTrace:
    """A run killed mid-write leaves a partial last line; only that
    tail is forgiven."""

    def _trace(self, workload, tmp_path):
        dataset, _ = workload
        path = tmp_path / "run.jsonl"
        with JsonlTracer(path) as tracer:
            crh(dataset, tracer=tracer)
        return path

    def test_torn_last_record_summarizes_like_complete_prefix(
            self, workload, tmp_path, capsys):
        from repro.cli import main

        path = self._trace(workload, tmp_path)
        complete = RunReport.from_file(path)
        text = path.read_text()
        path.write_text(text[:-20])  # cut inside the final record
        torn = RunReport.from_file(path)
        prefix = RunReport.from_records(complete.records[:-1])
        assert torn.records == prefix.records
        assert torn.summary() == prefix.summary()
        assert main(["trace", "summarize", str(path)]) == 0
        assert capsys.readouterr().out.strip() == prefix.summary()

    def test_corrupt_interior_line_raises_named_error(self, workload,
                                                      tmp_path):
        path = self._trace(workload, tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2][:10] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: line 3")):
            RunReport.from_file(path)


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
        record = build_record("run_start", method="crh", n_sources=3,
                              n_objects=5, n_properties=1, n_workers=2)
        assert record["n_workers"] == 2
        without = build_record("run_start", method="crh", n_sources=3,
                               n_objects=5, n_properties=1, n_workers=None)
        assert "n_workers" not in without

    def test_run_finished_passes_parallelism_fields(self):
        record = build_record("run_end", iterations=4, converged=True,
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
