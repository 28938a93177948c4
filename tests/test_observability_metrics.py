"""The live-metrics layer: registry, exposition, export, engine.

Covers the acceptance properties of the serving metrics: instrument
semantics (counters only go up, one kind per name, disabled registries
are empty no-ops), histogram quantiles within one bucket width of
exact, Prometheus exposition validity, atomic exposition files, the
``/metrics`` endpoint, and the ``repro top --check`` validation.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.data import DatasetSchema, continuous
from repro.observability import (
    MetricsRegistry,
    default_seconds_buckets,
    exposition_metric_names,
    validate_exposition,
    write_prometheus,
)
from repro.observability.metrics import Histogram
from repro.streaming import Claim, TruthService


def _service(window=2) -> TruthService:
    return TruthService(DatasetSchema.of(continuous("p0")), window=window)


def _stream(service, n_claims=60, n_objects=5, n_sources=3):
    claims = [
        Claim(i % n_objects, "p0", f"s{i % n_sources}",
              float(i % 7), float(i // (n_objects * n_sources)))
        for i in range(n_claims)
    ]
    service.ingest(claims)
    service.flush()
    return service


class TestRegistry:
    def test_counter_accumulates_and_rejects_decrease(self):
        registry = MetricsRegistry()
        counter = registry.counter("ingested_claims")
        counter.inc()
        counter.inc(41.0)
        assert registry.value("ingested_claims") == 42.0
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("pending_timestamps")
        gauge.set(10.0)
        gauge.inc(-3.0)
        assert registry.value("pending_timestamps") == 7.0

    def test_same_name_same_labels_is_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("read_objects", tier="1")
        b = registry.counter("read_objects", tier="1")
        other = registry.counter("read_objects", tier="2")
        assert a is b
        assert a is not other
        a.inc()
        assert registry.value("read_objects", tier="1") == 1.0
        assert registry.value("read_objects", tier="2") == 0.0

    def test_one_kind_per_name(self):
        registry = MetricsRegistry()
        registry.counter("ingested_claims")
        with pytest.raises(ValueError, match="is a counter"):
            registry.gauge("ingested_claims")
        with pytest.raises(ValueError, match="is a counter"):
            registry.histogram("ingested_claims")

    def test_value_of_absent_metric_is_zero(self):
        assert MetricsRegistry().value("nope") == 0.0

    def test_disabled_registry_is_a_shared_noop(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("ingested_claims")
        counter.inc(5.0)
        registry.gauge("pending_timestamps").set(9.0)
        registry.histogram("read_seconds").observe(0.1)
        assert counter is registry.histogram("anything")  # shared null
        assert registry.snapshot() == {"counters": [], "gauges": [],
                                       "histograms": []}
        assert registry.value("ingested_claims") == 0.0

    def test_snapshot_layout(self):
        registry = MetricsRegistry()
        registry.counter("read_objects").inc(3)
        registry.gauge("truth_version").set(7)
        registry.histogram("read_seconds").observe(1e-4)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == [
            {"name": "read_objects", "labels": {}, "value": 3.0}]
        assert snapshot["gauges"] == [
            {"name": "truth_version", "labels": {}, "value": 7.0}]
        (histogram,) = snapshot["histograms"]
        assert histogram["name"] == "read_seconds"
        assert histogram["count"] == 1
        assert len(histogram["counts"]) == len(histogram["bounds"]) + 1
        json.dumps(snapshot)  # JSON-compatible by construction


class TestHistogramQuantiles:
    def test_quantiles_within_one_bucket_of_exact(self):
        """The acceptance bar: estimated p50/p99 land inside the bucket
        interval that provably contains the exact sample quantile."""
        rng = np.random.default_rng(0)
        samples = rng.lognormal(mean=-7.0, sigma=1.5, size=20_000)
        histogram = Histogram("read_seconds")
        for value in samples:
            histogram.observe(value)
        for q in (0.5, 0.99):
            low, high = histogram.quantile_bounds(q)
            exact = float(np.quantile(samples, q))
            assert low <= exact <= high
            assert low <= histogram.quantile(q) <= high

    def test_bucket_edges_are_exact_for_synthetic_counts(self):
        histogram = Histogram("x", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0):
            histogram.observe(value)
        assert histogram.quantile_bounds(0.5) == (1.0, 2.0)
        assert histogram.quantile_bounds(1.0) == (2.0, 4.0)
        assert histogram.quantile(0.0) == 0.0 or histogram.count

    def test_top_bucket_reports_low_edge(self):
        histogram = Histogram("x", bounds=(1.0,))
        histogram.observe(100.0)
        assert histogram.quantile_bounds(0.5) == (1.0, math.inf)
        assert histogram.quantile(0.5) == 1.0

    def test_empty_histogram_is_all_zero(self):
        histogram = Histogram("x")
        assert histogram.quantile(0.5) == 0.0
        assert histogram.quantile_bounds(0.99) == (0.0, 0.0)

    def test_default_buckets_ascend_across_six_decades(self):
        bounds = default_seconds_buckets()
        assert list(bounds) == sorted(bounds)
        assert bounds[0] == pytest.approx(1e-6)
        assert bounds[-1] > 8.0

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError, match="must ascend"):
            Histogram("x", bounds=(2.0, 1.0))


class TestPrometheusExposition:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("ingested_claims").inc(10)
        registry.counter("read_objects", tier="1").inc(2)
        registry.gauge("pending_timestamps").set(3)
        histogram = registry.histogram("read_seconds",
                                       bounds=(1e-4, 1e-3))
        histogram.observe(5e-5)
        histogram.observe(5e-4)
        histogram.observe(2.0)
        return registry

    def test_exposition_parses_clean(self):
        text = self._populated().to_prometheus()
        assert validate_exposition(text) == []
        assert exposition_metric_names(text) >= {
            "ingested_claims", "read_objects", "pending_timestamps",
            "read_seconds"}

    def test_histogram_buckets_are_cumulative(self):
        text = self._populated().to_prometheus()
        lines = [l for l in text.splitlines()
                 if l.startswith("read_seconds")]
        buckets = [l for l in lines if "_bucket" in l]
        assert [int(l.rsplit(" ", 1)[1]) for l in buckets] == [1, 2, 3]
        assert '+Inf' in buckets[-1]
        assert any(l.startswith("read_seconds_count") and
                   l.endswith(" 3") for l in lines)

    def test_help_lines_default_to_glossary(self):
        from repro.observability import METRIC_FIELDS

        text = self._populated().to_prometheus()
        (help_line,) = [l for l in text.splitlines()
                        if l.startswith("# HELP ingested_claims")]
        glossary = " ".join(METRIC_FIELDS["ingested_claims"].split())
        assert help_line == f"# HELP ingested_claims {glossary}"

    def test_validator_flags_garbage(self):
        errors = validate_exposition(
            'ok_metric 1\n'
            'bad metric name 1\n'
            'bad_labels{oops} 2\n'
            '# TYPE x nonsense\n'
        )
        assert len(errors) == 3
        assert any("unparseable" in e for e in errors)
        assert any("label block" in e for e in errors)
        assert any("unknown TYPE" in e for e in errors)


class TestExporter:
    def test_prometheus_file_is_atomic_and_valid(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("ingested_claims").inc(7)
        path = write_prometheus(registry, tmp_path / "out.prom")
        assert validate_exposition(path.read_text()) == []
        assert not (tmp_path / "out.prom.tmp").exists()


class TestTopDashboard:
    """``repro top --check``, the exposition validation CI runs."""

    def _export(self, tmp_path):
        service = _stream(_service())
        service.get_truth(service.object_ids)
        write_prometheus(service.registry, tmp_path / "serve.prom")

    def test_check_passes_on_real_serving_exposition(self, tmp_path,
                                                     capsys):
        from repro.cli import top_main

        self._export(tmp_path)
        assert top_main(["--check", str(tmp_path / "serve.prom")]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_fails_on_missing_metrics(self, tmp_path, capsys):
        from repro.cli import top_main

        path = tmp_path / "thin.prom"
        path.write_text("ingested_claims 5\n")
        assert top_main(["--check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "missing serving metrics" in err
        assert top_main(["--check", str(tmp_path / "nope.prom")]) == 1

    def test_cli_dispatches_top(self, tmp_path, capsys):
        from repro.cli import main

        self._export(tmp_path)
        assert main(["top", "--check",
                     str(tmp_path / "serve.prom")]) == 0
        assert "OK" in capsys.readouterr().out


class TestHttpEndpoints:
    def test_metrics_endpoint(self):
        """``serve-sim --http``'s server: /metrics serves a valid
        exposition, every other path answers 404."""
        from urllib.error import HTTPError
        from urllib.request import urlopen

        from repro.streaming.sim import _start_http_server

        registry = MetricsRegistry()
        registry.counter("ingested_claims").inc(5)
        server = _start_http_server(0, registry)
        port = server.server_address[1]
        try:
            with urlopen(f"http://127.0.0.1:{port}/metrics") as reply:
                assert reply.status == 200
                assert "version=0.0.4" in reply.headers["Content-Type"]
                text = reply.read().decode("utf-8")
            assert validate_exposition(text) == []
            assert "ingested_claims 5.0" in text

            with pytest.raises(HTTPError) as excinfo:
                urlopen(f"http://127.0.0.1:{port}/nope")
            assert excinfo.value.code == 404
        finally:
            server.shutdown()


class TestServeSimCli:
    def test_serve_sim_exports_and_checks(self, tmp_path, capsys):
        from repro.cli import main

        prom = tmp_path / "serve.prom"
        code = main(["serve-sim", "--cities", "2", "--days", "6",
                     "--prom", str(prom), "--export-every", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "prometheus exposition written" in out
        from repro.observability.export import check_exposition_file

        assert check_exposition_file(prom) == []
        assert not (tmp_path / "serve.prom.tmp").exists()

    def test_serve_sim_rejects_bad_export_every(self, capsys):
        from repro.cli import main

        assert main(["serve-sim", "--cities", "2", "--days", "4",
                     "--export-every", "0"]) == 2
        assert "--export-every" in capsys.readouterr().err


class TestServiceMetrics:
    def test_counters_track_serving_activity(self):
        service = _stream(_service(), n_claims=60)
        service.get_truth(service.object_ids)
        service.get_truth(service.object_ids)
        metrics = service.metrics()
        assert metrics["ingested_claims"] == 60
        assert metrics["windows_sealed"] >= 1
        assert metrics["read_objects"] == 2 * len(service.object_ids)
        assert metrics["cache_hit_rate"] == 1.0
        assert all(isinstance(v, int) for k, v in metrics.items()
                   if k != "cache_hit_rate")

    def test_gauges_and_latency_histograms_populate(self):
        service = _stream(_service())
        service.get_truth(service.object_ids)
        names = {i.name for i in service.registry.instruments()}
        assert {"pending_timestamps", "truth_version", "weight_entropy",
                "weight_drift", "snapshot_seq"} <= names
        # names whose value could not change between calls are gone
        assert not {"dirty_objects", "cached_objects", "cache_hits",
                    "cache_misses", "cache_hit_rate",
                    "snapshot_reads"} & names
        assert service.registry.histogram("ingest_seconds").count >= 1
        assert service.registry.histogram("read_seconds").count >= 1
        assert service.registry.histogram("seal_seconds").count >= 1
        assert service.registry.value("read_objects") == \
            len(service.object_ids)

    def test_injected_registry_is_used(self):
        registry = MetricsRegistry()
        service = TruthService(DatasetSchema.of(continuous("p0")),
                               window=1, metrics=registry)
        assert service.registry is registry
        _stream(service, n_claims=10)
        assert registry.value("ingested_claims") == 10.0

    def test_disabled_registry_changes_no_numbers(self):
        enabled = _stream(_service(), n_claims=60)
        disabled = TruthService(DatasetSchema.of(continuous("p0")),
                                window=2,
                                metrics=MetricsRegistry(enabled=False))
        _stream(disabled, n_claims=60)
        np.testing.assert_array_equal(enabled.get_weights(),
                                      disabled.get_weights())
        for col_a, col_b in zip(
                enabled.get_truth(enabled.object_ids).columns,
                disabled.get_truth(disabled.object_ids).columns):
            np.testing.assert_array_equal(col_a, col_b)
        assert disabled.registry.snapshot()["counters"] == []
        # counter-backed keys read the null instruments: all zero
        assert disabled.metrics()["ingested_claims"] == 0

    def test_snapshot_restore_round_trips_totals(self, tmp_path):
        service = _stream(_service(), n_claims=60)
        service.get_truth(service.object_ids)
        service.snapshot(tmp_path)
        restored = TruthService.restore(tmp_path)
        before, after = service.metrics(), restored.metrics()
        for name in ("ingested_claims", "windows_sealed",
                     "recomputed_objects", "read_objects"):
            assert after[name] == before[name], name
        assert restored.registry.value("ingested_claims") == \
            before["ingested_claims"]
