"""Serving-layer benchmark: ingest throughput, read latency, dirty sets.

Measures the layered streaming engine (``repro.streaming.TruthService``)
on the weather stream and enforces the serving acceptance bars:

* **ingest throughput** — sustained claims/sec pushing the whole stream
  through batched ``ingest`` calls (window sealing and dirty-set
  recompute inside the timing), reported alongside the equivalent
  batch-``icrh`` replay time;
* **read latency** — p50/p99 wall time of single-object ``get_truth``
  calls against the warm truth cache;
* **single-object update** (this PR): ingesting one late claim and
  re-reading its object must be at least 10x faster than replaying the
  full stream from scratch — asserted only at full scale (~120k
  claims), where the dirty-set recompute's advantage is structural
  rather than fixed-overhead noise;
* **source churn** (this PR): a stream that keeps introducing new
  sources must register them in amortized O(1) — buffer reallocations
  stay logarithmic in the source count (the regression guard for the
  old O(K^2) ``np.append`` registration);
* **metrics overhead** (this PR): ingest throughput with a live
  :class:`~repro.observability.MetricsRegistry` as the service's
  ``tracer`` must stay within 5% of an untraced replay — asserted only
  at full scale, where the per-call records are amortized over real
  sealing/recompute work.

Runs two ways:

* under pytest-benchmark with the rest of the suite
  (``pytest benchmarks/bench_serving.py``), or
* as a plain script for CI smoke checks::

      REPRO_BENCH_SMOKE=1 python benchmarks/bench_serving.py --check

``--check`` runs the serving round-trip (ingest -> read -> snapshot ->
restore -> read equality, and replay equality with batch ``icrh``)
instead of the timed comparison;
``REPRO_BENCH_SMOKE=1`` shrinks the stream so either mode finishes in
seconds.
"""

import argparse
import math
import os
import tempfile
import time

import numpy as np

from repro.datasets import WeatherConfig, generate_weather_dataset
from repro.streaming import Claim, TruthService, icrh, iter_dataset_claims

WINDOW = 2
BATCH = 1_000
UPDATE_SPEEDUP_BAR = 10.0
#: registry-traced ingest may cost at most 5% over untraced ingest
METRICS_OVERHEAD_BAR = 1.05
READ_SAMPLES = 200
#: distinct sources the churn case drips into the stream
CHURN_SOURCES = 2_000


def _smoke() -> bool:
    """True when CI asked for the shrunken smoke-mode workload."""
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def build_stream(seed: int = 0):
    """The weather stream (~120k claims full scale, ~3k in smoke mode)."""
    config = (WeatherConfig(n_cities=6, n_days=20, seed=seed) if _smoke()
              else WeatherConfig(n_cities=20, n_days=250, seed=seed))
    return generate_weather_dataset(config).dataset


def _service_for(dataset) -> TruthService:
    """A fresh service sharing the dataset's schema and codecs."""
    return TruthService(dataset.schema, window=WINDOW,
                        codecs=dataset.codecs())


def _replay(dataset, claims) -> tuple:
    """Ingest the full stream into a fresh service; (service, seconds)."""
    service = _service_for(dataset)
    started = time.perf_counter()
    for start in range(0, len(claims), BATCH):
        service.ingest(claims[start:start + BATCH])
    service.flush()
    return service, time.perf_counter() - started


def measure_ingest(dataset, claims) -> tuple:
    """Full-stream replay throughput; (service, seconds, claims/sec)."""
    service, seconds = _replay(dataset, claims)
    return service, seconds, len(claims) / seconds


def measure_read_latency(service, rng) -> dict:
    """p50/p99 seconds of warm single-object ``get_truth`` calls."""
    object_ids = service.object_ids
    picks = rng.integers(0, len(object_ids), READ_SAMPLES)
    service.get_truth([object_ids[int(picks[0])]])  # touch the path once
    samples = []
    for pick in picks:
        started = time.perf_counter()
        service.get_truth([object_ids[int(pick)]])
        samples.append(time.perf_counter() - started)
    return {
        "p50": float(np.percentile(samples, 50)),
        "p99": float(np.percentile(samples, 99)),
    }


def measure_single_update(service, replay_seconds) -> tuple:
    """Seconds to absorb one late claim and re-read its object.

    The late claim lands below the sealed watermark, so it only dirties
    its object: the recompute planner re-resolves that one claim
    segment under the current weights.  The comparison point is
    replaying the entire stream — what a serving layer without
    dirty-set invalidation would have to do.
    """
    object_id = service.object_ids[0]
    claim = Claim(object_id, service.schema.names()[0],
                  service.source_ids[0], 99.0, 0.0)
    started = time.perf_counter()
    service.ingest([claim])
    service.get_truth([object_id])
    seconds = time.perf_counter() - started
    return seconds, replay_seconds / seconds


def measure_metrics_overhead(dataset, claims) -> dict:
    """Full-stream ingest traced by a registry vs untraced.

    Best-of-2 wall seconds per mode (fresh service each round), so one
    scheduler hiccup cannot fake a regression.  Returns both timings
    plus their ratio — the serving acceptance bar
    (:data:`METRICS_OVERHEAD_BAR`) caps it at full scale.
    """
    from repro.observability import MetricsRegistry

    def replay_with(traced: bool) -> float:
        best = math.inf
        for _ in range(2):
            service = TruthService(
                dataset.schema, window=WINDOW, codecs=dataset.codecs(),
                tracer=MetricsRegistry() if traced else None,
            )
            started = time.perf_counter()
            for start in range(0, len(claims), BATCH):
                service.ingest(claims[start:start + BATCH])
            service.flush()
            best = min(best, time.perf_counter() - started)
        return best

    off_seconds = replay_with(False)
    on_seconds = replay_with(True)
    return {
        "metrics_on_seconds": on_seconds,
        "metrics_off_seconds": off_seconds,
        "ratio": on_seconds / off_seconds,
    }


def run_source_churn() -> dict:
    """Many-new-sources ingest: growth must stay amortized.

    Every claim comes from a brand-new source, the worst case for
    source registration.  With the old ``np.append`` registration this
    was O(K^2) in copied elements; the growable accumulators make it
    amortized O(1) per source, which the reallocation counters bound
    logarithmically.
    """
    from repro.data import DatasetSchema, continuous

    n_sources = 200 if _smoke() else CHURN_SOURCES
    schema = DatasetSchema.of(continuous("p0"))
    service = TruthService(schema, window=1)
    started = time.perf_counter()
    for k in range(n_sources):
        service.ingest([Claim(k % 50, "p0", f"s{k}", float(k % 7), k)])
    service.flush()
    seconds = time.perf_counter() - started
    growth = (service.store.growth_events
              + service.model.growth_events)
    # every growable buffer doubles: ~log2(K) reallocations each, and
    # the store/model stack holds a fixed handful of buffers
    bound = 16 * (math.log2(max(n_sources, 16)) + 2)
    assert growth <= bound, (
        f"{growth} buffer reallocations registering {n_sources} sources "
        f"(bound {bound:.0f}): source registration is not amortized"
    )
    assert service.n_sources == n_sources
    return {"n_sources": n_sources, "seconds": seconds,
            "growth_events": growth}


def run_comparison() -> dict:
    """Measure ingest, read latency and the update bar; print the table."""
    dataset = build_stream()
    claims = list(iter_dataset_claims(dataset))
    print(f"\nServing benchmark: {len(claims):,} claims, "
          f"{dataset.n_objects} objects, {len(dataset.source_ids)} "
          f"sources{' [smoke]' if _smoke() else ''}")

    batch_started = time.perf_counter()
    icrh(dataset, window=WINDOW)
    batch_seconds = time.perf_counter() - batch_started
    print(f"  batch icrh() replay      {batch_seconds:>8.2f} s")

    service, replay_seconds, rate = measure_ingest(dataset, claims)
    print(f"  service ingest replay    {replay_seconds:>8.2f} s "
          f"({rate:,.0f} claims/sec)")

    latency = measure_read_latency(service, np.random.default_rng(0))
    print(f"  get_truth latency        p50 {latency['p50'] * 1e6:>7.0f} us"
          f"   p99 {latency['p99'] * 1e6:>7.0f} us")

    update_seconds, speedup = measure_single_update(service, replay_seconds)
    print(f"  single-object update     {update_seconds * 1e3:>8.2f} ms "
          f"({speedup:,.0f}x vs full replay)")

    churn = run_source_churn()
    print(f"  source churn             {churn['seconds']:>8.2f} s "
          f"({churn['n_sources']} new sources, "
          f"{churn['growth_events']} reallocations)")

    overhead = measure_metrics_overhead(dataset, claims)
    print(f"  metrics overhead         on "
          f"{overhead['metrics_on_seconds']:>6.2f} s / off "
          f"{overhead['metrics_off_seconds']:>6.2f} s "
          f"({(overhead['ratio'] - 1) * 100:+.1f}%)")

    if not _smoke():
        assert speedup >= UPDATE_SPEEDUP_BAR, (
            f"single-object update only {speedup:.1f}x faster than full "
            f"replay; acceptance bar is {UPDATE_SPEEDUP_BAR}x"
        )
        assert overhead["ratio"] <= METRICS_OVERHEAD_BAR, (
            f"registry-traced ingest is {(overhead['ratio'] - 1) * 100:.1f}% "
            f"slower than untraced; acceptance bar is "
            f"{(METRICS_OVERHEAD_BAR - 1) * 100:.0f}%"
        )
    return {
        "claims_per_sec": rate,
        "replay_seconds": replay_seconds,
        "batch_seconds": batch_seconds,
        "latency": latency,
        "update_speedup": speedup,
        "churn": churn,
        "metrics_overhead": overhead,
    }


def run_check() -> None:
    """CI smoke round-trip: ingest -> read -> snapshot -> restore -> read.

    Asserts the replayed service equals batch ``icrh`` on the
    time-sorted stream (truths, and weights by source id) — the replay
    contract — and that the restored service answers bit-identical
    truths and weights, the contract ``TruthService.restore`` documents.
    """
    dataset = build_stream()
    claims = list(iter_dataset_claims(dataset))
    service, _ = _replay(dataset, claims)
    order = np.argsort(dataset.object_timestamps, kind="stable")
    oracle = icrh(dataset.select_objects(order), window=WINDOW)
    served = service.get_truth(list(oracle.truths.object_ids))
    for col_a, col_b in zip(served.columns, oracle.truths.columns):
        np.testing.assert_array_equal(col_a, col_b)
    assert service.weights_by_source() == dict(
        zip(dataset.source_ids, oracle.weights)), (
        "replayed weights differ from batch icrh()")
    before = service.get_truth(service.object_ids)
    with tempfile.TemporaryDirectory() as tmp:
        service.snapshot(tmp)
        restored = TruthService.restore(tmp)
        after = restored.get_truth(restored.object_ids)
    assert restored.object_ids == service.object_ids
    assert restored.source_ids == service.source_ids
    for col_a, col_b in zip(before.columns, after.columns):
        np.testing.assert_array_equal(col_a, col_b)
    np.testing.assert_array_equal(service.get_weights(),
                                  restored.get_weights())
    metrics = service.metrics()
    print(f"Serving check: {metrics['ingested_claims']:,} claims "
          f"ingested, {metrics['windows_sealed']} windows sealed, "
          f"replay equals batch icrh(), snapshot/restore read-identical"
          f"{' [smoke]' if _smoke() else ''}")


def test_serving_throughput(benchmark):
    """pytest-benchmark entry: full comparison with the acceptance bars."""
    summary = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    assert summary["claims_per_sec"] > 0


def main() -> None:
    """Script entry: timed comparison, or ``--check`` for the round-trip."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="run the ingest/read/snapshot/restore round-trip instead "
             "of the timed comparison")
    args = parser.parse_args()
    if args.check:
        run_check()
    else:
        run_comparison()


if __name__ == "__main__":
    main()
