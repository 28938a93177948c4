"""Observability for CRH runs: structured tracing and live metrics.

Each path has one telemetry channel: batch runs (``crh``,
``parallel_crh``, ``icrh``, the experiment harness, the CLI) log only
through ``tracer=``, and the long-lived
:class:`~repro.streaming.service.TruthService` reports only to its
:class:`MetricsRegistry`.  Per-layer wall time is measured by the
repository benchmark (``perfbench/``), not by in-process hooks.

Every iterative code path in the repository — the in-memory
:class:`~repro.core.solver.CRHSolver`, the MapReduce wrapper
:func:`~repro.parallel.crh_mapreduce.parallel_crh`, and streaming
:class:`~repro.streaming.icrh.IncrementalCRH` — accepts an optional
``tracer`` and emits one structured record per unit of progress:
per-iteration objective values (Eq. 1), per-source weights (Eq. 5),
weight deltas, truth-change counts, and per-phase wall time, plus
engine-level counters (map/reduce invocations, shuffled records,
side-file reads, window advances, decay applications).

``tracer=None`` (the default) is the off switch: traced code paths
skip record construction entirely.  Two tracer implementations cover
the rest:

* :class:`MemoryTracer` — records collected in a Python list, for tests
  and interactive inspection;
* :class:`JsonlTracer` — one JSON object per line to a file, the
  interchange format.

:class:`RunReport` aggregates a record stream back into convergence
series, counter totals, and a human-readable ``summary()``.  The field
glossary :data:`METRIC_FIELDS` maps every emitted field to its meaning
and paper equation; ``docs/OBSERVABILITY.md`` renders it.

The service's :class:`MetricsRegistry` holds *live* counters, gauges
and fixed-bucket histograms; its Prometheus text exposition is the one
serving export, written atomically by :func:`write_prometheus` and
checked by :func:`validate_exposition` and
:func:`exposition_metric_names` (``repro top --check``, the CI metrics
smoke job).
"""

from .export import (
    exposition_metric_names,
    validate_exposition,
    write_prometheus,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_seconds_buckets,
)
from .records import (
    METRIC_FIELDS,
    SCHEMA_VERSION,
    benchmark_record,
    experiment_record,
    iteration_record,
    mapreduce_job_record,
    method_run_record,
    run_finished,
    run_started,
    stream_chunk_record,
)
from .report import RunReport
from .tracer import (
    JsonlTracer,
    MemoryTracer,
    Tracer,
    append_record,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlTracer",
    "METRIC_FIELDS",
    "MemoryTracer",
    "MetricsRegistry",
    "RunReport",
    "SCHEMA_VERSION",
    "Tracer",
    "append_record",
    "benchmark_record",
    "default_seconds_buckets",
    "experiment_record",
    "exposition_metric_names",
    "iteration_record",
    "mapreduce_job_record",
    "method_run_record",
    "run_finished",
    "run_started",
    "stream_chunk_record",
    "validate_exposition",
    "write_prometheus",
]
