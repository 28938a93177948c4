"""Observability for CRH runs: structured tracing and live metrics.

Two mechanisms cover every run: :class:`Tracer` records (what a run
computed, step by step) and a :class:`MetricsRegistry` (what a
long-lived service is doing now).  Per-layer wall time is measured by
the repository benchmark (``perfbench/``), not by in-process hooks.

Every iterative code path in the repository — the in-memory
:class:`~repro.core.solver.CRHSolver`, the MapReduce wrapper
:func:`~repro.parallel.crh_mapreduce.parallel_crh`, and streaming
:class:`~repro.streaming.icrh.IncrementalCRH` — accepts an optional
``tracer`` and emits one structured record per unit of progress:
per-iteration objective values (Eq. 1), per-source weights (Eq. 5),
weight deltas, truth-change counts, and per-phase wall time, plus
engine-level counters (map/reduce invocations, shuffled records,
side-file reads, window advances, decay applications).

Three tracer implementations cover the deployment spectrum:

* :class:`NullTracer` — disabled; ``enabled`` is ``False`` so traced
  code paths skip record construction entirely (allocation-free);
* :class:`MemoryTracer` — records collected in a Python list, for tests
  and interactive inspection;
* :class:`JsonlTracer` — one JSON object per line to a file, the
  interchange format (``python -m repro table2 --trace out.jsonl``).

:class:`RunReport` aggregates a record stream back into convergence
series, counter totals, and a human-readable ``summary()``.  The field
glossary :data:`METRIC_FIELDS` maps every emitted field to its meaning
and paper equation; ``docs/OBSERVABILITY.md`` renders it.

The second mechanism is *live* metrics: a :class:`MetricsRegistry`
of counters, gauges and fixed-bucket histograms threaded through
:class:`~repro.streaming.service.TruthService`, the solver and the
execution backends (:func:`activate_metrics` installs a process-wide
registry that :func:`active_registry` returns; the process backend
merges per-worker partial registries into the parent's).  On top sit
:class:`HealthCheck` SLO rules (:func:`parse_rule`,
:data:`DEFAULT_SERVING_RULES`), the
:class:`MetricsExporter` (Prometheus text exposition via
:func:`write_prometheus`, JSONL snapshot streams read back by
:func:`read_latest_snapshot`), and the exposition tooling
(:func:`validate_exposition`, :func:`exposition_metric_names`,
:func:`flatten_snapshot`) behind the ``repro top`` dashboard and the
CI metrics smoke job.
"""

from .export import (
    MetricsExporter,
    exposition_metric_names,
    flatten_snapshot,
    read_latest_snapshot,
    validate_exposition,
    write_prometheus,
)
from .health import (
    DEFAULT_SERVING_RULES,
    HealthCheck,
    HealthReport,
    SLORule,
    parse_rule,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    activate_metrics,
    active_registry,
    default_seconds_buckets,
)
from .records import (
    METRIC_FIELDS,
    SCHEMA_VERSION,
    benchmark_record,
    experiment_record,
    ingest_record,
    iteration_record,
    mapreduce_job_record,
    method_run_record,
    read_record,
    run_finished,
    run_started,
    stream_chunk_record,
)
from .report import RunReport
from .tracer import (
    JsonlTracer,
    MemoryTracer,
    NullTracer,
    Tracer,
    append_record,
    tracer_from_env,
)

__all__ = [
    "Counter",
    "DEFAULT_SERVING_RULES",
    "Gauge",
    "HealthCheck",
    "HealthReport",
    "Histogram",
    "JsonlTracer",
    "METRIC_FIELDS",
    "MemoryTracer",
    "MetricsExporter",
    "MetricsRegistry",
    "NullTracer",
    "RunReport",
    "SCHEMA_VERSION",
    "SLORule",
    "Tracer",
    "activate_metrics",
    "active_registry",
    "append_record",
    "benchmark_record",
    "default_seconds_buckets",
    "experiment_record",
    "exposition_metric_names",
    "flatten_snapshot",
    "ingest_record",
    "iteration_record",
    "mapreduce_job_record",
    "method_run_record",
    "parse_rule",
    "read_latest_snapshot",
    "read_record",
    "run_finished",
    "run_started",
    "stream_chunk_record",
    "tracer_from_env",
    "validate_exposition",
    "write_prometheus",
]
