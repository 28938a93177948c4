"""Observability for CRH runs: one record stream, many sinks.

There is one telemetry model: a code path reports by calling
``tracer.emit(record)`` with records built by :func:`record`, the one
glossary-checked constructor.  Batch runs (``crh``, ``parallel_crh``,
``icrh``, the experiment harness, the CLI) and the long-lived
:class:`~repro.streaming.service.TruthService` all take ``tracer=``.
Per-layer wall time is measured by the repository benchmark
(``perfbench/``), not by in-process hooks.

Every iterative code path — the in-memory
:class:`~repro.core.solver.CRHSolver`, the MapReduce wrapper
:func:`~repro.parallel.crh_mapreduce.parallel_crh`, and streaming
:class:`~repro.streaming.icrh.IncrementalCRH` — emits one record per
unit of progress: per-iteration objective values (Eq. 1), per-source
weights (Eq. 5), weight deltas, truth-change counts, and per-phase wall
time, plus engine-level counters (map/reduce invocations, shuffled
records, side-file reads, window advances, decay applications).  The
service emits one record per ingest, seal, read and publication,
carrying that call's deltas.

``tracer=None`` (the default) is the off switch: traced code paths
skip record construction entirely.  Three sinks cover the rest:

* :class:`MemoryTracer` — records collected in a Python list, for tests
  and interactive inspection;
* :class:`JsonlTracer` — one JSON object per line to a file, the
  interchange format;
* :class:`MetricsRegistry` — folds the serving fields into live
  counters, gauges and fixed-bucket histograms; its Prometheus text
  exposition is written atomically by :func:`write_prometheus` and
  checked by :func:`validate_exposition` and
  :func:`exposition_metric_names` (``repro top --check``, the CI
  metrics smoke job).

:class:`RunReport` aggregates a record stream back into convergence
series, counter totals, and a human-readable ``summary()``.  The field
glossary :data:`METRIC_FIELDS` maps every emitted field to its meaning
and paper equation; ``docs/OBSERVABILITY.md`` renders it.
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
from .records import METRIC_FIELDS, SCHEMA_VERSION, record
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
    "default_seconds_buckets",
    "exposition_metric_names",
    "record",
    "validate_exposition",
    "write_prometheus",
]
