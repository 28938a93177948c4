"""Trace record schema: constructors and the metric glossary.

A trace is a stream of flat JSON-compatible dicts.  Every record carries
an ``event`` discriminator and a schema ``v``; the remaining fields
depend on the event type.  The constructors below are the only places
records are built, so the schema lives here — and
:data:`METRIC_FIELDS` documents every field they can emit, which
``docs/OBSERVABILITY.md`` renders as the metric glossary and
``tests/test_doc_coverage.py`` enforces.

Record constructors drop ``None``-valued optional fields rather than
emitting JSON nulls, so each record names exactly the measurements that
were taken.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

#: Version stamp carried by every record as ``v``; bump on breaking
#: schema changes so downstream consumers can dispatch.  Readers ignore
#: the fields and record types v4 files written by older releases may
#: carry that this module no longer emits.
SCHEMA_VERSION = 4

#: Glossary of every field a trace record can carry — and of every
#: metric name a TruthService's
#: :class:`~repro.observability.metrics.MetricsRegistry` registers or
#: its ``metrics()`` returns (one shared vocabulary) -> description,
#: including the paper equation the measurement comes from.  ``docs/OBSERVABILITY.md`` must
#: name every key (enforced by ``tests/test_doc_coverage.py``).
METRIC_FIELDS: dict[str, str] = {
    "v": "trace schema version (SCHEMA_VERSION)",
    "event": "record type discriminator: run_start, iteration, chunk, "
             "mapreduce_job, method_run, experiment, benchmark, run_end",
    "method": "human-readable method name (CRH, I-CRH, Parallel-CRH)",
    "n_sources": "number of sources K in the traced dataset",
    "n_objects": "number of objects N in the traced dataset",
    "n_properties": "number of properties M in the traced dataset",
    "backend": "execution backend the run used: dense ((K, N) matrices), "
               "sparse (CSR-by-object claims), process (sparse claims "
               "sharded across shared-memory worker processes), or mmap "
               "(out-of-core chunked execution over memory-mapped "
               "claims); on run_end it appears only when a mid-run "
               "runner failure degraded the run, naming the backend "
               "that finished it",
    "backend_reason": "why the run resolved to its backend: an explicit "
                      "request, the session default, or the auto "
                      "policy (sparse in RAM, process for large "
                      "median-heavy claim sets on multi-CPU hosts, mmap "
                      "past the memory cap; naming the deciding "
                      "condition) — with "
                      "' (converted from dense|sparse)' appended when "
                      "the input representation was converted, or the "
                      "degradation cause when a process/mmap run fell "
                      "back to inline sparse execution",
    "n_claims": "number of stored claims (observed cells) across all "
                "properties of the traced dataset",
    "n_workers": "worker process count of the process backend's pool "
                 "(absent for in-process backends)",
    "n_chunks": "claim chunks per truth-step sweep of the mmap "
                "backend's largest property (absent for non-chunked "
                "backends)",
    "parallel_efficiency": "busy fraction of the process backend's pool: "
                           "sum of worker busy seconds / (n_workers x "
                           "parallel round wall seconds); 1.0 would be "
                           "perfectly balanced shards with zero dispatch "
                           "overhead",
    "iteration": "1-based iteration index of Algorithm 1's outer loop",
    "objective": "value of the joint objective f(X*, W) after the "
                 "iteration (Eq. 1); non-increasing after the first "
                 "iteration under a convex loss/weight configuration",
    "weights": "per-source reliability weights after the weight step "
               "(Eq. 2 / Eq. 5), in dataset source order",
    "weight_delta": "max absolute per-source weight change versus the "
                    "previous iteration (Eq. 5 movement)",
    "truth_changes": "number of (object, property) entries whose truth "
                     "changed in this truth step (Eqs. 9/14/16)",
    "truth_seconds": "wall-clock seconds spent in the truth step "
                     "(Eq. 3 block: Eqs. 9/14/16 updates)",
    "weight_seconds": "wall-clock seconds spent in the weight step "
                      "(Eq. 2 block: deviations + Eq. 5 weights)",
    "job": "MapReduce job name (entry-statistics, truth-continuous, "
           "truth-categorical, weight-assignment)",
    "map_tasks": "map task invocations executed by the job",
    "reduce_tasks": "reduce task invocations executed by the job",
    "map_input_records": "records read by the job's map phase",
    "map_output_records": "records emitted by mappers before combining",
    "shuffled_records": "records moved through the shuffle to reducers "
                        "(post-combiner; Table 6's volume driver)",
    "reduce_output_records": "records emitted by the job's reducers",
    "combiner_savings": "map-output records the combiner removed from "
                        "the shuffle (Section 2.7.3's optimization)",
    "simulated_seconds": "simulated cluster seconds charged by the "
                         "cost model (Table 6's metric)",
    "side_file_reads": "side-file (shared weights/truths store) reads "
                       "performed during the run (Section 2.7)",
    "side_file_writes": "side-file writes performed during the run",
    "map_invocations": "cumulative map task invocations across all jobs",
    "reduce_invocations": "cumulative reduce task invocations across "
                          "all jobs",
    "jobs_run": "number of MapReduce jobs executed during the run",
    "chunk": "1-based stream chunk index (Algorithm 2's outer loop)",
    "new_sources": "sources first seen in this chunk (Algorithm 2 "
                   "line-1 initialization)",
    "window_advances": "stream windows consumed so far by I-CRH",
    "decay_applications": "times the decay factor alpha was applied to "
                          "the accumulated distances (Algorithm 2 "
                          "line 4)",
    "ingested_claims": "claims TruthService.ingest has absorbed over "
                       "the service's lifetime",
    "windows_sealed": "stream windows sealed (Algorithm-2 chunk steps "
                      "run) over the service's lifetime",
    "recomputed_objects": "objects the recompute planner re-resolved "
                          "under the current weights, lifetime total",
    "read_objects": "objects get_truth calls returned truths for from "
                    "the published copy-on-write truth snapshot, "
                    "lifetime total",
    "cache_hit_rate": "always 1.0: every mutating TruthService call "
                      "resolves and publishes before it returns, so "
                      "every read is served from the published "
                      "snapshot; kept as a metrics() key because the "
                      "repository benchmark reads it",
    "pending_timestamps": "distinct unsealed timestamps buffered for "
                          "window sealing (a staleness signal: claims "
                          "at these stamps have not reached an "
                          "Algorithm-2 chunk step yet)",
    "truth_version": "the weight epoch of the serving state: how many "
                     "Algorithm-2 weight refreshes (Eq. 5) the cached "
                     "truths are resolved under — truth-version churn "
                     "is this gauge's rate of change",
    "weight_entropy": "Shannon entropy (nats) of the normalized "
                      "per-source weight distribution (Eq. 5 weights "
                      "as probabilities); max log K means uniform "
                      "reliability, a drop means the weights are "
                      "concentrating on few sources",
    "weight_drift": "max absolute per-source weight change at the most "
                    "recent weight refresh (the serving-side "
                    "weight_delta; a convergence-stall signal when it "
                    "stops shrinking)",
    "ingest_seconds": "latency histogram of TruthService.ingest batch "
                      "calls, in wall seconds",
    "read_seconds": "latency histogram of TruthService.get_truth "
                    "calls, in wall seconds",
    "seal_seconds": "latency histogram of window seals (one "
                    "Algorithm-2 chunk step each), in wall seconds",
    "snapshot_seq": "monotone publication number of the latest "
                    "copy-on-write truth snapshot (0 is the empty "
                    "initial snapshot; the rate of change is the "
                    "publication churn)",
    "iterations": "total iterations (or chunks) the run performed",
    "converged": "whether the convergence criterion fired before the "
                 "iteration cap",
    "elapsed_seconds": "wall-clock seconds for the whole run",
    "dataset": "workload name the harness evaluated (Table 2/4 column)",
    "seed": "random seed of the evaluated workload instance",
    "error_rate": "fraction of categorical/text truths that differ from "
                  "ground truth (the paper's Error Rate)",
    "mnad": "mean normalized absolute distance of continuous truths "
            "from ground truth (the paper's MNAD)",
    "experiment": "CLI experiment id (table2, fig8, ...)",
    "name": "benchmark or run label",
    "seconds": "wall-clock seconds of the traced benchmark call",
}


def _record(event: str, **fields) -> dict:
    """Assemble a record, dropping ``None`` fields and coercing numpy."""
    record: dict = {"event": event, "v": SCHEMA_VERSION}
    for key, value in fields.items():
        if value is None:
            continue
        if isinstance(value, np.generic):
            value = value.item()
        record[key] = value
    return record


def _weight_list(weights) -> list[float] | None:
    """Weights as a plain list of floats (JSON-safe), or ``None``."""
    if weights is None:
        return None
    return [float(w) for w in np.asarray(weights).ravel()]


def run_started(method: str, *, n_sources: int | None = None,
                n_objects: int | None = None,
                n_properties: int | None = None,
                backend: str | None = None,
                backend_reason: str | None = None,
                n_claims: int | None = None,
                n_workers: int | None = None,
                n_chunks: int | None = None) -> dict:
    """A ``run_start`` record: method name plus dataset shape.

    ``backend`` tags which execution backend the engine resolved
    (dense/sparse/process/mmap) and ``n_claims`` how many claims it
    holds — the pair that explains a run's memory footprint;
    ``backend_reason`` records *why* the resolution landed there
    (explicit request, session default, or the ``"auto"`` policy).
    ``n_workers`` is the process backend's pool size and ``n_chunks``
    the mmap backend's chunks-per-sweep (each absent for the other
    backends).
    """
    return _record("run_start", method=method, n_sources=n_sources,
                   n_objects=n_objects, n_properties=n_properties,
                   backend=backend, backend_reason=backend_reason,
                   n_claims=None if n_claims is None else int(n_claims),
                   n_workers=None if n_workers is None else int(n_workers),
                   n_chunks=None if n_chunks is None else int(n_chunks))


def iteration_record(iteration: int, *, objective: float | None = None,
                     weights=None, weight_delta: float | None = None,
                     truth_changes: int | None = None,
                     truth_seconds: float | None = None,
                     weight_seconds: float | None = None) -> dict:
    """One ``iteration`` record of Algorithm 1 (or a MapReduce round).

    Carries the objective after the iteration (Eq. 1), the refreshed
    source weights (Eq. 5), how far they moved, how many truths flipped
    in the truth step (Eqs. 9/14/16), and per-phase wall time.
    """
    return _record(
        "iteration",
        iteration=int(iteration),
        objective=None if objective is None else float(objective),
        weights=_weight_list(weights),
        weight_delta=None if weight_delta is None else float(weight_delta),
        truth_changes=None if truth_changes is None else int(truth_changes),
        truth_seconds=truth_seconds,
        weight_seconds=weight_seconds,
    )


def mapreduce_job_record(job: str, *, map_tasks: int, reduce_tasks: int,
                         map_input_records: int, map_output_records: int,
                         shuffled_records: int, reduce_output_records: int,
                         combiner_savings: int,
                         simulated_seconds: float) -> dict:
    """A ``mapreduce_job`` record: one executed job's volume counters."""
    return _record(
        "mapreduce_job",
        job=job,
        map_tasks=int(map_tasks),
        reduce_tasks=int(reduce_tasks),
        map_input_records=int(map_input_records),
        map_output_records=int(map_output_records),
        shuffled_records=int(shuffled_records),
        reduce_output_records=int(reduce_output_records),
        combiner_savings=int(combiner_savings),
        simulated_seconds=float(simulated_seconds),
    )


def stream_chunk_record(chunk: int, *, n_objects: int, n_sources: int,
                        new_sources: int, weights=None,
                        weight_delta: float | None = None,
                        window_advances: int | None = None,
                        decay_applications: int | None = None) -> dict:
    """A ``chunk`` record: one I-CRH ``partial_fit`` (Algorithm 2 pass)."""
    return _record(
        "chunk",
        chunk=int(chunk),
        n_objects=int(n_objects),
        n_sources=int(n_sources),
        new_sources=int(new_sources),
        weights=_weight_list(weights),
        weight_delta=None if weight_delta is None else float(weight_delta),
        window_advances=window_advances,
        decay_applications=decay_applications,
    )


def method_run_record(dataset: str, method: str, seed: Hashable, *,
                      elapsed_seconds: float,
                      error_rate: float | None = None,
                      mnad: float | None = None) -> dict:
    """A ``method_run`` record: one harness fit + its scores."""
    return _record(
        "method_run",
        dataset=dataset,
        method=method,
        seed=seed,
        elapsed_seconds=float(elapsed_seconds),
        error_rate=None if error_rate is None else float(error_rate),
        mnad=None if mnad is None else float(mnad),
    )


def experiment_record(experiment: str, *, seed: int | None = None,
                      elapsed_seconds: float | None = None) -> dict:
    """An ``experiment`` record: one CLI experiment invocation."""
    return _record("experiment", experiment=experiment, seed=seed,
                   elapsed_seconds=elapsed_seconds)


def benchmark_record(name: str, *, seconds: float) -> dict:
    """A ``benchmark`` record: one benchmark-harness experiment timing."""
    return _record("benchmark", name=name, seconds=float(seconds))


def run_finished(*, iterations: int | None = None,
                 converged: bool | None = None,
                 elapsed_seconds: float | None = None,
                 **counters) -> dict:
    """A ``run_end`` record: totals plus any engine counter snapshot.

    ``counters`` takes keyword totals such as ``side_file_reads``,
    ``map_invocations`` or ``decay_applications``; every counter name
    must appear in :data:`METRIC_FIELDS`.
    """
    unknown = sorted(set(counters) - set(METRIC_FIELDS))
    if unknown:
        raise ValueError(f"undocumented counter fields: {unknown}")
    return _record(
        "run_end",
        iterations=None if iterations is None else int(iterations),
        converged=None if converged is None else bool(converged),
        elapsed_seconds=elapsed_seconds,
        **{k: int(v) if isinstance(v, (int, np.integer)) else v
           for k, v in counters.items()},
    )
