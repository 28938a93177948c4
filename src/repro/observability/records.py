"""Trace record schema: the one record constructor and the glossary.

A trace is a stream of flat JSON-compatible dicts.  Every record carries
an ``event`` discriminator and a schema ``v``; the remaining fields
depend on the event type.  :func:`record` is the only place records are
built, and it refuses any field :data:`METRIC_FIELDS` does not document;
``docs/OBSERVABILITY.md`` renders that glossary and
``tests/test_doc_coverage.py`` enforces it.

``None``-valued fields are dropped rather than emitted as JSON nulls,
so each record names exactly the measurements that were taken.
"""

from __future__ import annotations

import numpy as np

#: Version stamp carried by every record as ``v``; bump on breaking
#: schema changes so downstream consumers can dispatch.  Readers ignore
#: the fields and record types v4 files written by older releases may
#: carry that this module no longer emits.
SCHEMA_VERSION = 4

#: Glossary of every field a trace record can carry -> description,
#: including the paper equation the measurement comes from.  It is
#: also the vocabulary of ``TruthService.metrics()`` and of the
#: instruments a :class:`~repro.observability.metrics.MetricsRegistry`
#: folds serving records into.  Serving records (``ingest``, ``seal``,
#: ``read``, ``publish``) carry per-call deltas; ``restore`` carries
#: the restored lifetime totals; the registry and ``metrics()`` expose
#: lifetime totals.  ``docs/OBSERVABILITY.md`` must name every key
#: (enforced by ``tests/test_doc_coverage.py``).
METRIC_FIELDS: dict[str, str] = {
    "v": "trace schema version (SCHEMA_VERSION)",
    "event": "record type discriminator: run_start, iteration, chunk, "
             "mapreduce_job, method_run, experiment, benchmark, run_end "
             "(batch runs); ingest, seal, read, publish, restore "
             "(TruthService)",
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
    "ingested_claims": "claims TruthService.ingest absorbed (per call "
                       "on an ingest record; lifetime total in "
                       "metrics() and the registry)",
    "windows_sealed": "stream windows sealed, i.e. Algorithm-2 chunk "
                      "steps run (1 per seal record; lifetime total in "
                      "metrics() and the registry)",
    "recomputed_objects": "objects the recompute planner re-resolved "
                          "under the current weights (per call on an "
                          "ingest record; lifetime total in metrics() "
                          "and the registry)",
    "read_objects": "objects get_truth returned truths for from the "
                    "published copy-on-write truth snapshot (per call "
                    "on a read record; lifetime total in metrics() and "
                    "the registry)",
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
    "ingest_seconds": "wall seconds of one TruthService.ingest batch "
                      "call (a latency histogram in the registry)",
    "read_seconds": "wall seconds of one TruthService.get_truth call "
                    "(a latency histogram in the registry)",
    "seal_seconds": "wall seconds of one window seal, i.e. one "
                    "Algorithm-2 chunk step (a latency histogram in the "
                    "registry)",
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


def record(event: str, **fields) -> dict:
    """One trace record: ``event`` and ``v``, then ``fields`` in call order.

    ``None`` fields are dropped, numpy scalars and arrays become Python
    numbers and lists, and a field missing from :data:`METRIC_FIELDS`
    raises ``ValueError``, so nothing undocumented reaches a trace.
    """
    unknown = sorted(set(fields) - METRIC_FIELDS.keys())
    if unknown:
        raise ValueError(f"undocumented record fields: {unknown}")
    out: dict = {"event": event, "v": SCHEMA_VERSION}
    for key, value in fields.items():
        if value is None:
            continue
        if isinstance(value, (np.generic, np.ndarray)):
            value = value.tolist()
        out[key] = value
    return out
