"""RunReport: aggregate a trace record stream back into run-level views.

A report is just the ordered record list plus derived views: the
objective trajectory (Eq. 1, the paper's Figure-1-style convergence
series), the weight trajectory (Eq. 5), counter totals across engine
events, and a human-readable ``summary()``.  Reports round-trip through
JSONL via :meth:`RunReport.to_json` / :meth:`RunReport.from_json`, so a
trace written by one process can be analyzed by another.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tracer import read_jsonl

#: run_end / mapreduce_job / serving fields that accumulate across
#: records (per-batch serving counters on ``ingest``/``read`` records
#: are additive, so they sum over every record carrying them)
_COUNTER_FIELDS = (
    "map_tasks", "reduce_tasks", "map_input_records",
    "map_output_records", "shuffled_records", "reduce_output_records",
    "combiner_savings", "map_invocations", "reduce_invocations",
    "jobs_run", "side_file_reads", "side_file_writes",
    "window_advances", "decay_applications",
    "ingested_claims", "windows_sealed", "recomputed_objects",
    "read_objects", "cache_hits", "cache_misses",
)


@dataclass
class RunReport:
    """An analyzed trace: the records plus derived aggregate views."""

    records: list[dict] = field(default_factory=list)

    # -- construction ---------------------------------------------------
    @classmethod
    def from_records(cls, records) -> "RunReport":
        """A report over an iterable of record dicts (e.g. a
        :class:`~repro.observability.tracer.MemoryTracer`'s records)."""
        return cls(records=[dict(r) for r in records])

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Parse a JSONL trace (the format :meth:`to_json` writes)."""
        return cls(records=read_jsonl(text.splitlines()))

    @classmethod
    def from_file(cls, path) -> "RunReport":
        """Read a JSONL trace file written by ``JsonlTracer``."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def to_json(self) -> str:
        """The trace as JSONL text (inverse of :meth:`from_json`)."""
        return "\n".join(json.dumps(r) for r in self.records) + (
            "\n" if self.records else ""
        )

    # -- record views ---------------------------------------------------
    def events(self, event: str) -> list[dict]:
        """All records of one event type, in emission order."""
        return [r for r in self.records if r.get("event") == event]

    def iterations(self) -> list[dict]:
        """The per-iteration records (Algorithm 1 / MapReduce rounds)."""
        return self.events("iteration")

    def chunks(self) -> list[dict]:
        """The per-chunk records of streaming I-CRH (Algorithm 2)."""
        return self.events("chunk")

    def objective_series(self) -> list[float]:
        """Objective value per iteration (Eq. 1) — the primary
        convergence diagnostic.  Under a jointly convex loss/weight
        configuration (e.g. probability + squared losses with the
        ``sum``-normalized exponential scheme) the series is
        non-increasing after the first full update."""
        return [r["objective"] for r in self.iterations()
                if "objective" in r]

    def weight_trajectory(self) -> np.ndarray:
        """``(T, K)`` source weights over iterations/chunks (Fig. 4a).

        Rows are ragged-padded with NaN when the source set grew
        mid-stream.
        """
        rows = [r["weights"] for r in self.records
                if r.get("event") in ("iteration", "chunk")
                and "weights" in r]
        if not rows:
            return np.empty((0, 0))
        k = max(len(row) for row in rows)
        out = np.full((len(rows), k), np.nan)
        for t, row in enumerate(rows):
            out[t, :len(row)] = row
        return out

    def counter_totals(self) -> dict[str, int]:
        """Engine counters totalled over the trace.

        A counter reported on a ``run_end`` record is already a running
        total for that run, so such counters sum over ``run_end`` records
        only; counters that never reach a ``run_end`` (e.g. per-job
        ``map_tasks``) sum over every record carrying them.
        """
        finals: dict[str, int] = {}
        for record in self.events("run_end"):
            for name in _COUNTER_FIELDS:
                if name in record:
                    finals[name] = finals.get(name, 0) + int(record[name])
        totals = dict(finals)
        for record in self.records:
            if record.get("event") == "run_end":
                continue
            for name in _COUNTER_FIELDS:
                if name in record and name not in finals:
                    totals[name] = totals.get(name, 0) + int(record[name])
        return totals

    def serving_totals(self) -> dict:
        """Serving activity totalled over ``ingest``/``read`` records.

        Returns an empty dict when the trace carries no serving
        records; otherwise ingest batches, total ingested claims,
        windows sealed, recompute volume, reads, and the lifetime cache
        hit rate (1.0 for a read-free trace).
        """
        ingests = self.events("ingest")
        reads = self.events("read")
        if not ingests and not reads:
            return {}
        hits = sum(r.get("cache_hits", 0) for r in reads)
        read_objects = sum(r.get("read_objects", 0) for r in reads)
        return {
            "ingest_batches": len(ingests),
            "ingested_claims": sum(r.get("ingested_claims", 0)
                                   for r in ingests),
            "windows_sealed": sum(r.get("windows_sealed", 0)
                                  for r in ingests),
            "recomputed_objects": sum(r.get("recomputed_objects", 0)
                                      for r in ingests),
            "read_calls": len(reads),
            "read_objects": read_objects,
            "cache_hits": hits,
            "cache_misses": sum(r.get("cache_misses", 0)
                                for r in reads),
            "cache_hit_rate": (hits / read_objects
                               if read_objects else 1.0),
        }

    def simulated_seconds(self) -> float:
        """Total simulated cluster seconds across MapReduce job records."""
        return float(sum(r.get("simulated_seconds", 0.0)
                         for r in self.events("mapreduce_job")))

    # -- presentation ---------------------------------------------------
    def summary(self) -> str:
        """A short human-readable digest of the run."""
        lines = [f"trace: {len(self.records)} record(s)"]
        starts = self.events("run_start")
        if starts:
            methods = ", ".join(
                r.get("method", "?") for r in starts
            )
            lines.append(f"runs: {methods}")
        objective = self.objective_series()
        if objective:
            arrow = " -> ".join(f"{v:.6g}" for v in
                                (objective[0], objective[-1]))
            lines.append(
                f"objective (Eq. 1): {arrow} over "
                f"{len(objective)} iteration(s)"
            )
        chunks = self.chunks()
        if chunks:
            lines.append(f"stream: {len(chunks)} chunk(s) processed")
        serving = self.serving_totals()
        if serving:
            lines.append(
                f"serving: {serving['ingested_claims']} claim(s) "
                f"ingested over {serving['ingest_batches']} batch(es), "
                f"{serving['windows_sealed']} window(s) sealed, "
                f"{serving['read_objects']} object(s) read "
                f"({serving['cache_hit_rate']:.1%} cache hits)"
            )
        jobs = self.events("mapreduce_job")
        if jobs:
            lines.append(
                f"mapreduce: {len(jobs)} job(s), "
                f"{sum(r['shuffled_records'] for r in jobs)} record(s) "
                f"shuffled, {self.simulated_seconds():.3f} simulated s"
            )
        totals = self.counter_totals()
        if totals:
            rendered = ", ".join(f"{k}={v}" for k, v in
                                 sorted(totals.items()))
            lines.append(f"counters: {rendered}")
        ends = self.events("run_end")
        for end in ends:
            bits = []
            if "iterations" in end:
                bits.append(f"{end['iterations']} iteration(s)")
            if "converged" in end:
                bits.append("converged" if end["converged"]
                            else "hit iteration cap")
            if "elapsed_seconds" in end:
                bits.append(f"{end['elapsed_seconds']:.3f}s wall")
            if "parallel_efficiency" in end:
                bits.append(
                    f"{end['parallel_efficiency']:.0%} parallel "
                    f"efficiency"
                )
            if "backend" in end:
                bits.append(f"degraded to {end['backend']} backend")
            if bits:
                lines.append("finished: " + ", ".join(bits))
        experiments = self.events("experiment")
        if experiments:
            names = ", ".join(r.get("experiment", "?")
                              for r in experiments)
            lines.append(f"experiments: {names}")
        benchmarks = self.events("benchmark")
        if benchmarks:
            names = ", ".join(r.get("name", "?") for r in benchmarks)
            lines.append(f"benchmarks: {names}")
        method_runs = self.events("method_run")
        if method_runs:
            lines.append(f"harness: {len(method_runs)} method fit(s)")
        return "\n".join(lines)
