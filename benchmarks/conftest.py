"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures, prints
the rendered rows/series (run pytest with ``-s`` to see them inline), and
asserts the paper's qualitative shape — who wins, roughly by how much —
so a passing benchmark run *is* the reproduction check.  Timings are
single-shot (``rounds=1``): the workloads are deterministic and the
interesting output is the table, not the harness's own latency.

Set ``REPRO_TRACE=/path/to/trace.jsonl`` to append one ``benchmark``
record per experiment run (see docs/OBSERVABILITY.md).  Appends go
through :func:`repro.observability.append_record` — one atomic
``O_APPEND`` write per record — so parallel benchmark sessions (e.g.
``pytest -n auto``) sharing one trace file never interleave lines.
"""

from __future__ import annotations

import os
import time

from repro.observability import append_record, record


def run_experiment(benchmark, runner, **kwargs):
    """Run an experiment once under pytest-benchmark and print its table."""
    started = time.perf_counter()
    result = benchmark.pedantic(
        lambda: runner(**kwargs), rounds=1, iterations=1,
    )
    seconds = time.perf_counter() - started
    trace_path = os.environ.get("REPRO_TRACE", "").strip()
    if trace_path:
        append_record(trace_path, record(
            "benchmark", name=getattr(runner, "__name__", str(runner)),
            seconds=seconds,
        ))
    print()
    print(result.render())
    return result
