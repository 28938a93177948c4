"""Per-layer metrics of the traced run (``--trace 1``).

Each function returns ``{metric: value}`` for the metrics it measured
and ``{metric: reason}`` for the ones it could not: a wrapped name that
no longer exists, a layer the workload does not exercise, or work that
runs where the parent cannot see it.  Batch layer times are per traced
solve; serve layer times are totals over the open loop and catch-up.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro import crh
from repro.streaming import TruthService

import workloads
from spans import Recorder, installed, op_span

NOT_HERE = "not part of this workload"
IN_WORKERS = "process-worker kernels are invisible from the parent"
ENGINES = ("dense", "sparse", "process", "mmap")
#: engines whose projected claim storage exceeds this are not run
ENGINE_MEMORY_CAP = 256 * 2**20
ENGINE_REPEATS = 3
#: open-loop ingest batches replayed, alternately untraced and traced,
#: to measure tracing overhead
OVERHEAD_BATCHES = 200
OVERHEAD_ROUNDS = 2
ROUTER_SHARDS = 2
ROUTER_THREADS = 2

SPAN_METRICS = {
    "engine.resolve_s": "engine.resolve",
    "engine.runner_start_s": "engine.runner_start",
    "engine.close_s": "engine.close",
    "core.init_s": "core.init",
    "core.truth_step_s": "core.truth_step",
    "core.deviation_s": "core.deviation",
    "core.weight_step_s": "core.weight_step",
    "core.finalize_s": "core.finalize",
}
KERNELS = ("median", "vote", "deviation", "accumulate")
STREAM_SPANS = {
    "streaming.seal_s": "streaming.seal",
    "streaming.assemble_s": "streaming.assemble",
    "streaming.planner_s": "streaming.planner",
    "streaming.resolve_s": "streaming.resolve",
    "streaming.cache_write_s": "streaming.cache_write",
    "streaming.publish_s": "streaming.publish",
    "streaming.read_s": "streaming.read",
}
BATCH_ONLY = ("data.load_s", "core.iterations", "solve.coverage",
              "core.solve_slope_vs_claims",
              *(f"engine.{name}.solve_s" for name in ENGINES))
SERVE_ONLY = ("streaming.restore_s", "streaming.store_s",
              "streaming.cow_copies", "streaming.cow_bytes",
              "streaming.read_wait_ms_p99", "streaming.recomputed_per_claim",
              "streaming.cache_hit_rate", "streaming.windows_sealed",
              "streaming.recomputed_objects", "streaming.ingest_coverage",
              "loadgen.lag_p99_ms", "loadgen.lag_max_ms",
              "router.sync_claims_per_s", "router.threaded_claims_per_s",
              *STREAM_SPANS)


def _span_values(recorder: Recorder, per: float) -> tuple[dict, dict]:
    """Inclusive span time (and kernel call counts) divided by ``per``."""
    layers = recorder.layers()
    values, reasons = {}, {}
    names = dict(SPAN_METRICS)
    names.update(STREAM_SPANS)
    for kernel in KERNELS:
        names[f"core.kernel.{kernel}_s"] = f"core.kernel.{kernel}"
    for metric, span in names.items():
        if span in recorder.missing:
            reasons[metric] = f"missing: {recorder.missing[span]}"
        else:
            values[metric] = layers.get(span, {}).get("total_s", 0.0) / per
    for kernel in KERNELS:
        span = f"core.kernel.{kernel}"
        if span not in recorder.missing:
            values[f"core.kernel.{kernel}_calls"] = (
                layers.get(span, {}).get("calls", 0) / per)
    return values, reasons


def _median_solve(dataset, repeats: int = ENGINE_REPEATS, **config):
    times, result = [], None
    for _ in range(repeats):
        started = time.perf_counter()
        result = crh(dataset, **workloads.SOLVE, **config)
        times.append(time.perf_counter() - started)
    return statistics.median(times), result


def batch_layers(ctx, out: dict) -> tuple[dict, dict]:
    recorder = ctx.recorder
    traced = out["traced_times"]
    values, reasons = _span_values(recorder, len(traced))
    if out["backend"] == "process":
        for kernel in KERNELS:
            for suffix in ("_s", "_calls"):
                values.pop(f"core.kernel.{kernel}{suffix}", None)
                reasons[f"core.kernel.{kernel}{suffix}"] = IN_WORKERS
    values["core.iterations"] = out["iterations"]
    coverage = recorder.child_coverage("solve")
    if coverage is not None:
        values["solve.coverage"] = coverage
    values["trace.overhead"] = (statistics.median(traced)
                                / statistics.median(out["times"]))
    dataset = ctx.handle
    reference = None
    identical = True
    for name in ENGINES:
        projected = dataset.dense_nbytes() if name == "dense" else 0
        if projected > ENGINE_MEMORY_CAP:
            reasons[f"engine.{name}.solve_s"] = (
                f"skipped: projected dense storage {projected / 2**20:.0f} "
                f"MiB exceeds {ENGINE_MEMORY_CAP // 2**20} MiB")
            continue
        seconds, result = ctx.outcome.op(_median_solve, dataset,
                                         backend=name) or (None, None)
        if result is None:
            reasons[f"engine.{name}.solve_s"] = "solve failed"
            continue
        values[f"engine.{name}.solve_s"] = seconds
        reference = reference or result
        identical = identical and workloads.same_result(result, reference)
    ctx.outcome.check("engines_bit_identical", identical)
    values["core.solve_slope_vs_claims"] = _slope(dataset)
    return values, reasons


def _slope(dataset) -> float:
    """Log-log slope of sparse solve time against claims, over the
    first 1/4, 1/2 and all objects (the paper's Fig. 7 linearity)."""
    claims, seconds = [], []
    for share in (4, 2, 1):
        subset = dataset.select_objects(
            np.arange(dataset.n_objects // share))
        claims.append(subset.n_observations())
        seconds.append(_median_solve(subset, backend="sparse")[0])
    return float(np.polyfit(np.log(claims), np.log(seconds), 1)[0])


def serve_layers(ctx, out: dict) -> tuple[dict, dict]:
    recorder = ctx.recorder
    values, reasons = _span_values(recorder, 1.0)
    layers = recorder.layers()
    loop, counts = out["loop"], ctx.counts
    ingest = layers.get("streaming.ingest", {})
    values["streaming.store_s"] = ingest.get("self_s", 0.0)
    values["streaming.ingest_coverage"] = (
        ingest.get("total_s", 0.0)
        / (loop["ingest_service"] + out["closed_loop_s"]))
    if "streaming.cow" in recorder.missing:
        for name in ("streaming.cow_copies", "streaming.cow_bytes"):
            reasons[name] = f"missing: {recorder.missing['streaming.cow']}"
    else:
        values["streaming.cow_copies"] = recorder.cow_copies
        values["streaming.cow_bytes"] = recorder.cow_bytes
    values["streaming.read_wait_ms_p99"] = (
        workloads.quantile(loop["read_wait"], 0.99) * 1e3)
    values["streaming.recomputed_per_claim"] = (
        counts["recomputed_objects"] / max(1, counts["ingested_claims"]))
    values["streaming.cache_hit_rate"] = counts["cache_hit_rate"]
    values["streaming.windows_sealed"] = counts["windows_sealed"]
    values["streaming.recomputed_objects"] = counts["recomputed_objects"]
    values["loadgen.lag_p99_ms"] = workloads.quantile(loop["lag"], 0.99) * 1e3
    values["loadgen.lag_max_ms"] = max(loop["lag"]) * 1e3
    batches = [payload for _, kind, payload in out["schedule"]
               if kind == workloads.INGEST][:OVERHEAD_BATCHES]
    untraced = traced = 0.0
    for _ in range(OVERHEAD_ROUNDS):
        untraced += _replay_seconds(ctx, batches, None)
        traced += _replay_seconds(ctx, batches, Recorder())
    values["trace.overhead"] = traced / untraced
    for threads, name in ((0, "sync"), (ROUTER_THREADS, "threaded")):
        rate = ctx.outcome.op(_router_rate, out["stream"], out["catchup"],
                              threads)
        if isinstance(rate, str):
            reasons[f"router.{name}_claims_per_s"] = rate
        elif rate is not None:
            values[f"router.{name}_claims_per_s"] = rate
    return values, reasons


def _replay_seconds(ctx, batches, recorder) -> float:
    """Closed-loop replay of ``batches`` onto a fresh restore."""
    service = TruthService.restore(ctx.work / "snapshot")
    with installed(recorder):
        started = time.perf_counter()
        for batch in batches:
            with op_span(recorder, "streaming.ingest"):
                service.ingest(batch)
        return time.perf_counter() - started


def _router_rate(stream, catchup: list, threads: int):
    """Catch-up claims/s through a 2-shard ``ShardedTruthService`` fed
    the same prefix as the measured service (the prefix is untimed)."""
    try:
        from repro.streaming import ShardedTruthService
    except ImportError:
        return "missing: repro.streaming.ShardedTruthService"
    dataset = stream.dataset
    router = ShardedTruthService(
        dataset.schema, n_shards=ROUTER_SHARDS, window=1,
        codecs=dataset.codecs(), ingest_threads=threads)
    try:
        prefix = len(stream.claims) - sum(len(b) for b in catchup)
        for start in range(0, prefix, 10_000):
            router.ingest(stream.claims[start:min(start + 10_000, prefix)])
        router.drain()
        started = time.perf_counter()
        for batch in catchup:
            router.ingest(batch)
        router.drain()
        elapsed = time.perf_counter() - started
    finally:
        router.close()
    return sum(len(b) for b in catchup) / elapsed


def measure(ctx, out: dict) -> tuple[dict, dict]:
    """Every per-layer metric this workload has, plus reasons for the
    rest (setup layers are filled in by the caller)."""
    if ctx.workload.startswith("batch"):
        values, reasons = batch_layers(ctx, out)
        absent = SERVE_ONLY
    else:
        values, reasons = serve_layers(ctx, out)
        absent = BATCH_ONLY
    for name in absent:
        values.pop(name, None)
        reasons[name] = NOT_HERE
    return values, reasons
