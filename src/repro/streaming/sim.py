"""``repro serve-sim``: drive a TruthService over a simulated stream.

Replays the weather workload claim by claim through the serving stack —
batched ingests, interleaved random truth reads — and prints the
serving counters the run produced.  This is the CLI surface of the
serving layer: the same loop a long-lived deployment would run, but
against a generated stream, so ingest/read tracing, the dirty-set
planner, live metrics export and snapshotting can all be exercised
(and traced) from a terminal::

    python -m repro serve-sim --cities 8 --days 30 --reads 5
    python -m repro serve-sim --trace serve.jsonl --snapshot state/
    python -m repro serve-sim --prom serve.prom --metrics-jsonl live.jsonl
    python -m repro serve-sim --http 9095     # /metrics + /healthz

With ``--prom`` / ``--metrics-jsonl`` a
:class:`~repro.observability.export.MetricsExporter` snapshots the
service registry every ``--export-every`` ingest batches (plus once at
the end); ``--http PORT`` additionally serves the live exposition on
``/metrics`` and the SLO verdict on ``/healthz``.  ``--slo`` rules
(``metric{<|>}warn[:fail]``) replace the default serving SLOs.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

from ..observability import (
    HealthCheck,
    JsonlTracer,
    MetricsExporter,
    parse_rule,
)
from ..observability.export import flatten_snapshot
from .icrh import ICRHConfig
from .service import TruthService, iter_dataset_claims


def build_arg_parser() -> argparse.ArgumentParser:
    """Build the ``serve-sim`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="crh-repro serve-sim",
        description=("Simulate a truth-serving session: stream the "
                     "weather workload through TruthService with "
                     "interleaved reads"),
    )
    parser.add_argument("--cities", type=int, default=8,
                        help="weather cities in the stream (default 8)")
    parser.add_argument("--days", type=int, default=30,
                        help="stream days (default 30)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload random seed (default 0)")
    parser.add_argument("--window", type=int, default=2,
                        help="timestamps per sealed window (default 2)")
    parser.add_argument("--batch", type=int, default=500,
                        help="claims per ingest call (default 500)")
    parser.add_argument("--reads", type=int, default=3,
                        help="random single-object reads between "
                             "ingest batches (default 3)")
    parser.add_argument("--decay", type=float, default=1.0,
                        help="I-CRH decay factor alpha (default 1.0)")
    parser.add_argument("--trace", type=Path, default=None,
                        help="write ingest/read JSONL trace records "
                             "to this file")
    parser.add_argument("--snapshot", type=Path, default=None,
                        help="snapshot the final service state into "
                             "this directory")
    parser.add_argument("--prom", type=Path, default=None,
                        help="write the Prometheus text exposition to "
                             "this file on every export")
    parser.add_argument("--metrics-jsonl", type=Path, default=None,
                        help="append one JSON metrics snapshot line "
                             "per export to this file (repro top "
                             "tails it)")
    parser.add_argument("--export-every", type=int, default=5,
                        help="ingest batches between metric exports "
                             "(default 5; a final export always runs)")
    parser.add_argument("--http", type=int, default=None, metavar="PORT",
                        help="serve /metrics and /healthz on "
                             "127.0.0.1:PORT for the duration of "
                             "the run")
    parser.add_argument("--slo", action="append", default=None,
                        metavar="RULE",
                        help="health rule metric{<|>}warn[:fail] "
                             "(repeatable; replaces the default "
                             "serving SLOs)")
    return parser


def _start_http_server(port: int, registry, health: HealthCheck):
    """Serve ``/metrics`` and ``/healthz`` on a daemon thread.

    Returns the ``ThreadingHTTPServer`` (caller shuts it down).
    ``/metrics`` renders the live registry as Prometheus text;
    ``/healthz`` evaluates the SLO rules against the flattened
    snapshot and answers 200 (healthy/degraded) or 503 (unhealthy)
    with the JSON report as body.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class _Handler(BaseHTTPRequestHandler):
        def _reply(self, code: int, content_type: str,
                   body: bytes) -> None:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
            if self.path == "/metrics":
                self._reply(200, "text/plain; version=0.0.4",
                            registry.to_prometheus().encode("utf-8"))
            elif self.path == "/healthz":
                report = health.evaluate(
                    flatten_snapshot(registry.snapshot()))
                body = json.dumps(report.to_dict()).encode("utf-8")
                code = 200 if report.status != "unhealthy" else 503
                self._reply(code, "application/json", body)
            else:
                self._reply(404, "text/plain", b"not found\n")

        def log_message(self, *args):  # silence per-request stderr
            pass

    server = ThreadingHTTPServer(("127.0.0.1", port), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


def serve_sim_main(argv: list[str] | None = None) -> int:
    """Run the serving simulation; returns the process exit code."""
    from ..datasets import WeatherConfig, generate_weather_dataset

    args = build_arg_parser().parse_args(argv)
    if args.export_every < 1:
        print("serve-sim: --export-every must be >= 1", file=sys.stderr)
        return 2
    config = WeatherConfig(n_cities=args.cities, n_days=args.days,
                           seed=args.seed)
    dataset = generate_weather_dataset(config).dataset
    claims = list(iter_dataset_claims(dataset))
    rng = np.random.default_rng(args.seed)
    tracer = JsonlTracer(args.trace) if args.trace is not None else None
    service = TruthService(
        dataset.schema, window=args.window,
        config=ICRHConfig(decay=args.decay),
        codecs=dataset.codecs(), tracer=tracer,
    )
    registry = service.registry
    try:
        rules = ([parse_rule(text) for text in args.slo]
                 if args.slo else None)
    except ValueError as error:
        print(f"serve-sim: {error}", file=sys.stderr)
        return 2
    health = HealthCheck(rules)
    exporter = None
    if args.prom is not None or args.metrics_jsonl is not None:
        exporter = MetricsExporter(registry, prom_path=args.prom,
                                   jsonl_path=args.metrics_jsonl,
                                   health=health)
    server = None
    if args.http is not None:
        server = _start_http_server(args.http, registry, health)
        print(f"serving /metrics and /healthz on "
              f"http://127.0.0.1:{args.http}")
    print(f"serve-sim: {len(claims):,} claims over {args.days} days, "
          f"{dataset.n_objects} objects, window={args.window}, "
          f"batch={args.batch}")
    started = time.perf_counter()
    try:
        for batch_index, start in enumerate(
                range(0, len(claims), args.batch)):
            report = service.ingest(claims[start:start + args.batch])
            if report.windows_sealed:
                print(f"  t={start + report.ingested_claims:>7,} claims: "
                      f"sealed {report.windows_sealed} window(s), "
                      f"recomputed {report.recomputed_objects} object(s)")
            known = service.object_ids
            for object_id in rng.choice(len(known),
                                        min(args.reads, len(known)),
                                        replace=False):
                service.get_truth([known[int(object_id)]])
            if (exporter is not None
                    and batch_index % args.export_every == 0):
                exporter.export()
        service.flush()
        if exporter is not None:
            exporter.export()
    finally:
        if tracer is not None:
            tracer.close()
        if server is not None:
            server.shutdown()
    elapsed = time.perf_counter() - started
    metrics = service.metrics()
    rate = metrics["ingested_claims"] / elapsed if elapsed else 0.0
    print(f"ingested {metrics['ingested_claims']:,} claims in "
          f"{elapsed:.2f} s ({rate:,.0f} claims/sec), sealed "
          f"{metrics['windows_sealed']} windows")
    print(f"reads: {metrics['read_objects']:,} objects, cache hit rate "
          f"{metrics['cache_hit_rate']:.1%}")
    print(f"state: {metrics['n_sources']} sources, "
          f"{metrics['n_objects']:,} objects, "
          f"{metrics['dirty_objects']} dirty, "
          f"{metrics['cached_objects']:,} cached")
    weights = service.weights_by_source()
    top = sorted(weights, key=weights.get, reverse=True)[:3]
    print("top sources: "
          + ", ".join(f"{s}={weights[s]:.3f}" for s in top))
    report = health.evaluate(flatten_snapshot(registry.snapshot()))
    print(report.render())
    if args.snapshot is not None:
        service.snapshot(args.snapshot)
        print(f"snapshot written to {args.snapshot}/")
    if args.trace is not None:
        print(f"trace written to {args.trace}")
    if args.prom is not None:
        print(f"prometheus exposition written to {args.prom} "
              f"({exporter.exports} export(s))")
    if args.metrics_jsonl is not None:
        print(f"metrics snapshots appended to {args.metrics_jsonl}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(serve_sim_main())
