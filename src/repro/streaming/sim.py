"""``repro serve-sim``: drive a TruthService over a simulated stream.

Replays the weather workload claim by claim through the serving stack —
batched ingests, interleaved random truth reads — and prints the
serving counters the run produced.  This is the CLI surface of the
serving layer: the same loop a long-lived deployment would run, but
against a generated stream, so the dirty-set planner, the Prometheus
exposition and snapshotting can all be exercised from a terminal::

    python -m repro serve-sim --cities 8 --days 30 --reads 5
    python -m repro serve-sim --snapshot state/
    python -m repro serve-sim --prom serve.prom
    python -m repro serve-sim --http 9095     # /metrics

The service reports to a :class:`~repro.observability.MetricsRegistry`
tracer.  With ``--prom`` its exposition is rewritten
atomically (:func:`~repro.observability.export.write_prometheus`) every
``--export-every`` ingest batches and once at the end; ``--http PORT``
serves the live exposition on ``/metrics``.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from pathlib import Path

import numpy as np

from ..observability import MetricsRegistry, write_prometheus
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
    parser.add_argument("--snapshot", type=Path, default=None,
                        help="snapshot the final service state into "
                             "this directory")
    parser.add_argument("--prom", type=Path, default=None,
                        help="write the Prometheus text exposition to "
                             "this file on every export")
    parser.add_argument("--export-every", type=int, default=5,
                        help="ingest batches between metric exports "
                             "(default 5; a final export always runs)")
    parser.add_argument("--http", type=int, default=None, metavar="PORT",
                        help="serve /metrics on 127.0.0.1:PORT for the "
                             "duration of the run")
    return parser


def _start_http_server(port: int, registry):
    """Serve ``/metrics`` on a daemon thread.

    Returns the ``ThreadingHTTPServer`` (caller shuts it down).
    ``/metrics`` renders the live registry as Prometheus text; every
    other path answers 404.
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
    registry = MetricsRegistry()
    service = TruthService(
        dataset.schema, window=args.window,
        config=ICRHConfig(decay=args.decay),
        codecs=dataset.codecs(), tracer=registry,
    )
    exports = 0
    server = None
    if args.http is not None:
        server = _start_http_server(args.http, registry)
        print(f"serving /metrics on http://127.0.0.1:{args.http}")
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
            if (args.prom is not None
                    and batch_index % args.export_every == 0):
                write_prometheus(registry, args.prom)
                exports += 1
        service.flush()
        if args.prom is not None:
            write_prometheus(registry, args.prom)
            exports += 1
    finally:
        if server is not None:
            server.shutdown()
    elapsed = time.perf_counter() - started
    metrics = service.metrics()
    rate = metrics["ingested_claims"] / elapsed if elapsed else 0.0
    print(f"ingested {metrics['ingested_claims']:,} claims in "
          f"{elapsed:.2f} s ({rate:,.0f} claims/sec), sealed "
          f"{metrics['windows_sealed']} windows")
    print(f"reads: {metrics['read_objects']:,} objects")
    print(f"state: {metrics['n_sources']} sources, "
          f"{metrics['n_objects']:,} objects, "
          f"{metrics['pending_timestamps']} pending timestamps")
    weights = service.weights_by_source()
    top = sorted(weights, key=weights.get, reverse=True)[:3]
    print("top sources: "
          + ", ".join(f"{s}={weights[s]:.3f}" for s in top))
    if args.snapshot is not None:
        service.snapshot(args.snapshot)
        print(f"snapshot written to {args.snapshot}/")
    if args.prom is not None:
        print(f"prometheus exposition written to {args.prom} "
              f"({exports} export(s))")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(serve_sim_main())
