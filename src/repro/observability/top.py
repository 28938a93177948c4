"""``repro top``: a refreshing terminal dashboard over live metrics.

Tails the JSONL snapshot stream a
:class:`~repro.observability.export.MetricsExporter` appends to (or a
one-shot Prometheus ``.prom`` file) and renders the serving engine's
vitals in place: ingest/read counters, staleness and weight gauges,
latency histogram quantiles, and the health verdict.  ``--once``
renders a single frame (scripts, CI); without it the screen refreshes
every ``--refresh`` seconds until interrupted::

    python -m repro serve-sim --metrics-jsonl live.jsonl &
    python -m repro top live.jsonl

``repro top --check file.prom`` is the CI validation mode: it
syntax-checks the Prometheus exposition
(:func:`~repro.observability.export.validate_exposition`) and asserts
the serving glossary metrics (:data:`REQUIRED_SERVING_METRICS`) are
present, exiting non-zero on any failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .export import (
    exposition_metric_names,
    read_latest_snapshot,
    validate_exposition,
)

#: metric names a serving exposition must carry (the CI smoke contract)
REQUIRED_SERVING_METRICS = (
    "ingested_claims",
    "windows_sealed",
    "read_objects",
    "pending_timestamps",
    "truth_version",
    "weight_entropy",
    "weight_drift",
    "ingest_seconds",
    "read_seconds",
)


def check_exposition_file(path) -> list[str]:
    """Validate one Prometheus exposition file; returns error strings.

    Checks syntax via :func:`validate_exposition` and the presence of
    every :data:`REQUIRED_SERVING_METRICS` name.
    """
    path = Path(path)
    if not path.exists():
        return [f"no such file: {path}"]
    text = path.read_text(encoding="utf-8")
    errors = validate_exposition(text)
    present = exposition_metric_names(text)
    missing = sorted(set(REQUIRED_SERVING_METRICS) - present)
    if missing:
        errors.append(f"missing serving metrics: {', '.join(missing)}")
    return errors


def _series_label(entry: dict) -> str:
    labels = entry.get("labels") or {}
    if not labels:
        return entry["name"]
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{entry['name']}{{{inner}}}"


def _histogram_quantile(entry: dict, q: float) -> float:
    """Quantile of one snapshot histogram entry (bucket interpolation)."""
    from .metrics import Histogram

    histogram = Histogram(entry["name"], bounds=tuple(entry["bounds"]))
    histogram.counts = [int(c) for c in entry["counts"]]
    histogram.sum = float(entry["sum"])
    histogram.count = int(entry["count"])
    return histogram.quantile(q)


def render_snapshot(record: dict) -> str:
    """One dashboard frame from an exporter JSONL record."""
    snapshot = record.get("snapshot", {})
    stamp = record.get("unix_time")
    when = (time.strftime("%H:%M:%S", time.localtime(stamp))
            if stamp else "?")
    lines = [f"repro top — snapshot at {when}"]
    health = record.get("health")
    if health:
        lines.append(f"health: {health.get('status', '?')}")
        for rule in health.get("rules", ()):
            value = rule.get("value")
            observed = "absent" if value is None else f"{value:g}"
            lines.append(f"  {rule.get('name')}: {rule.get('status')} "
                         f"({rule.get('rule')}, value {observed})")
    counters = snapshot.get("counters", ())
    if counters:
        lines.append("counters:")
        for entry in counters:
            lines.append(f"  {_series_label(entry):<40s} "
                         f"{entry['value']:>14,.0f}")
    gauges = snapshot.get("gauges", ())
    if gauges:
        lines.append("gauges:")
        for entry in gauges:
            lines.append(f"  {_series_label(entry):<40s} "
                         f"{entry['value']:>14,.4g}")
    histograms = snapshot.get("histograms", ())
    if histograms:
        lines.append("latency histograms (p50 / p99 / count):")
        for entry in histograms:
            p50 = _histogram_quantile(entry, 0.50)
            p99 = _histogram_quantile(entry, 0.99)
            lines.append(
                f"  {_series_label(entry):<40s} "
                f"{p50 * 1e6:>9,.0f} us  {p99 * 1e6:>9,.0f} us  "
                f"{entry['count']:>8,d}"
            )
    return "\n".join(lines)


def build_arg_parser() -> argparse.ArgumentParser:
    """Build the ``repro top`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="crh-repro top",
        description=("Render a refreshing terminal dashboard from a "
                     "metrics exporter snapshot file (JSONL), or "
                     "validate a Prometheus exposition with --check"),
    )
    parser.add_argument("snapshot", type=Path,
                        help="exporter JSONL snapshot file to tail "
                             "(or a .prom file with --check)")
    parser.add_argument("--refresh", type=float, default=2.0,
                        help="seconds between frames (default 2)")
    parser.add_argument("--once", action="store_true",
                        help="render one frame and exit (scripts/CI)")
    parser.add_argument("--frames", type=int, default=None,
                        help="stop after this many frames "
                             "(default: until interrupted)")
    parser.add_argument("--check", action="store_true",
                        help="validate a Prometheus exposition file: "
                             "syntax plus the serving metric names")
    return parser


def top_main(argv: list[str] | None = None) -> int:
    """Run ``repro top``; returns the process exit code."""
    args = build_arg_parser().parse_args(argv)
    if args.check:
        errors = check_exposition_file(args.snapshot)
        if errors:
            for error in errors:
                print(f"metrics check: {error}", file=sys.stderr)
            return 1
        text = args.snapshot.read_text(encoding="utf-8")
        names = exposition_metric_names(text)
        print(f"metrics check: {args.snapshot} OK "
              f"({len(names)} metric(s), all serving metrics present)")
        return 0
    frames = 0
    try:
        while True:
            record = read_latest_snapshot(args.snapshot)
            if record is None:
                print(f"waiting for snapshots in {args.snapshot} ...",
                      flush=True)
            else:
                if not args.once and frames:
                    # clear screen + home between frames
                    print("\x1b[2J\x1b[H", end="")
                print(render_snapshot(record), flush=True)
            frames += 1
            if args.once or (args.frames is not None
                             and frames >= args.frames):
                return 0 if record is not None else 1
            time.sleep(args.refresh)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(top_main())
