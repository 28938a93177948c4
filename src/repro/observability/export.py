"""Prometheus text exposition: the atomic file writer and its checks.

The serving registry's one export format is the Prometheus text that
:meth:`~repro.observability.metrics.MetricsRegistry.to_prometheus`
renders.  :func:`write_prometheus` writes it atomically (temp file +
``os.replace``), so a scraper never reads a half-written exposition.
:func:`validate_exposition` syntax-checks such text,
:func:`exposition_metric_names` extracts the metric names it declares,
and :func:`check_exposition_file` combines both into the
``repro top --check`` validation the CI metrics smoke job runs.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

from .metrics import MetricsRegistry

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

#: one quoted label value: any character but ``"`` and ``\``, or an
#: escape pair
_VALUE = r'"(?:[^"\\]|\\.)*"'

#: one exposition sample line: name, optional label block, value
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    rf"(?P<labels>\{{(?:[^{{}}\"]|{_VALUE})*\}})?"
    r"\s+(?P<value>[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?"
    r"|Inf|NaN))"
    r"(?:\s+[-+]?[0-9]+)?$"
)

#: a well-formed label block: ``key="value"`` pairs separated by commas
_LABEL_PAIR = rf'\s*[a-zA-Z_][a-zA-Z0-9_]*={_VALUE}\s*'
_LABEL_BLOCK_RE = re.compile(
    rf"\{{(?:{_LABEL_PAIR}(?:,{_LABEL_PAIR})*,?)?\s*\}}"
)


def validate_exposition(text: str) -> list[str]:
    """Syntax-check Prometheus text exposition; returns error strings.

    Accepts what the format specifies: ``# HELP name text`` and
    ``# TYPE name counter|gauge|histogram|summary|untyped`` comment
    lines, blank lines, and sample lines ``name{labels} value
    [timestamp]``.  An empty list means the text parses clean.
    """
    errors: list[str] = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                if len(parts) < 3:
                    errors.append(
                        f"line {number}: # {parts[1]} without a "
                        f"metric name"
                    )
                elif parts[1] == "TYPE" and (
                        len(parts) < 4 or parts[3] not in (
                            "counter", "gauge", "histogram",
                            "summary", "untyped")):
                    errors.append(
                        f"line {number}: unknown TYPE "
                        f"{parts[3] if len(parts) > 3 else '(missing)'!r}"
                    )
            continue  # other comments are legal and ignored
        match = _SAMPLE_RE.match(line)
        if match is None:
            errors.append(f"line {number}: unparseable sample {line!r}")
            continue
        block = match.group("labels")
        if block and not _LABEL_BLOCK_RE.fullmatch(block):
            errors.append(
                f"line {number}: malformed label block {block!r}"
            )
    return errors


def exposition_metric_names(text: str) -> set[str]:
    """Metric names a Prometheus exposition declares or samples.

    Histogram series collapse to their base name (``read_seconds_bucket``
    / ``_sum`` / ``_count`` all report ``read_seconds``).
    """
    names: set[str] = set()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                names.add(parts[2])
            continue
        match = _SAMPLE_RE.match(line)
        if match is not None:
            name = match.group("name")
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix):
                    base = name[: -len(suffix)]
                    if base:
                        name = base
                    break
            names.add(name)
    return names


def write_prometheus(registry: MetricsRegistry, path) -> Path:
    """Atomically write the registry's Prometheus exposition to ``path``.

    The text is written to a sibling temp file and moved into place
    with ``os.replace`` — a scraper reading ``path`` sees either the
    previous complete exposition or the new one, never a torn mix.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(registry.to_prometheus(), encoding="utf-8")
    os.replace(tmp, path)
    return path


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
