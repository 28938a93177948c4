"""Live metrics: counters, gauges, and streaming-quantile histograms.

A :class:`MetricsRegistry` is a tracer: passed as a
:class:`~repro.streaming.service.TruthService`'s ``tracer=``, it folds
the service's per-call records into *what the service is doing now*:
monotone counters (claims ingested, windows sealed), point-in-time
gauges (pending timestamps, per-source weight entropy), and
fixed-bucket histograms whose quantiles approximate latency
distributions without retaining samples.  :data:`INSTRUMENT_KINDS`
names the fields it folds.

Design notes:

* **No third-party deps.**  Histograms use fixed log-spaced buckets
  (:func:`default_seconds_buckets`) rather than a P² estimator, so a
  quantile estimate's error stays bounded by one bucket width.
* **Off is no tracer.**  An untraced service builds no records and
  touches no instrument.
* **Names are glossary names.**  Every folded field appears in
  :data:`~repro.observability.records.METRIC_FIELDS`, the same
  vocabulary the trace records use — one glossary, enforced by
  ``tests/test_doc_coverage.py``.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-compatible
dicts; :meth:`MetricsRegistry.to_prometheus` renders the registry in
Prometheus text exposition format (see
:mod:`repro.observability.export`).
"""

from __future__ import annotations

import math
import threading

#: label rendering order is insertion order of the labels dict; the
#: registry keys instruments by (name, sorted label items) so lookup is
#: order-insensitive.
_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def render_labels(labels: dict) -> str:
    """Render a label dict as a Prometheus label block (``{k="v"}``).

    Returns an empty string for no labels.  Label values are escaped
    per the exposition format (backslash, double quote, newline).
    """
    if not labels:
        return ""
    parts = []
    for key, value in sorted(labels.items()):
        escaped = (str(value).replace("\\", r"\\")
                   .replace('"', r'\"').replace("\n", r"\n"))
        parts.append(f'{key}="{escaped}"')
    return "{" + ",".join(parts) + "}"


def default_seconds_buckets() -> tuple[float, ...]:
    """The default latency bucket bounds: log-spaced 1 µs .. ~8 s.

    24 upper bounds at factor-2 spacing (plus the implicit ``+Inf``
    bucket every histogram carries), so a quantile estimate is never
    off by more than 2x — "one bucket width" in the acceptance bar's
    terms — across six decades of latency.
    """
    return tuple(1e-6 * 2.0 ** i for i in range(24))


class Counter:
    """A monotonically increasing total (claims ingested, objects read)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict | None = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount


class Gauge:
    """A point-in-time value that can move both ways (staleness, entropy)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict | None = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge (may be negative)."""
        self.value += amount


class Histogram:
    """A fixed-bucket streaming histogram with quantile estimation.

    ``bounds`` are the finite upper bucket edges (ascending); an
    implicit ``+Inf`` bucket catches the tail.  Observations update a
    per-bucket count plus ``sum``/``count`` totals, so memory is
    O(#buckets) regardless of how many values stream through.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count")

    def __init__(self, name: str, labels: dict | None = None,
                 bounds: tuple[float, ...] | None = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self.bounds = tuple(float(b) for b in
                            (bounds or default_seconds_buckets()))
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(
                f"histogram {name!r} bucket bounds must ascend"
            )
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # first bound >= value (bisect, allocation-free)
            mid = (lo + hi) // 2
            if self.bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self.counts[lo] += 1
        self.sum += value
        self.count += 1

    def _quantile_bucket(self, q: float) -> int:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = q * self.count
        cumulative = 0
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank and count:
                return index
        return len(self.counts) - 1

    def quantile_bounds(self, q: float) -> tuple[float, float]:
        """The ``(low, high)`` bucket interval containing quantile ``q``.

        The exact quantile of the observed stream is guaranteed to lie
        inside this interval (the "within one bucket width" contract);
        the top bucket's high edge is ``inf``.
        """
        if self.count == 0:
            return (0.0, 0.0)
        index = self._quantile_bucket(q)
        low = self.bounds[index - 1] if index > 0 else 0.0
        high = (self.bounds[index] if index < len(self.bounds)
                else math.inf)
        return (low, high)

    def quantile(self, q: float) -> float:
        """Estimated quantile ``q`` by linear interpolation in-bucket.

        Within the bucket the rank falls in, the estimate interpolates
        between the bucket edges by the rank's position among that
        bucket's observations; the unbounded top bucket reports its low
        edge (the largest finite bound).
        """
        if self.count == 0:
            return 0.0
        index = self._quantile_bucket(q)
        low, high = self.quantile_bounds(q)
        if not math.isfinite(high):
            return low
        below = sum(self.counts[:index])
        inside = self.counts[index]
        if inside == 0:
            return high
        fraction = (q * self.count - below) / inside
        return low + (high - low) * min(max(fraction, 0.0), 1.0)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

#: the serving record fields a registry folds, and the instrument kind
#: each becomes; every other record field is ignored
INSTRUMENT_KINDS = {
    "ingested_claims": "counter",
    "windows_sealed": "counter",
    "recomputed_objects": "counter",
    "read_objects": "counter",
    "ingest_seconds": "histogram",
    "read_seconds": "histogram",
    "seal_seconds": "histogram",
    "pending_timestamps": "gauge",
    "truth_version": "gauge",
    "weight_drift": "gauge",
    "weight_entropy": "gauge",
    "snapshot_seq": "gauge",
}

#: how a folded field updates its instrument
_FOLD = {"counter": "inc", "gauge": "set", "histogram": "observe"}


class MetricsRegistry:
    """Holds every live instrument of one serving instance.

    Instruments are created on first use and identified by ``(kind,
    name, labels)``; asking for the same name with the same labels
    returns the same object, so hot paths can either cache the
    instrument or re-ask each time.  A name is pinned to one kind — the
    registry raises if ``counter("x")`` and ``gauge("x")`` collide.

    Thread-safe for instrument creation and snapshots (a single lock;
    the instruments' own updates are simple float/int mutations under
    the GIL, so concurrent emitters can undercount).
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, _LabelKey], object] = {}
        self._kinds: dict[str, str] = {}
        self._lock = threading.Lock()

    # -- instrument access ---------------------------------------------
    def _get(self, kind: str, name: str, labels: dict,
             **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            existing = self._instruments.get(key)
            if existing is not None:
                if self._kinds[name] != kind:
                    raise ValueError(
                        f"metric {name!r} is a {self._kinds[name]}, "
                        f"not a {kind}"
                    )
                return existing
            if self._kinds.setdefault(name, kind) != kind:
                raise ValueError(
                    f"metric {name!r} is a {self._kinds[name]}, "
                    f"not a {kind}"
                )
            instrument = _KINDS[kind](name, labels, **kwargs)
            self._instruments[key] = instrument
            return instrument

    def counter(self, name: str, **labels) -> Counter:
        """The counter ``name`` with ``labels`` (created on first use)."""
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge ``name`` with ``labels`` (created on first use)."""
        return self._get("gauge", name, labels)

    def histogram(self, name: str, bounds: tuple[float, ...] | None = None,
                  **labels) -> Histogram:
        """The histogram ``name`` with ``labels`` (created on first use).

        ``bounds`` applies only on creation; later lookups return the
        existing instrument regardless.
        """
        return self._get("histogram", name, labels, bounds=bounds)

    def emit(self, record: dict) -> None:
        """Fold one trace record into the registry's instruments.

        Each field named in :data:`INSTRUMENT_KINDS` updates the
        unlabelled instrument of that name: a counter adds the field
        (a per-call delta), a gauge is set to it, a histogram observes
        it.  Every other field is ignored.
        """
        for name, value in record.items():
            kind = INSTRUMENT_KINDS.get(name)
            if kind is not None:
                instrument = (self._instruments.get((name, ()))
                              or self._get(kind, name, {}))
                getattr(instrument, _FOLD[kind])(value)

    def close(self) -> None:
        """Nothing to release; the instruments stay readable."""

    def value(self, name: str, **labels) -> float:
        """Current value of a counter/gauge (0.0 when absent)."""
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        return getattr(instrument, "value", 0.0) if instrument else 0.0

    def instruments(self) -> list:
        """Every instrument, in creation order."""
        with self._lock:
            return list(self._instruments.values())

    # -- snapshot -------------------------------------------------------
    def snapshot(self) -> dict:
        """The registry as one JSON-compatible dict.

        Layout::

            {"counters":   [{"name", "labels", "value"}, ...],
             "gauges":     [{"name", "labels", "value"}, ...],
             "histograms": [{"name", "labels", "bounds",
                             "counts", "sum", "count"}, ...]}
        """
        out: dict = {"counters": [], "gauges": [], "histograms": []}
        for instrument in self.instruments():
            if isinstance(instrument, Counter):
                out["counters"].append({
                    "name": instrument.name,
                    "labels": dict(instrument.labels),
                    "value": instrument.value,
                })
            elif isinstance(instrument, Gauge):
                out["gauges"].append({
                    "name": instrument.name,
                    "labels": dict(instrument.labels),
                    "value": instrument.value,
                })
            else:
                out["histograms"].append({
                    "name": instrument.name,
                    "labels": dict(instrument.labels),
                    "bounds": list(instrument.bounds),
                    "counts": list(instrument.counts),
                    "sum": instrument.sum,
                    "count": instrument.count,
                })
        return out

    # -- exposition -----------------------------------------------------
    def to_prometheus(self, help_text: dict | None = None) -> str:
        """Render the registry in Prometheus text exposition format.

        One ``# HELP`` / ``# TYPE`` header pair per metric name (first
        occurrence), then one sample line per instrument; histograms
        expand into cumulative ``_bucket{le=...}`` series plus ``_sum``
        and ``_count``.  ``help_text`` maps metric names to their HELP
        line (defaulting to the
        :data:`~repro.observability.records.METRIC_FIELDS` glossary).
        """
        if help_text is None:
            from .records import METRIC_FIELDS
            help_text = METRIC_FIELDS
        lines: list[str] = []
        seen: set[str] = set()
        for instrument in self.instruments():
            name = instrument.name
            if name not in seen:
                seen.add(name)
                description = " ".join(
                    help_text.get(name, name).split()
                )
                kind = self._kinds[name]
                lines.append(f"# HELP {name} {description}")
                lines.append(f"# TYPE {name} {kind}")
            labels = instrument.labels
            if isinstance(instrument, Histogram):
                cumulative = 0
                for bound, count in zip(instrument.bounds,
                                        instrument.counts):
                    cumulative += count
                    le = {**labels, "le": repr(bound)}
                    lines.append(
                        f"{name}_bucket{render_labels(le)} {cumulative}"
                    )
                cumulative += instrument.counts[-1]
                inf = {**labels, "le": "+Inf"}
                lines.append(
                    f"{name}_bucket{render_labels(inf)} {cumulative}"
                )
                lines.append(f"{name}_sum{render_labels(labels)} "
                             f"{instrument.sum}")
                lines.append(f"{name}_count{render_labels(labels)} "
                             f"{instrument.count}")
            else:
                lines.append(f"{name}{render_labels(labels)} "
                             f"{instrument.value}")
        return "\n".join(lines) + ("\n" if lines else "")
