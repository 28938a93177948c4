"""The metric catalogue: ``BENCHMARK.json`` plus workload-specific extras.

``BENCHMARK.json`` lists the metrics every workload emits: the
end-to-end metrics a regression gate compares, and the per-layer
metrics of the traced run.  Some user-visible numbers exist on only
some workloads (read latency has no batch analogue); they are recorded
in each result file as *extras*, with bounds here, and compared by
``compare.py`` like the gated metrics.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}
WORKLOAD_NAMES = tuple(w["name"] for w in BENCHMARK["workloads"])

#: name -> unit, direction and bound (share of the base median; None
#: is reported but never judged)
EXTRAS = {
    "solve_iqr_s": {"unit": "s", "better": "lower", "bound": None},
    "ingest_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
    "ingest_p99_ms": {"unit": "ms", "better": "lower", "bound": 0.5},
    "read_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
    "read_p99_ms": {"unit": "ms", "better": "lower", "bound": 0.5},
    "mnad": {"unit": "ratio", "better": "lower", "bound": 0.0},
    "error_rate": {"unit": "ratio", "better": "lower", "bound": 0.0},
}


def metric_spec(name: str) -> dict | None:
    """Unit, direction and bound of an end-to-end metric or extra."""
    return END_TO_END.get(name) or EXTRAS.get(name)
