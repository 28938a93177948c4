"""Shared experiment harness: run method columns over datasets.

The Table 2 / Table 4 experiments all have the same shape — every
registered conflict-resolution method evaluated on every dataset by Error
Rate and MNAD — so one harness runs them.  Results are averaged over
seeds to keep single-seed flukes out of the recorded tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..baselines import PAPER_METHOD_ORDER, resolver_by_name
from ..data.schema import PropertyKind
from ..datasets.base import GeneratedData
from ..metrics import error_rate, mnad
from ..observability import record
from ..observability.tracer import Tracer
from .render import render_table


@dataclass(frozen=True)
class MethodScore:
    """One method's averaged scores on one dataset."""

    method: str
    error_rate: float | None
    mnad: float | None
    seconds: float


@dataclass
class MethodTable:
    """A Table 2/4-shaped result: methods x (Error Rate, MNAD) per dataset."""

    title: str
    dataset_names: tuple[str, ...]
    scores: dict[str, list[MethodScore]] = field(default_factory=dict)

    def score(self, dataset: str, method: str) -> MethodScore:
        """One method's scores on one dataset."""
        for entry in self.scores[dataset]:
            if entry.method == method:
                return entry
        raise KeyError(f"no score for {method!r} on {dataset!r}")

    def render(self) -> str:
        """Render the method table as aligned text."""
        headers = ["Method"]
        for name in self.dataset_names:
            headers += [f"{name} ErrRate", f"{name} MNAD"]
        methods = [s.method for s in self.scores[self.dataset_names[0]]]
        rows = []
        for method in methods:
            row: list = [method]
            for dataset in self.dataset_names:
                entry = self.score(dataset, method)
                row += [entry.error_rate, entry.mnad]
            rows.append(row)
        return render_table(headers, rows, title=self.title)


def run_method_table(
    title: str,
    workloads: dict[str, Callable[[int], GeneratedData]],
    methods: Sequence[str] = PAPER_METHOD_ORDER,
    seeds: Sequence[int] = (1, 2, 3),
    tracer: Tracer | None = None,
) -> MethodTable:
    """Evaluate ``methods`` on each workload, averaging over ``seeds``.

    ``workloads`` maps a dataset name to a generator callable taking a
    seed.  Methods that cannot handle a data kind score ``None`` (the
    paper's "NA") for that kind's measure.  With a
    :class:`~repro.observability.Tracer`, every individual fit emits one
    ``method_run`` record (dataset, method, seed, wall time, scores) —
    the raw points behind the averaged table.
    """
    tracing = tracer is not None
    table = MethodTable(title=title, dataset_names=tuple(workloads))
    for dataset_name, generate in workloads.items():
        per_method: dict[str, dict[str, list[float]]] = {
            m: {"err": [], "mnad": [], "sec": []} for m in methods
        }
        for seed in seeds:
            generated = generate(seed)
            for method in methods:
                resolver = resolver_by_name(method)
                result = resolver.fit_timed(generated.dataset)
                acc = per_method[method]
                acc["sec"].append(result.elapsed_seconds)
                rate = distance = None
                if resolver.handles_kind(PropertyKind.CATEGORICAL):
                    rate = error_rate(result.truths, generated.truth)
                    if rate is not None:
                        acc["err"].append(rate)
                if resolver.handles_kind(PropertyKind.CONTINUOUS):
                    distance = mnad(result.truths, generated.truth)
                    if distance is not None:
                        acc["mnad"].append(distance)
                if tracing:
                    tracer.emit(record(
                        "method_run",
                        dataset=dataset_name,
                        method=method,
                        seed=seed,
                        elapsed_seconds=result.elapsed_seconds,
                        error_rate=rate,
                        mnad=distance,
                    ))
        table.scores[dataset_name] = [
            MethodScore(
                method=method,
                error_rate=(float(np.mean(acc["err"]))
                            if acc["err"] else None),
                mnad=(float(np.mean(acc["mnad"]))
                      if acc["mnad"] else None),
                seconds=float(np.mean(acc["sec"])),
            )
            for method, acc in per_method.items()
        ]
    return table
