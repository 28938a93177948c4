"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py --base A/*.json --head B/*.json

For every workload and end-to-end metric (the gated ones in
``BENCHMARK.json`` and the extras in ``catalog.py``) it prints each
side's median and quartiles, the share of paired runs the head wins
(runs pair by seed; ties count for neither side) and a verdict:

* ``regressed`` — the head median is worse than the base median by more
  than the metric's bound;
* ``improved`` — the head wins at least 9 of 10 pairs and its median is
  better by more than the base's own quartile spread;
* ``unresolved`` — the base's quartile spread is wider than the bound,
  unless every head run reads better (``improved``) or worse
  (``regressed``) than every base run;
* ``unchanged`` — otherwise, including when every pair ties exactly.

It also prints the change in the share of failed operations.  The exit
status is 1 when any row regressed or failures rose.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import catalog  # noqa: E402

WIN_SHARE = 0.9


def load(paths: list[Path]) -> dict[str, dict[int, dict]]:
    """workload -> seed -> that run's result."""
    runs: dict[str, dict[int, dict]] = {}
    for path in paths:
        document = json.loads(Path(path).read_text())
        for workload, result in document["workloads"].items():
            runs.setdefault(workload, {})[document["seed"]] = result
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], head: list[float],
            pairs: list[tuple[float, float]], better: str,
            bound: float | None) -> str:
    if bound is None:
        return "info"
    if all(a == b for a, b in pairs):
        return "unchanged"
    sign = 1.0 if better == "lower" else -1.0

    def beats(x: float, y: float) -> bool:
        return sign * (y - x) > 0

    q1, base_median, q3 = quartiles(base)
    scale = abs(base_median) or 1.0
    spread = (q3 - q1) / scale
    worse = sign * (quartiles(head)[1] - base_median) / scale
    if spread > bound:
        if all(beats(h, b) for h in head for b in base):
            return "improved"
        if all(beats(b, h) for h in head for b in base):
            return "regressed"
        return "unresolved"
    if worse > bound:
        return "regressed"
    wins = sum(beats(h, b) for b, h in pairs)
    if wins >= WIN_SHARE * len(pairs) and -worse > spread:
        return "improved"
    return "unchanged"


def values_of(result: dict) -> dict:
    return {**result.get("metrics", {}), **result.get("extras", {})}


def compare(base_runs: dict, head_runs: dict) -> tuple[list[list], bool]:
    rows: list[list] = []
    failing = False
    for workload in catalog.WORKLOAD_NAMES:
        base = base_runs.get(workload, {})
        head = head_runs.get(workload, {})
        if not base or not head:
            continue
        shared = sorted(set(base) & set(head))
        if shared:
            paired = [(base[s], head[s]) for s in shared]
        else:
            paired = list(zip((base[s] for s in sorted(base)),
                              (head[s] for s in sorted(head))))
        names = [n for n in (*catalog.END_TO_END, *catalog.EXTRAS)
                 if all(n in values_of(r) for r in
                        (*base.values(), *head.values()))]
        for name in names:
            spec = catalog.metric_spec(name)
            a = [values_of(r)[name] for r in base.values()]
            b = [values_of(r)[name] for r in head.values()]
            pairs = [(values_of(x)[name], values_of(y)[name])
                     for x, y in paired]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            wins = sum(sign * (y - x) < 0 for x, y in pairs)
            outcome = verdict(a, b, pairs, spec["better"], spec["bound"])
            failing = failing or outcome == "regressed"
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            rows.append([workload, name, spec["unit"], qa, qb, change,
                         f"{wins}/{len(pairs)}", outcome])

        def failed_share(runs):
            attempted = sum(r["attempted"] for r in runs.values())
            return sum(r["failed"] for r in runs.values()) / attempted

        delta = failed_share(head) - failed_share(base)
        failing = failing or delta > 0
        rows.append([workload, "failed_share", "ratio", None, None, delta,
                     "", "regressed" if delta > 0 else "unchanged"])
    return rows, failing


def render(rows: list[list]) -> str:
    def q(triple):
        if triple is None:
            return ""
        q1, median, q3 = triple
        return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"

    header = ["workload", "metric", "unit", "base median [q1, q3]",
              "head median [q1, q3]", "change", "head wins", "verdict"]
    table = [header] + [
        [w, m, u, q(a), q(b), f"{c:+.1%}" if a is not None else f"{c:+.4f}",
         wins, v]
        for w, m, u, a, b, c, wins, v in rows
    ]
    widths = [max(len(str(row[i])) for row in table)
              for i in range(len(header))]
    return "\n".join("  ".join(str(cell).ljust(width)
                               for cell, width in zip(row, widths)).rstrip()
                     for row in table)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True,
                        help="result files of the parent")
    parser.add_argument("--head", nargs="+", type=Path, required=True,
                        help="result files of the change")
    args = parser.parse_args(argv)
    rows, failing = compare(load(args.base), load(args.head))
    print(render(rows))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
