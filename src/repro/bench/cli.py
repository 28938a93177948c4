"""Argument handling for ``repro bench`` and ``repro trace``.

Dispatched from :func:`repro.cli.main` before the experiment parser::

    python -m repro bench --label local            # run the suite
    python -m repro bench --scale 0.25 --label ci  # reduced CI grid
    python -m repro bench compare A.json B.json    # regression gate
    python -m repro trace summarize run.jsonl      # RunReport summary

``bench`` writes ``BENCH_<label>.json`` into ``--output-dir`` and
prints per-case progress; ``bench compare`` prints the per-case delta
table and exits 1 when a case regressed beyond the threshold.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .compare import (
    DEFAULT_MIN_KIB,
    DEFAULT_MIN_SECONDS,
    DEFAULT_THRESHOLD,
    compare_benches,
)
from .harness import (
    default_output_path,
    load_bench,
    run_suite,
    write_bench,
)
from .suite import SUITE, cases_by_name


def _build_run_parser() -> argparse.ArgumentParser:
    """Parser of the suite-running form of ``repro bench``."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description=("Run the pinned performance suite and write a "
                     "BENCH_<label>.json snapshot"),
    )
    parser.add_argument("--label", default="local",
                        help="snapshot label (file: BENCH_<label>.json)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier (CI uses 0.25)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload synthesis seed")
    parser.add_argument("--output-dir", type=Path, default=Path("."),
                        help="directory the snapshot is written into")
    parser.add_argument(
        "--case", action="append", default=None, metavar="NAME",
        help=("run only the named case(s); prefixes match "
              "(e.g. --case backend/); repeatable"),
    )
    parser.add_argument("--list", action="store_true",
                        help="list the pinned cases and exit")
    return parser


def _build_compare_parser() -> argparse.ArgumentParser:
    """Parser of ``repro bench compare``."""
    parser = argparse.ArgumentParser(
        prog="repro bench compare",
        description=("Diff two BENCH snapshots; exit 1 when a case "
                     "regressed beyond the noise threshold"),
    )
    parser.add_argument("baseline", type=Path,
                        help="baseline BENCH_*.json")
    parser.add_argument("candidate", type=Path,
                        help="candidate BENCH_*.json")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help=("acceptable slowdown factor (default "
                              f"{DEFAULT_THRESHOLD}; CI uses 2.0)"))
    parser.add_argument("--min-seconds", type=float,
                        default=DEFAULT_MIN_SECONDS,
                        help="absolute wall-time noise floor in seconds")
    parser.add_argument("--min-kib", type=int, default=DEFAULT_MIN_KIB,
                        help="absolute traced-memory noise floor in KiB")
    return parser


def bench_main(argv: list[str]) -> int:
    """Entry point of ``repro bench [compare]``; returns exit code."""
    if argv and argv[0] == "compare":
        args = _build_compare_parser().parse_args(argv[1:])
        try:
            result = compare_benches(
                load_bench(args.baseline), load_bench(args.candidate),
                threshold=args.threshold,
                min_seconds=args.min_seconds,
                min_kib=args.min_kib,
            )
        except ValueError as error:
            print(f"bench compare: {error}", file=sys.stderr)
            return 2
        print(result.render())
        return 0 if result.ok else 1

    args = _build_run_parser().parse_args(argv)
    if args.list:
        for case in SUITE:
            print(f"{case.name:<28} {case.description}")
        return 0
    try:
        cases = (None if args.case is None
                 else cases_by_name(args.case))
    except ValueError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    snapshot = run_suite(args.label, scale=args.scale,
                         seed=args.seed, cases=cases)
    path = write_bench(
        snapshot, default_output_path(args.label, args.output_dir)
    )
    print(f"wrote {path}")
    return 0


def trace_main(argv: list[str]) -> int:
    """Entry point of ``repro trace``; returns exit code."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Inspect JSONL trace files",
    )
    parser.add_argument("command", choices=["summarize"],
                        help="trace operation (summarize: RunReport)")
    parser.add_argument("path", type=Path, help="JSONL trace file")
    args = parser.parse_args(argv)
    from ..observability import RunReport
    if not args.path.exists():
        print(f"trace: no such file: {args.path}", file=sys.stderr)
        return 2
    print(RunReport.from_file(args.path).summary())
    return 0
