"""Command-line entry point: regenerate any table or figure.

Usage::

    crh-repro list
    crh-repro table2
    crh-repro fig8 --seed 5
    crh-repro all --output results.md
    crh-repro table2 --scale 3        # 3x larger stock/flight workloads
    crh-repro table2 --backend sparse # CSR claims execution everywhere
    crh-repro profile                 # conflict/density/memory profile
    crh-repro trace summarize run.jsonl  # RunReport summary of a trace
    crh-repro top --check serve.prom     # validate a metrics exposition
    python -m repro table6

Each experiment prints the same rows/series the paper's table or figure
reports (see EXPERIMENTS.md for paper-vs-measured commentary).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable

from . import experiments as exp
from .engine import BACKEND_NAMES, set_default_workers, use_default_backend
from .observability import JsonlTracer, RunReport, experiment_record
from .observability.tracer import Tracer

_EXPERIMENTS: dict[str, tuple[str, Callable[..., object]]] = {
    "table1": ("real-world dataset statistics", exp.run_table1),
    "table2": ("method comparison on real-world data", exp.run_table2),
    "fig1": ("source reliability recovery on weather", exp.run_fig1),
    "table3": ("simulated dataset statistics", exp.run_table3),
    "table4": ("method comparison on simulated data", exp.run_table4),
    "fig2": ("accuracy vs #reliable sources (Adult)",
             lambda seed: exp.run_reliable_sources_sweep("Adult", seed=seed)),
    "fig3": ("accuracy vs #reliable sources (Bank)",
             lambda seed: exp.run_reliable_sources_sweep("Bank", seed=seed)),
    "table5": ("CRH vs incremental CRH", exp.run_table5),
    "fig4": ("I-CRH weight trajectories", exp.run_fig4),
    "fig5": ("I-CRH accuracy vs time window", exp.run_fig5),
    "fig6": ("I-CRH accuracy vs decay rate", exp.run_fig6),
    "table6": ("parallel CRH time vs #observations", exp.run_table6),
    "fig7": ("parallel CRH linear scaling", exp.run_fig7),
    "fig8": ("parallel CRH time vs #reducers", exp.run_fig8),
    "ablation-losses": ("loss-function choices", exp.run_ablation_losses),
    "ablation-norm": ("max vs sum weight normalizer",
                      exp.run_ablation_weight_norm),
    "ablation-init": ("truth initialization", exp.run_ablation_init),
    "ablation-joint": ("joint vs per-type estimation",
                       exp.run_ablation_joint),
    "ablation-selection": ("weight combination vs source selection",
                           exp.run_ablation_selection),
    "ablation-finegrained": ("global vs fine-grained weights",
                             exp.run_ablation_finegrained),
}

#: ablations take seeds=(...) like table2/table4
_ABLATIONS = {name for name in _EXPERIMENTS if name.startswith("ablation")}

_SEEDED_WITH_SEEDS = {"table2", "table4"}       # take seeds=(...)
_SEEDLESS = {"fig2", "fig3"}                    # wrapped above
_SCALED = {"table1", "table2", "table5"}        # accept scale=


def build_parser() -> argparse.ArgumentParser:
    """Build the crh-repro argument parser."""
    parser = argparse.ArgumentParser(
        prog="crh-repro",
        description=("Reproduce the tables and figures of the CRH paper "
                     "(SIGMOD 2014 / TKDE 2016)"),
    )
    parser.add_argument(
        "experiment",
        help="experiment id (e.g. table2, fig8) or 'list' or 'all'",
    )
    parser.add_argument("--seed", type=int, default=1,
                        help="base random seed (default 1)")
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help=("workload size multiplier for the real-world experiments "
              "(table1/table2/table5); ~10 approximates the paper's full "
              "stock scale"),
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="also append rendered results to this file (markdown-ish)",
    )
    parser.add_argument(
        "--trace", type=Path, default=None,
        help=("write one JSONL 'experiment' record per experiment "
              "(name, seed, wall seconds) to this file and print a "
              "RunReport summary (see docs/OBSERVABILITY.md)"),
    )
    parser.add_argument(
        "--backend", choices=BACKEND_NAMES, default="auto",
        help=("execution backend every solver resolves 'auto' to: dense "
              "(K, N) matrices (explicit only), sparse CSR claims, "
              "process (shared-memory worker pool), or mmap (out-of-core "
              "chunked execution); results are bit-identical (default: "
              "sparse in RAM, process for large median-heavy claim sets "
              "on multi-CPU hosts, mmap past the memory cap)"),
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help=("worker process count for the process backend (default: "
              "the usable CPU count); ignored by other backends"),
    )
    return parser


def _run_profile(seed: int, output: Path | None) -> None:
    """Profile the generated workloads: conflicts, density, memory."""
    from .data.profile import profile_dataset
    from .datasets import (
        generate_flight_dataset,
        generate_stock_dataset,
        generate_weather_dataset,
    )
    sections: list[str] = []
    for name, generate in (("Weather", generate_weather_dataset),
                           ("Stock", generate_stock_dataset),
                           ("Flight", generate_flight_dataset)):
        rendered = profile_dataset(generate(seed=seed).dataset).render()
        print(f"== profile: {name}")
        print(rendered)
        print()
        sections.append(f"## profile: {name}\n\n```\n{rendered}\n```\n")
    if output is not None:
        with output.open("a") as handle:
            handle.write("\n".join(sections))


def _run_one(name: str, seed: int, scale: float,
             output: Path | None, tracer: Tracer | None = None) -> None:
    description, runner = _EXPERIMENTS[name]
    print(f"== {name}: {description}")
    started = time.perf_counter()
    kwargs = {}
    if name in _SCALED and scale != 1.0:
        kwargs["scale"] = scale
    if name in _SEEDED_WITH_SEEDS or name in _ABLATIONS:
        result = runner(seeds=(seed, seed + 1, seed + 2), **kwargs)
    elif name in _SEEDLESS:
        result = runner(seed)
    else:
        result = runner(seed=seed, **kwargs)
    rendered = result.render()
    print(rendered)
    elapsed = time.perf_counter() - started
    print(f"[{name} finished in {elapsed:.1f}s]\n")
    if tracer is not None:
        tracer.emit(experiment_record(
            name, seed=seed, elapsed_seconds=elapsed,
        ))
    if output is not None:
        with output.open("a") as handle:
            handle.write(f"## {name}: {description}\n\n```\n")
            handle.write(rendered)
            handle.write(f"\n```\n\n_{elapsed:.1f}s, seed {seed}_\n\n")


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
    if not args.path.exists():
        print(f"trace: no such file: {args.path}", file=sys.stderr)
        return 2
    print(RunReport.from_file(args.path).summary())
    return 0


def top_main(argv: list[str]) -> int:
    """Entry point of ``repro top --check FILE``; returns exit code.

    Syntax-checks a Prometheus exposition and asserts every serving
    metric is present; exits 1 on any failure.
    """
    from .observability.export import (
        check_exposition_file,
        exposition_metric_names,
    )

    parser = argparse.ArgumentParser(
        prog="repro top",
        description=("Validate a Prometheus exposition file: syntax "
                     "plus the serving metric names"),
    )
    parser.add_argument("--check", type=Path, required=True,
                        metavar="FILE",
                        help="Prometheus exposition file to validate")
    path = parser.parse_args(argv).check
    errors = check_exposition_file(path)
    if errors:
        for error in errors:
            print(f"metrics check: {error}", file=sys.stderr)
        return 1
    names = exposition_metric_names(path.read_text(encoding="utf-8"))
    print(f"metrics check: {path} OK "
          f"({len(names)} metric(s), all serving metrics present)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Tool subcommands live outside the experiment parser.
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "serve-sim":
        from .streaming.sim import serve_sim_main
        return serve_sim_main(argv[1:])
    if argv and argv[0] == "top":
        return top_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name, (description, _) in _EXPERIMENTS.items():
            print(f"{name:8s} {description}")
        print("profile  conflict / claim-density / memory profile of the "
              "generated workloads")
        print("trace    trace tools (trace summarize run.jsonl)")
        print("serve-sim  stream the weather workload through the "
              "truth-serving layer")
        print("top      validate a serving metrics exposition "
              "(top --check file.prom)")
        return 0
    if args.experiment == "profile":
        _run_profile(args.seed, args.output)
        return 0
    if args.experiment not in _EXPERIMENTS and args.experiment != "all":
        print(f"unknown experiment {args.experiment!r}; "
              f"try 'crh-repro list'", file=sys.stderr)
        return 2
    tracer = JsonlTracer(args.trace) if args.trace is not None else None
    set_default_workers(args.workers)
    try:
        with use_default_backend(args.backend):
            if args.experiment == "all":
                for name in _EXPERIMENTS:
                    _run_one(name, args.seed, args.scale, args.output,
                             tracer)
            else:
                _run_one(args.experiment, args.seed, args.scale,
                         args.output, tracer)
    finally:
        set_default_workers(None)
        if tracer is not None:
            tracer.close()
    if args.trace is not None:
        print(RunReport.from_file(args.trace).summary())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
