"""Run the repository benchmark.

    PYTHONPATH=src python3 perfbench/run.py --seed 1            # all workloads
    python3 perfbench/run.py --workload batch_adult --seed 1 --seconds 10
    python3 perfbench/run.py --workload serve_late --seed 1 --trace 1

Each workload runs in a fresh child process (``child.py``) against the
``src/`` tree of the checkout this file sits in; another child first
generates its inputs from ``--seed``.  Untraced runs also start
four set-up probes, so ``setup_s`` is a median of five set-ups.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``; a per-layer
metric the workload does not have reads 0 there, and ``null`` with its
reason in the result file).  The full result, with provenance, goes to
``--out`` (default ``perfbench/out/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4
#: a run must finish well inside the three minutes it is allowed
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
import catalog  # noqa: E402


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def provenance() -> dict:
    """Git state of the code under test and the machine measuring it."""
    info = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "cpus": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "memory_gib": round(os.sysconf("SC_PAGE_SIZE")
                            * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    try:
        import numpy
        info["numpy"] = numpy.__version__
    except ImportError:
        pass
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args],
                                  capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        info["git_commit"] = git("rev-parse", "HEAD")
        info["git_src_dirty"] = bool(git("status", "--porcelain", "--",
                                         "src"))
    return info


def _run_child(args: list[str], env: dict, deadline: float) -> dict:
    """Run ``child.py`` to completion; its last stdout line is JSON."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        stdout=subprocess.PIPE, env=env, cwd=str(ROOT), text=True,
        start_new_session=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(workload: str, args, deadline: float) -> dict:
    """Prepare inputs, take set-up samples, run the workload child."""
    work = OUT / f"work-{workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        # the mmap engine spills to the temp directory
        "TMPDIR": str(work / "tmp"),
    })
    common = ["--workload", workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--scale", str(args.scale),
              "--work", str(work)]
    try:
        _run_child([*common, "--prepare"], env, deadline)
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_run_child(
                    [*common, "--probe"], env, deadline)["setup"])
        spans = args.spans or OUT / f"{workload}-s{args.seed}-spans.jsonl"
        child_args = [*common, "--trace", str(args.trace)]
        if args.trace:
            child_args += ["--spans", str(spans)]
        result = _run_child(child_args, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    measured = Path(result.pop("repro"))
    if measured != ROOT / "src" / "repro":
        raise RuntimeError(f"measured {measured}, not this checkout")
    setups.append(result["setup"])
    result["setup_samples"] = setups
    result["metrics"]["setup_s"] = statistics.median(
        sample["setup_s"] for sample in setups)
    result["metrics"]["peak_rss_mib"] = result.pop("peak_rss_mib")
    result["attempted"] += len(setups) - 1
    result["correct"] = result["failed"] == 0 and all(
        result["checks"].values())
    return result


def result_line(result: dict, trace: bool) -> dict:
    """The last output line: the gated metrics with their units."""
    if trace:
        values = {name: result["layers"].get(name)
                  for name in catalog.PER_LAYER}
        specs = catalog.PER_LAYER
    else:
        values = {name: result["metrics"][name]
                  for name in catalog.END_TO_END}
        specs = catalog.END_TO_END
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": 0.0 if value is None else value,
                   "unit": specs[name]["unit"]}
            for name, value in values.items()
        },
    }


def report(workload: str, result: dict, trace: bool) -> None:
    """Human-readable lines: every metric by name and unit."""
    print(f"== {workload}  correct={result['correct']}  "
          f"attempted={result['attempted']}  failed={result['failed']}")
    if trace:
        reasons = result["layer_reasons"]
        for name, spec in catalog.PER_LAYER.items():
            value = result["layers"].get(name)
            shown = (f"{value:.6g} {spec['unit']}" if value is not None
                     else f"null ({reasons.get(name, 'not measured')})")
            print(f"  {name:34s} {shown}")
    else:
        for name, spec in catalog.END_TO_END.items():
            print(f"  {name:34s} {result['metrics'][name]:.6g} "
                  f"{spec['unit']}")
        for name, value in result["extras"].items():
            unit = catalog.EXTRAS[name]["unit"]
            print(f"  {name:34s} {value:.6g} {unit}")
    for name, ok in result["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", *catalog.WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=catalog.BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (tests use 0.05)")
    parser.add_argument("--out", type=Path, default=None,
                        help="result JSON path")
    parser.add_argument("--spans", type=Path, default=None,
                        help="span JSONL path for --trace 1")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no src/repro package under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    names = (catalog.WORKLOAD_NAMES if args.workload == "all"
             else (args.workload,))
    results = {}
    for workload in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            results[workload] = run_workload(workload, args, deadline)
        except Exception as error:  # report, print no result line
            return _fail(f"{workload}: {error!r}")
        report(workload, results[workload], bool(args.trace))
    document = {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": bool(args.trace),
        "provenance": provenance(),
        "workloads": results,
    }
    OUT.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    out = args.out or OUT / f"{args.workload}-s{args.seed}{suffix}.json"
    out.write_text(json.dumps(document, indent=1, sort_keys=True))
    for workload in names:
        print(json.dumps(result_line(results[workload], bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
