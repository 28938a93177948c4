"""One workload in a fresh process; prints one JSON line of results.

Started by ``run.py`` with ``PYTHONPATH`` at the checkout's ``src``.
Set-up time runs from this module's first statement to the end of
``load_dataset``/``TruthService.restore``, so it covers importing
``repro``.  ``--probe`` stops there (extra set-up samples);
``--prepare`` only writes the inputs.  Inputs are generated in a
process of their own because Linux carries a process's peak RSS across
``exec``: a child forked from a parent that held the inputs would
report the parent's peak as its own.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import catalog  # noqa: E402
import workloads  # noqa: E402  (imports repro)

IMPORTED = time.perf_counter()

SETUP_SPEED_UNITS = 15


def peak_rss_mib() -> float:
    """High-water RSS of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Context:
    """What a workload body reads and fills in."""

    def __init__(self, args, handle, recorder) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.scale = args.scale
        self.work = Path(args.work)
        self.handle = handle
        self.recorder = recorder
        self.outcome = workloads.Outcome()
        self.metrics: dict = {}
        self.extras: dict = {}
        self.counts: dict = {}
        self.info: dict = {}
        self.inputs_digest = ""
        self.peak_rss_mib = 0.0

    def mark_peak(self) -> None:
        """Read peak memory once the measured phase is over, before
        correctness checks allocate their reference results."""
        self.peak_rss_mib = peak_rss_mib()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=catalog.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--prepare", action="store_true")
    args = parser.parse_args()
    if args.prepare:
        workloads.prepare(args.workload, args.seed, args.seconds,
                          args.scale, Path(args.work))
        print("{}")
        return

    recorder = None
    if args.trace:
        from spans import Recorder
        recorder = Recorder()
    loading = time.perf_counter()
    handle = workloads.setup(args.workload, Path(args.work))
    ready = time.perf_counter()
    # set-up time at reference speed; the speed sample comes after ready,
    # its first unit discarded (it pays the fresh process's page faults)
    speed = workloads.Speed()
    speed.factor(1)
    factor = speed.factor(SETUP_SPEED_UNITS)
    setup = {"setup_s": (ready - STARTED) / factor,
             "wall_setup_s": ready - STARTED,
             "import_s": IMPORTED - STARTED, "load_s": ready - loading}
    if args.probe:
        print(json.dumps({"setup": setup}))
        return

    ctx = Context(args, handle, recorder)
    body = (workloads.run_batch if args.workload.startswith("batch")
            else workloads.run_serve)
    out = body(ctx)
    result = {
        "setup": setup,
        "metrics": ctx.metrics,
        "extras": ctx.extras,
        "counts": ctx.counts,
        "info": ctx.info,
        "peak_rss_mib": ctx.peak_rss_mib,
        "checks": ctx.outcome.checks,
        "inputs_digest": ctx.inputs_digest,
        "repro": str(Path(sys.modules["repro"].__file__).resolve().parent),
    }
    if recorder is not None:
        import layers
        values, reasons = layers.measure(ctx, out)
        values["import_s"] = setup["import_s"]
        key = ("data.load_s" if args.workload.startswith("batch")
               else "streaming.restore_s")
        values[key] = setup["load_s"]
        result["layers"] = values
        result["layer_reasons"] = reasons
        result["missing"] = recorder.missing
        if args.spans:
            recorder.write_jsonl(args.spans)
    result["attempted"] = ctx.outcome.attempted
    result["failed"] = ctx.outcome.failed
    print(json.dumps(result))


if __name__ == "__main__":
    main()
