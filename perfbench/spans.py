"""In-memory spans for the traced run, recorded from outside the program.

The benchmark never edits ``src/``: it times a layer by replacing the
name its caller looks up (a module attribute or a class attribute) with
a wrapper that records a span, and puts the original back afterwards.
A target that no longer exists is reported as missing instead of
failing the run, so a later change that deletes a path does not have to
edit the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: span name -> list of (module, attribute path) whose calls it times.
#: Kernel targets cover inline execution only: process workers run in
#: other address spaces, where these wrappers are invisible.
TARGETS = {
    "engine.resolve": [("repro.core.solver", "make_backend")],
    "engine.runner_start": [
        ("repro.engine.process", "ProcessBackend.start_runner"),
        ("repro.engine.mmap", "MmapBackend.start_runner"),
    ],
    "engine.close": [
        ("repro.engine.process", "ProcessBackend.close"),
        ("repro.engine.mmap", "MmapBackend.close"),
    ],
    "core.init": [("repro.core.solver", "CRHSolver._initial_states")],
    "core.truth_step": [
        ("repro.core.sweep", "SweepContext.truth_step"),
        ("repro.engine.process", "_ProcessRunner.truth_step"),
        ("repro.engine.mmap", "_MmapRunner.truth_step"),
    ],
    "core.deviation": [
        ("repro.core.sweep", "SweepContext.per_source"),
        ("repro.engine.process", "_ProcessRunner.per_source"),
        ("repro.engine.mmap", "_MmapRunner.per_source"),
    ],
    "core.weight_step": [
        ("repro.core.regularizers", "ExponentialWeights.weights"),
    ],
    "core.finalize": [("repro.core.solver", "states_to_truth_table")],
    "core.kernel.median": [
        ("repro.core.kernels", "segment_weighted_median"),
    ],
    "core.kernel.vote": [("repro.core.kernels", "segment_weighted_vote")],
    "core.kernel.deviation": [
        ("repro.core.kernels", "zero_one_claim_deviations"),
        ("repro.core.kernels", "absolute_claim_deviations"),
    ],
    "core.kernel.accumulate": [
        ("repro.core.objective", "accumulate_source_deviations"),
        ("repro.streaming.icrh", "accumulate_source_deviations"),
    ],
    "streaming.seal": [
        ("repro.streaming.icrh", "IncrementalCRH.partial_fit"),
    ],
    "streaming.assemble": [
        ("repro.streaming.store", "ClaimStore.dataset_for"),
    ],
    "streaming.planner": [
        ("repro.streaming.planner", "RecomputePlanner.plan"),
    ],
    "streaming.resolve": [("repro.streaming.service", "resolve_truths")],
    "streaming.cache_write": [("repro.streaming.state", "TruthCache.store")],
    "streaming.publish": [("repro.streaming.state", "TruthCache.publish")],
}

#: copy-on-write buffer copies are counted, not timed: the wrapper
#: compares the array's copy counter before and after each call.
COW_TARGET = ("repro.streaming.store", "GrowableArray.writable")


def _resolve(module: str, path: str):
    """``(owner, attribute)`` for a target, or ``None`` if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


@contextmanager
def op_span(recorder, name: str):
    """One benchmark operation (a solve, ingest or read) as a top-level
    span with a fresh op id; does nothing without a recorder."""
    if recorder is None:
        yield
        return
    recorder.op += 1
    with recorder.span(name):
        yield


@contextmanager
def installed(recorder):
    """The recorder's wrappers, in place for the block only; does nothing
    without a recorder."""
    if recorder is None:
        yield
        return
    recorder.install()
    try:
        yield
    finally:
        recorder.uninstall()


class Recorder:
    """Spans kept in memory until the run ends.

    Each span is ``[name, start, end, parent, op]``: ``parent`` indexes
    the enclosing span on the same thread (-1 for none) and ``op`` is
    the benchmark operation (one solve, ingest or read) it belongs to.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self.missing: dict[str, str] = {}
        self.cow_copies = 0
        self.cow_bytes = 0
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.perf_counter(), 0.0,
                stack[-1] if stack else -1, self.op]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own call into a layer."""
        opened = self.begin(name)
        try:
            yield
        finally:
            self.end(opened)

    # ------------------------------------------------------------------
    def _patch(self, module: str, path: str, make) -> bool:
        found = _resolve(module, path)
        if found is None:
            return False
        owner, attr = found
        own = attr in vars(owner) if isinstance(owner, type) else True
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original, own))
        return True

    def install(self) -> None:
        """Wrap every target.  A layer none of whose targets exist any
        more is remembered as missing, named by its first target."""
        for name, targets in TARGETS.items():
            found = [self._patch(module, path,
                                 lambda fn, n=name: self._timed(fn, n))
                     for module, path in targets]
            if not any(found):
                self.missing[name] = ".".join(targets[0])
        if not self._patch(*COW_TARGET, self._cow_counted):
            self.missing["streaming.cow"] = ".".join(COW_TARGET)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _timed(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(opened)
        return wrapper

    def _cow_counted(self, fn):
        @functools.wraps(fn)
        def wrapper(array, *args, **kwargs):
            before = array.cow_copies
            out = fn(array, *args, **kwargs)
            if array.cow_copies != before:
                self.cow_copies += 1
                base = out.base if out.base is not None else out
                self.cow_bytes += base.nbytes
            return out
        return wrapper

    # ------------------------------------------------------------------
    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds, call count.

        Self time is a span's duration minus the durations of its direct
        children; children on one thread never overlap, so that is the
        part of the interval no child covers.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            entry["calls"] += 1
        return dict(out)

    def child_coverage(self, parent_name: str) -> float | None:
        """Share of ``parent_name`` spans' time covered by direct child
        spans, over all such spans."""
        parents = {i for i, span in enumerate(self.spans)
                   if span[0] == parent_name}
        if not parents:
            return None
        total = sum(self.spans[i][2] - self.spans[i][1] for i in parents)
        covered = sum(end - start for _, start, end, parent, _ in self.spans
                      if parent in parents)
        return covered / total if total > 0 else None

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")
