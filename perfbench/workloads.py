"""Workload inputs and bodies: what one benchmark child process runs.

Four workloads, each generated from ``--seed`` alone:

* ``batch_adult`` — Adult-sim (8 sources x 14 mixed properties, every
  source claims every entry), the paper's heterogeneous case.  ``auto``
  resolves to dense, so the inline vote and median kernels do the work.
* ``batch_sparse`` — 200 sources of known noise over 2 continuous
  properties at ~3% density.  Past the process-upgrade threshold on a
  multi-CPU machine ``auto`` picks the process backend, so engine
  resolution, the worker pool and the median kernel do the work; no
  vote kernel runs.
* ``serve_stream`` — an in-order weather stream through a restored
  ``TruthService``: an open loop of ingests and uniform single-object
  reads, then closed-loop updates and a catch-up.  Store, seal,
  re-resolving the open window and truth-cache copy-on-write do the
  work.
* ``serve_late`` — the same stream with ~10% of claims delivered after
  their window sealed and heavier reads skewed toward recent objects,
  so the dirty-set path (planner -> resolve_truths -> publish) works
  and contends with reads.

Timed solves run a fixed number of iterations (convergence is switched
off through ``patience``): where a seed's solve happens to converge one
iteration earlier is not a property of the code under test, and
letting it vary would hide a 10% regression in seed-to-seed noise.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import crh
from repro.data.claims_matrix import ClaimsMatrix, claims_from_arrays
from repro.data.io import load_dataset, save_dataset
from repro.data.schema import DatasetSchema, continuous
from repro.data.table import TruthTable
from repro.streaming import TruthService
from spans import installed, op_span

#: fixed work per timed solve: 10 iterations, never stopping early
SOLVE = {"max_iterations": 10, "patience": 10}
MIN_SOLVES = 5
MAX_SOLVES = 200

ADULT_CLAIMS = 1_600_000
ADULT_SOURCES = 8
SPARSE_SOURCES = 200
SPARSE_OBJECTS = 50_000
SPARSE_DENSITY = 0.03

#: claims per open-loop ingest call and per catch-up call
INGEST_BATCH = 100
CATCHUP_BATCH = 1_000
#: closed-loop calls between two machine-speed samples
SEGMENT_CALLS = 25
#: calibration units sampled before and after the open loop
LOOP_SPEED_UNITS = 20
WARM_CLAIMS = 200_000
#: claims ingested back to back in INGEST_BATCH calls after the open loop
UPDATE_CLAIMS = 100_000
CATCHUP_CLAIMS = 300_000
#: weather claims per day: 20 cities x 9 sources x 3 properties, less
#: the generator's ~11.5% missing observations (rounded down for slack)
CLAIMS_PER_DAY = 470
CITIES = 20

#: sanity limits on accuracy: a result past these is wrong, not slow
ACCURACY_LIMITS = {
    "batch_adult": {"mnad": 0.05, "error_rate": 0.05},
    "batch_sparse": {"mnad": 0.10},
    "serve_stream": {"mnad": 0.25, "error_rate": 0.60},
    "serve_late": {"mnad": 0.25, "error_rate": 0.60},
}


@dataclass(frozen=True)
class ServeSpec:
    """The open-loop traffic mix of one serve workload."""

    #: open-loop claim rate (claims/s), delivered as INGEST_BATCH calls
    claim_rate: float
    #: open-loop single-object get_truth rate (reads/s)
    read_rate: float
    #: share of claims (never an object's first) delivered late
    late_share: float
    #: mean age in days of read targets; None reads uniformly
    recent_days: float | None


#: Rates sit at about 60% of the rate where generator lag starts to
#: grow (2-CPU Xeon VM: ~22k claims/s for serve_stream, ~20k for
#: serve_late).  Poisson arrivals, because fixed intervals alias the
#: read and ingest schedules.
SERVE_SPECS = {
    "serve_stream": ServeSpec(14_000, 500, 0.0, None),
    "serve_late": ServeSpec(12_000, 1_000, 0.10, 3.0),
}


class Outcome:
    """Operations attempted and failed; a failed check is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}

    def op(self, fn, *args, **kwargs):
        """Run one operation; an exception counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        self.checks[name] = bool(ok)
        if not ok:
            self.failed += 1


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


#: wall seconds of one calibration unit on the host the committed
#: results were recorded on (2-vCPU Xeon VM)
REFERENCE_UNIT_S = 0.009


class Speed:
    """The host's current speed, sampled next to measured operations.

    A shared host drifts by 10-20% over minutes, more than a regression
    bound.  A fixed unit of CPU work that the code under test cannot
    change (a NumPy gather and sort, then an interpreter loop) is timed
    around each measured operation; a time divided by the local speed
    factor is that time at the reference speed.  Raw wall times are
    reported beside the normalized ones.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.random(400_000)
        self._index = rng.integers(0, 400_000, 400_000)
        self._scratch = np.empty_like(self._values)

    def factor(self, units: int = 2) -> float:
        """Median unit time over the reference: above 1 on a slow host.

        The unit allocates nothing, so its time does not depend on the
        state the measured code left the allocator in.
        """
        times = []
        for _ in range(units):
            started = time.perf_counter()
            np.take(self._values, self._index, out=self._scratch)
            self._scratch.sort()
            total = 0
            for i in range(60_000):
                total += i * i
            times.append(time.perf_counter() - started)
        return statistics.median(times) / REFERENCE_UNIT_S


# ----------------------------------------------------------------------
# batch inputs
# ----------------------------------------------------------------------

def _sparse_schema() -> DatasetSchema:
    return DatasetSchema.of(continuous("x"), continuous("y"))


def _sparse_truth_columns(seed: int, n_objects: int) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, 0])
    return [rng.normal(50.0, 10.0, n_objects).round(2) for _ in range(2)]


def _sparse_claims(seed: int, scale: float) -> ClaimsMatrix:
    """Sources with log-uniform noise claim ~SPARSE_DENSITY of objects;
    every object gets at least one claim per property."""
    n_objects = max(100, round(SPARSE_OBJECTS * scale))
    truths = _sparse_truth_columns(seed, n_objects)
    rng = np.random.default_rng([seed, 1])
    sigma = np.exp(rng.uniform(np.log(0.2), np.log(5.0), SPARSE_SOURCES))
    columns = {}
    for prop, truth in zip(_sparse_schema(), truths):
        sources, objects = [], []
        for k in range(SPARSE_SOURCES):
            count = rng.binomial(n_objects, SPARSE_DENSITY)
            sources.append(np.full(count, k, dtype=np.int32))
            objects.append(rng.choice(n_objects, count, replace=False))
        src = np.concatenate(sources)
        obj = np.concatenate(objects).astype(np.int32)
        orphans = np.setdiff1d(np.arange(n_objects), obj)
        src = np.concatenate(
            [src, rng.integers(0, SPARSE_SOURCES, orphans.size)
             .astype(np.int32)])
        obj = np.concatenate([obj, orphans.astype(np.int32)])
        values = truth[obj] + rng.normal(0.0, 1.0, obj.size) * sigma[src]
        columns[prop.name] = (values.round(2), src, obj)
    return claims_from_arrays(
        _sparse_schema(),
        [f"s{k:03d}" for k in range(SPARSE_SOURCES)],
        [f"o{i}" for i in range(n_objects)],
        columns,
    )


def batch_dataset(workload: str, seed: int, scale: float) -> ClaimsMatrix:
    """The claims a batch workload solves, stored sparse so that
    ``load_dataset`` is an npz read, not a CSV parse."""
    if workload == "batch_adult":
        from repro.experiments.scaling import _adult_workload
        dense = _adult_workload(round(ADULT_CLAIMS * scale),
                                ADULT_SOURCES, seed)
        return ClaimsMatrix.from_dense(dense)
    return _sparse_claims(seed, scale)


def batch_truth(workload: str, seed: int, dataset) -> TruthTable:
    """Ground truth for a batch workload, regenerated from the seed."""
    if workload == "batch_adult":
        from repro.datasets import generate_adult_truth
        return generate_adult_truth(dataset.n_objects, seed)
    return TruthTable(
        schema=dataset.schema,
        object_ids=dataset.object_ids,
        columns=_sparse_truth_columns(seed, dataset.n_objects),
        codecs={},
    )


# ----------------------------------------------------------------------
# serve inputs
# ----------------------------------------------------------------------

@dataclass
class Stream:
    """A serve workload's claim stream and its ground truth."""

    dataset: object          # the timestamped weather dataset
    truth: TruthTable        # its partial ground truth
    claims: list
    warm: int                # claims already in the restored snapshot
    #: distinct objects among the first i claims, for i in 0..len
    seen_prefix: np.ndarray
    #: object ids in first-appearance order
    objects: list


def serve_stream(workload: str, seed: int, seconds: float,
                 scale: float) -> Stream:
    """The weather claim stream for a serve workload.

    Whole days, as many as fit the warm prefix, the open loop at its
    claim rate, the updates and the catch-up, so that every seed stores
    about the same number of claims; in time order for ``serve_stream``,
    with late claims pushed 2-10 days back for ``serve_late``.
    """
    from repro.datasets.weather import WeatherConfig, generate_weather_dataset
    from repro.streaming import iter_dataset_claims

    spec = SERVE_SPECS[workload]
    warm = round(WARM_CLAIMS * scale)
    total = (warm + spec.claim_rate * scale * seconds
             + (UPDATE_CLAIMS + CATCHUP_CLAIMS) * scale)
    generated = generate_weather_dataset(
        WeatherConfig(n_cities=CITIES,
                      n_days=math.ceil(1.2 * total / CLAIMS_PER_DAY)),
        seed=seed)
    dataset = generated.dataset
    days = dataset.object_timestamps
    per_object = sum(np.diff(prop.claim_view().indptr)
                     for prop in dataset.properties)
    per_day = np.bincount(days, weights=per_object)
    kept_days = int(np.searchsorted(np.cumsum(per_day), total, side="right"))
    keep = np.flatnonzero(days < kept_days)
    dataset = dataset.select_objects(keep)
    claims = list(iter_dataset_claims(dataset))
    if spec.late_share:
        claims = _delay_late(claims, spec.late_share,
                             np.random.default_rng([seed, 2]))
    index: dict = {}
    seen = np.empty(len(claims) + 1, dtype=np.int64)
    seen[0] = 0
    for i, claim in enumerate(claims):
        index.setdefault(claim.object_id, len(index))
        seen[i + 1] = len(index)
    return Stream(dataset, generated.truth.select_objects(keep), claims,
                  warm, seen, list(index))


def _delay_late(claims: list, share: float, rng) -> list:
    """Deliver ``share`` of the claims (never an object's first) 2-10
    days of stream later than their place in time order."""
    n = len(claims)
    first = np.zeros(n, dtype=bool)
    seen: set = set()
    for i, claim in enumerate(claims):
        if claim.object_id not in seen:
            seen.add(claim.object_id)
            first[i] = True
    late = ~first & (rng.random(n) < share)
    position = np.arange(n, dtype=np.float64)
    position[late] += rng.uniform(2.0, 10.0, int(late.sum())) \
        * CLAIMS_PER_DAY
    return [claims[i] for i in np.argsort(position, kind="stable")]


def build_snapshot(stream: Stream, directory: Path) -> None:
    """Ingest the warm prefix and snapshot it (input preparation)."""
    dataset = stream.dataset
    service = TruthService(dataset.schema, window=1,
                           codecs=dataset.codecs())
    for start in range(0, stream.warm, 10_000):
        service.ingest(stream.claims[start:min(start + 10_000,
                                               stream.warm)])
    service.snapshot(directory)


INGEST, READ = 0, 1


def open_loop_schedule(stream: Stream, spec: ServeSpec, seconds: float,
                       scale: float, seed: int) -> list[tuple]:
    """Seeded Poisson arrivals: ``(due_s, INGEST, batch)`` and
    ``(due_s, READ, object_id)``, in due order.

    Read targets are objects already ingested when the read is due:
    uniform, or ``recent_days`` old on average (exponential ages).
    """
    rng = np.random.default_rng([seed, 3])

    def arrivals(rate: float) -> np.ndarray:
        count = int(rate * seconds * 1.5) + 20
        times = np.cumsum(rng.exponential(1.0 / rate, count))
        return times[times < seconds]

    ingest_times = arrivals(spec.claim_rate * scale / INGEST_BATCH)
    read_times = arrivals(spec.read_rate * scale)
    available = (len(stream.claims) - stream.warm
                 - round((UPDATE_CLAIMS + CATCHUP_CLAIMS) * scale)
                 ) // INGEST_BATCH
    ingest_times = ingest_times[:max(0, available)]
    events = sorted(
        [(t, INGEST) for t in ingest_times] + [(t, READ) for t in read_times]
    )
    schedule: list[tuple] = []
    position = stream.warm
    ages = (rng.exponential(spec.recent_days * CITIES, len(read_times))
            if spec.recent_days else rng.random(len(read_times)))
    reads = 0
    for due, kind in events:
        if kind == INGEST:
            batch = stream.claims[position:position + INGEST_BATCH]
            position += INGEST_BATCH
            schedule.append((float(due), INGEST, batch))
            continue
        seen = int(stream.seen_prefix[position])
        if spec.recent_days:
            target = max(0, seen - 1 - int(ages[reads]))
        else:
            target = min(seen - 1, int(ages[reads] * seen))
        reads += 1
        schedule.append((float(due), READ, stream.objects[target]))
    return schedule


def _wait_until(due: float) -> None:
    """Sleep, then spin the last fraction of a millisecond, so that
    wake-up jitter does not land in short read latencies."""
    remaining = due - time.perf_counter()
    if remaining > 0.0005:
        time.sleep(remaining - 0.0003)
    while time.perf_counter() < due:
        pass


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def same_truths(a: TruthTable, b: TruthTable) -> bool:
    return (len(a.columns) == len(b.columns)
            and all(np.array_equal(x, y, equal_nan=x.dtype.kind == "f")
                    for x, y in zip(a.columns, b.columns)))


def same_result(a, b) -> bool:
    return (np.array_equal(a.weights, b.weights)
            and same_truths(a.truths, b.truths))


def accuracy(workload: str, truths: TruthTable, truth: TruthTable,
             outcome: Outcome) -> dict:
    from repro.metrics import error_rate, mnad
    scores = {"mnad": mnad(truths, truth),
              "error_rate": error_rate(truths, truth)}
    scores = {k: v for k, v in scores.items() if v is not None}
    limits = ACCURACY_LIMITS[workload]
    outcome.check("accuracy_within_limits",
                  all(scores.get(k, math.inf) <= limit
                      for k, limit in limits.items()))
    return scores


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# workload bodies
# ----------------------------------------------------------------------

def prepare(workload: str, seed: int, seconds: float, scale: float,
            work: Path) -> None:
    """Write the inputs a workload's child process sets up from."""
    if workload.startswith("batch"):
        save_dataset(batch_dataset(workload, seed, scale), work / "dataset")
    else:
        build_snapshot(serve_stream(workload, seed, seconds, scale),
                       work / "snapshot")


def setup(workload: str, work: Path):
    """What a user pays before the first request: load or restore."""
    if workload.startswith("batch"):
        return load_dataset(work / "dataset")
    return TruthService.restore(work / "snapshot")


def _timed_solves(dataset, budget: float, outcome: Outcome, reference,
                  recorder=None) -> tuple[list[float], list[float], list]:
    """Fixed-work solves for ``budget`` seconds, at least MIN_SOLVES.

    Returns untraced and traced solve times, and the untraced times at
    reference speed (each divided by the mean speed factor sampled just
    before and just after it).  With a recorder, solves alternate
    untraced and traced, so drift in machine speed lands on both sides
    of the tracing-overhead ratio.
    """
    times: tuple[list[float], list[float]] = ([], [])
    sides = times if recorder is not None else times[:1]
    normalized: list[float] = []
    speed = Speed()
    factor = speed.factor()
    same = True
    deadline = time.perf_counter() + budget
    count = 0
    while (min(len(side) for side in sides) < MIN_SOLVES
           or (time.perf_counter() < deadline and count < MAX_SOLVES)):
        traced = recorder is not None and count % 2 == 1
        count += 1
        tracer = recorder if traced else None
        with installed(tracer), op_span(tracer, "solve"):
            started = time.perf_counter()
            result = outcome.op(crh, dataset, **SOLVE)
            elapsed = time.perf_counter() - started
        times[traced].append(elapsed)
        after = speed.factor()
        if not traced:
            normalized.append(elapsed / ((factor + after) / 2))
        factor = after
        same = same and result is not None and same_result(result,
                                                            reference)
    outcome.check("repeat_solves_identical", same)
    return times[0], times[1], normalized


def run_batch(ctx) -> dict:
    """Timed fixed-work ``crh()`` solves after one warm-up."""
    outcome = ctx.outcome
    dataset = ctx.handle
    warm = outcome.op(crh, dataset, **SOLVE)
    if warm is None:
        raise RuntimeError("warm-up solve failed")
    n_claims = int(dataset.n_observations())
    times, traced, normalized = _timed_solves(
        dataset, ctx.seconds, outcome, warm, ctx.recorder)
    out = {"times": times, "traced_times": traced, "backend": warm.backend,
           "iterations": warm.iterations}
    ctx.mark_peak()
    reference = outcome.op(crh, dataset, backend="sparse", **SOLVE)
    outcome.check("auto_matches_sparse_reference",
                  reference is not None and same_result(warm, reference))
    truth = batch_truth(ctx.workload, ctx.seed, dataset)
    scores = accuracy(ctx.workload, warm.truths, truth, outcome)
    solve_s = statistics.median(normalized)
    ctx.metrics.update({
        "claims_per_s": n_claims / solve_s,
        "update_p50_ms": solve_s * 1e3,
    })
    ctx.extras.update({
        "solve_iqr_s": quantile(normalized, 0.75)
        - quantile(normalized, 0.25),
        **scores,
    })
    ctx.info.update({"solve_samples": len(times), "backend": warm.backend,
                     "backend_reason": warm.backend_reason,
                     "wall_solve_s": statistics.median(times)})
    ctx.counts.update({"iterations": warm.iterations, "n_claims": n_claims,
                       **scores})
    ctx.inputs_digest = digest(
        *(a for prop in dataset.properties
          for a in (prop.claim_view().values, prop.claim_view().source_idx)))
    return out


def _run_loop(service, schedule, outcome, stretch: float,
              recorder=None) -> dict:
    """Run the open loop with due times stretched by ``stretch`` (the
    host's speed factor), so its load is the same share of the host."""
    ingest_lat, read_lat, lags, read_waits = [], [], [], []
    ingest_service = 0.0
    base = time.perf_counter() + 0.01
    for due_offset, kind, payload in schedule:
        due = base + due_offset * stretch
        _wait_until(due)
        started = time.perf_counter()
        if kind == INGEST:
            with op_span(recorder, "streaming.ingest"):
                outcome.op(service.ingest, payload)
            ended = time.perf_counter()
            ingest_lat.append(ended - due)
            ingest_service += ended - started
        else:
            with op_span(recorder, "streaming.read"):
                outcome.op(service.get_truth, [payload])
            ended = time.perf_counter()
            read_lat.append(ended - due)
            read_waits.append(started - due)
        lags.append(started - due)
    return {"ingest": ingest_lat, "read": read_lat, "lag": lags,
            "read_wait": read_waits, "ingest_service": ingest_service}


def _closed_loop(service, batches, outcome, speed: Speed,
                 recorder=None) -> tuple[list[float], list[float]]:
    """Back-to-back ingest calls with a speed sample every SEGMENT_CALLS
    calls.  Returns each call's wall seconds and its seconds at
    reference speed."""
    wall: list[float] = []
    per_call: list[float] = []
    factor = speed.factor()
    for first in range(0, len(batches), SEGMENT_CALLS):
        times = []
        for batch in batches[first:first + SEGMENT_CALLS]:
            started = time.perf_counter()
            with op_span(recorder, "streaming.ingest"):
                outcome.op(service.ingest, batch)
            times.append(time.perf_counter() - started)
        after = speed.factor()
        local = (factor + after) / 2
        wall += times
        per_call += [t / local for t in times]
        factor = after
    return wall, per_call


def run_serve(ctx) -> dict:
    """Three phases: the open loop (ingests and reads, timed from when
    each was due), back-to-back INGEST_BATCH updates, and the catch-up
    in CATCHUP_BATCH calls."""
    outcome, service = ctx.outcome, ctx.handle
    spec = SERVE_SPECS[ctx.workload]
    stream = serve_stream(ctx.workload, ctx.seed, ctx.seconds, ctx.scale)
    schedule = open_loop_schedule(stream, spec, ctx.seconds, ctx.scale,
                                  ctx.seed)
    open_claims = sum(len(p) for _, kind, p in schedule if kind == INGEST)
    start = stream.warm + open_claims
    middle = start + round(UPDATE_CLAIMS * ctx.scale)
    updates = [stream.claims[i:i + INGEST_BATCH]
               for i in range(start, middle, INGEST_BATCH)]
    catchup = [stream.claims[i:i + CATCHUP_BATCH]
               for i in range(middle, len(stream.claims), CATCHUP_BATCH)]
    before = service.metrics()
    recorder = ctx.recorder
    speed = Speed()
    loop_factor = speed.factor(LOOP_SPEED_UNITS)
    with installed(recorder):
        loop = _run_loop(service, schedule, outcome, loop_factor, recorder)
        loop_factor = (loop_factor + speed.factor(LOOP_SPEED_UNITS)) / 2
        update_wall, update_times = _closed_loop(service, updates, outcome,
                                                 speed, recorder)
        catchup_wall, catchup_times = _closed_loop(service, catchup,
                                                   outcome, speed, recorder)
        outcome.op(service.flush)
    ctx.mark_peak()
    after = service.metrics()
    caught = len(stream.claims) - middle

    def at_reference_ms(samples, q):
        return quantile(samples, q) * 1e3 / loop_factor

    ctx.metrics.update({
        "claims_per_s": caught / sum(catchup_times),
        "update_p50_ms": quantile(update_times, 0.5) * 1e3,
    })
    ctx.extras.update({
        "ingest_p50_ms": at_reference_ms(loop["ingest"], 0.5),
        "ingest_p99_ms": at_reference_ms(loop["ingest"], 0.99),
        "read_p50_ms": at_reference_ms(loop["read"], 0.5),
        "read_p99_ms": at_reference_ms(loop["read"], 0.99),
    })
    ctx.info.update({
        "ingest_samples": len(loop["ingest"]),
        "read_samples": len(loop["read"]),
        "catchup_claims": caught,
        "wall_catchup_claims_per_s": caught / sum(catchup_wall),
        "wall_update_p50_ms": quantile(update_wall, 0.5) * 1e3,
        "wall_ingest_p50_ms": quantile(loop["ingest"], 0.5) * 1e3,
        "loop_speed_factor": loop_factor,
        "lag_p99_ms": quantile(loop["lag"], 0.99) * 1e3,
        "lag_max_ms": max(loop["lag"]) * 1e3,
    })
    ingested = after["ingested_claims"] - before["ingested_claims"]
    ctx.counts.update({
        "windows_sealed": after["windows_sealed"] - before["windows_sealed"],
        "recomputed_objects": (after["recomputed_objects"]
                               - before["recomputed_objects"]),
        "ingested_claims": ingested,
        "cache_hit_rate": after["cache_hit_rate"],
    })
    _check_serve(ctx, stream, schedule, updates + catchup)
    ctx.inputs_digest = digest(len(stream.claims),
                               stream.claims[::max(1, len(stream.claims)
                                                   // 1000)])
    return {"loop": loop, "closed_loop_s": sum(update_wall + catchup_wall),
            "stream": stream, "schedule": schedule, "catchup": catchup}


def _check_serve(ctx, stream: Stream, schedule, closed) -> None:
    """serve_stream: final truths and weights equal batch ``icrh()``
    (the replay contract).  serve_late: they equal a fresh restore fed
    the identical batches in one closed loop, without reads."""
    outcome, service = ctx.outcome, ctx.handle
    dataset = stream.dataset
    ids = list(dataset.object_ids)
    served = outcome.op(service.get_truth, ids)
    if ctx.workload == "serve_stream":
        from repro.streaming import icrh
        oracle = outcome.op(icrh, dataset, window=1)
        ok = (served is not None and oracle is not None
              and same_truths(served, oracle.truths)
              and service.weights_by_source()
              == dict(zip(dataset.source_ids, oracle.weights)))
        outcome.check("matches_batch_icrh", ok)
    else:
        reference = outcome.op(_closed_loop_replay, ctx.work, schedule,
                               closed)
        ok = (served is not None and reference is not None
              and same_truths(served, reference.get_truth(ids))
              and np.array_equal(service.get_weights(),
                                 reference.get_weights()))
        outcome.check("matches_closed_loop_replay", ok)
    if served is not None:
        scores = accuracy(ctx.workload, served, stream.truth,
                          outcome)
        ctx.extras.update(scores)
        ctx.counts.update(scores)


def _closed_loop_replay(work: Path, schedule, closed) -> TruthService:
    """A fresh restore fed the measured run's ingest batches, no reads."""
    reference = TruthService.restore(work / "snapshot")
    for _, kind, payload in schedule:
        if kind == INGEST:
            reference.ingest(payload)
    for batch in closed:
        reference.ingest(batch)
    reference.flush()
    return reference

