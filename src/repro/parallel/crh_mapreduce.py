"""Parallel CRH on the MapReduce substrate (Section 2.7).

Each iteration runs the paper's two MapReduce procedures:

* **truth computation** (Section 2.7.2) — one job per data kind, keyed by
  entry id; reducers compute the weighted median (continuous) or weighted
  vote (categorical) of each entry's claims, reading the current source
  weights from the shared side file;
* **source weight assignment** (Section 2.7.3) — mappers emit per-claim
  partial errors against the truths-side-file, a *combiner* pre-sums them
  inside each map task ("to reduce the overhead caused by the sorting
  operation and communication"), and reducers aggregate per source;
  errors are normalized by each source's observation count ("as sources
  may not have claims on all entries").

A wrapper (Section 2.7.4) initializes weights uniformly at ``1/K``,
iterates the jobs until the weights stabilize or the iteration cap is
hit, and assembles the final truth table.  Per-entry stds for the
normalized continuous loss are computed once by an extra statistics job.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core import kernels
from ..core.regularizers import ExponentialWeights, WeightScheme
from ..data.encoding import MISSING_CODE
from ..data.table import TruthTable
from ..engine import BACKEND_NAMES, make_backend
from ..observability import iteration_record, run_finished, run_started
from ..observability.tracer import Tracer
from ..mapreduce.cost import ClusterCostModel
from ..mapreduce.engine import ClusterConfig
from ..mapreduce.fs import SideFileStore
from ..mapreduce.vector import (
    GroupedArrays,
    KeyedArrays,
    VectorCluster,
    VectorJob,
)
from .batches import KIND_CONTINUOUS, RecordBatches, prepare_batches

_WEIGHTS_FILE = "weights"
_TRUTH_CONT_FILE = "truth_continuous"
_TRUTH_CAT_FILE = "truth_categorical"
_STD_FILE = "entry_std"


@dataclass(frozen=True)
class ParallelCRHConfig:
    """Cluster shape and optimization knobs of parallel CRH.

    ``continuous_loss`` selects the truth reducer for continuous entries:
    ``"absolute"`` (weighted median, Eq. 16 — the paper's default) or
    ``"squared"`` (weighted mean, Eq. 14); the weight-assignment mapper
    computes the matching deviation.  Section 2.7 notes the procedure
    "can work with various loss functions", and both published
    continuous losses are supported here.

    ``backend`` picks the claim storage the batches are built from
    (``"auto"`` follows the input's representation; see
    :func:`repro.engine.make_backend`) — both backends flatten to
    identical record batches.
    """

    n_mappers: int = 4
    n_reducers: int = 4
    max_iterations: int = 10
    tol: float = 1e-6
    continuous_loss: str = "absolute"
    weight_scheme: WeightScheme = field(
        default_factory=lambda: ExponentialWeights(normalizer="max")
    )
    cost_model: ClusterCostModel = field(default_factory=ClusterCostModel)
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.continuous_loss not in ("absolute", "squared"):
            raise ValueError(
                f"continuous_loss must be 'absolute' or 'squared', "
                f"got {self.continuous_loss!r}"
            )
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"backend must be one of {BACKEND_NAMES}, "
                f"got {self.backend!r}"
            )

    def cluster_config(self) -> ClusterConfig:
        """The engine-facing ClusterConfig for this run."""
        return ClusterConfig(
            n_mappers=self.n_mappers,
            n_reducers=self.n_reducers,
            cost_model=self.cost_model,
        )


@dataclass
class JobLogEntry:
    """One executed job in the run log."""

    name: str
    input_records: int
    shuffled_records: int
    simulated_seconds: float


@dataclass
class ParallelCRHResult:
    """Output of a parallel CRH run."""

    truths: TruthTable
    weights: np.ndarray
    iterations: int
    converged: bool
    #: simulated cluster seconds for the whole run (Table 6's metric)
    simulated_seconds: float
    #: local wall-clock seconds (sanity metric, not the paper's)
    wall_seconds: float
    job_log: list[JobLogEntry]


# ----------------------------------------------------------------------
# reducers
# ----------------------------------------------------------------------

def _segment_weighted_median(grouped: GroupedArrays,
                             source_weights: np.ndarray) -> KeyedArrays:
    """Weighted median (Eq. 16) of every group — the kernel, re-keyed.

    Rows arrive grouped by entry key, so ``grouped.starts`` is exactly a
    CSR row pointer over the groups and
    :func:`repro.core.kernels.segment_weighted_median` applies directly.
    """
    weights = source_weights[grouped.sorted.values["source"]]
    truth = kernels.segment_weighted_median(
        grouped.sorted.values["value"], weights, grouped.starts
    )
    return KeyedArrays(keys=grouped.group_keys, values={"truth": truth})


def _segment_weighted_vote(grouped: GroupedArrays,
                           source_weights: np.ndarray,
                           code_space: int) -> KeyedArrays:
    """Weighted vote (Eq. 9) of every group — the kernel, re-keyed."""
    weights = source_weights[grouped.sorted.values["source"]]
    truth = kernels.segment_weighted_vote(
        grouped.sorted.values["code"], weights, grouped.starts,
        n_categories=code_space,
    )
    return KeyedArrays(keys=grouped.group_keys, values={"truth": truth})


def _segment_weighted_mean(grouped: GroupedArrays,
                           source_weights: np.ndarray) -> KeyedArrays:
    """Weighted mean (Eq. 14) of every group — the squared-loss reducer."""
    weights = source_weights[grouped.sorted.values["source"]]
    truth = kernels.segment_weighted_mean(
        grouped.sorted.values["value"], weights, grouped.starts
    )
    return KeyedArrays(keys=grouped.group_keys, values={"truth": truth})


def _segment_statistics(grouped: GroupedArrays) -> KeyedArrays:
    """Per-entry std (the Eqs. 13/15 normalizer preprocessing job)."""
    std = kernels.segment_std(grouped.sorted.values["value"],
                              grouped.starts)
    return KeyedArrays(keys=grouped.group_keys, values={"std": std})


def _segment_error_sums(grouped: GroupedArrays) -> KeyedArrays:
    """Per-source partial error + count sums (combiner and reducer)."""
    return KeyedArrays(
        keys=grouped.group_keys,
        values={
            "error": grouped.segment_sum("error"),
            "count": grouped.segment_sum("count"),
        },
    )


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def parallel_crh(dataset,
                 config: ParallelCRHConfig | None = None,
                 tracer: Tracer | None = None) -> ParallelCRHResult:
    """Run CRH as iterated MapReduce jobs (the Section 2.7 wrapper).

    ``dataset`` may be a dense
    :class:`~repro.data.table.MultiSourceDataset` or a sparse
    :class:`~repro.data.claims_matrix.ClaimsMatrix`; the config's
    ``backend`` decides the claim storage the batches flatten from.

    With a :class:`~repro.observability.Tracer`, the run emits one
    ``mapreduce_job`` record per executed job (volumes + simulated
    seconds), one ``iteration`` record per wrapper round (weights,
    weight delta, per-phase wall time), and a ``run_end`` record
    carrying the engine counter totals including side-file traffic.
    """
    started = time.perf_counter()
    config = config or ParallelCRHConfig()
    backend = make_backend(dataset, config.backend)
    dataset = backend.data
    batches = prepare_batches(dataset)
    cluster = VectorCluster(config.cluster_config(), tracer=tracer)
    store = SideFileStore()
    log: list[JobLogEntry] = []
    tracing = tracer is not None and tracer.enabled
    if tracing:
        tracer.emit(run_started(
            "Parallel-CRH",
            n_sources=dataset.n_sources,
            n_objects=dataset.n_objects,
            n_properties=len(dataset.schema),
            backend=backend.name,
            backend_reason=backend.resolution,
            n_claims=backend.n_claims(),
        ))

    def record(name: str, result) -> None:
        log.append(JobLogEntry(
            name=name,
            input_records=result.stats.map_input_records,
            shuffled_records=result.stats.shuffled_records,
            simulated_seconds=result.simulated_seconds,
        ))

    # --- preprocessing: per-entry stds for the normalized loss ---------
    n_cont_entries = batches.n_continuous_entries
    std = np.ones(max(n_cont_entries, 1))
    if len(batches.continuous):
        stats_job = VectorJob(
            name="entry-statistics",
            mapper=lambda split: split,
            reducer=_segment_statistics,
            combiner=None,
        )
        result = cluster.run(stats_job, batches.continuous)
        record(stats_job.name, result)
        std[result.output.keys] = result.output.values["std"]
    store.write(_STD_FILE, std)

    # --- wrapper: initialize weights uniformly at 1/K ------------------
    k = batches.n_sources
    weights = np.full(k, 1.0 / k)
    store.write(_WEIGHTS_FILE, weights)
    truth_cont = np.full(max(n_cont_entries, 1), np.nan)
    truth_cat = np.full(max(batches.n_categorical_entries, 1),
                        MISSING_CODE, dtype=np.int64)

    def truth_cont_reducer(grouped: GroupedArrays) -> KeyedArrays:
        weights_now = store.read(_WEIGHTS_FILE)
        if config.continuous_loss == "squared":
            return _segment_weighted_mean(grouped, weights_now)
        return _segment_weighted_median(grouped, weights_now)

    def truth_cat_reducer(grouped: GroupedArrays) -> KeyedArrays:
        return _segment_weighted_vote(grouped, store.read(_WEIGHTS_FILE),
                                      batches.code_space)

    def weight_mapper(split: KeyedArrays) -> KeyedArrays:
        truths_c = store.read(_TRUTH_CONT_FILE)
        truths_k = store.read(_TRUTH_CAT_FILE)
        stds = store.read(_STD_FILE)
        kind = split.values["kind"]
        entry = split.values["entry"]
        value = split.values["value"]
        is_cont = kind == KIND_CONTINUOUS
        error = np.empty(len(split))
        if is_cont.any():
            deviate = (kernels.squared_claim_deviations        # Eq. 13
                       if config.continuous_loss == "squared"
                       else kernels.absolute_claim_deviations)  # Eq. 15
            error[is_cont] = deviate(value[is_cont], truths_c, stds,
                                     entry[is_cont])
        if (~is_cont).any():
            error[~is_cont] = kernels.zero_one_claim_deviations(  # Eq. 8
                value[~is_cont], truths_k, entry[~is_cont]
            )
        # Entries whose truth is still unset contribute nothing.
        error = np.nan_to_num(error, nan=0.0)
        return KeyedArrays(
            keys=split.keys,
            values={"error": error, "count": np.ones(len(split))},
        )

    truth_cont_job = VectorJob(name="truth-continuous",
                               mapper=lambda split: split,
                               reducer=truth_cont_reducer)
    truth_cat_job = VectorJob(name="truth-categorical",
                              mapper=lambda split: split,
                              reducer=truth_cat_reducer)
    weight_job = VectorJob(name="weight-assignment",
                           mapper=weight_mapper,
                           reducer=_segment_error_sums,
                           combiner=_segment_error_sums)

    iterations = 0
    converged = False
    for iterations in range(1, config.max_iterations + 1):
        truth_started = time.perf_counter() if tracing else 0.0
        # --- truth computation (one job per data kind) -----------------
        if len(batches.continuous):
            result = cluster.run(truth_cont_job, batches.continuous)
            record(truth_cont_job.name, result)
            truth_cont[result.output.keys] = result.output.values["truth"]
        store.write(_TRUTH_CONT_FILE, truth_cont)
        if len(batches.categorical):
            result = cluster.run(truth_cat_job, batches.categorical)
            record(truth_cat_job.name, result)
            truth_cat[result.output.keys] = result.output.values["truth"]
        store.write(_TRUTH_CAT_FILE, truth_cat)
        if tracing:
            truth_seconds = time.perf_counter() - truth_started
            weight_started = time.perf_counter()

        # --- weight assignment -----------------------------------------
        result = cluster.run(weight_job, batches.combined)
        record(weight_job.name, result)
        error_sum = np.zeros(k)
        count_sum = np.zeros(k)
        error_sum[result.output.keys] = result.output.values["error"]
        count_sum[result.output.keys] = result.output.values["count"]
        with np.errstate(invalid="ignore", divide="ignore"):
            per_source = np.where(count_sum > 0, error_sum / count_sum, 0.0)
        new_weights = config.weight_scheme.weights(per_source)
        store.write(_WEIGHTS_FILE, new_weights)
        delta = float(np.abs(new_weights - weights).max())
        weights = new_weights
        if tracing:
            tracer.emit(iteration_record(
                iterations,
                weights=weights,
                weight_delta=delta,
                truth_seconds=truth_seconds,
                weight_seconds=time.perf_counter() - weight_started,
            ))
        if delta < config.tol:
            converged = True
            break

    truths = _assemble_truths(dataset, batches, truth_cont, truth_cat)
    if tracing:
        tracer.emit(run_finished(
            iterations=iterations,
            converged=converged,
            elapsed_seconds=time.perf_counter() - started,
            side_file_reads=store.read_count,
            side_file_writes=store.write_count,
            **cluster.counters.as_dict(),
        ))
    return ParallelCRHResult(
        truths=truths,
        weights=weights,
        iterations=iterations,
        converged=converged,
        simulated_seconds=cluster.clock.elapsed_s,
        wall_seconds=time.perf_counter() - started,
        job_log=log,
    )


def _assemble_truths(dataset, batches: RecordBatches,
                     truth_cont: np.ndarray,
                     truth_cat: np.ndarray) -> TruthTable:
    """Slice the flat truth arrays back into per-property columns."""
    n = dataset.n_objects
    columns: list[np.ndarray] = [None] * len(dataset.schema)
    for slot, m in enumerate(batches.continuous_props):
        columns[m] = truth_cont[slot * n:(slot + 1) * n].copy()
    for slot, m in enumerate(batches.categorical_props):
        columns[m] = truth_cat[slot * n:(slot + 1) * n].astype(np.int32)
    return TruthTable(
        schema=dataset.schema,
        object_ids=dataset.object_ids,
        columns=columns,
        codecs=dataset.codecs(),
    )
