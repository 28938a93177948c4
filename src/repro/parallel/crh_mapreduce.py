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
from ..observability import iteration_record, run_finished, run_started
from ..observability.tracer import Tracer
from ..mapreduce.cost import ClusterCostModel
from ..mapreduce.fs import SideFileStore
from ..mapreduce.vector import (
    ClusterConfig,
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

    def __post_init__(self) -> None:
        if self.continuous_loss not in ("absolute", "squared"):
            raise ValueError(
                f"continuous_loss must be 'absolute' or 'squared', "
                f"got {self.continuous_loss!r}"
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
    :class:`~repro.data.claims_matrix.ClaimsMatrix`; both flatten to
    identical record batches.

    With a :class:`~repro.observability.Tracer`, the run emits one
    ``mapreduce_job`` record per executed job (volumes + simulated
    seconds), one ``iteration`` record per wrapper round (weights,
    weight delta, per-phase wall time), and a ``run_end`` record
    carrying the engine counter totals including side-file traffic.
    """
    started = time.perf_counter()
    config = config or ParallelCRHConfig()
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
            n_claims=batches.n_observations,
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

    def truth_reducer(column: str, aggregate, **options):
        """Reducer applying a weighted kernel to each entry's claims.

        Rows arrive grouped by entry key, so ``grouped.starts`` is
        exactly a CSR row pointer and the solver's kernel applies
        directly; the weights come from the current side file.
        """
        def reducer(grouped: GroupedArrays) -> KeyedArrays:
            source = grouped.sorted.values["source"]
            truth = aggregate(grouped.sorted.values[column],
                              store.read(_WEIGHTS_FILE)[source],
                              grouped.starts, **options)
            return KeyedArrays(keys=grouped.group_keys,
                               values={"truth": truth})
        return reducer

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

    truth_cont_job = VectorJob(
        name="truth-continuous",
        mapper=lambda split: split,
        reducer=truth_reducer(
            "value",
            kernels.segment_weighted_mean               # Eq. 14
            if config.continuous_loss == "squared"
            else kernels.segment_weighted_median,       # Eq. 16
        ),
    )
    truth_cat_job = VectorJob(
        name="truth-categorical",
        mapper=lambda split: split,
        reducer=truth_reducer("code", kernels.segment_weighted_vote,  # Eq. 9
                              n_categories=batches.code_space),
    )
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
        # With no claims the job outputs no rows and hence no columns.
        if len(result.output):
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
