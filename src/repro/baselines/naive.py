"""Voting/Averaging baselines without source-reliability estimation.

These are the traditional conflict-resolution methods of Section 3.1.2:
Mean and Median on continuous properties, majority Voting on categorical
properties.  They weight every source equally (uniform weights are what
their results report), which is exactly the assumption the paper's
reliability-aware methods relax.

Each is one uniform-weight truth step of the corresponding CRH loss —
Mean is ``squared``'s weighted mean (Eq. 14), Median is ``absolute``'s
weighted median (Eq. 16), Voting is ``zero_one``'s weighted vote (Eq. 9)
— evaluated through the segment kernels of :mod:`repro.core.kernels` via
an :class:`~repro.core.session.ExecutionSession`.  All three
therefore run natively (bit-identically) on every execution backend:
dense, sparse, process, and mmap.
"""

from __future__ import annotations

import numpy as np

from ..core.initialization import initialize_vote_median
from ..core.losses import loss_by_name
from ..core.result import TruthDiscoveryResult
from ..data.encoding import MISSING_CODE
from ..data.schema import PropertyKind
from ..data.table import MultiSourceDataset, TruthTable
from .base import ConflictResolver, register_resolver


def _one_shot_fit(resolver: ConflictResolver,
                  dataset: MultiSourceDataset,
                  loss_of_kind: dict[PropertyKind, str]) -> TruthDiscoveryResult:
    """One uniform-weight truth step over the kernels, per property kind.

    Properties of a kind the resolver does not handle still need a
    kernel-capable placeholder loss so a parallel runner's plan stays
    valid (the runner evaluates every property); their computed columns
    are discarded and replaced with missing-value placeholders, exactly
    matching the single-type semantics of the paper's Table 2.
    """
    session = resolver._session(dataset)
    try:
        data = session.data
        losses = []
        handled = []
        for prop in data.schema:
            name = loss_of_kind.get(prop.kind)
            handled.append(name is not None)
            if name is None:
                name = "zero_one" if prop.uses_codec else "squared"
            losses.append(loss_by_name(name))
        states = session.initial_states(losses, initialize_vote_median)
        session.start(losses, states)
        uniform = np.ones(data.n_sources, dtype=np.float64)
        states = session.truth_step(uniform)
        columns: list[np.ndarray] = []
        for prop, state, is_handled in zip(data.schema, states, handled):
            if not is_handled:
                if prop.uses_codec:
                    columns.append(np.full(data.n_objects, MISSING_CODE,
                                           dtype=np.int32))
                else:
                    columns.append(np.full(data.n_objects, np.nan))
            elif prop.uses_codec:
                columns.append(np.asarray(state.column, dtype=np.int32))
            else:
                columns.append(np.asarray(state.column, dtype=np.float64))
        truths = TruthTable(
            schema=data.schema,
            object_ids=data.object_ids,
            columns=columns,
            codecs=data.codecs(),
        )
        return session.stamp(TruthDiscoveryResult(
            truths=truths,
            weights=uniform,
            source_ids=data.source_ids,
            method=resolver.name,
            iterations=0,
            converged=True,
        ))
    finally:
        session.close()


@register_resolver
class MeanResolver(ConflictResolver):
    """Per-entry mean of the observations (continuous properties only).

    One uniform-weight :func:`~repro.core.kernels.segment_weighted_mean`
    truth step (the ``squared`` loss's Eq. 14 update); runs natively on
    all four backends.
    """

    name = "Mean"
    handles = frozenset((PropertyKind.CONTINUOUS,))

    def fit(self, dataset: MultiSourceDataset) -> TruthDiscoveryResult:
        """Average every entry's claims with uniform weights."""
        return _one_shot_fit(self, dataset,
                             {PropertyKind.CONTINUOUS: "squared"})


@register_resolver
class MedianResolver(ConflictResolver):
    """Per-entry median of the observations (continuous properties only).

    One uniform-weight
    :func:`~repro.core.kernels.segment_weighted_median` truth step (the
    ``absolute`` loss's Eq. 16 update); runs natively on all four
    backends.
    """

    name = "Median"
    handles = frozenset((PropertyKind.CONTINUOUS,))

    def fit(self, dataset: MultiSourceDataset) -> TruthDiscoveryResult:
        """Take every entry's uniform-weight median claim."""
        return _one_shot_fit(self, dataset,
                             {PropertyKind.CONTINUOUS: "absolute"})


@register_resolver
class VotingResolver(ConflictResolver):
    """Per-entry majority vote (categorical/text properties only).

    One uniform-weight :func:`~repro.core.kernels.segment_weighted_vote`
    truth step (the ``zero_one`` loss's Eq. 9 update); runs natively on
    all four backends.
    """

    name = "Voting"
    handles = frozenset((PropertyKind.CATEGORICAL, PropertyKind.TEXT))

    def fit(self, dataset: MultiSourceDataset) -> TruthDiscoveryResult:
        """Pick every entry's most-claimed value code."""
        return _one_shot_fit(self, dataset, {
            PropertyKind.CATEGORICAL: "zero_one",
            PropertyKind.TEXT: "zero_one",
        })
