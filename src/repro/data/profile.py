"""Conflict profiling: quantify how contested a dataset is.

Before running truth discovery it pays to know what you are resolving:
how many claims each entry attracts, how often sources actually disagree,
and how unevenly coverage is distributed.  :func:`profile_dataset`
computes those statistics per property and per source; the report
renders in the same aligned-text style as the experiment tables.

The headline number, the *conflict rate*, is the fraction of
multi-claimed entries whose claims are not unanimous — if it is near
zero, voting will do and CRH's weighting has nothing to add; the paper's
workloads sit between 0.3 and 0.9.

The profile also reports each property's *claim density* and the
projected dense-vs-sparse memory footprint.  The projections are
information only: ``backend="auto"`` (see :mod:`repro.engine`) always
solves on the CSR claims form in RAM, and only the sparse projection
decides when it moves out of core to ``mmap``.

All statistics are computed on the canonical claim view, so dense
:class:`~repro.data.table.MultiSourceDataset` and sparse
:class:`~repro.data.claims_matrix.ClaimsMatrix` inputs profile
identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PropertyProfile:
    """Conflict and footprint statistics of one property."""

    name: str
    kind: str
    n_entries: int
    #: mean number of claims per observed entry
    mean_claims: float
    #: fraction of entries with >= 2 claims
    multi_claimed_fraction: float
    #: fraction of multi-claimed entries whose claims disagree
    conflict_rate: float
    #: mean number of distinct claimed values on conflicted entries
    mean_distinct_values: float
    #: fraction of the virtual ``K x N`` matrix that is claimed
    density: float
    #: bytes a dense ``(K, N)`` matrix of this property holds
    dense_bytes: int
    #: bytes the CSR claims form of this property holds
    sparse_bytes: int


@dataclass(frozen=True)
class SourceProfile:
    """Coverage statistics of one source."""

    source_id: object
    n_claims: int
    coverage: float
    #: fraction of this source's claims that at least one other source
    #: contradicts (continuous: differs at all; codec: different value)
    contradicted_fraction: float


@dataclass
class DatasetProfile:
    """Full profiling report: per-property and per-source statistics."""

    n_sources: int
    n_objects: int
    n_observations: int
    n_entries: int
    properties: list[PropertyProfile]
    sources: list[SourceProfile]

    @property
    def overall_conflict_rate(self) -> float:
        """Entry-weighted mean conflict rate across properties."""
        weights = np.array([p.n_entries for p in self.properties],
                           dtype=float)
        rates = np.array([p.conflict_rate for p in self.properties])
        if weights.sum() <= 0:
            return 0.0
        return float((weights * rates).sum() / weights.sum())

    @property
    def density(self) -> float:
        """Overall claim density: observations / (K x N x M)."""
        cells = self.n_sources * self.n_objects * len(self.properties)
        return self.n_observations / cells if cells else 0.0

    @property
    def dense_bytes(self) -> int:
        """Projected dense footprint across all properties."""
        return sum(p.dense_bytes for p in self.properties)

    @property
    def sparse_bytes(self) -> int:
        """Projected sparse (CSR claims) footprint across all properties."""
        return sum(p.sparse_bytes for p in self.properties)

    @property
    def recommended_backend(self) -> str:
        """The in-RAM storage ``backend="auto"`` solves on: always
        ``"sparse"``, whichever projection is smaller.  The ``mmap``
        escalation past the memory cap and the ``process`` upgrade
        depend on the host, so :func:`repro.engine.make_backend` decides
        them at solve time."""
        return "sparse"

    def render(self) -> str:
        """Render all three panels as aligned text."""
        from ..experiments.render import render_table
        property_rows = [
            [p.name, p.kind, p.n_entries, p.mean_claims,
             p.multi_claimed_fraction, p.conflict_rate,
             p.mean_distinct_values]
            for p in self.properties
        ]
        memory_rows = [
            [p.name, p.density, format_bytes(p.dense_bytes),
             format_bytes(p.sparse_bytes)]
            for p in self.properties
        ]
        source_rows = [
            [s.source_id, s.n_claims, s.coverage, s.contradicted_fraction]
            for s in self.sources
        ]
        header = (
            f"Dataset profile: {self.n_sources} sources, "
            f"{self.n_objects} objects, {self.n_observations:,} "
            f"observations over {self.n_entries:,} entries "
            f"(overall conflict rate {self.overall_conflict_rate:.3f})"
        )
        footprint = (
            f"Claim density {self.density:.3f}; dense "
            f"{format_bytes(self.dense_bytes)} vs sparse "
            f"{format_bytes(self.sparse_bytes)} (information only) -> "
            f"recommended backend: {self.recommended_backend} in RAM, "
            f"mmap past the memory cap"
        )
        return "\n\n".join([
            header,
            render_table(
                ["property", "kind", "entries", "claims/entry",
                 "multi-claimed", "conflict rate", "distinct values"],
                property_rows, title="Per property",
            ),
            render_table(
                ["property", "density", "dense", "sparse"],
                memory_rows, title="Memory footprint",
            ),
            render_table(
                ["source", "claims", "coverage", "contradicted"],
                source_rows, title="Per source",
            ),
            footprint,
        ])


def format_bytes(n: int) -> str:
    """Human-readable byte count (binary units, one decimal)."""
    size = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024.0 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024.0
    return f"{size:.1f} GiB"  # pragma: no cover - unreachable


def recommended_backend(dataset,
                        memory_cap_bytes: int | None = None,
                        ) -> tuple[str, str]:
    """The storage backend ``backend="auto"`` starts from.

    The footprint half of :func:`repro.engine.make_backend`'s ``"auto"``
    policy: in-RAM claims are always ``"sparse"``.  When the projected
    CSR claims footprint exceeds ``memory_cap_bytes``, the
    recommendation escalates to the out-of-core ``"mmap"`` backend (see
    :mod:`repro.engine.mmap`), which keeps only one claim chunk
    resident.  The dense ``(K, N)`` projection is reported in the
    reason for information only; it decides nothing.  On a claims
    matrix both projections are O(properties), cheap enough to run on
    every solver call.
    Returns ``(name, reason)`` where ``reason`` is a human-readable
    justification recorded in ``run_start`` traces.
    """
    dense = sum(p.dense_nbytes() for p in dataset.properties)
    sparse = sum(p.sparse_nbytes() for p in dataset.properties)
    reason = (
        f"footprint recommendation: sparse {format_bytes(sparse)} "
        f"(dense projection {format_bytes(dense)})"
    )
    if memory_cap_bytes is not None and sparse > memory_cap_bytes:
        return "mmap", (
            f"{reason}; sparse exceeds the "
            f"{format_bytes(memory_cap_bytes)} memory cap -> mmap"
        )
    return "sparse", reason


def profile_dataset(dataset) -> DatasetProfile:
    """Compute the conflict/coverage/footprint profile of a dataset.

    ``dataset`` may be dense or sparse; statistics come from the
    canonical claim view, so both representations produce the same
    profile (footprint fields always report both projections).
    """
    property_profiles: list[PropertyProfile] = []
    per_source_claims = np.zeros(dataset.n_sources, dtype=np.int64)
    per_source_contradicted = np.zeros(dataset.n_sources, dtype=np.int64)

    for prop in dataset.properties:
        view = prop.claim_view()
        sizes = np.diff(view.indptr)
        n_entries = int(np.count_nonzero(sizes))
        multi = sizes >= 2

        # Distinct claimed values per entry: sort claims by (object,
        # value) and count value runs inside each object segment.  The
        # view caches that sort, so a later solve reuses it.
        order = view.median_order()
        objects = view.object_idx[order]
        values = view.values[order]
        run_start = np.ones(order.size, dtype=bool)
        run_start[1:] = (objects[1:] != objects[:-1]) \
            | (values[1:] != values[:-1])
        distinct = np.bincount(objects[run_start],
                               minlength=view.n_objects)
        disagree = multi & (distinct >= 2)
        conflicted = int(disagree.sum())
        multi_count = int(multi.sum())

        property_profiles.append(PropertyProfile(
            name=prop.schema.name,
            kind=prop.schema.kind.value,
            n_entries=n_entries,
            mean_claims=(float(sizes[sizes > 0].mean())
                         if n_entries else 0.0),
            multi_claimed_fraction=(multi_count / n_entries
                                    if n_entries else 0.0),
            conflict_rate=(conflicted / multi_count
                           if multi_count else 0.0),
            mean_distinct_values=(float(distinct[disagree].mean())
                                  if conflicted else 0.0),
            density=prop.density(),
            dense_bytes=prop.dense_nbytes(),
            sparse_bytes=prop.sparse_nbytes(),
        ))

        per_source_claims += np.bincount(view.source_idx,
                                         minlength=dataset.n_sources)
        # A claim is contradicted when some other claim on its entry
        # carries a different value, i.e. its value run does not cover
        # the whole entry segment.
        if order.size:
            run_id = np.cumsum(run_start) - 1
            run_len = np.bincount(run_id)
            contradicted_rows = run_len[run_id] < sizes[objects]
            per_source_contradicted += np.bincount(
                view.source_idx[order][contradicted_rows],
                minlength=dataset.n_sources,
            )

    total_entries = sum(p.n_entries for p in property_profiles)
    source_profiles = [
        SourceProfile(
            source_id=dataset.source_ids[k],
            n_claims=int(per_source_claims[k]),
            coverage=(per_source_claims[k] / total_entries
                      if total_entries else 0.0),
            contradicted_fraction=(
                per_source_contradicted[k] / per_source_claims[k]
                if per_source_claims[k] else 0.0
            ),
        )
        for k in range(dataset.n_sources)
    ]
    return DatasetProfile(
        n_sources=dataset.n_sources,
        n_objects=dataset.n_objects,
        n_observations=dataset.n_observations(),
        n_entries=total_entries,
        properties=property_profiles,
        sources=source_profiles,
    )
