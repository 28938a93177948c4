"""The serving truth cache: warm per-object truths, versioned entries.

:class:`TruthCache` holds one entry per object, recording the weight
epoch (chunks absorbed by
:class:`~repro.streaming.icrh.IncrementalCRH`) it was resolved under;
``-1`` marks never-resolved objects.  Cached truths are *chunk-final*
(the I-CRH stitching semantics): sealing a window writes that chunk's
truths, and only new claims (the dirty set) invalidate them — later
weight updates deliberately do not.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..data.encoding import MISSING_CODE
from ..data.schema import DatasetSchema
from .store import GrowableArray


class TruthCache:
    """Warm per-object truth columns with versioned entries.

    One growable column per schema property (``NaN`` / missing-code
    fill) plus an ``int64`` version vector: ``version[i]`` is the
    weight epoch object ``i`` was last resolved under, ``-1`` if never.
    """

    def __init__(self, schema: DatasetSchema) -> None:
        self.schema = schema
        self._columns: list[GrowableArray] = []
        for prop in schema:
            if prop.uses_codec:
                self._columns.append(
                    GrowableArray(np.int32, MISSING_CODE))
            else:
                self._columns.append(GrowableArray(np.float64, np.nan))
        self._versions = GrowableArray(np.int64, -1)

    @property
    def n_objects(self) -> int:
        """Number of object slots the cache covers."""
        return len(self._versions)

    def n_cached(self) -> int:
        """Objects holding a resolved (version >= 0) entry."""
        return int((self._versions.data >= 0).sum())

    def ensure(self, n_objects: int) -> None:
        """Grow to cover ``n_objects`` slots (new slots unresolved)."""
        if n_objects > len(self._versions):
            self._versions.resize_to(n_objects)
            for column in self._columns:
                column.resize_to(n_objects)

    def versions(self, object_indices: np.ndarray) -> np.ndarray:
        """Resolution epochs of the objects at ``object_indices``."""
        return self._versions.data[np.asarray(object_indices)]

    def store(self, object_indices: np.ndarray,
              columns: Sequence[np.ndarray], version: int) -> None:
        """Write resolved truth values for ``object_indices`` at
        weight epoch ``version``.

        Writes go through the columns' copy-on-write path, so views
        handed out by :meth:`publish` keep their values.
        """
        indices = np.asarray(object_indices)
        for cache_col, values in zip(self._columns, columns):
            cache_col.writable()[indices] = values
        self._versions.writable()[indices] = int(version)

    def publish(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Freeze the cache into immutable column/version views.

        Returns ``(columns, versions)`` — read-only views a reader can
        keep indefinitely: later :meth:`store` writes copy the backing
        buffers first (copy-on-write), and growth reallocates, so the
        views never change after publication.  This is what lets
        :meth:`repro.streaming.service.TruthService.read_truth` serve
        truths without taking any lock.
        """
        return (tuple(col.freeze_view() for col in self._columns),
                self._versions.freeze_view())

    def columns_at(self, object_indices: np.ndarray) -> list[np.ndarray]:
        """Cached truth columns for ``object_indices`` (copies)."""
        indices = np.asarray(object_indices)
        return [column.data[indices] for column in self._columns]

    def full_columns(self) -> list[np.ndarray]:
        """All cached columns (copies), for snapshotting."""
        return [column.data.copy() for column in self._columns]

    def load(self, columns: Sequence[np.ndarray],
             versions: np.ndarray) -> None:
        """Bulk-restore cached columns and versions from a snapshot."""
        versions = np.asarray(versions, dtype=np.int64)
        self.ensure(int(versions.size))
        self._versions.writable()[:versions.size] = versions
        for cache_col, values in zip(self._columns, columns):
            cache_col.writable()[:len(values)] = values

    def all_versions(self) -> np.ndarray:
        """The whole version vector (copy), for snapshotting."""
        return self._versions.data.copy()
