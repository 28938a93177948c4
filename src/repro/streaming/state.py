"""The serving truth cache: one warm truth per object.

:class:`TruthCache` holds one entry per object.  Cached truths are
*chunk-final* (the I-CRH stitching semantics): sealing a window writes
that chunk's truths, and only new claims (the dirty set) invalidate
them — later weight updates deliberately do not.  Every mutating
service call drains the dirty set and publishes before it returns, so
the cache needs no per-object freshness record.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..data.encoding import MISSING_CODE
from ..data.schema import DatasetSchema
from .store import GrowableArray


class TruthCache:
    """Warm per-object truth columns.

    One growable column per schema property (``NaN`` / missing-code
    fill for objects not resolved yet).
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
        self._n_objects = 0

    @property
    def n_objects(self) -> int:
        """Number of object slots the cache covers."""
        return self._n_objects

    def ensure(self, n_objects: int) -> None:
        """Grow to cover ``n_objects`` slots (new slots unresolved)."""
        if n_objects > self._n_objects:
            self._n_objects = n_objects
            for column in self._columns:
                column.resize_to(n_objects)

    def store(self, object_indices: np.ndarray,
              columns: Sequence[np.ndarray]) -> None:
        """Write resolved truth values for ``object_indices``.

        Writes go through the columns' copy-on-write path, so views
        handed out by :meth:`publish` keep their values.
        """
        indices = np.asarray(object_indices)
        for cache_col, values in zip(self._columns, columns):
            cache_col.writable()[indices] = values

    def publish(self) -> tuple[np.ndarray, ...]:
        """Freeze the cache into immutable column views.

        The read-only views can be kept indefinitely: later
        :meth:`store` writes copy the backing buffers first
        (copy-on-write), and growth reallocates, so the views never
        change after publication.  This is what lets
        :meth:`repro.streaming.service.TruthService.get_truth` serve
        truths without taking any lock.
        """
        return tuple(col.freeze_view() for col in self._columns)

    def full_columns(self) -> list[np.ndarray]:
        """All cached columns (copies), for snapshotting."""
        return [column.data.copy() for column in self._columns]

    def load(self, columns: Sequence[np.ndarray]) -> None:
        """Bulk-restore cached columns from a snapshot."""
        self.ensure(max((len(values) for values in columns), default=0))
        for cache_col, values in zip(self._columns, columns):
            cache_col.writable()[:len(values)] = values
