"""Per-claim reference for :class:`repro.streaming.ClaimStore`'s batch path.

``reference_add`` is the claim store's former one-claim-at-a-time body,
kept as a test oracle: it absorbs one claim into a store's columns with
scalar Python steps.  ``ClaimStore.columns`` + ``ClaimStore.absorb``
must leave exactly the state a run of ``reference_add`` calls leaves.
The claim checks are written out one scalar test at a time, in the
order a claim's fields are read, and raise before anything registers.
"""

from __future__ import annotations

import math

import numpy as np

from repro.streaming.store import _NO_CLAIM


def _missing(value) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


def check_claim(store, claim) -> None:
    """Raise ``ValueError``/``TypeError`` if ``claim`` is bad."""
    try:
        stamp = float(claim.timestamp)
    except (TypeError, ValueError, OverflowError):
        stamp = math.nan
    if math.isnan(stamp):
        raise ValueError(f"claims need timestamps; got {claim.timestamp!r}")
    try:
        known = claim.property_name in store._prop_index
    except TypeError:
        known = False
    if not known:
        raise ValueError(f"unknown property {claim.property_name!r}")
    if _missing(claim.value):
        raise ValueError(f"missing value for {claim.object_id!r}")
    if claim.property_name not in store._codecs:
        try:
            value = float(claim.value)
        except OverflowError:
            raise ValueError(f"value {claim.value!r} overflows") from None
        if math.isnan(value):
            raise ValueError(f"missing value for {claim.object_id!r}")
    else:
        hash(claim.value)
    hash(claim.object_id)
    hash(claim.source_id)


def reference_add(store, claim) -> tuple[int, bool]:
    """Absorb one claim, one scalar step at a time; returns
    ``(object_index, object_is_new)``."""
    check_claim(store, claim)
    m = store._prop_index[claim.property_name]
    codec = store._codecs.get(claim.property_name)
    value = (codec.encode(claim.value) if codec is not None
             else float(claim.value))
    source = store._source_index.get(claim.source_id)
    if source is None:
        source = len(store._source_ids)
        store._source_ids.append(claim.source_id)
        store._source_index[claim.source_id] = source
    obj = store._object_index.get(claim.object_id)
    created = obj is None
    if created:
        obj = len(store._object_ids)
        store._object_ids.append(claim.object_id)
        store._object_index[claim.object_id] = obj
        store._object_ts.extend([float(claim.timestamp)])
        for column in store._first:
            column.extend([_NO_CLAIM])
    first = store._first[m].data
    if first[obj] == _NO_CLAIM:
        first[obj] = len(store._obj[m])
    store._values[m].extend([value])
    store._src[m].extend([source])
    store._obj[m].extend([obj])
    store.dirty.add(obj)
    return obj, created


def assert_same_store(actual, expected) -> None:
    """Two stores hold identical columns, registries and dirty sets."""
    for name in ("_values", "_src", "_obj", "_first"):
        for got, want in zip(getattr(actual, name), getattr(expected, name)):
            assert got.data.dtype == want.data.dtype, name
            np.testing.assert_array_equal(got.data, want.data, err_msg=name)
    assert actual.object_ids == expected.object_ids
    assert actual.source_ids == expected.source_ids
    assert actual._object_index == expected._object_index
    assert actual._source_index == expected._source_index
    np.testing.assert_array_equal(actual.object_timestamps,
                                  expected.object_timestamps)
    assert actual.dirty == expected.dirty
    assert ({name: codec.labels for name, codec in actual.codecs().items()}
            == {name: codec.labels
                for name, codec in expected.codecs().items()})
