"""Schema definitions for multi-source heterogeneous datasets.

The CRH paper (Definition 1) models the world as *objects* described by
*properties*; each property has a data type.  This module captures the typed
part of that model: a :class:`PropertySchema` describes one property (its
name and kind), and a :class:`DatasetSchema` is the ordered collection of
properties shared by every source observing the same objects.

Only the two data types evaluated in the paper are first-class here —
categorical and continuous — but the schema layer is deliberately open:
losses are looked up by :class:`PropertyKind`, so adding a kind means adding
an enum member and registering a loss for it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator


class PropertyKind(enum.Enum):
    """Data type of a property, which selects its loss function.

    ``CATEGORICAL`` and ``CONTINUOUS`` are the two types the paper
    evaluates; ``TEXT`` exercises its "any loss function" claim (Section
    2.4.2 names edit distance for text data) — free-form strings whose
    loss is the normalized edit distance and whose truth update is the
    weighted medoid.
    """

    CATEGORICAL = "categorical"
    CONTINUOUS = "continuous"
    TEXT = "text"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class PropertySchema:
    """Description of a single property of an object.

    Parameters
    ----------
    name:
        Unique property name within the dataset (e.g. ``"high_temp"``).
    kind:
        The property's data type.
    categories:
        For categorical properties, the optional closed domain of labels.
        When provided, observations outside the domain are rejected at
        validation time; when ``None`` the domain is inferred from data.
    unit:
        Free-form unit annotation (e.g. ``"F"``, ``"minutes"``); purely
        informational.
    """

    name: str
    kind: PropertyKind
    categories: tuple[str, ...] | None = None
    unit: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("property name must be non-empty")
        if self.kind is not PropertyKind.CATEGORICAL \
                and self.categories is not None:
            raise ValueError(
                f"{self.kind.value} property {self.name!r} cannot declare "
                f"categories"
            )
        if self.categories is not None:
            if len(set(self.categories)) != len(self.categories):
                raise ValueError(
                    f"duplicate categories in property {self.name!r}"
                )

    @property
    def is_categorical(self) -> bool:
        return self.kind is PropertyKind.CATEGORICAL

    @property
    def is_continuous(self) -> bool:
        return self.kind is PropertyKind.CONTINUOUS

    @property
    def uses_codec(self) -> bool:
        """True when values are stored as integer codes via a codec
        (categorical and text properties); continuous properties store
        raw floats."""
        return self.kind is not PropertyKind.CONTINUOUS


def categorical(name: str, categories: Iterable[str] | None = None,
                unit: str | None = None) -> PropertySchema:
    """Convenience constructor for a categorical :class:`PropertySchema`."""
    cats = tuple(categories) if categories is not None else None
    return PropertySchema(name=name, kind=PropertyKind.CATEGORICAL,
                          categories=cats, unit=unit)


def continuous(name: str, unit: str | None = None) -> PropertySchema:
    """Convenience constructor for a continuous :class:`PropertySchema`."""
    return PropertySchema(name=name, kind=PropertyKind.CONTINUOUS, unit=unit)


def text(name: str, unit: str | None = None) -> PropertySchema:
    """Convenience constructor for a free-form text :class:`PropertySchema`."""
    return PropertySchema(name=name, kind=PropertyKind.TEXT, unit=unit)


@dataclass(frozen=True)
class DatasetSchema:
    """Ordered collection of the properties describing every object.

    The order is significant: observation matrices, truth tables and loss
    vectors are all indexed by the property's position in this schema.
    """

    properties: tuple[PropertySchema, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False,
                                   hash=False, default_factory=dict)

    def __post_init__(self) -> None:
        if not self.properties:
            raise ValueError("a dataset schema needs at least one property")
        names = [p.name for p in self.properties]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate property names: {names}")
        object.__setattr__(
            self, "_index", {p.name: i for i, p in enumerate(self.properties)}
        )

    @classmethod
    def of(cls, *properties: PropertySchema) -> "DatasetSchema":
        return cls(properties=tuple(properties))

    def __len__(self) -> int:
        return len(self.properties)

    def __iter__(self) -> Iterator[PropertySchema]:
        return iter(self.properties)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __getitem__(self, key: int | str) -> PropertySchema:
        if isinstance(key, str):
            return self.properties[self._index[key]]
        return self.properties[key]

    def index_of(self, name: str) -> int:
        """Position of property ``name`` in the schema."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(
                f"unknown property {name!r}; schema has {self.names()}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """Property names in schema order."""
        return tuple(p.name for p in self.properties)

    @property
    def categorical_indices(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.properties)
                     if p.is_categorical)

    @property
    def continuous_indices(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.properties)
                     if p.is_continuous)

    def restrict(self, kind: PropertyKind) -> "DatasetSchema":
        """Sub-schema containing only properties of ``kind``.

        Raises
        ------
        ValueError
            If no property has the requested kind (schemas are non-empty).
        """
        props = tuple(p for p in self.properties if p.kind is kind)
        if not props:
            raise ValueError(f"schema has no {kind.value} properties")
        return DatasetSchema(properties=props)
