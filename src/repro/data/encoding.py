"""Label <-> integer code mapping for categorical properties.

Observation matrices store categorical values as ``int32`` codes (missing =
``-1``) so that the hot loops in the CRH solver and the baselines can run on
dense numpy arrays.  A :class:`CategoricalCodec` owns the bijection between
the user-facing labels and those codes for one property.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import numpy as np

#: Code used in observation/truth matrices for "no observation".
MISSING_CODE: int = -1


class CategoricalCodec:
    """Bidirectional mapping between category labels and integer codes.

    Codes are assigned in first-seen order when the codec is grown from
    data, or in declaration order when built from a closed domain.  The
    codec is append-only: encoding never invalidates previously issued
    codes, which lets streaming consumers (I-CRH) keep extending the same
    codec chunk after chunk.
    """

    def __init__(self, labels: Iterable[Hashable] = (), *,
                 frozen: bool = False) -> None:
        self._labels: list[Hashable] = []
        self._codes: dict[Hashable, int] = {}
        for label in labels:
            self._add(label)
        self._frozen = frozen

    @classmethod
    def from_domain(cls, labels: Iterable[Hashable]) -> "CategoricalCodec":
        """Codec over a closed domain; unseen labels raise at encode time."""
        return cls(labels, frozen=True)

    def _add(self, label: Hashable) -> int:
        if label in self._codes:
            raise ValueError(f"duplicate label {label!r}")
        code = len(self._labels)
        self._labels.append(label)
        self._codes[label] = code
        return code

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._codes

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def labels(self) -> tuple[Hashable, ...]:
        return tuple(self._labels)

    def encode(self, label: Hashable) -> int:
        """Code for ``label``, learning it if the codec is not frozen.

        ``None`` (and float NaN) encode to :data:`MISSING_CODE`.
        """
        if label is None:
            return MISSING_CODE
        if isinstance(label, float) and np.isnan(label):
            return MISSING_CODE
        code = self._codes.get(label)
        if code is not None:
            return code
        if self._frozen:
            raise KeyError(
                f"label {label!r} outside closed domain {self._labels}"
            )
        return self._add(label)

    def encode_many(self, labels: Sequence[Hashable]) -> np.ndarray:
        """Vector-encode a sequence of labels to an ``int32`` array.

        Same codes, and the same labels learned in the same order, as
        encoding one label at a time; each distinct label is encoded
        once.
        """
        codes = {label: self.encode(label) for label in dict.fromkeys(labels)}
        return np.fromiter(map(codes.__getitem__, labels), dtype=np.int32,
                           count=len(labels))

    def decode(self, code: int) -> Hashable | None:
        """Label for ``code``; :data:`MISSING_CODE` decodes to ``None``."""
        if code == MISSING_CODE:
            return None
        if not 0 <= code < len(self._labels):
            raise IndexError(f"code {code} out of range 0..{len(self) - 1}")
        return self._labels[code]

    def decode_many(self, codes: np.ndarray) -> list[Hashable | None]:
        """Decode an array of codes back to labels."""
        return [self.decode(int(c)) for c in np.asarray(codes).ravel()]
