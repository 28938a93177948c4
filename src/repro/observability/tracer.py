"""Tracer implementations: in-memory and JSONL-file sinks.

A tracer is anything with an ``emit(record)`` method and a ``close()``
— the :class:`Tracer` protocol.  ``tracer=None`` is the off switch:
traced code guards record *construction* behind a ``tracer is not
None`` check, so an untraced run costs one comparison per iteration
and allocates nothing on the hot path.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class Tracer(Protocol):
    """Structural interface every tracer satisfies.

    ``emit`` receives one flat JSON-compatible dict per event; ``close``
    releases any sink resources (a no-op for memory tracers).
    """

    def emit(self, record: dict) -> None:
        """Deliver one trace record to the sink."""
        ...

    def close(self) -> None:
        """Flush and release the sink (idempotent)."""
        ...


class MemoryTracer:
    """Collects records in a list — the test/introspection tracer."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        """Append (a shallow copy of) the record to :attr:`records`."""
        self.records.append(dict(record))

    def close(self) -> None:
        """No resources to release; records stay available."""

    def events(self, event: str) -> list[dict]:
        """All collected records with the given ``event`` type."""
        return [r for r in self.records if r.get("event") == event]

    def __len__(self) -> int:
        return len(self.records)


def _jsonable(value):
    """JSON fallback for numpy scalars/arrays appearing in records."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(
        f"trace record value of type {type(value).__name__} "
        f"is not JSON-serializable"
    )


class JsonlTracer:
    """Writes one JSON object per line to a file — the durable tracer.

    Accepts a path (opened for writing; ``append=True`` to add to an
    existing trace) or any open text handle.  Usable as a context
    manager::

        with JsonlTracer("run.jsonl") as tracer:
            crh(dataset, tracer=tracer)
    """

    def __init__(self, sink: str | Path | IO[str],
                 append: bool = False) -> None:
        if hasattr(sink, "write"):
            self._handle: IO[str] = sink  # type: ignore[assignment]
            self._owns_handle = False
        else:
            mode = "a" if append else "w"
            self._handle = open(Path(sink), mode, encoding="utf-8")
            self._owns_handle = True
        self.emitted = 0

    def emit(self, record: dict) -> None:
        """Serialize the record as one JSON line and write it through.

        The line is written in a single ``write`` call so concurrent
        appenders to the same file cannot interleave a record with its
        newline.
        """
        self._handle.write(json.dumps(record, default=_jsonable) + "\n")
        self.emitted += 1

    def close(self) -> None:
        """Flush, and close the handle if this tracer opened it."""
        if self._owns_handle:
            if not self._handle.closed:
                self._handle.close()
        else:
            self._handle.flush()

    def __enter__(self) -> "JsonlTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_jsonl(text: str, source: str = "<string>") -> list[dict]:
    """Parse JSONL text back into records, skipping blank lines.

    A final line with no newline that does not parse is a torn tail — a
    writer killed mid-record — and is skipped.  Any other malformed line
    raises ``ValueError`` naming ``source`` and the 1-based line number.
    """
    lines = text.split("\n")
    records = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            if number == len(lines):
                break
            raise ValueError(
                f"{source}: line {number} is not a JSON record: {error}"
            ) from error
    return records


def append_record(path: str | Path, record: dict) -> None:
    """Append one record to a JSONL file as one atomic line.

    Opens the file with ``O_APPEND`` and writes the serialized record
    (including its newline) in a single ``os.write`` call, so records
    appended by overlapping processes — e.g. parallel benchmark sessions
    sharing one ``$REPRO_TRACE`` file — land as whole lines, never
    interleaved or split.  (POSIX guarantees ``O_APPEND`` writes are
    atomic with respect to each other for ordinary files.)
    """
    line = json.dumps(record, default=_jsonable) + "\n"
    fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)
