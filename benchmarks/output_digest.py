"""Print short hashes of CRH's outputs, to show a change keeps every bit.

Each line names one run and hashes what it produced: the truth columns,
the source weights and, where the run has one, the objective or weight
history.  The runs cover

* ``crh`` on every backend (dense, sparse, process with 2 workers, and
  mmap over a saved, memory-mapped copy of the data) with both
  categorical losses, each paired with a continuous one: ``zero_one`` +
  ``absolute`` (the paper's recommended pair), ``probability`` +
  ``squared`` (the Bregman pair) and ``zero_one`` + ``huber`` (the
  robust extension, whose truth step also reads the median order); a
  run that degrades to another backend stops the script with an error;
* ``crh`` with ``backend="auto"`` on the same claims as a
  ``ClaimsMatrix`` and as its dense ``MultiSourceDataset`` twin, for
  each loss pair; a digest that differs from the pair's ``crh sparse``
  line stops the script with an error;
* ``icrh`` on a timestamped weather stream at windows 1 and 3;
* a ``TruthService`` replay of that stream in uneven ingest batches,
  then ``flush``.

Run it at two commits and compare the printed lines; a refactor or a
speed-up that claims the same outputs must print the same digests:

    PYTHONPATH=src python benchmarks/output_digest.py

Inputs are small and fixed (seeded), so one run takes a few seconds.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import crh
from repro.data import ClaimsMatrix
from repro.data.io import load_dataset, save_dataset
from repro.datasets import (
    ADULT_ROUNDING,
    PAPER_GAMMAS,
    WeatherConfig,
    generate_adult_truth,
    generate_weather_dataset,
    simulate_sources,
)
from repro.streaming import TruthService, icrh, iter_dataset_claims

LOSS_PAIRS = (("zero_one", "absolute"), ("probability", "squared"),
              ("zero_one", "huber"))
BACKENDS = ("dense", "sparse", "process", "mmap")
#: claims per mmap chunk, small enough that the input streams in several
#: chunks (the other backends ignore it)
MMAP_CHUNK_CLAIMS = 5_000
#: ingest batch sizes the replay cycles through (uneven on purpose)
REPLAY_BATCHES = (1, 37, 250)


def line(name: str, value: str) -> str:
    return f"{name:<36} {value}"


def digest(truths, weights, history=()) -> str:
    """First 16 hex digits of a sha256 over the outputs' raw bytes."""
    h = hashlib.sha256()
    for column in truths.columns:
        h.update(np.ascontiguousarray(column).tobytes())
    h.update(np.ascontiguousarray(weights, dtype=np.float64).tobytes())
    h.update(np.asarray(history, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def adult_dataset():
    """Adult-sim: 8 sources over 14 mixed properties, 10% missing."""
    truth = generate_adult_truth(400, seed=3)
    gammas = [PAPER_GAMMAS[i % len(PAPER_GAMMAS)] for i in range(8)]
    return simulate_sources(truth, gammas, np.random.default_rng(80),
                            rounding=ADULT_ROUNDING, missing_rate=0.1)


def weather_dataset():
    """A timestamped weather stream: 6 cities over 20 days."""
    return generate_weather_dataset(
        WeatherConfig(n_cities=6, n_days=20, seed=5)
    ).dataset


def crh_lines(dataset, claims, mapped) -> list[str]:
    lines = []
    for categorical, continuous in LOSS_PAIRS:
        losses = dict(categorical_loss=categorical,
                      continuous_loss=continuous)
        pair = f"{categorical}+{continuous}"
        for backend in BACKENDS:
            result = crh(mapped if backend == "mmap" else dataset,
                         backend=backend, n_workers=2,
                         chunk_claims=MMAP_CHUNK_CLAIMS, **losses)
            if result.backend != backend:
                raise SystemExit(f"crh backend={backend!r} finished on "
                                 f"{result.backend!r}: "
                                 f"{result.backend_reason}")
            hashed = digest(result.truths, result.weights,
                            result.objective_history)
            if backend == "sparse":
                sparse = hashed
            lines.append(line(f"crh {backend} {pair}", hashed))
        for label, data in (("claims", claims), ("dense", dataset)):
            result = crh(data, **losses)
            hashed = digest(result.truths, result.weights,
                            result.objective_history)
            if hashed != sparse:
                raise SystemExit(f"crh auto on {label} input "
                                 f"({result.backend_reason}) differs "
                                 f"from crh sparse {pair}")
            lines.append(line(f"crh auto({label}) {pair}", hashed))
    return lines


def stream_lines(dataset) -> list[str]:
    lines = []
    for window in (1, 3):
        run = icrh(dataset, window=window)
        lines.append(line(f"icrh window={window}",
                          digest(run.truths, run.weights,
                                 run.weight_history.ravel())))
    service = TruthService(dataset.schema, window=1,
                           codecs=dataset.codecs())
    claims = list(iter_dataset_claims(dataset))
    start, turn = 0, 0
    while start < len(claims):
        size = REPLAY_BATCHES[turn % len(REPLAY_BATCHES)]
        service.ingest(claims[start:start + size])
        start, turn = start + size, turn + 1
    service.flush()
    truths = service.get_truth(dataset.object_ids)
    lines.append(line("service replay+flush window=1",
                      digest(truths, service.get_weights())))
    return lines


def main() -> int:
    dataset = adult_dataset()
    with tempfile.TemporaryDirectory() as directory:
        claims = ClaimsMatrix.from_dense(dataset)
        save_dataset(claims, Path(directory))
        mapped = load_dataset(directory, mmap=True)
        lines = crh_lines(dataset, claims, mapped)
        del mapped
    lines += stream_lines(weather_dataset())
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
