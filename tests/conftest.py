"""Shared fixtures: small deterministic workloads used across test modules.

Also registers the hypothesis profiles.  ``tier1`` (the default) is
derandomized, so every run of the suite draws the same examples, and
sets no deadline, so a slow host cannot fail a property test.
``ci-explore`` draws fresh random examples, runs more of them for the
tests that leave the count to the profile, and prints the blob that
reproduces a failure::

    pytest tests/ --hypothesis-profile=ci-explore
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.data import (
    DatasetBuilder,
    DatasetSchema,
    TruthTable,
    categorical,
    continuous,
)
from repro.datasets import WeatherConfig, generate_weather_dataset

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.register_profile("ci-explore", deadline=None, max_examples=500,
                          print_blob=True)
settings.load_profile("tier1")


@pytest.fixture()
def mixed_schema() -> DatasetSchema:
    """Two continuous + one categorical property."""
    return DatasetSchema.of(
        continuous("temp", unit="F"),
        continuous("humidity"),
        categorical("condition", ["sunny", "cloudy", "rain"]),
    )


@pytest.fixture()
def tiny_dataset(mixed_schema):
    """Five objects, three sources, fully observed, known conflicts."""
    builder = DatasetBuilder(mixed_schema)
    rows = {
        # object: source -> (temp, humidity, condition)
        "o1": {"a": (70.0, 0.50, "sunny"), "b": (71.0, 0.52, "sunny"),
               "c": (55.0, 0.90, "rain")},
        "o2": {"a": (65.0, 0.60, "cloudy"), "b": (64.0, 0.61, "cloudy"),
               "c": (64.5, 0.62, "cloudy")},
        "o3": {"a": (80.0, 0.30, "sunny"), "b": (79.0, 0.33, "sunny"),
               "c": (95.0, 0.10, "sunny")},
        "o4": {"a": (60.0, 0.70, "rain"), "b": (61.0, 0.72, "rain"),
               "c": (75.0, 0.20, "sunny")},
        "o5": {"a": (72.0, 0.45, "cloudy"), "b": (73.0, 0.44, "cloudy"),
               "c": (72.5, 0.47, "rain")},
    }
    for object_id, claims in rows.items():
        for source, (temp, humidity, condition) in claims.items():
            builder.add_row(object_id, source, {
                "temp": temp, "humidity": humidity, "condition": condition,
            })
    return builder.build()


@pytest.fixture()
def tiny_truth(mixed_schema, tiny_dataset) -> TruthTable:
    """Ground truth matching ``tiny_dataset`` (sources a, b are good)."""
    return TruthTable.from_labels(
        mixed_schema,
        tiny_dataset.object_ids,
        {
            "temp": [70.5, 64.5, 79.5, 60.5, 72.5],
            "humidity": [0.51, 0.61, 0.31, 0.71, 0.45],
            "condition": ["sunny", "cloudy", "sunny", "rain", "cloudy"],
        },
        codecs=tiny_dataset.codecs(),
    )


def make_synthetic(n_objects: int = 60, n_sources: int = 5, seed: int = 0,
                   sigmas=(0.5, 1.0, 2.0, 6.0, 10.0),
                   flips=(0.05, 0.10, 0.20, 0.55, 0.70)):
    """A mixed-type workload with known per-source quality.

    Returns (dataset, truth).  Sources are ordered best-to-worst, so
    tests can assert on weight orderings.
    """
    rng = np.random.default_rng(seed)
    schema = DatasetSchema.of(
        continuous("x"), categorical("c", ["r", "g", "b", "y"])
    )
    true_x = rng.normal(50.0, 12.0, n_objects)
    true_c = rng.integers(0, 4, n_objects)
    labels = ["r", "g", "b", "y"]
    builder = DatasetBuilder(schema)
    for i in range(n_objects):
        for k in range(n_sources):
            builder.add(f"o{i}", f"s{k}", "x",
                        float(true_x[i] + rng.normal(0.0, sigmas[k])))
            code = int(true_c[i])
            if rng.random() < flips[k]:
                code = (code + int(rng.integers(1, 4))) % 4
            builder.add(f"o{i}", f"s{k}", "c", labels[code])
    dataset = builder.build()
    truth = TruthTable.from_labels(
        schema, dataset.object_ids,
        {"x": true_x.tolist(), "c": [labels[int(c)] for c in true_c]},
        codecs=dataset.codecs(),
    )
    return dataset, truth


@pytest.fixture()
def synthetic_workload():
    return make_synthetic()


@pytest.fixture(scope="session")
def small_weather():
    """A reduced weather workload shared by slower integration tests."""
    config = WeatherConfig(n_cities=8, n_days=16, seed=5)
    return generate_weather_dataset(config)
