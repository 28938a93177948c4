"""Fine-grained source weights (Section 2.5, "Source weight consistency").

CRH assumes a source is equally reliable on every property.  When that
assumption fails — a weather site nails temperatures but guesses
conditions — the paper proposes "dividing w_k into fine-grained weights,
each of which corresponds to a local reliability degree of the source on
a subset of properties or objects".

:class:`FineGrainedCRHSolver` implements the per-property-subset variant:
properties are partitioned into *groups*, each group gets its own weight
vector, and the block coordinate descent alternates a per-group weight
step (Eq. 5 restricted to the group's deviations) with the usual
per-entry truth step using the owning group's weights.  With a single
group this degrades exactly to plain CRH.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..data.table import MultiSourceDataset
from .losses import TruthState, losses_for_schema
from .objective import ConvergenceCriterion, DeviationOptions
from .regularizers import ExponentialWeights, WeightScheme
from .result import TruthDiscoveryResult
from .solver import CRHConfig, states_to_truth_table
from .initialization import initializer_by_name


@dataclass(frozen=True)
class FineGrainedConfig:
    """Configuration of the fine-grained solver.

    ``groups`` maps property names to group labels; properties sharing a
    label share a weight vector.  Unmapped properties fall into a group
    per data kind (one for categorical, one for continuous), which is the
    natural default when types differ in difficulty.  Set
    ``groups="per-property"`` to give every property its own weights.
    """

    groups: Mapping[str, str] | str | None = None
    categorical_loss: str = "zero_one"
    continuous_loss: str = "absolute"
    text_loss: str = "edit_distance"
    weight_scheme: WeightScheme = field(
        default_factory=lambda: ExponentialWeights(normalizer="max")
    )
    initializer: str = "vote_median"
    max_iterations: int = 100
    tol: float = 1e-6
    normalize_by_counts: bool = True

    def resolve_groups(self, dataset: MultiSourceDataset) -> dict[str, str]:
        """Group label per property name."""
        if self.groups == "per-property":
            return {p.name: p.name for p in dataset.schema}
        explicit = dict(self.groups or {})
        resolved: dict[str, str] = {}
        for prop in dataset.schema:
            if prop.name in explicit:
                resolved[prop.name] = str(explicit[prop.name])
            else:
                resolved[prop.name] = f"__{prop.kind.value}__"
        return resolved


@dataclass
class FineGrainedResult:
    """Truths plus one weight vector per property group."""

    result: TruthDiscoveryResult
    group_of_property: dict[str, str]
    group_weights: dict[str, np.ndarray]

    @property
    def truths(self):
        return self.result.truths

    def weights_for_property(self, name: str) -> np.ndarray:
        """The weight vector of ``name``'s group."""
        return self.group_weights[self.group_of_property[name]]


class FineGrainedCRHSolver:
    """Block coordinate descent with per-group source weights."""

    def __init__(self, config: FineGrainedConfig | None = None) -> None:
        self.config = config or FineGrainedConfig()

    def fit(self, dataset: MultiSourceDataset) -> FineGrainedResult:
        """Run the per-group block coordinate descent on ``dataset``."""
        started = time.perf_counter()
        config = self.config
        group_of_property = config.resolve_groups(dataset)
        group_names = sorted(set(group_of_property.values()))
        members: dict[str, list[int]] = {g: [] for g in group_names}
        for m, prop in enumerate(dataset.schema):
            members[group_of_property[prop.name]].append(m)

        losses = losses_for_schema(dataset.schema, config)
        initializer = initializer_by_name(config.initializer)
        columns = initializer(dataset)
        states: list[TruthState] = [
            loss.initial_state(prop, column)
            for loss, prop, column in zip(losses, dataset.properties,
                                          columns)
        ]

        k = dataset.n_sources
        group_weights = {g: np.ones(k) for g in group_names}
        criterion = ConvergenceCriterion(tol=config.tol)
        history: list[float] = []
        converged = False
        iterations = 0

        for iterations in range(1, config.max_iterations + 1):
            # Weight step, per group (Eq. 5 on the group's properties).
            for group in group_names:
                totals = np.zeros(k)
                counts = np.zeros(k)
                for m in members[group]:
                    dev = losses[m].deviations(states[m],
                                               dataset.properties[m])
                    totals += np.nansum(dev, axis=1)
                    counts += (~np.isnan(dev)).sum(axis=1)
                if config.normalize_by_counts:
                    with np.errstate(invalid="ignore", divide="ignore"):
                        per_source = np.where(counts > 0,
                                              totals / counts, 0.0)
                else:
                    per_source = totals
                group_weights[group] = config.weight_scheme.weights(
                    per_source
                )
            # Truth step with each property's own group weights.
            states = [
                losses[m].update_truth(
                    dataset.properties[m],
                    group_weights[group_of_property[
                        dataset.schema[m].name]],
                )
                for m in range(len(dataset.schema))
            ]
            # Objective: sum of per-group weighted deviations.
            objective = 0.0
            for group in group_names:
                weights = group_weights[group]
                for m in members[group]:
                    objective += losses[m].objective_contribution(
                        states[m], dataset.properties[m], weights
                    )
            history.append(objective)
            if criterion.update(objective):
                converged = True
                break

        truths = states_to_truth_table(dataset, states)
        combined = np.mean(np.stack(list(group_weights.values())), axis=0)
        result = TruthDiscoveryResult(
            truths=truths,
            weights=combined,
            source_ids=dataset.source_ids,
            method="CRH-finegrained",
            iterations=iterations,
            converged=converged,
            objective_history=history,
            elapsed_seconds=time.perf_counter() - started,
        )
        return FineGrainedResult(
            result=result,
            group_of_property=group_of_property,
            group_weights=group_weights,
        )


def fine_grained_crh(dataset: MultiSourceDataset,
                     **config_overrides) -> FineGrainedResult:
    """One-call fine-grained CRH (see :class:`FineGrainedConfig`)."""
    config = FineGrainedConfig(**config_overrides)
    return FineGrainedCRHSolver(config).fit(dataset)
