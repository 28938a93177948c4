"""Plugging custom loss functions into the CRH framework.

Section 2.4.2: "the proposed general framework can take any loss
function that is selected based on data types and distributions".  This
example exercises that claim three ways on a positive-valued sensor
workload with occasional gross outliers:

1. the paper's published choices (normalized absolute / squared);
2. the built-in extensions (Huber; the Bregman family of Section 2.5,
   whose truth update is the weighted mean for *every* generator);
3. a user-defined loss registered at runtime via ``register_loss``.

Run:  python examples/custom_losses.py
"""

import numpy as np

from repro import crh
from repro.core import kernels, register_loss
from repro.core.losses import Loss, TruthState
from repro.data import DatasetBuilder, DatasetSchema, TruthTable, continuous
from repro.data.schema import PropertyKind
from repro.metrics import mnad

# ----------------------------------------------------------------------
# workload: positive power readings, one sensor occasionally misfires
# ----------------------------------------------------------------------
rng = np.random.default_rng(5)
N = 120
schema = DatasetSchema.of(continuous("power", unit="W"))
true_power = rng.lognormal(3.0, 0.7, N)
builder = DatasetBuilder(schema)
profiles = {"cal-a": 0.03, "cal-b": 0.06, "field-1": 0.15,
            "field-2": 0.25, "flaky": 0.5}
for i in range(N):
    for sensor, sigma in profiles.items():
        reading = true_power[i] * float(np.exp(rng.normal(0, sigma)))
        if sensor == "flaky" and rng.random() < 0.08:
            reading *= 50.0            # misfire: gross positive outlier
        builder.add(f"t{i}", sensor, "power", reading)
dataset = builder.build()
truth = TruthTable.from_labels(schema, dataset.object_ids,
                               {"power": true_power.tolist()})


# ----------------------------------------------------------------------
# a user-defined loss: log-space absolute deviation
# ----------------------------------------------------------------------
@register_loss
class LogAbsoluteLoss(Loss):
    """Absolute deviation in log space — natural for multiplicative
    (lognormal) sensor noise.  The truth update is the weighted median
    (monotone transforms preserve medians)."""

    name = "log_absolute"
    kind = PropertyKind.CONTINUOUS

    def initial_state(self, prop, init_column):
        """Wrap the initial truth column."""
        return TruthState(column=np.asarray(init_column, dtype=float))

    def update_truth(self, prop, weights):
        """Weighted median: the exact minimizer in log space too."""
        view = prop.claim_view()
        return TruthState(column=kernels.segment_weighted_median(
            view.values, view.claim_weights(weights), view.indptr
        ))

    def deviations(self, state, prop):
        """|log v - log v*| (NaN where unobserved)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.abs(
                np.log(prop.values) - np.log(state.column[None, :])
            )


LOSSES = (
    "absolute",                      # Eq. 15/16 (the paper's default)
    "squared",                       # Eq. 13/14
    "huber",                         # robust compromise
    "bregman_itakura_saito",         # Section 2.5's Bregman family
    "bregman_generalized_i",
    "log_absolute",                  # the custom loss above
)

print(f"{'loss':26s} {'MNAD':>8s}  flaky-sensor weight")
for loss_name in LOSSES:
    result = crh(dataset, continuous_loss=loss_name)
    flaky_weight = result.weights_by_source()["flaky"]
    print(f"{loss_name:26s} {mnad(result.truths, truth):8.4f}  "
          f"{flaky_weight:6.3f}")

print("\nSquared-family losses chase the misfires; the absolute, Huber "
      "and log-space losses absorb them — the trade-off Section 2.4.2 "
      "leaves to the loss designer.")
