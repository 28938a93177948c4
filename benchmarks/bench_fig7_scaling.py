"""Fig. 7 — parallel-CRH running time vs #entries and vs #sources.

Paper shape: with sources fixed, time grows linearly in the number of
entries; with entries fixed, time grows linearly in the number of
sources.  Checked twice: on the cost model's simulated seconds (the
paper's cluster), and as a log-log slope of the measured wall seconds
of the same runs (this machine).
"""

import numpy as np

from repro.experiments import run_fig7

from conftest import run_experiment


#: linear growth, measured: the wall-time log-log slope must sit here
WALL_SLOPE_WINDOW = (0.8, 1.25)


def log_log_slope(sizes, seconds) -> float:
    """Least-squares slope of ``log(seconds)`` against ``log(sizes)``."""
    return float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])


def test_fig7_linear_scaling(benchmark):
    result = run_experiment(
        benchmark, run_fig7,
        entry_counts=(20_000, 50_000, 100_000, 200_000),
        source_counts=(4, 8, 16, 24, 32),
        iterations=5, seed=3,
    )
    assert result.pearson_entries > 0.97
    assert result.pearson_sources > 0.97
    entry_times = [p.simulated_seconds for p in result.by_entries]
    source_times = [p.simulated_seconds for p in result.by_sources]
    assert entry_times == sorted(entry_times)
    assert source_times == sorted(source_times)
    entry_slope = log_log_slope([p.n_entries for p in result.by_entries],
                                [p.wall_seconds for p in result.by_entries])
    source_slope = log_log_slope([p.n_sources for p in result.by_sources],
                                 [p.wall_seconds for p in result.by_sources])
    print(f"\nmeasured log-log slope: {entry_slope:.2f} vs entries, "
          f"{source_slope:.2f} vs sources")
    assert WALL_SLOPE_WINDOW[0] <= entry_slope <= WALL_SLOPE_WINDOW[1]
    assert WALL_SLOPE_WINDOW[0] <= source_slope <= WALL_SLOPE_WINDOW[1]
