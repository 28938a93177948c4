"""Tests for stream chunking and incremental CRH (Algorithm 2)."""

import numpy as np
import pytest

from repro.streaming import (
    ICRHConfig,
    IncrementalCRH,
    chunk_by_window,
    icrh,
    n_chunks,
)
from repro.metrics import error_rate, mnad, rank_agreement
from repro import crh


class TestChunking:
    def test_covers_all_objects_once(self, small_weather):
        dataset = small_weather.dataset
        seen = np.zeros(dataset.n_objects, dtype=int)
        for chunk in chunk_by_window(dataset, window=1):
            seen[chunk.object_indices] += 1
        assert (seen == 1).all()

    def test_chunks_ordered_by_time(self, small_weather):
        dataset = small_weather.dataset
        last = -1
        for chunk in chunk_by_window(dataset, window=1):
            assert min(chunk.timestamps) > last
            last = max(chunk.timestamps)

    def test_window_size_groups_timestamps(self, small_weather):
        dataset = small_weather.dataset
        for chunk in chunk_by_window(dataset, window=3):
            assert len(chunk.timestamps) <= 3

    def test_n_chunks(self, small_weather):
        dataset = small_weather.dataset
        n_days = np.unique(dataset.object_timestamps).size
        assert n_chunks(dataset, 1) == n_days
        assert n_chunks(dataset, 5) == -(-n_days // 5)
        assert sum(1 for _ in chunk_by_window(dataset, 5)) == \
            n_chunks(dataset, 5)

    def test_requires_timestamps(self, tiny_dataset):
        with pytest.raises(ValueError, match="timestamps"):
            list(chunk_by_window(tiny_dataset, 1))
        with pytest.raises(ValueError, match="timestamps"):
            n_chunks(tiny_dataset, 1)

    def test_invalid_window(self, small_weather):
        with pytest.raises(ValueError, match="window"):
            list(chunk_by_window(small_weather.dataset, 0))


class TestIncrementalCRH:
    def test_initial_state(self):
        model = IncrementalCRH()
        with pytest.raises(ValueError, match="no chunk"):
            _ = model.weights
        with pytest.raises(ValueError, match="no chunk"):
            _ = model.weight_history

    def test_partial_fit_returns_chunk_truths(self, small_weather):
        model = IncrementalCRH()
        chunks = list(chunk_by_window(small_weather.dataset, 1))
        truths = model.partial_fit(chunks[0].dataset)
        assert truths.n_objects == chunks[0].dataset.n_objects
        assert model.chunks_seen == 1

    def test_weight_history_grows(self, small_weather):
        model = IncrementalCRH()
        for i, chunk in enumerate(chunk_by_window(small_weather.dataset,
                                                  1)):
            model.partial_fit(chunk.dataset)
            assert model.weight_history.shape == \
                (i + 1, small_weather.dataset.n_sources)

    def test_new_sources_join_midstream(self, small_weather,
                                        tiny_dataset):
        """The source set may evolve: unseen sources register with the
        Algorithm-2 initialization instead of being rejected."""
        model = IncrementalCRH()
        chunk = next(chunk_by_window(small_weather.dataset, 1))
        model.partial_fit(chunk.dataset)
        k_before = len(model.source_ids)
        model.partial_fit(tiny_dataset)   # 3 entirely new sources
        assert len(model.source_ids) == k_before + 3
        assert model.weights.shape == (k_before + 3,)
        history = model.weight_history
        # Pre-arrival chunks carry NaN for the late joiners.
        assert np.isnan(history[0, k_before:]).all()
        assert not np.isnan(history[1]).any()

    def test_absent_sources_keep_decaying(self, small_weather):
        """A source missing from a chunk contributes nothing but its
        history decays; it is not treated as perfectly reliable."""
        chunks = list(chunk_by_window(small_weather.dataset, 1))
        model = IncrementalCRH(ICRHConfig(decay=0.5))
        model.partial_fit(chunks[0].dataset)
        # Feed a chunk missing the worst source entirely.
        keep = np.arange(small_weather.dataset.n_sources - 1)
        model.partial_fit(chunks[1].dataset.select_sources(keep))
        assert model.weights.shape == (small_weather.dataset.n_sources,)
        assert np.isfinite(model.weights).all()

    def test_invalid_decay(self):
        with pytest.raises(ValueError, match="decay"):
            ICRHConfig(decay=1.5)


class TestFullStream:
    def test_truths_cover_every_object(self, small_weather):
        result = icrh(small_weather.dataset, window=1)
        assert result.truths.object_ids == small_weather.dataset.object_ids
        # Every entry with observations resolved.
        high = result.truths.column("high_temp")
        observed = small_weather.dataset.property_observations(
            "high_temp"
        ).entry_mask()
        assert not np.isnan(high[observed]).any()

    def test_accuracy_close_to_batch(self, small_weather):
        """Table 5's claim: slightly worse than CRH, not dramatically."""
        stream = icrh(small_weather.dataset, window=1)
        batch = crh(small_weather.dataset)
        stream_err = error_rate(stream.truths, small_weather.truth)
        batch_err = error_rate(batch.truths, small_weather.truth)
        assert stream_err <= batch_err + 0.08
        stream_mnad = mnad(stream.truths, small_weather.truth)
        batch_mnad = mnad(batch.truths, small_weather.truth)
        assert stream_mnad <= batch_mnad * 1.5 + 0.02

    def test_weights_converge_to_batch_ordering(self, small_weather):
        """Fig. 4b: stabilized I-CRH weights rank sources like CRH."""
        stream = icrh(small_weather.dataset, window=1)
        batch = crh(small_weather.dataset)
        assert rank_agreement(stream.weights, batch.weights) > 0.8

    def test_weights_stabilize(self, small_weather):
        """Fig. 4a: weights reach a stable stage after a few chunks —
        late normalized weight vectors drift only slightly."""
        stream = icrh(small_weather.dataset, window=1)
        history = stream.weight_history
        late = history[-8:]
        # The best source stops changing identity, and the worst stays
        # within the bottom tier (the two worst sources are near-ties).
        assert len({int(row.argmax()) for row in late}) == 1
        bottom = {int(row.argmin()) for row in late}
        worst_three = set(np.argsort(late[-1])[:3].tolist())
        assert bottom <= worst_three

    def test_decay_zero_uses_only_current_chunk(self, small_weather):
        result = icrh(small_weather.dataset, window=1,
                      config=ICRHConfig(decay=0.0))
        assert result.weight_history.shape[0] == \
            n_chunks(small_weather.dataset, 1)

    def test_insensitive_to_decay(self, small_weather):
        """Fig. 6: accuracy varies little across alpha."""
        errors = []
        for decay in (0.1, 0.5, 0.9):
            result = icrh(small_weather.dataset, window=1,
                          config=ICRHConfig(decay=decay))
            errors.append(error_rate(result.truths, small_weather.truth))
        assert max(errors) - min(errors) < 0.08

    def test_chunk_sizes_recorded(self, small_weather):
        result = icrh(small_weather.dataset, window=2)
        assert sum(result.chunk_sizes) == small_weather.dataset.n_objects

    def test_single_pass_faster_than_batch_on_large_chunks(self):
        """Table 5's efficiency claim, at a scale where it holds."""
        import time
        from repro.datasets import StockConfig, generate_stock_dataset
        generated = generate_stock_dataset(
            StockConfig(n_symbols=60, n_days=8, seed=2)
        )
        started = time.perf_counter()
        crh(generated.dataset)
        batch_seconds = time.perf_counter() - started
        started = time.perf_counter()
        icrh(generated.dataset, window=1)
        stream_seconds = time.perf_counter() - started
        assert stream_seconds < batch_seconds


class TestResultMetadata:
    """icrh() results report honest convergence."""

    def test_converged_reflects_final_weight_delta(self, small_weather):
        dataset = small_weather.dataset
        loose = icrh(dataset, window=2, config=ICRHConfig(tol=1e9))
        assert loose.result.converged
        # An impossible tolerance: the final chunk still moves weights.
        strict = icrh(dataset, window=2, config=ICRHConfig(tol=0.0))
        assert not strict.result.converged

    def test_last_weight_delta_exposed(self, small_weather):
        model = IncrementalCRH()
        assert model.last_weight_delta is None
        chunk = next(chunk_by_window(small_weather.dataset, 1))
        model.partial_fit(chunk.dataset)
        assert model.last_weight_delta is not None
        assert model.last_weight_delta >= 0.0

    def test_invalid_tol(self):
        with pytest.raises(ValueError, match="tol"):
            ICRHConfig(tol=-1.0)


class TestDecayUnderAbsence:
    """Late and absent sources under decay (Algorithm 2 line 4)."""

    def test_absent_source_accumulator_keeps_decaying(self, small_weather):
        dataset = small_weather.dataset
        chunks = list(chunk_by_window(dataset, 1))
        model = IncrementalCRH(ICRHConfig(decay=0.5))
        model.partial_fit(chunks[0].dataset)
        k = dataset.n_sources
        acc_before = model.accumulated.copy()
        cnt_before = model.counts.copy()
        keep = np.arange(k - 1)   # drop the last source entirely
        model.partial_fit(chunks[1].dataset.select_sources(keep))
        assert model.accumulated[k - 1] == acc_before[k - 1] * 0.5
        assert model.counts[k - 1] == cnt_before[k - 1] * 0.5

    def test_absent_source_reenters_with_history(self, small_weather):
        """A source that skips a chunk re-enters against its decayed
        accumulator, not a fresh weight-1 registration."""
        dataset = small_weather.dataset
        chunks = list(chunk_by_window(dataset, 1))
        k = dataset.n_sources
        keep = np.arange(k - 1)
        model = IncrementalCRH(ICRHConfig(decay=0.5))
        model.partial_fit(chunks[0].dataset)
        model.partial_fit(chunks[1].dataset.select_sources(keep))
        decayed = model.accumulated[k - 1]
        model.partial_fit(chunks[2].dataset)   # the source is back
        assert len(model.source_ids) == k      # no duplicate registration
        # Its accumulator continued from the decayed value.
        assert model.accumulated[k - 1] != decayed
        history = model.weight_history
        assert history.shape == (3, k)
        assert not np.isnan(history[:, k - 1]).any()

    def test_weight_history_nan_padding_out_of_order(
            self, small_weather, tiny_dataset):
        """Sources arriving out of order pad history in first-appearance
        order: NaN before a source existed, finite ever after."""
        model = IncrementalCRH()
        model.partial_fit(tiny_dataset)        # sources a, b, c
        chunk = next(chunk_by_window(small_weather.dataset, 1))
        model.partial_fit(chunk.dataset)       # 9 weather sources join
        model.partial_fit(tiny_dataset)        # early sources again
        k = len(model.source_ids)
        assert model.source_ids[:3] == tuple(tiny_dataset.source_ids)
        history = model.weight_history
        assert history.shape == (3, k)
        assert np.isnan(history[0, 3:]).all()      # pre-arrival chunks
        assert not np.isnan(history[0, :3]).any()
        assert not np.isnan(history[1:]).any()     # never NaN again
