"""Metamorphic and negative tests for chunked long-series encoding.

``encode_long`` has no reference implementation to diff against at
arbitrary lengths, so its contract is pinned by *relations*:

* order-invariant aggregations (``mean``, ``attention``) must not care
  how the per-window embeddings are permuted;
* per-window embeddings must not depend on what comes later in the
  stream (prefix consistency, bit-exact) — the fixed-width padding
  discipline is exactly what makes this hold;
* bad geometries fail with the *named* typed errors, not whatever a
  deeper layer happens to raise;
* the rolling content-addressed cache must never serve an embedding
  for data that drifted underneath it (seeded mutation test).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import load_pretrained
from repro.stream import (
    AGGREGATIONS,
    SeriesTooShortError,
    WindowGeometryError,
    WindowEmbeddingCache,
    encode_long,
)
from repro.stream.encode import _attention_pool


@pytest.fixture(scope="module")
def model():
    return load_pretrained("moment-tiny", seed=0)


@pytest.fixture()
def series(rng):
    return rng.normal(size=(70, 3))


class TestNegativeContracts:
    def test_stride_larger_than_window_raises_geometry_error(self, model, series):
        with pytest.raises(WindowGeometryError):
            encode_long(model, series, window=8, stride=9)

    def test_series_shorter_than_window_raises_too_short(self, model, rng):
        with pytest.raises(SeriesTooShortError):
            encode_long(model, rng.normal(size=(7, 3)), window=8, stride=4)

    def test_unknown_aggregation_rejected(self, model, series):
        with pytest.raises(ValueError, match="aggregation"):
            encode_long(model, series, window=8, stride=4, agg="max")

    def test_batched_input_rejected(self, model, rng):
        with pytest.raises(ValueError, match="T, D"):
            encode_long(model, rng.normal(size=(2, 32, 3)), window=8, stride=4)

    def test_non_positive_batch_windows_rejected(self, model, series):
        with pytest.raises(ValueError, match="batch_windows"):
            encode_long(model, series, window=8, stride=4, batch_windows=0)


class TestAggregation:
    def test_all_aggregations_produce_embedding_dim_vectors(self, model, series):
        for agg in AGGREGATIONS:
            enc = encode_long(model, series, window=16, stride=8, agg=agg)
            assert enc.pooled.ndim == 1
            assert enc.agg == agg
            assert enc.num_windows == 7  # (70 - 16) // 8 + 1

    def test_mean_matches_full_matrix_mean(self, model, series):
        enc = encode_long(
            model, series, window=16, stride=8, agg="mean", return_windows=True
        )
        expected = enc.window_embeddings.mean(axis=0, dtype=np.float64)
        # The pooled vector is cast back to the model dtype (float32),
        # so agreement is at float32 resolution, not float64.
        np.testing.assert_allclose(enc.pooled, expected, rtol=1e-6, atol=1e-7)

    def test_last_is_final_window_bit_exact(self, model, series):
        enc = encode_long(
            model, series, window=16, stride=8, agg="last", return_windows=True
        )
        np.testing.assert_array_equal(enc.pooled, enc.window_embeddings[-1])

    def test_window_matrix_only_retained_on_request(self, model, series):
        assert encode_long(model, series, 16, 8).window_embeddings is None
        assert encode_long(model, series, 16, 8, agg="attention").window_embeddings is None
        kept = encode_long(model, series, 16, 8, return_windows=True).window_embeddings
        assert kept is not None and kept.shape[0] == 7

    @pytest.mark.parametrize("agg", ["mean", "attention"])
    def test_order_invariant_aggs_survive_permutation(self, model, series, rng, agg):
        """Metamorphic: permuting the window embeddings must not move
        an order-invariant pool (``last`` deliberately fails this)."""
        enc = encode_long(
            model, series, window=16, stride=8, agg=agg, return_windows=True
        )
        permuted = enc.window_embeddings[rng.permutation(enc.num_windows)]
        if agg == "mean":
            repooled = permuted.mean(axis=0, dtype=np.float64)
        else:
            repooled = _attention_pool(permuted)
        np.testing.assert_allclose(enc.pooled, repooled, rtol=1e-6, atol=1e-7)

    def test_attention_weights_favour_no_window_spuriously(self, model, series):
        # Attention pooling is a convex combination: the pooled vector
        # stays inside the embeddings' coordinate-wise envelope.
        enc = encode_long(
            model, series, window=16, stride=8, agg="attention", return_windows=True
        )
        eps = 1e-5  # pooling runs in float64, the result is cast back
        assert np.all(enc.pooled <= enc.window_embeddings.max(axis=0) + eps)
        assert np.all(enc.pooled >= enc.window_embeddings.min(axis=0) - eps)


class TestChunkingInvariance:
    def test_prefix_windows_are_bit_identical(self, model, rng):
        """Window w's embedding must not depend on how much stream
        followed it — the padded fixed-width batches make every window's
        bits independent of its co-batch content."""
        x = rng.normal(size=(90, 4))
        full = encode_long(
            model, x, window=12, stride=6, batch_windows=4, return_windows=True
        )
        prefix = encode_long(
            model, x[:48], window=12, stride=6, batch_windows=4, return_windows=True
        )
        np.testing.assert_array_equal(
            full.window_embeddings[: prefix.num_windows], prefix.window_embeddings
        )

    def test_transform_hook_is_applied_per_batch(self, model, rng):
        x = rng.normal(size=(48, 3))
        zeroed = encode_long(
            model, x, window=12, stride=12, transform=lambda wins: wins * 0.0
        )
        true_zero = encode_long(model, np.zeros((48, 3)), window=12, stride=12)
        np.testing.assert_array_equal(zeroed.pooled, true_zero.pooled)


class TestCacheDrift:
    """The rolling cache must never serve an embedding for mutated data."""

    def test_mutated_window_is_re_encoded(self, fitted, rng):
        cache = WindowEmbeddingCache(fitted.pipeline)
        window = rng.normal(size=(16, 12))
        first = cache.embedding(window)
        assert cache.stats()["misses"] == 1

        # Drift: the caller mutates the very array it handed in.  A
        # cache keyed on identity (the PR 1 bug class) would happily
        # serve `first` again; content keys cannot.
        window[3, 7] += 1.0
        second = cache.embedding(window)
        assert cache.stats()["misses"] == 2
        assert cache.stats()["encoded_windows"] == 2
        assert not np.array_equal(first, second)

    def test_unchanged_content_hits_even_from_a_fresh_array(self, fitted, rng):
        cache = WindowEmbeddingCache(fitted.pipeline)
        window = rng.normal(size=(16, 12))
        first = cache.embedding(window)
        replayed = cache.embedding(window.copy())  # same bits, new object
        assert cache.stats()["hits"] == 1
        np.testing.assert_array_equal(first, replayed)

    def test_seeded_drift_walk_never_serves_stale(self, fitted):
        """Seeded adversarial walk: randomly mutate-or-replay a window;
        every replay must hit, every mutation must miss and re-encode."""
        cache = WindowEmbeddingCache(fitted.pipeline)
        drift_rng = np.random.default_rng(20260808)
        window = drift_rng.normal(size=(16, 12))
        embeddings = {cache.key_for(window): cache.embedding(window).copy()}
        for _ in range(12):
            if drift_rng.random() < 0.5:
                index = tuple(drift_rng.integers(0, s) for s in window.shape)
                window[index] += drift_rng.normal()
            key = cache.key_for(window)
            known = key in embeddings
            hits_before = cache.hits
            embedding = cache.embedding(window)
            if known:
                # Same content as some earlier state: must be served
                # from cache, bit-identical to what that state got.
                assert cache.hits == hits_before + 1
                np.testing.assert_array_equal(embedding, embeddings[key])
            else:
                assert cache.hits == hits_before
                embeddings[key] = embedding.copy()
