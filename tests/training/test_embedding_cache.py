"""Tests for the frozen-encoder embedding cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.models import build_model
from repro.training import EmbeddingCache, compute_embeddings


@pytest.fixture(scope="module")
def model():
    m = build_model("moment-tiny", seed=0)
    m.eval()
    return m


class TestComputeEmbeddings:
    def test_shape(self, model, rng):
        emb = compute_embeddings(model, rng.normal(size=(10, 32, 3)))
        assert emb.shape == (10, 64)

    def test_matches_direct_encode(self, model, rng):
        x = rng.normal(size=(7, 32, 3))
        with nn.no_grad():
            direct = model.encode(x).data
        np.testing.assert_allclose(compute_embeddings(model, x), direct, atol=1e-10)

    def test_batch_size_independent(self, model, rng):
        """Tiled execution: a row's bits do not depend on its call's size."""
        x = rng.normal(size=(9, 32, 3))
        whole = compute_embeddings(model, x)
        split = np.concatenate(
            [compute_embeddings(model, x[:2]), compute_embeddings(model, x[2:])]
        )
        np.testing.assert_array_equal(whole, split)

    def test_rejects_wrong_ndim(self, model):
        with pytest.raises(ValueError):
            compute_embeddings(model, np.zeros((4, 5)))

    def test_restores_training_mode(self, model, rng):
        model.train()
        compute_embeddings(model, rng.normal(size=(2, 32, 2)))
        assert model.training
        model.eval()

    def test_no_graph_built(self, model, rng):
        """Embeddings come back as plain arrays (inference only)."""
        emb = compute_embeddings(model, rng.normal(size=(3, 32, 2)))
        assert isinstance(emb, np.ndarray)

    def test_compiled_replay_is_bit_identical(self, model, rng):
        """compiled=True replays the frozen encoder to the same bits."""
        model.freeze()
        x = rng.normal(size=(9, 32, 3))
        eager = compute_embeddings(model, x, compiled=False)
        compiled = compute_embeddings(model, x, compiled=True)
        np.testing.assert_array_equal(compiled, eager)
        assert model._graph_cache.stats()["compiled"] >= 1

    def test_repeated_batches_replay_one_graph_per_bucket(self, model, rng):
        model.freeze()
        model._graph_cache.clear()
        before = model._graph_cache.stats()["misses"]
        compute_embeddings(model, rng.normal(size=(10, 32, 3)))
        stats = model._graph_cache.stats()
        # Three tiles (the last one padded) share one (shape, dtype)
        # bucket: a single capture, then replays.
        assert stats["misses"] - before == 1
        assert stats["hits"] >= 2


class TestComputeEmbeddingsEmpty:
    def test_empty_batch_returns_well_shaped_array(self, model):
        emb = compute_embeddings(model, np.zeros((0, 32, 3)))
        assert emb.shape == (0, model.embed_dim)
        assert emb.dtype == model.dtype

    def test_empty_batch_any_geometry(self, model):
        assert compute_embeddings(model, np.zeros((0, 7, 11))).shape == (0, 64)


class TestEmbeddingCache:
    def test_caches_by_identity(self, model, rng):
        cache = EmbeddingCache(model)
        x = rng.normal(size=(5, 32, 2))
        a = cache.get(x)
        b = cache.get(x)
        assert a is b
        assert len(cache) == 1

    def test_distinct_arrays_distinct_entries(self, model, rng):
        cache = EmbeddingCache(model)
        cache.get(rng.normal(size=(3, 32, 2)))
        cache.get(rng.normal(size=(3, 32, 2)))
        assert len(cache) == 2

    def test_clear(self, model, rng):
        cache = EmbeddingCache(model)
        cache.get(rng.normal(size=(3, 32, 2)))
        cache.clear()
        assert len(cache) == 0


class TestContentAddressing:
    """Regression tests for the old ``id()``-keyed cache's failure modes.

    ``id(x)`` can be recycled after garbage collection (a brand-new
    array could silently inherit another array's embeddings) and never
    notices in-place mutation.  Content keys make both impossible: the
    key is a pure function of the array's bytes, so an equal copy hits
    and any mutation misses.
    """

    def test_equal_content_shares_one_entry(self, model, rng):
        cache = EmbeddingCache(model)
        x = rng.normal(size=(4, 32, 2))
        a = cache.get(x)
        b = cache.get(x.copy())  # different object, same bytes
        assert a is b
        assert len(cache) == 1

    def test_key_is_independent_of_object_identity(self, model, rng):
        cache = EmbeddingCache(model)
        x = rng.normal(size=(4, 32, 2))
        assert cache.key_for(x) == cache.key_for(x.copy())

    def test_mutation_cannot_return_stale_embeddings(self, model, rng):
        cache = EmbeddingCache(model)
        x = rng.normal(size=(4, 32, 2))
        stale = cache.get(x).copy()
        x[0] += 10.0  # in-place mutation: same object, new content
        fresh = cache.get(x)
        assert len(cache) == 2
        np.testing.assert_allclose(fresh, compute_embeddings(model, x), atol=1e-10)
        assert not np.allclose(fresh, stale)

    def test_recycled_storage_cannot_return_stale_embeddings(self, model, rng):
        """A new array reusing a dead array's memory gets its own entry."""
        cache = EmbeddingCache(model)
        x = rng.normal(size=(4, 32, 2))
        first_key = cache.key_for(x)
        cache.get(x)
        del x  # the old id()/buffer may now be recycled...
        y = rng.normal(size=(4, 32, 2))
        assert cache.key_for(y) != first_key
        np.testing.assert_allclose(
            cache.get(y), compute_embeddings(model, y), atol=1e-10
        )
        assert len(cache) == 2

    def test_model_weights_are_part_of_the_key(self, rng):
        from repro.runtime import ArtifactStore

        store = ArtifactStore()
        x = rng.normal(size=(3, 32, 2))
        cache_a = EmbeddingCache(build_model("moment-tiny", seed=0), store=store)
        cache_b = EmbeddingCache(build_model("moment-tiny", seed=1), store=store)
        emb_a = cache_a.get(x)
        emb_b = cache_b.get(x)
        assert len(store) == 2  # no cross-contamination between models
        assert not np.allclose(emb_a, emb_b)

    def test_adapter_fingerprint_separates_entries(self, model, rng):
        from repro.runtime import ArtifactStore

        store = ArtifactStore()
        x = rng.normal(size=(3, 32, 2))
        EmbeddingCache(model, store=store, adapter_fingerprint="pca-fit-1").get(x)
        EmbeddingCache(model, store=store, adapter_fingerprint="svd-fit-1").get(x)
        assert len(store) == 2

    def test_disk_store_serves_fresh_instance(self, model, rng, tmp_path):
        from repro.runtime import ArtifactStore

        x = rng.normal(size=(3, 32, 2))
        warm = EmbeddingCache(model, store=ArtifactStore(tmp_path)).get(x)
        fresh_store = ArtifactStore(tmp_path)
        served = EmbeddingCache(model, store=fresh_store).get(x)
        np.testing.assert_array_equal(served, warm)
        assert fresh_store.stats.hits == 1
        assert fresh_store.stats.misses == 0
