"""Rolling, content-addressed cache of per-window embeddings.

The streaming classifier's core economy: a live feed re-presents
overlapping history on every push, but a window whose *content* has
not changed must never be re-encoded.  Like
:class:`repro.training.EmbeddingCache` (whose keying scheme this
reuses — :func:`repro.runtime.embedding_key` over model weights,
fitted adapter, data content and execution tile), entries are keyed
purely by content fingerprints, so

* pushing more samples never invalidates old windows (their content
  fingerprint is unchanged — hit);
* mutating a buffered array, refitting the adapter, or updating model
  weights *does* change the key — the cache can never serve an
  embedding for data that drifted (the PR 1 ``id(x)``-keying bug class
  is structurally impossible here, and a seeded drift test pins it).

The backing :class:`~repro.runtime.ArtifactStore` is memory-only with
a bounded LRU by default, making the cache *rolling*: windows that
scrolled out of the working set are evicted, keeping memory O(capacity)
rather than O(stream history).
"""

from __future__ import annotations

import numpy as np

from ..runtime import ArtifactStore, embedding_key, fingerprint_array
from ..training.embedding_cache import compute_embeddings
from ..training.tiles import TILE_ROWS

__all__ = ["WindowEmbeddingCache"]


class WindowEmbeddingCache:
    """Content-keyed embeddings of single ``(window, D)`` raw windows.

    Parameters
    ----------
    pipeline:
        A fitted :class:`~repro.training.AdapterPipeline`; windows run
        adapter -> normalise -> frozen encoder through its tile runner,
        so a cached embedding is the same bits the pipeline's offline
        prediction computes for that window (see
        :mod:`repro.training.tiles`).
    capacity:
        LRU bound of the default memory-only store (ignored when an
        explicit ``store`` is passed).
    store:
        Optional shared :class:`~repro.runtime.ArtifactStore` (e.g.
        disk-backed, to reuse window embeddings across processes).
    compiled:
        Route encoder passes through compiled graph replay.
    """

    def __init__(
        self,
        pipeline,
        capacity: int = 512,
        store: ArtifactStore | None = None,
        compiled: bool = True,
    ) -> None:
        self.pipeline = pipeline
        self.compiled = bool(compiled)
        self.store = (
            store if store is not None else ArtifactStore(max_memory_entries=capacity)
        )
        self.hits = 0
        self.misses = 0
        #: Total windows actually pushed through the encoder — the
        #: "re-encode work" counter the O(changed windows) benchmark
        #: asserts on.
        self.encoded_windows = 0
        self.refresh_fingerprints()

    # ------------------------------------------------------------------
    def refresh_fingerprints(self) -> None:
        """Re-read the model/adapter fingerprints into the key prefix.

        Must be called after any weight update upstream of the
        embeddings (e.g. a ``partial_fit`` that touched the adapter);
        the classifier does so automatically.  Head-only updates do not
        affect embeddings and need no refresh.
        """
        from ..runtime import fingerprint_adapter, fingerprint_model

        self._model_fp = fingerprint_model(self.pipeline.model)
        # "stream:" marks single-window entries so a shared store never
        # confuses them with full-dataset EmbeddingCache matrices.
        self._adapter_fp = "stream:" + fingerprint_adapter(self.pipeline.adapter)

    def key_for(self, window: np.ndarray) -> str:
        """The store key this raw window's embedding lives under."""
        return embedding_key(
            self._model_fp, self._adapter_fp, fingerprint_array(window), TILE_ROWS
        )

    # ------------------------------------------------------------------
    def embedding(self, window: np.ndarray) -> np.ndarray:
        """The ``(embed_dim,)`` embedding of one raw ``(window, D)`` window."""
        key = self.key_for(window)
        artifact = self.store.get(key)
        if artifact is not None:
            self.hits += 1
            return artifact.arrays["embedding"]
        self.misses += 1
        embedding = self._compute(window)
        self.store.put(key, arrays={"embedding": embedding})
        return embedding

    def _compute(self, window: np.ndarray) -> np.ndarray:
        """Encode one window: a single tile of the pipeline's runner."""
        pipeline = self.pipeline
        reduced = pipeline._reduce(window[None])
        embedding = compute_embeddings(pipeline.model, reduced, compiled=self.compiled)
        self.encoded_windows += 1
        return embedding[0].copy()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-able counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "encoded_windows": self.encoded_windows,
            "entries": len(self.store),
        }

    def __len__(self) -> int:
        return len(self.store)
