"""Frozen-encoder embedding cache (content-addressed).

When the adapter is fit-once and the encoder is frozen, the encoder's
pooled embeddings are a pure function of the input — so they can be
computed in a single inference pass and reused for every head-training
epoch.  This is where the paper's ~10x fine-tuning speedup comes from:
the expensive foundation model runs once instead of epochs x steps
times.

Since the ``repro.runtime`` refactor the cache is a thin facade over
:class:`repro.runtime.ArtifactStore`, keyed by **content**
(model-weight fingerprint, adapter fingerprint, data fingerprint,
execution tile) rather than ``id(array)``.  That fixes two latent
bugs of the identity-keyed version: a garbage-collected array's ``id``
could be recycled by a brand-new array (silently returning stale
embeddings), and in-place mutation of a cached array was invisible.
With content keys both cases simply produce a different key.  Sharing
a disk-backed store makes the reuse survive process restarts.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .. import nn
from ..models.base import FoundationModel
from ..runtime import ArtifactStore, embedding_key, fingerprint_array, fingerprint_model
from .tiles import TILE_ROWS, map_tiles

__all__ = ["compute_embeddings", "EmbeddingCache"]


def compute_embeddings(
    model: FoundationModel,
    x: np.ndarray,
    channel_batch: int = 4096,
    compiled: bool = True,
) -> np.ndarray:
    """Encode (N, T, D) data to (N, embed_dim) without building a graph.

    Runs the encoder over fixed row tiles of
    :data:`~repro.training.tiles.TILE_ROWS` samples (the last one
    zero-padded), so a sample's embedding is the same bits whatever
    else shares the call; ``channel_batch`` chunks the flattened
    channel dimension so peak memory stays bounded even for very wide
    inputs.  An empty batch (N == 0) returns a well-shaped
    ``(0, embed_dim)`` array.

    Since every tile repeats the same (shape, dtype) encoder pass,
    this is the prime consumer of :mod:`repro.nn.graph`: the first
    tile of a series geometry captures and compiles the frozen
    encoder, every later tile replays it with arena-allocated
    intermediates.  ``compiled=False`` forces the eager tensor path
    (benchmark baselines, parity checks); results are bit-identical
    either way.
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise ValueError(f"expected (N, T, D) input, got shape {x.shape}")
    if len(x) == 0:
        return np.zeros((0, model.embed_dim), dtype=model.dtype)
    was_training = model.training
    model.eval()
    with contextlib.ExitStack() as stack:
        stack.enter_context(nn.no_grad())
        if not compiled:
            stack.enter_context(nn.graph.compile_disabled())
        embeddings = map_tiles(
            lambda tile: model.encode(tile, channel_batch=channel_batch).data, x
        )
    if was_training:
        model.train()
    return embeddings


class EmbeddingCache:
    """Content-addressed cache of frozen-encoder embeddings.

    Parameters
    ----------
    model:
        The (frozen) encoder.  Its weight fingerprint is part of every
        key, so a model pretrained differently — or mutated between
        ``get`` calls — never serves another model's embeddings.
    store:
        Optional shared :class:`ArtifactStore`; a private memory-only
        store is created when omitted.  Pass a disk-backed store to
        reuse embeddings across processes.
    adapter_fingerprint:
        Fingerprint of the fitted adapter whose output is being
        encoded ("" when the cache sits after no adapter); keeps two
        adapters fitted on the same data from colliding.
    """

    def __init__(
        self,
        model: FoundationModel,
        store: ArtifactStore | None = None,
        adapter_fingerprint: str = "",
    ) -> None:
        self.model = model
        self.store = store if store is not None else ArtifactStore()
        self.adapter_fingerprint = adapter_fingerprint

    def key_for(self, x: np.ndarray) -> str:
        """The store key this array's embeddings live under."""
        return embedding_key(
            fingerprint_model(self.model),
            self.adapter_fingerprint,
            fingerprint_array(x),
            TILE_ROWS,
        )

    def get(self, x: np.ndarray, compiled: bool = True) -> np.ndarray:
        """Return (computing once) the embeddings of this array content.

        A store miss runs :func:`compute_embeddings`, which replays the
        compiled frozen-encoder graph tile after tile — so even the
        first fit on a dataset pays eager capture cost once, not once
        per tile.  ``compiled`` is not part of the key: the
        compiled and eager paths produce bit-identical embeddings.
        """
        key = self.key_for(x)
        artifact = self.store.get(key)
        if artifact is not None:
            return artifact.arrays["embeddings"]
        embeddings = compute_embeddings(self.model, x, compiled=compiled)
        self.store.put(key, arrays={"embeddings": embeddings})
        return embeddings

    def clear(self) -> None:
        """Drop every cached embedding matrix in the backing store."""
        self.store.clear(namespace="embedding")

    def __len__(self) -> int:
        return len(self.store)
