"""Chunked sliding-window encoding of arbitrarily long series.

``encode_long`` turns one ``(T, D)`` series of any length into a
single pooled embedding by cutting it into fixed-geometry windows,
routing each window batch through the existing frozen-encoder path
(:func:`repro.training.compute_embeddings` — ``flatten_channels``
folding, compiled :class:`~repro.nn.graph.GraphCache` replay) and
aggregating the per-window embeddings.

Memory discipline is the point: only ``batch_windows`` windows are
ever materialised at once, the encoder runs them in fixed row tiles
(:mod:`repro.training.tiles`) so the whole pass shares **one**
compiled graph bucket, and the ``mean`` / ``last`` aggregators fold
embeddings into constant-size accumulators instead of retaining the
full ``num_windows x embed_dim`` matrix.  The resulting peak footprint is
predicted by
:func:`repro.resources.cost_model.streaming_inference_memory_bytes`
and pinned by a measured-vs-predicted test.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from ..models.base import FoundationModel
from ..training.embedding_cache import compute_embeddings
from ..training.tiles import map_tiles
from .windows import validate_geometry, window_batch, window_starts

__all__ = ["AGGREGATIONS", "LongSeriesEncoding", "encode_long"]

#: Supported window-embedding aggregations.  ``mean`` and ``attention``
#: are invariant to window order; ``last`` deliberately is not (it is
#: the "most recent state" readout a live stream wants).
AGGREGATIONS = ("mean", "last", "attention")


class LongSeriesEncoding(NamedTuple):
    """Result of :func:`encode_long` on one long series."""

    #: The aggregated ``(embed_dim,)`` embedding.
    pooled: np.ndarray
    #: Number of complete windows the series yielded.
    num_windows: int
    #: Window geometry and aggregation used.
    window: int
    stride: int
    agg: str
    #: Per-window ``(num_windows, embed_dim)`` embeddings — only
    #: retained when ``return_windows=True`` (or ``agg="attention"``,
    #: which needs them all); ``None`` otherwise.
    window_embeddings: np.ndarray | None = None


def _attention_pool(embeddings: np.ndarray) -> np.ndarray:
    """Parameter-free attention pooling: the mean embedding queries.

    ``softmax(E q / sqrt(d)) @ E`` with ``q`` the mean embedding —
    deterministic, trainable-weight-free, and invariant to window
    order (scores depend only on each window's own embedding).
    """
    scores = embeddings.astype(np.float64) @ embeddings.mean(
        axis=0, dtype=np.float64
    ) / np.sqrt(embeddings.shape[1])
    shifted = scores - scores.max()
    weights = np.exp(shifted)
    weights /= weights.sum()
    return (weights @ embeddings.astype(np.float64)).astype(embeddings.dtype)


def encode_long(
    model: FoundationModel,
    x: np.ndarray,
    window: int,
    stride: int,
    *,
    agg: str = "mean",
    batch_windows: int = 16,
    compiled: bool = True,
    transform: Callable[[np.ndarray], np.ndarray] | None = None,
    return_windows: bool = False,
) -> LongSeriesEncoding:
    """Encode one arbitrarily long ``(T, D)`` series to one embedding.

    Parameters
    ----------
    model:
        The (frozen) foundation encoder.
    x:
        The long series, shape ``(T, D)``.  Raises
        :class:`~repro.stream.SeriesTooShortError` when ``T < window``
        and :class:`~repro.stream.WindowGeometryError` for invalid
        ``(window, stride)`` (including ``stride > window``).
    window / stride:
        Window geometry; window ``w`` covers ``[w*stride, w*stride +
        window)``.
    agg:
        ``"mean"`` (order-invariant running mean), ``"last"`` (most
        recent window's embedding) or ``"attention"``
        (mean-embedding-queried attention pool, order-invariant).
    batch_windows:
        Windows cut from the series per step — the staging-memory
        knob.  The encoder runs each step's windows tile by tile, so
        the whole series replays **one** compiled graph bucket and
        per-window embeddings do not depend on this value.
    compiled:
        Route encoder passes through compiled graph replay
        (bit-identical to eager either way).
    transform:
        Optional preprocessing applied to each ``(TILE_ROWS, window,
        D)`` tile of windows before encoding — the hook the pipeline
        surface uses to run its adapter + normalisation.
    return_windows:
        Also retain the full ``(num_windows, embed_dim)`` matrix.
    """
    window, stride = validate_geometry(window, stride)
    if agg not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation {agg!r}; expected one of {AGGREGATIONS}")
    if batch_windows <= 0:
        raise ValueError(f"batch_windows must be positive, got {batch_windows}")
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"expected one (T, D) series, got shape {x.shape}")
    starts = window_starts(len(x), window, stride)  # SeriesTooShortError if short

    keep_all = return_windows or agg == "attention"
    collected: list[np.ndarray] = []
    running_sum: np.ndarray | None = None
    last: np.ndarray | None = None
    count = 0
    for lo in range(0, len(starts), batch_windows):
        batch_starts = starts[lo : lo + batch_windows]
        wins = window_batch(x, batch_starts, window)  # (b, window, D)
        if transform is not None:
            wins = map_tiles(transform, wins)
        embeddings = compute_embeddings(model, wins, compiled=compiled)
        count += len(batch_starts)
        last = embeddings[-1].copy()
        if keep_all:
            collected.append(embeddings)
        if agg == "mean":
            batch_sum = embeddings.sum(axis=0, dtype=np.float64)
            running_sum = batch_sum if running_sum is None else running_sum + batch_sum

    window_embeddings = np.concatenate(collected, axis=0) if keep_all else None
    if agg == "mean":
        assert running_sum is not None
        pooled = (running_sum / count).astype(model.dtype)
    elif agg == "last":
        assert last is not None
        pooled = last
    else:  # attention
        assert window_embeddings is not None
        pooled = _attention_pool(window_embeddings)
    return LongSeriesEncoding(
        pooled=pooled,
        num_windows=count,
        window=window,
        stride=stride,
        agg=agg,
        window_embeddings=window_embeddings if return_windows else None,
    )
