"""The adapter -> foundation model -> head fine-tuning pipeline.

This is the library's central object: it wires an
:class:`repro.adapters.Adapter` in front of a frozen or trainable
:class:`repro.models.FoundationModel` and a linear classification
head, and implements the paper's three fine-tuning regimes with the
correct fast paths (embedding caching for fit-once adapters).

When constructed with a shared :class:`repro.runtime.ArtifactStore`,
the frozen-encoder fast path becomes content-addressed: embeddings
computed for one fit are reused by any later fit or prediction with
the same (model weights, fitted adapter, data) — in this process or,
with a disk-backed store, in a fresh one.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .. import nn
from ..nn import profiler as nn_profiler
from ..adapters.base import Adapter
from ..models.base import FoundationModel
from ..models.heads import ClassificationHead
from ..runtime import ArtifactStore, Instrumentation, RunSummary, fingerprint_adapter
from .embedding_cache import EmbeddingCache, compute_embeddings
from .strategies import FineTuneStrategy
from .tiles import map_tiles
from .trainer import TrainConfig, TrainResult, train_classifier_on_arrays

__all__ = ["AdapterPipeline", "FitReport"]


@dataclass
class FitReport:
    """Timing breakdown and training history of one pipeline fit.

    The phase timings mirror the quantities the paper's Figure 1
    compares: fit-once adapters pay ``adapter_fit_s`` + one
    ``embedding_s`` pass and then train only the head, while trainable
    adapters pay the joint ``train_s`` with the encoder in the loop.
    ``summary`` is the structured runtime view of the same fit: phase
    seconds plus cache hit/miss counters from the artifact store.
    """

    strategy: FineTuneStrategy
    adapter_name: str
    adapter_fit_s: float = 0.0
    embedding_s: float = 0.0
    train_s: float = 0.0
    total_s: float = 0.0
    used_embedding_cache: bool = False
    train_result: TrainResult | None = None
    summary: RunSummary | None = None


class AdapterPipeline:
    """adapter + foundation model + classification head.

    Parameters
    ----------
    model:
        A (typically pretrained) foundation model.  The pipeline
        manages its frozen/trainable state according to the strategy.
    adapter:
        Any adapter from :mod:`repro.adapters` (or ``IdentityAdapter``
        for the no-adapter regimes).
    num_classes:
        Output classes of the head.
    seed:
        Seed for head initialisation and training shuffles.
    normalize_reduced:
        Apply per-instance channel z-normalisation to the adapter
        output before encoding (default True; the TSFM input
        convention).
    store:
        Optional shared artifact store for frozen-encoder embeddings.
        ``None`` (default) computes embeddings per call, exactly the
        pre-runtime behaviour.
    """

    def __init__(
        self,
        model: FoundationModel,
        adapter: Adapter,
        num_classes: int,
        seed: int = 0,
        normalize_reduced: bool = True,
        store: ArtifactStore | None = None,
    ) -> None:
        self.model = model
        self.adapter = adapter
        self.num_classes = num_classes
        self.seed = seed
        #: RevIN-style instance normalisation of the adapter output
        #: before the encoder.  Adapters change the scale of every
        #: virtual channel (PCA components carry sqrt(eigenvalue)
        #: amplitudes), so the encoder input is re-normalised per
        #: (sample, channel) — exactly what TSFM pipelines do to their
        #: raw inputs.
        self.normalize_reduced = normalize_reduced
        self.store = store
        self.head = ClassificationHead(
            model.embed_dim, num_classes, rng=np.random.default_rng(seed)
        )
        self.fitted_ = False
        #: Set by ``fit``; when False (the A2 cache ablation) every
        #: path — including prediction — bypasses the store entirely.
        self.use_embedding_cache_ = True
        #: The :class:`FitReport` of the most recent ``fit`` call.
        self.last_fit_report_: FitReport | None = None

    # ------------------------------------------------------------------
    def _normalize_array(self, reduced: np.ndarray) -> np.ndarray:
        if not self.normalize_reduced:
            return reduced
        mean = reduced.mean(axis=1, keepdims=True)
        std = reduced.std(axis=1, keepdims=True)
        return (reduced - mean) / (std + 1e-8)

    def _normalize_tensor(self, reduced: nn.Tensor) -> nn.Tensor:
        if not self.normalize_reduced:
            return reduced
        mean = reduced.mean(axis=1, keepdims=True)
        centered = reduced - mean
        std = ((centered * centered).mean(axis=1, keepdims=True) + 1e-8).sqrt()
        return centered / std

    def _reduce_tile(self, tile: np.ndarray) -> np.ndarray:
        """Adapter + normalisation of one ``(TILE_ROWS, T, D)`` tile."""
        return self._normalize_array(self.adapter.transform(tile))

    def _reduce(self, x: np.ndarray) -> np.ndarray:
        """Adapter + normalisation of (N, T, D) input, tile by tile."""
        return map_tiles(self._reduce_tile, x)

    def _head_logits(self, embeddings: np.ndarray) -> np.ndarray:
        """Head logits of (N, embed_dim) embeddings, tile by tile."""
        with nn.no_grad():
            return map_tiles(lambda tile: self.head(nn.Tensor(tile)).data, embeddings)

    def _encode_reduced(
        self, reduced: np.ndarray, compiled: bool = True, use_store: bool = True
    ) -> np.ndarray:
        """Frozen-encoder embeddings of reduced input, via the store.

        Falls back to a direct inference pass when no store is wired,
        ``use_store`` is off, or the last fit disabled caching (the A2
        ablation).  Both paths compute the same tiled bits.
        """
        if not use_store or self.store is None or not self.use_embedding_cache_:
            return compute_embeddings(self.model, reduced, compiled=compiled)
        cache = EmbeddingCache(
            self.model,
            store=self.store,
            adapter_fingerprint=fingerprint_adapter(self.adapter),
        )
        return cache.get(reduced, compiled=compiled)

    # ------------------------------------------------------------------
    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        strategy: FineTuneStrategy = FineTuneStrategy.ADAPTER_HEAD,
        config: TrainConfig | None = None,
        use_embedding_cache: bool = True,
    ) -> FitReport:
        """Fine-tune according to ``strategy``; returns a timing report.

        ``use_embedding_cache=False`` forces the encoder into the
        training loop even when the adapter is fit-once and the encoder
        frozen — an ablation switch that quantifies how much of the
        paper's speedup comes from caching (all of it) rather than from
        the channel reduction alone.  It also bypasses the artifact
        store entirely, so the ablation measures true uncached cost.
        """
        config = config if config is not None else TrainConfig(seed=self.seed)
        report = FitReport(strategy=strategy, adapter_name=self.adapter.name)
        self.use_embedding_cache_ = use_embedding_cache
        inst = Instrumentation()
        stats_before = self.store.stats.snapshot() if self.store is not None else None

        with inst.span("total"):
            with inst.span("adapter_fit"):
                self.adapter.fit(x_train, y_train)

            # The encoder must run every step only if something upstream
            # of it changes during training: a trainable adapter that the
            # strategy actually trains, or the encoder itself (FULL).  A
            # frozen lcomb under HEAD is as cacheable as PCA.
            adapter_updates = self.adapter.trainable and strategy.adapter_trainable
            encoder_in_loop = (
                adapter_updates
                or strategy is FineTuneStrategy.FULL
                or not use_embedding_cache
            )
            if strategy.encoder_trainable:
                self.model.unfreeze()
            else:
                self.model.freeze()

            # When profiling, open the profiler here (the trainer's own
            # profile() nests and reuses it) so the frozen-encoder
            # embedding phase — including compiled-graph replays — is
            # part of the recorded op profile, not just the train loop.
            with contextlib.ExitStack() as profile_scope:
                if config.profile:
                    profile_scope.enter_context(nn_profiler.profile())
                if encoder_in_loop:
                    with inst.span("train"):
                        report.train_result = self._fit_joint(x_train, y_train, strategy, config)
                else:
                    report.used_embedding_cache = True
                    reduced = self._reduce(x_train)
                    with inst.span("embedding"):
                        embeddings = self._encode_reduced(reduced)
                    with inst.span("train"):
                        report.train_result = self._fit_head(embeddings, y_train, config)

        if stats_before is not None:
            after = self.store.stats.snapshot()
            inst.count("cache_hits", after["hits"] - stats_before["hits"])
            inst.count("cache_misses", after["misses"] - stats_before["misses"])
        if report.train_result is not None and report.train_result.op_profile:
            inst.attach_ops(report.train_result.op_profile)
        report.summary = inst.summary()
        report.adapter_fit_s = inst.seconds("adapter_fit")
        report.embedding_s = inst.seconds("embedding")
        report.train_s = inst.seconds("train")
        report.total_s = inst.seconds("total")
        self.fitted_ = True
        self.last_fit_report_ = report
        return report

    def _fit_head(
        self, embeddings: np.ndarray, y: np.ndarray, config: TrainConfig
    ) -> TrainResult:
        """Head-only training on cached embeddings (the fast path)."""

        def forward(batch: np.ndarray) -> nn.Tensor:
            return self.head(nn.Tensor(batch))

        self.head.train()
        result = train_classifier_on_arrays(
            forward, self.head.trainable_parameters(), embeddings, y, config
        )
        self.head.eval()
        return result

    def _fit_joint(
        self,
        x: np.ndarray,
        y: np.ndarray,
        strategy: FineTuneStrategy,
        config: TrainConfig,
    ) -> TrainResult:
        """Encoder-in-the-loop training (trainable adapter and/or FULL)."""
        parameters = list(self.head.trainable_parameters())
        adapter_module = getattr(self.adapter, "module", None)
        if self.adapter.trainable and strategy.adapter_trainable:
            if adapter_module is None:
                raise RuntimeError(
                    f"trainable adapter {self.adapter.name} has no module after fit()"
                )
            parameters += adapter_module.trainable_parameters()
        if strategy.encoder_trainable:
            parameters += self.model.trainable_parameters()

        def forward(batch: np.ndarray) -> nn.Tensor:
            tensor = nn.Tensor(batch)
            if self.adapter.trainable:
                reduced = self._normalize_tensor(self.adapter.transform_tensor(tensor))
            else:
                reduced = nn.Tensor(self._normalize_array(self.adapter.transform(batch)))
            embeddings = self.model.encode(reduced)
            return self.head(embeddings)

        self.head.train()
        self.model.train()
        result = train_classifier_on_arrays(forward, parameters, x, y, config)
        self.head.eval()
        self.model.eval()
        return result

    # ------------------------------------------------------------------
    # Prediction surface (fixed-tile execution)
    # ------------------------------------------------------------------
    def _predict_chunk(
        self,
        chunk: np.ndarray,
        compiled: bool = True,
        inst: Instrumentation | None = None,
        use_store: bool = True,
    ) -> np.ndarray:
        """Logits of one (k, T, D) chunk, computed tile by tile.

        The adapter, encoder and head each run over row tiles of
        exactly :data:`~repro.training.tiles.TILE_ROWS` samples, the
        last tile zero-padded (see :mod:`repro.training.tiles`).  At a
        fixed GEMM row count each output row is independent of the
        other rows' contents, so a sample's logits are a pure function
        of (sample, ``TILE_ROWS``): offline prediction at any
        ``batch_size``, a served micro-batch of any composition and a
        streamed window all agree bit for bit.  ``inst`` records the
        adapter / encode / head phase seconds.
        """
        span = inst.span if inst is not None else (lambda name: contextlib.nullcontext())
        with span("adapter"):
            reduced = self._reduce(chunk)
        with span("encode"):
            embeddings = self._encode_reduced(reduced, compiled, use_store)
        with span("head"):
            return self._head_logits(embeddings)

    def predict_logits(
        self, x: np.ndarray, batch_size: int = 64, compiled: bool = True
    ) -> np.ndarray:
        """Class logits for (N, T, D) inputs (inference mode).

        Inputs are processed in chunks of at most ``batch_size``
        samples (the unit of embedding-store lookup), each computed
        tile by tile — so neither ``batch_size`` nor the other samples
        of the call change a sample's logits; see
        :meth:`_predict_chunk`.  ``compiled=False`` forces the eager
        tensor path (results are bit-identical either way).
        """
        if not self.fitted_:
            raise RuntimeError("pipeline used before fit()")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        x = np.asarray(x)
        if x.ndim != 3:
            raise ValueError(f"expected (N, T, D) input, got shape {x.shape}")
        if len(x) == 0:
            return np.zeros((0, self.num_classes), dtype=self.model.dtype)
        outputs = [
            self._predict_chunk(x[start : start + batch_size], compiled)
            for start in range(0, len(x), batch_size)
        ]
        return np.concatenate(outputs, axis=0)

    def predict(
        self, x: np.ndarray, batch_size: int = 64, compiled: bool = True
    ) -> np.ndarray:
        """Predicted class labels."""
        return self.predict_logits(x, batch_size=batch_size, compiled=compiled).argmax(
            axis=1
        )

    def predict_proba(
        self, x: np.ndarray, batch_size: int = 64, compiled: bool = True
    ) -> np.ndarray:
        """Class probabilities (softmax over :meth:`predict_logits`)."""
        logits = self.predict_logits(x, batch_size=batch_size, compiled=compiled)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        """Classification accuracy on ``(x, y)``."""
        y = np.asarray(y)
        return float((self.predict(x) == y).mean())

    # ------------------------------------------------------------------
    # Registry round-trip
    # ------------------------------------------------------------------
    def save(self, store, name: str):
        """Publish this fitted pipeline into a registry under ``name``.

        ``store`` is an :class:`~repro.runtime.ArtifactStore` (or a
        cache directory path); returns the published
        :class:`~repro.serve.PipelineRecord` carrying the allocated
        version and content digest.
        """
        from ..serve import PipelineRegistry

        return PipelineRegistry(store).publish(self, name)

    @classmethod
    def load(cls, store, name: str, version: int | None = None) -> "AdapterPipeline":
        """Load ``name`` (latest version by default) from a registry."""
        from ..serve import PipelineRegistry

        return PipelineRegistry(store).load(name, version=version)
