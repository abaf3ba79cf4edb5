"""Analytic FLOPs / memory cost model for TSFM fine-tuning.

This module predicts the resource footprint of fine-tuning a
channel-independent foundation model on a given dataset, reproducing
the paper's hardware-side results (COM/TO entries of Tables 1–2 and
the Figure-1 running times) without a physical V100.

The model is standard transformer accounting:

* forward FLOPs per token ~= 2 x encoder parameters, plus the
  quadratic attention term ``4 x layers x tokens_per_seq x d_model``
  per token;
* a training step costs ``3x`` the forward pass (backward ~= 2x);
  fine-tuning through a *frozen* encoder (the lcomb regime) costs
  ``2.5x`` — gradients flow through activations but no encoder
  parameter gradients are materialised;
* peak memory = parameter bytes + optimizer bytes (gradient + two Adam
  moments for trainable parameters) + stored activations
  (``tokens x d_model x layers x multiplier``) for the largest batch.

The free constants (effective throughput, per-family batch size and
activation multiplier, per-regime epoch counts, per-step launch
overhead) are calibrated once, in :mod:`repro.resources.gpu`, against
the OK/TO/COM pattern of the paper's Table 1 — see DESIGN.md §5.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..models.config import ModelConfig
from ..training.tiles import TILE_ROWS

__all__ = [
    "FineTuneRegime",
    "CostModelParams",
    "TrainingJob",
    "forward_flops_per_sample",
    "training_step_flops",
    "embedding_pass_flops",
    "adapter_fit_flops",
    "head_training_flops",
    "peak_training_memory_bytes",
    "inference_memory_bytes",
    "streaming_inference_memory_bytes",
]

#: Bytes per float32 value.
FLOAT_BYTES = 4
#: Bytes per parameter under Adam: gradient + exp_avg + exp_avg_sq.
OPTIMIZER_STATE_BYTES = 12


@dataclass(frozen=True)
class FineTuneRegime:
    """One of the paper's fine-tuning strategies, as the cost model sees it.

    Attributes
    ----------
    name:
        ``full`` | ``adapter_full`` | ``adapter_head`` | ``head``.
    encoder_in_loop:
        Whether the encoder runs on every optimisation step (True for
        full fine-tuning and for trainable adapters; False when a
        fit-once adapter allows caching frozen-encoder embeddings).
    encoder_trainable:
        Whether encoder parameters receive gradients and optimizer
        state.
    backward_multiplier:
        Step cost as a multiple of the forward pass.
    epochs:
        Default fine-tuning epochs for this regime.
    """

    name: str
    encoder_in_loop: bool
    encoder_trainable: bool
    backward_multiplier: float
    epochs: int


#: The paper's regimes with calibrated epoch defaults (DESIGN.md §5).
REGIMES: dict[str, FineTuneRegime] = {
    # Table 1: full fine-tuning, no adapter.
    "full": FineTuneRegime("full", True, True, 3.0, epochs=250),
    # Figure 6: lcomb adapter + full network fine-tuning.
    "adapter_full": FineTuneRegime("adapter_full", True, True, 3.0, epochs=100),
    # Table 2 lcomb columns: trainable adapter + head, frozen encoder.
    "adapter_head_trainable": FineTuneRegime(
        "adapter_head_trainable", True, False, 2.5, epochs=100
    ),
    # Table 2 PCA/SVD/... columns: fit-once adapter + head; encoder
    # embeddings are computed once and cached.
    "adapter_head_cached": FineTuneRegime(
        "adapter_head_cached", False, False, 0.0, epochs=200
    ),
    # Table 2 "head" column: same caching, original channels.
    "head": FineTuneRegime("head", False, False, 0.0, epochs=200),
}


@dataclass(frozen=True)
class CostModelParams:
    """Per-family calibration constants (see DESIGN.md §5)."""

    batch_size: int
    activation_multiplier_per_layer: float
    inference_activation_multiplier: float = 4.0
    head_batch_size: int = 64
    #: Per-layer activation multiplier of a *captured* inference pass
    #: (graph capture retains the full intermediate-tensor tape, unlike
    #: steady-state replay) — the constant behind
    #: :func:`streaming_inference_memory_bytes`, calibrated against
    #: tracemalloc peaks of ``repro.stream.encode_long`` on this
    #: machine (stable to ~1% across channel counts and families).
    streaming_capture_multiplier_per_layer: float = 7.15


#: Calibrated against the Table-1 OK/TO/COM pattern.
FAMILY_PARAMS: dict[str, CostModelParams] = {
    "moment": CostModelParams(batch_size=16, activation_multiplier_per_layer=10.5),
    "vit": CostModelParams(batch_size=96, activation_multiplier_per_layer=10.0),
}


@dataclass(frozen=True)
class TrainingJob:
    """Everything the cost model needs to price one fine-tuning job."""

    config: ModelConfig
    train_size: int
    test_size: int
    sequence_length: int
    channels: int
    num_classes: int
    regime: FineTuneRegime
    epochs: int | None = None  # override the regime default

    @property
    def effective_epochs(self) -> int:
        return self.epochs if self.epochs is not None else self.regime.epochs

    @property
    def params(self) -> CostModelParams:
        return FAMILY_PARAMS[self.config.family]

    @property
    def tokens_per_channel(self) -> int:
        # Models pad/truncate to their fixed context window, so the
        # token count per channel is that of the padded length.
        return self.config.tokens_per_channel(self.config.max_sequence_length)

    @property
    def tokens_per_sample(self) -> int:
        return self.channels * self.tokens_per_channel


# ----------------------------------------------------------------------
# FLOPs
# ----------------------------------------------------------------------
def forward_flops_per_sample(job: TrainingJob) -> float:
    """Forward-pass FLOPs for one multivariate sample."""
    cfg = job.config
    per_token = 2.0 * cfg.encoder_parameter_count()
    tokens_per_seq = job.tokens_per_channel
    attention = 4.0 * cfg.num_layers * tokens_per_seq * cfg.d_model
    return job.tokens_per_sample * (per_token + attention)


def training_step_flops(job: TrainingJob, batch_samples: int) -> float:
    """FLOPs of one optimisation step over ``batch_samples`` samples."""
    return batch_samples * forward_flops_per_sample(job) * job.regime.backward_multiplier


def embedding_pass_flops(job: TrainingJob) -> float:
    """One inference pass over train+test (the embedding-cache fill)."""
    total = job.train_size + job.test_size
    return total * forward_flops_per_sample(job)


def head_training_flops(job: TrainingJob) -> float:
    """Head-only training on cached embeddings (linear layer only)."""
    per_sample = 2.0 * job.config.d_model * job.num_classes
    # forward + backward of a linear layer ~= 3x forward
    return job.effective_epochs * job.train_size * per_sample * 3.0


def adapter_fit_flops(
    channels_in: int,
    channels_out: int,
    train_size: int,
    sequence_length: int,
    kind: str,
) -> float:
    """Cost of fitting a fit-once adapter on (N*T, D) training rows."""
    rows = train_size * sequence_length
    if kind in ("pca", "scaled_pca", "svd", "patch_pca", "lda", "cluster_avg"):
        # Covariance accumulation + D x D eigendecomposition.
        return rows * channels_in**2 + 10.0 * channels_in**3
    if kind == "var":
        return rows * channels_in
    if kind in ("rand_proj", "none"):
        return 0.0
    raise ValueError(f"unknown fit-once adapter kind {kind!r}")


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def peak_training_memory_bytes(job: TrainingJob) -> float:
    """Peak device memory during fine-tuning."""
    cfg = job.config
    params = job.params
    n_params = cfg.encoder_parameter_count()
    weight_bytes = n_params * FLOAT_BYTES

    if not job.regime.encoder_in_loop:
        # Cached-embedding regimes: the encoder only ever runs in
        # inference mode (chunked), so peak memory is the inference
        # footprint; head training on embeddings is negligible.
        return weight_bytes + inference_memory_bytes(job)

    batch = min(params.batch_size, job.train_size)
    batch_tokens = batch * job.tokens_per_sample
    act_multiplier = params.activation_multiplier_per_layer * cfg.num_layers
    activations = batch_tokens * cfg.d_model * act_multiplier * FLOAT_BYTES
    # Attention probability matrices: heads x P^2 per channel-sequence,
    # per layer (stored for backward).
    seqs = batch * job.channels
    attn_probs = (
        seqs * cfg.num_heads * job.tokens_per_channel**2 * cfg.num_layers * FLOAT_BYTES
    )

    optimizer = 0.0
    if job.regime.encoder_trainable:
        optimizer = n_params * OPTIMIZER_STATE_BYTES
    return weight_bytes + optimizer + activations + attn_probs


def inference_memory_bytes(job: TrainingJob) -> float:
    """Activation footprint of the chunked embedding pass.

    Mirrors how :meth:`repro.models.base.FoundationModel.encode`
    actually runs: ``flatten_channels`` folds all D channels into the
    batch axis (one ``(N*D, T)`` univariate batch through the encoder,
    not a per-channel Python loop), and ``channel_batch`` chunks that
    flattened axis — so the live activation set is one chunk of
    ``batch * min(D, chunk) * tokens_per_channel`` token rows at a
    time, modest even for D ~ 1000.
    """
    cfg = job.config
    params = job.params
    batch = min(params.batch_size, max(1, job.train_size))
    chunk_tokens = batch * min(job.channels, 64) * job.tokens_per_channel
    return chunk_tokens * cfg.d_model * params.inference_activation_multiplier * FLOAT_BYTES


def streaming_inference_memory_bytes(
    config: ModelConfig,
    *,
    window: int,
    channels: int,
    batch_windows: int,
    agg: str = "mean",
    num_windows: int = 0,
    input_dtype_bytes: int = 8,
) -> float:
    """Predicted peak allocation of ``repro.stream.encode_long``.

    The streaming encoder's peak is independent of the series length:
    only ``batch_windows`` windows are cut at once, the encoder
    computes them one tile at a time (``ceil(batch_windows /
    TILE_ROWS)`` tiles, see :mod:`repro.training.tiles`), and the
    ``mean`` / ``last`` aggregators fold into constant-size
    accumulators.  Three terms:

    * encoder activations — the dominant term, for the one live tile
      of ``TILE_ROWS`` windows.  Long-context encoding runs the first
      tile through *graph capture*, and capture retains the full
      intermediate-tensor tape, so the multiplier is the calibrated
      ``streaming_capture_multiplier_per_layer x num_layers`` rather
      than the steady-state ``inference_activation_multiplier``;
    * window staging — the fancy-index copy of ``batch_windows``
      windows, plus the zero-padded last tile and the float32 cast
      inside the encoder (two tile-sized transient copies);
    * aggregation state — O(1) for ``mean``/``last``; ``attention``
      retains all ``num_windows`` embeddings and scales with the
      series.

    The measured-vs-predicted contract (±20%) is pinned by
    ``tests/stream/test_memory_bound.py``.
    """
    params = FAMILY_PARAMS[config.family]
    tokens_per_channel = config.tokens_per_channel(config.max_sequence_length)
    chunk_tokens = TILE_ROWS * min(channels, 64) * tokens_per_channel
    capture_multiplier = (
        params.streaming_capture_multiplier_per_layer * config.num_layers
    )
    activations = chunk_tokens * config.d_model * capture_multiplier * FLOAT_BYTES
    staging = (batch_windows + 2.0 * TILE_ROWS) * window * channels * input_dtype_bytes
    if agg == "attention":
        aggregation = num_windows * config.d_model * FLOAT_BYTES
    else:
        aggregation = config.d_model * 2 * FLOAT_BYTES  # float64 accumulator
    return activations + staging + aggregation
