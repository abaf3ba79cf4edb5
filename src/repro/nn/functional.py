"""Differentiable functional operations built on :class:`repro.nn.Tensor`.

These are composite operations (activations, normalisations, losses)
expressed in terms of the primitive tensor ops, plus a few fused
implementations with hand-written backward passes where the composite
form would be numerically fragile (softmax, cross-entropy).  A fused
op's forward math lives in one kernel (``_gelu``, ``_layer_norm``, ...)
beside it, shared by eager execution and compiled replay.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, _forward, as_tensor, registered_op

__all__ = [
    "relu",
    "gelu",
    "sigmoid",
    "softmax",
    "log_softmax",
    "dropout",
    "layer_norm",
    "cross_entropy",
    "mse_loss",
    "masked_mse_loss",
    "info_nce_loss",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


@registered_op("relu")
def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    x = as_tensor(x)
    out_data = _forward(np.maximum, x, 0.0)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (x.data > 0))

    return Tensor._make(out_data, (x,), backward)


def _gelu(x, *, out=None):
    # 0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x**3))), one ufunc
    # at a time in place: with ``out`` the only full-size temporary is
    # ``0.5 * x``; without it, tanh(inner) survives for the backward.
    t = np.power(x, 3, out=out)
    np.multiply(0.044715, t, out=t)
    np.add(x, t, out=t)
    np.multiply(_SQRT_2_OVER_PI, t, out=t)
    tanh_inner = np.tanh(t, out=t)
    y = np.add(1.0, tanh_inner, out=out)
    return np.multiply(0.5 * x, y, out=y), tanh_inner


@registered_op("gelu")
def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, as in BERT/GPT)."""
    x = as_tensor(x)
    data = x.data
    out_data, tanh_inner = _forward(_gelu, x)

    def backward(grad: np.ndarray) -> None:
        sech2 = 1.0 - tanh_inner**2
        d_inner = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * data**2)
        local = 0.5 * (1.0 + tanh_inner) + 0.5 * data * sech2 * d_inner
        x._accumulate(grad * local)

    return Tensor._make(out_data, (x,), backward)


def _sigmoid(x, *, out=None):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@registered_op("sigmoid")
def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid with a numerically stable forward pass."""
    x = as_tensor(x)
    out_data = _forward(_sigmoid, x)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (x,), backward)


def _softmax(x, axis=-1, *, out=None):
    # Staged in place: the sum reduces the output buffer itself, whose
    # layout is the eager one, so the rounding matches at any ``out``.
    e = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=axis, keepdims=True), out=e)


@registered_op("softmax")
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with a fused, stable backward pass."""
    x = as_tensor(x)
    out_data = _forward(_softmax, x, axis)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (grad - dot))

    return Tensor._make(out_data, (x,), backward)


def _log_softmax(x, axis=-1, *, out=None):
    shifted = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return np.subtract(shifted, log_norm, out=shifted)


@registered_op("log_softmax")
def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis`` (stable log-sum-exp form)."""
    x = as_tensor(x)
    out_data = _forward(_log_softmax, x, axis)

    def backward(grad: np.ndarray) -> None:
        softmax_data = np.exp(out_data)
        x._accumulate(grad - softmax_data * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward)


@registered_op("dropout")
def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability ``p``, rescale by 1/(1-p).

    In training mode it has no forward kernel (a fresh mask per call
    cannot be replayed), so graph capture refuses it by name.
    """
    if not training or p <= 0.0:
        return as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    x = as_tensor(x)
    # Draw, threshold and rescale in the activation's own dtype and in
    # one buffer: a float64 mask would silently upcast a float32
    # activation (and allocate twice).
    mask_dtype = x.data.dtype if x.data.dtype == np.float32 else np.float64
    keep = rng.random(x.shape, dtype=mask_dtype)
    np.greater_equal(keep, p, out=keep)
    keep *= 1.0 / (1.0 - p)
    out_data = x.data * keep

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * keep)

    return Tensor._make(out_data, (x,), backward)


def _layer_norm(x, weight, bias, eps=1e-5, *, out=None):
    # ``centered`` is normalised in place into x_hat, then into the
    # output.  Without ``out`` the output gets its own buffer and x_hat
    # and 1/sigma survive for the backward; with it the only full-size
    # temporary is ``centered * centered``.
    centered = np.subtract(x, x.mean(axis=-1, keepdims=True), out=out)
    variance = np.mean(centered * centered, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(variance + eps)
    x_hat = np.multiply(centered, inv_std, out=centered)
    y = np.multiply(x_hat, weight, out=out)
    return np.add(y, bias, out=y), x_hat, inv_std


@registered_op("layer_norm")
def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the trailing dimension (fused).

    Normalises each feature vector to zero mean / unit variance, then
    applies the learnable affine transform ``weight * x_hat + bias``.

    Forward and backward are a single graph node with a hand-written
    gradient (the standard closed form), replacing the ~8-node
    composite the op used to expand into — roughly 6 fewer
    full-activation temporaries per call in each direction.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    out_data, x_hat, inv_std = _forward(_layer_norm, x, weight, bias, eps)

    def backward(grad: np.ndarray) -> None:
        if bias.requires_grad:
            bias._accumulate(grad)
        if weight.requires_grad:
            weight._accumulate(grad * x_hat)
        if x.requires_grad:
            # d/dx of (x - mu) / sigma, folded: the mean terms remove
            # the per-row component of the gradient along 1 and x_hat.
            d_x_hat = grad * weight.data
            mean_d = d_x_hat.mean(axis=-1, keepdims=True)
            mean_dx = (d_x_hat * x_hat).mean(axis=-1, keepdims=True)
            x._accumulate((d_x_hat - mean_d - x_hat * mean_dx) * inv_std)

    return Tensor._make(out_data, (x, weight, bias), backward)


@registered_op("cross_entropy")
def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and integer targets (N,)."""
    logits = as_tensor(logits)
    targets = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    targets = targets.astype(np.int64)
    if logits.ndim != 2:
        raise ValueError(f"expected 2D logits, got shape {logits.shape}")
    if targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise ValueError(
            f"targets shape {targets.shape} incompatible with logits {logits.shape}"
        )
    n = logits.shape[0]
    log_probs = log_softmax(logits, axis=-1)
    picked = log_probs[np.arange(n), targets]
    return -picked.mean()


@registered_op("mse_loss")
def mse_loss(prediction: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Mean squared error over all elements."""
    prediction = as_tensor(prediction)
    target = target.data if isinstance(target, Tensor) else np.asarray(target)
    diff = prediction - Tensor(target, dtype=prediction.dtype)
    return (diff * diff).mean()


@registered_op("masked_mse_loss")
def masked_mse_loss(
    prediction: Tensor, target: np.ndarray, mask: np.ndarray
) -> Tensor:
    """MSE computed only where ``mask`` is nonzero.

    Used by the MOMENT-style masked-patch reconstruction objective: the
    loss is measured on masked patches only.
    """
    prediction = as_tensor(prediction)
    target = np.asarray(target)
    mask = np.asarray(mask, dtype=prediction.dtype)
    total = float(mask.sum())
    if total == 0:
        raise ValueError("masked_mse_loss received an all-zero mask")
    diff = (prediction - Tensor(target, dtype=prediction.dtype)) * Tensor(mask)
    return (diff * diff).sum() / total


@registered_op("info_nce_loss")
def info_nce_loss(queries: Tensor, keys: Tensor, temperature: float = 0.07) -> Tensor:
    """InfoNCE contrastive loss (Oord et al., 2018; MoCo variant).

    ``queries`` and ``keys`` are (N, E) batches of embeddings where
    row ``i`` of each is a positive pair; all other rows act as
    negatives.  Embeddings are L2-normalised internally.
    """
    queries, keys = as_tensor(queries), as_tensor(keys)
    if queries.shape != keys.shape or queries.ndim != 2:
        raise ValueError(
            f"expected matching 2D embeddings, got {queries.shape} and {keys.shape}"
        )
    q_norm = queries * ((queries * queries).sum(axis=-1, keepdims=True) + 1e-12) ** -0.5
    k_norm = keys * ((keys * keys).sum(axis=-1, keepdims=True) + 1e-12) ** -0.5
    logits = (q_norm @ k_norm.transpose()) * (1.0 / temperature)
    targets = np.arange(queries.shape[0])
    return cross_entropy(logits, targets)
