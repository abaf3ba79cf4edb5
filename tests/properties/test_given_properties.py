"""Hypothesis properties of adapters and the autodiff core.

These complement the fixed-seed invariants in
``repro.testing.invariants`` by sweeping drawn shapes and values.
Values are Gaussian from a drawn seed, so hypothesis shrinks the
geometry and the seed; the ``repro`` profile in ``tests/conftest.py``
makes every run draw the same examples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

from repro.adapters import make_adapter
from repro.nn import Tensor

seeds = st.integers(0, 2**32 - 1)


@st.composite
def series_batches(draw):
    """Gaussian series batches ``(N, T, D)``; ``D >= 3``, so keeping two
    channels is a real reduction."""
    shape = (draw(st.integers(2, 6)), draw(st.integers(4, 16)), draw(st.integers(3, 8)))
    return np.random.default_rng(draw(seeds)).normal(size=shape)


@st.composite
def gaussian_arrays(draw):
    """Gaussian arrays of 1-3 dims, sides 1-5."""
    shape = draw(array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5))
    return np.random.default_rng(draw(seeds)).normal(size=shape)


@st.composite
def broadcastable_pairs(draw):
    """Pairs ``(a, b)`` of arrays whose shapes numpy-broadcast together.

    ``b``'s shape is ``a``'s with leading axes dropped and random axes
    squashed to one: the exact cases
    :func:`repro.nn.tensor._unbroadcast` has to invert.
    """
    shape_a = draw(array_shapes(min_dims=1, max_dims=3, min_side=2, max_side=4))
    tail = shape_a[draw(st.integers(0, len(shape_a))):]
    keep = draw(st.lists(st.booleans(), min_size=len(tail), max_size=len(tail)))
    shape_b = tuple(side if kept else 1 for side, kept in zip(tail, keep))
    rng = np.random.default_rng(draw(seeds))
    return rng.normal(size=shape_a), rng.normal(size=shape_b)


class TestAdapterProperties:
    @pytest.mark.parametrize("name", ("pca", "scaled_pca", "svd"))
    @settings(max_examples=10)
    @given(x=series_batches(), perm_seed=st.integers(0, 50))
    def test_permutation_equivariance(self, name, x, perm_seed):
        """Channel order must not matter for spectral adapters."""
        perm = np.random.default_rng(perm_seed).permutation(x.shape[-1])
        adapter = make_adapter(name, output_channels=2, seed=0)
        permuted = make_adapter(name, output_channels=2, seed=0)
        np.testing.assert_allclose(
            adapter.fit_transform(x),
            permuted.fit_transform(x[:, :, perm]),
            atol=1e-8,
        )


class TestTensorProperties:
    @settings(max_examples=20)
    @given(pair=broadcastable_pairs())
    def test_add_matches_numpy_broadcasting(self, pair):
        a, b = pair
        out = Tensor(a) + Tensor(b)
        np.testing.assert_allclose(out.data, a + b)

    @settings(max_examples=20)
    @given(pair=broadcastable_pairs())
    def test_mul_gradient_unbroadcasts_to_input_shape(self, pair):
        """Backward must return gradients with each input's own shape,
        whatever numpy broadcast the forward pass performed."""
        a, b = pair
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta * tb).sum().backward()
        assert ta.grad.shape == a.shape
        assert tb.grad.shape == b.shape

    @settings(max_examples=20)
    @given(x=gaussian_arrays())
    def test_sum_then_mean_consistency(self, x):
        tensor = Tensor(x)
        np.testing.assert_allclose(
            tensor.mean().data, tensor.sum().data / x.size, rtol=1e-10
        )
