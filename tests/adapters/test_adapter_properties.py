"""Property-based tests on adapter invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapters import make_adapter

FITTED_ADAPTERS = ["pca", "scaled_pca", "svd", "rand_proj", "var"]


@st.composite
def series_and_channels(draw):
    n = draw(st.integers(3, 8))
    t = draw(st.integers(4, 16))
    d = draw(st.integers(3, 12))
    d_out = draw(st.integers(1, d))
    seed = draw(st.integers(0, 10_000))
    x = np.random.default_rng(seed).normal(size=(n, t, d))
    return x, d_out


@settings(max_examples=20)
@given(series_and_channels(), st.sampled_from(FITTED_ADAPTERS))
def test_output_shape_invariant(data, name):
    x, d_out = data
    out = make_adapter(name, d_out, seed=0).fit(x).transform(x)
    assert out.shape == (x.shape[0], x.shape[1], d_out)


@settings(max_examples=20)
@given(series_and_channels(), st.sampled_from(FITTED_ADAPTERS))
def test_transform_is_deterministic(data, name):
    x, d_out = data
    adapter = make_adapter(name, d_out, seed=0).fit(x)
    np.testing.assert_array_equal(adapter.transform(x), adapter.transform(x))


@settings(max_examples=20)
@given(series_and_channels(), st.sampled_from(["svd", "rand_proj", "var"]))
def test_uncentered_adapters_are_linear(data, name):
    """T(a*x + b*y) == a*T(x) + b*T(y) for linear (uncentered) adapters."""
    x, d_out = data
    adapter = make_adapter(name, d_out, seed=0).fit(x)
    y = np.random.default_rng(1).normal(size=x.shape)
    combined = adapter.transform(2.0 * x + 3.0 * y)
    separate = 2.0 * adapter.transform(x) + 3.0 * adapter.transform(y)
    np.testing.assert_allclose(combined, separate, atol=1e-8)


@settings(max_examples=20)
@given(series_and_channels())
def test_pca_transform_affine(data):
    """PCA is affine: differences transform linearly (mean cancels)."""
    x, d_out = data
    adapter = make_adapter("pca", d_out, seed=0).fit(x)
    y = np.random.default_rng(2).normal(size=x.shape)
    diff = adapter.transform(x) - adapter.transform(y)
    lin = (x - y).reshape(-1, x.shape[-1]) @ adapter.projection_.T
    np.testing.assert_allclose(diff.reshape(-1, d_out), lin, atol=1e-8)


@settings(max_examples=20)
@given(series_and_channels(), st.sampled_from(FITTED_ADAPTERS))
def test_transform_finite(data, name):
    x, d_out = data
    out = make_adapter(name, d_out, seed=0).fit(x).transform(x)
    assert np.isfinite(out).all()


@settings(max_examples=15)
@given(series_and_channels())
def test_full_rank_pca_preserves_distances(data):
    """With D' == D, PCA is a rotation: pairwise distances preserved."""
    x, _ = data
    d = x.shape[-1]
    adapter = make_adapter("pca", d, seed=0).fit(x)
    out = adapter.transform(x)
    a = x.reshape(-1, d)
    b = out.reshape(-1, d)
    dist_in = np.linalg.norm(a[0] - a[-1])
    dist_out = np.linalg.norm(b[0] - b[-1])
    assert dist_out == pytest.approx(dist_in, rel=1e-6, abs=1e-8)
