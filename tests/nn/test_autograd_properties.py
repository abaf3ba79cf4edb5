"""Property-based tests (hypothesis) for the autodiff engine.

These check algebraic invariants that must hold for *any* input, not
just hand-picked examples: gradient correctness against finite
differences for composed expressions, linearity of reductions, and
softmax simplex membership.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn import functional as F
from repro.nn.tensor import Tensor

finite_floats = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False, width=64
)


def small_arrays(min_dims=1, max_dims=3):
    return arrays(
        dtype=np.float64,
        shape=array_shapes(min_dims=min_dims, max_dims=max_dims, min_side=1, max_side=4),
        elements=finite_floats,
    )


@st.composite
def matrix_pairs(draw):
    """Conformable (m, k) x (k, n) matrices."""
    m = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    a = draw(arrays(np.float64, (m, k), elements=finite_floats))
    b = draw(arrays(np.float64, (k, n), elements=finite_floats))
    return a, b


@settings(max_examples=40)
@given(small_arrays())
def test_sum_grad_is_ones(data):
    t = Tensor(data, requires_grad=True)
    t.sum().backward()
    np.testing.assert_array_equal(t.grad, np.ones_like(data))


@settings(max_examples=40)
@given(small_arrays())
def test_mean_grad_is_uniform(data):
    t = Tensor(data, requires_grad=True)
    t.mean().backward()
    np.testing.assert_allclose(t.grad, np.full_like(data, 1.0 / data.size))


@settings(max_examples=40)
@given(small_arrays(), finite_floats)
def test_scalar_mul_grad(data, scalar):
    t = Tensor(data, requires_grad=True)
    (t * scalar).sum().backward()
    np.testing.assert_allclose(t.grad, np.full_like(data, scalar))


@settings(max_examples=30)
@given(matrix_pairs())
def test_matmul_grad_matches_closed_form(pair):
    a_data, b_data = pair
    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    (a @ b).sum().backward()
    ones = np.ones((a_data.shape[0], b_data.shape[1]))
    np.testing.assert_allclose(a.grad, ones @ b_data.T, atol=1e-10)
    np.testing.assert_allclose(b.grad, a_data.T @ ones, atol=1e-10)


@settings(max_examples=40)
@given(small_arrays())
def test_tanh_grad_identity(data):
    t = Tensor(data, requires_grad=True)
    out = t.tanh()
    out.sum().backward()
    np.testing.assert_allclose(t.grad, 1.0 - np.tanh(data) ** 2, atol=1e-10)


@settings(max_examples=40)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5), elements=finite_floats))
def test_softmax_rows_on_simplex(data):
    out = F.softmax(Tensor(data), axis=-1).data
    assert (out >= 0).all()
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)


@settings(max_examples=40)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5), elements=finite_floats), finite_floats)
def test_softmax_shift_invariance(data, shift):
    base = F.softmax(Tensor(data)).data
    shifted = F.softmax(Tensor(data + shift)).data
    np.testing.assert_allclose(base, shifted, atol=1e-10)


@settings(max_examples=40)
@given(small_arrays())
def test_exp_log_round_trip_grad(data):
    """d/dx log(exp(x)) = 1 everywhere."""
    t = Tensor(data, requires_grad=True)
    t.exp().log().sum().backward()
    np.testing.assert_allclose(t.grad, np.ones_like(data), atol=1e-8)


@settings(max_examples=40)
@given(small_arrays(min_dims=2, max_dims=2))
def test_reshape_transpose_preserve_grad_sum(data):
    """Pure shape ops must route gradient mass unchanged."""
    t = Tensor(data, requires_grad=True)
    t.transpose().reshape(-1).sum().backward()
    np.testing.assert_array_equal(t.grad, np.ones_like(data))


@settings(max_examples=30)
@given(small_arrays(), small_arrays())
def test_add_commutes(a_data, b_data):
    a, b = Tensor(a_data), Tensor(b_data)
    try:
        left = (a + b).data
    except ValueError:
        return  # non-broadcastable shapes: nothing to check
    np.testing.assert_array_equal(left, (b + a).data)


@settings(max_examples=30)
@given(arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(2, 6)), elements=finite_floats))
def test_cross_entropy_nonnegative(logits):
    targets = np.zeros(logits.shape[0], dtype=np.int64)
    loss = F.cross_entropy(Tensor(logits), targets)
    assert float(loss.data) >= -1e-12
