"""Tests for the autodiff Tensor: forward values and gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor, as_tensor, concatenate, stack, where


def numeric_grad(build_loss, param: Tensor, eps: float = 1e-6) -> np.ndarray:
    """Finite-difference gradient of ``build_loss()`` wrt every entry."""
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = float(build_loss().data)
        flat[i] = original - eps
        minus = float(build_loss().data)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def analytic_grad(build_loss, param: Tensor) -> np.ndarray:
    param.grad = None
    loss = build_loss()
    loss.backward()
    return param.grad.copy()


def assert_grad_matches(build_loss, param: Tensor, atol=1e-5, rtol=1e-4):
    analytic = analytic_grad(build_loss, param)
    numeric = numeric_grad(build_loss, param)
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_int_input_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float64

    def test_from_tensor_shares_semantics(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        np.testing.assert_array_equal(a.data, b.data)

    def test_requires_grad_flag(self):
        assert Tensor([1.0], requires_grad=True).requires_grad
        assert not Tensor([1.0]).requires_grad

    def test_detach_cuts_graph(self):
        a = Tensor([2.0], requires_grad=True)
        b = (a * 3).detach()
        assert not b.requires_grad

    def test_item_scalar(self):
        assert Tensor(5.0).item() == 5.0

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20
        assert t.ndim == 2


class TestArithmetic:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_radd_scalar(self):
        out = 1.0 + Tensor([1.0])
        np.testing.assert_array_equal(out.data, [2.0])

    def test_sub_rsub(self):
        np.testing.assert_array_equal((Tensor([3.0]) - 1.0).data, [2.0])
        np.testing.assert_array_equal((5.0 - Tensor([3.0])).data, [2.0])

    def test_mul_div(self):
        np.testing.assert_array_equal((Tensor([3.0]) * 2.0).data, [6.0])
        np.testing.assert_array_equal((Tensor([6.0]) / 2.0).data, [3.0])
        np.testing.assert_array_equal((6.0 / Tensor([2.0])).data, [3.0])

    def test_pow(self):
        np.testing.assert_array_equal((Tensor([2.0]) ** 3).data, [8.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([3.0])

    def test_neg(self):
        np.testing.assert_array_equal((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    def test_matmul_2d(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal((a @ b).data, np.array([[19, 22], [43, 50]], dtype=float))

    def test_comparisons_return_bool_arrays(self):
        a = Tensor([1.0, 3.0])
        assert (a > 2.0).tolist() == [False, True]
        assert (a < 2.0).tolist() == [True, False]
        assert (a >= 3.0).tolist() == [False, True]
        assert (a <= 1.0).tolist() == [True, False]


class TestGradients:
    def test_add_grad_broadcast(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(4,)), requires_grad=True)
        assert_grad_matches(lambda: ((a + b) ** 2).sum(), a)
        assert_grad_matches(lambda: ((a + b) ** 2).sum(), b)

    def test_mul_grad(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        b = Tensor([[2.0, 0.5], [1.0, -1.0]], requires_grad=True)
        assert_grad_matches(lambda: (a * b).sum(), a)
        assert_grad_matches(lambda: (a * b).sum(), b)

    def test_div_grad(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([2.0, 4.0, 5.0], requires_grad=True)
        assert_grad_matches(lambda: (a / b).sum(), a)
        assert_grad_matches(lambda: (a / b).sum(), b)

    def test_matmul_grad_2d(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        assert_grad_matches(lambda: ((a @ b) ** 2).sum(), a)
        assert_grad_matches(lambda: ((a @ b) ** 2).sum(), b)

    def test_matmul_grad_batched(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        assert_grad_matches(lambda: ((a @ b) ** 2).sum(), a)
        assert_grad_matches(lambda: ((a @ b) ** 2).sum(), b)

    def test_matmul_grad_broadcast_batch(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        assert_grad_matches(lambda: ((a @ b) ** 2).sum(), a)
        assert_grad_matches(lambda: ((a @ b) ** 2).sum(), b)

    def test_matmul_vector_vector(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        loss = a @ b
        loss.backward()
        np.testing.assert_array_equal(a.grad, [3.0, 4.0])
        np.testing.assert_array_equal(b.grad, [1.0, 2.0])

    def test_pow_grad(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        assert_grad_matches(lambda: (a**3).sum(), a)

    def test_exp_log_sqrt_tanh_abs_grads(self):
        a = Tensor([0.5, 1.5, 2.5], requires_grad=True)
        assert_grad_matches(lambda: a.exp().sum(), a)
        assert_grad_matches(lambda: a.log().sum(), a)
        assert_grad_matches(lambda: a.sqrt().sum(), a)
        assert_grad_matches(lambda: a.tanh().sum(), a)
        assert_grad_matches(lambda: a.abs().sum(), a)

    def test_clip_grad(self):
        a = Tensor([-2.0, 0.5, 3.0], requires_grad=True)
        loss = (a.clip(-1.0, 1.0) * Tensor([1.0, 2.0, 3.0])).sum()
        loss.backward()
        np.testing.assert_array_equal(a.grad, [0.0, 2.0, 0.0])

    def test_reused_tensor_accumulates(self):
        a = Tensor([2.0], requires_grad=True)
        loss = (a * a).sum()  # d/da a^2 = 2a
        loss.backward()
        np.testing.assert_allclose(a.grad, [4.0])


class TestShapes:
    def test_reshape_grad(self):
        a = Tensor(np.arange(6, dtype=float), requires_grad=True)
        assert_grad_matches(lambda: (a.reshape(2, 3) ** 2).sum(), a)

    def test_reshape_accepts_tuple(self):
        a = Tensor(np.arange(6, dtype=float))
        assert a.reshape((3, 2)).shape == (3, 2)

    def test_transpose_grad(self):
        a = Tensor(np.random.default_rng(5).normal(size=(2, 3, 4)), requires_grad=True)
        assert_grad_matches(lambda: (a.transpose(2, 0, 1) ** 2).sum(), a)

    def test_transpose_default_reverses(self):
        a = Tensor(np.zeros((2, 3, 4)))
        assert a.transpose().shape == (4, 3, 2)
        assert a.T.shape == (4, 3, 2)

    def test_swapaxes(self):
        a = Tensor(np.random.default_rng(6).normal(size=(2, 3, 4)), requires_grad=True)
        assert a.swapaxes(0, 2).shape == (4, 3, 2)
        assert_grad_matches(lambda: (a.swapaxes(1, 2) ** 2).sum(), a)

    def test_getitem_slice_grad(self):
        a = Tensor(np.arange(10, dtype=float), requires_grad=True)
        loss = (a[2:5] ** 2).sum()
        loss.backward()
        expected = np.zeros(10)
        expected[2:5] = 2 * np.arange(2, 5)
        np.testing.assert_array_equal(a.grad, expected)

    def test_getitem_fancy_duplicate_indices_accumulate(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        loss = a[np.array([0, 0, 1])].sum()
        loss.backward()
        np.testing.assert_array_equal(a.grad, [2.0, 1.0])


class TestReductions:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.ones((2, 3)))
        assert a.sum().data == 6.0
        assert a.sum(axis=0).shape == (3,)
        assert a.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_sum_grad(self):
        a = Tensor(np.random.default_rng(7).normal(size=(3, 4)), requires_grad=True)
        assert_grad_matches(lambda: (a.sum(axis=1) ** 2).sum(), a)

    def test_mean_matches_numpy(self):
        data = np.random.default_rng(8).normal(size=(3, 4))
        np.testing.assert_allclose(Tensor(data).mean(axis=0).data, data.mean(axis=0))

    def test_mean_grad(self):
        a = Tensor(np.random.default_rng(9).normal(size=(3, 4)), requires_grad=True)
        assert_grad_matches(lambda: (a.mean(axis=0) ** 2).sum(), a)

    def test_var(self):
        data = np.random.default_rng(10).normal(size=(5, 6))
        np.testing.assert_allclose(Tensor(data).var(axis=1).data, data.var(axis=1))

    def test_max_grad_splits_ties(self):
        a = Tensor([1.0, 3.0, 3.0], requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.0, 0.5, 0.5])

    def test_max_axis(self):
        data = np.random.default_rng(11).normal(size=(3, 4))
        np.testing.assert_allclose(Tensor(data).max(axis=1).data, data.max(axis=1))


class TestGraphMechanics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_shape_mismatch(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = a * 2
        with pytest.raises(ValueError):
            out.backward(np.ones(3))

    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with nn.no_grad():
            out = a * 2
        assert not out.requires_grad

    def test_no_grad_restores_state(self):
        assert nn.is_grad_enabled()
        with nn.no_grad():
            assert not nn.is_grad_enabled()
        assert nn.is_grad_enabled()

    def test_no_grad_is_per_thread(self):
        """A serving thread's no_grad never leaks into another thread, even
        when the two blocks exit out of order."""
        import threading

        entered, release = threading.Event(), threading.Event()
        seen = {}

        def worker() -> None:
            with nn.no_grad():
                entered.set()
                release.wait(5)
                seen["worker"] = nn.is_grad_enabled()

        thread = threading.Thread(target=worker)
        thread.start()
        assert entered.wait(5)
        assert nn.is_grad_enabled()  # the worker's block is not ours
        with nn.no_grad():
            release.set()
            thread.join()
        assert nn.is_grad_enabled()
        assert seen["worker"] is False
        assert Tensor([1.0], requires_grad=True).requires_grad

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        assert a.grad is not None
        a.zero_grad()
        assert a.grad is None

    def test_diamond_graph(self):
        # f = (a*2) + (a*3); df/da = 5
        a = Tensor([1.0], requires_grad=True)
        ((a * 2) + (a * 3)).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0])

    def test_second_backward_after_freeing_is_isolated(self):
        a = Tensor([1.0], requires_grad=True)
        loss = (a * 2).sum()
        loss.backward()
        first = a.grad.copy()
        # gradients accumulate across independent graphs
        (a * 2).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * first)

    def test_double_backward_raises_graph_freed(self):
        # A second backward() through a freed graph used to silently
        # produce wrong (partial) gradients; now it must raise.
        a = Tensor([1.0, 2.0], requires_grad=True)
        loss = (a * 3).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="already been freed"):
            loss.backward()

    def test_backward_through_freed_subgraph_raises(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        hidden = a * 3
        (hidden * 2).sum().backward()
        # A new graph hanging off the freed intermediate cannot silently
        # stop gradient flow at the freed node.
        with pytest.raises(RuntimeError, match="freed"):
            (hidden * 5).sum().backward()

    def test_retain_graph_allows_second_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        loss = (a * 3).sum()
        loss.backward(retain_graph=True)
        np.testing.assert_allclose(a.grad, [3.0, 3.0])
        loss.backward()  # second pass accumulates
        np.testing.assert_allclose(a.grad, [6.0, 6.0])
        # the final non-retaining pass freed the graph
        with pytest.raises(RuntimeError, match="already been freed"):
            loss.backward()


class TestCombinators:
    def test_as_tensor_idempotent(self):
        a = Tensor([1.0])
        assert as_tensor(a) is a
        assert isinstance(as_tensor([1.0]), Tensor)

    def test_concatenate_values_and_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.full((3, 2), 2.0), requires_grad=True)
        out = concatenate([a, b], axis=0)
        assert out.shape == (5, 2)
        (out * Tensor(np.arange(10, dtype=float).reshape(5, 2))).sum().backward()
        np.testing.assert_array_equal(a.grad, np.arange(4, dtype=float).reshape(2, 2))
        np.testing.assert_array_equal(b.grad, np.arange(4, 10, dtype=float).reshape(3, 2))

    def test_stack_values_and_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 2)
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_where_selects_and_routes_grads(self):
        cond = np.array([True, False, True])
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([10.0, 20.0, 30.0], requires_grad=True)
        out = where(cond, a, b)
        np.testing.assert_array_equal(out.data, [1.0, 20.0, 3.0])
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(b.grad, [0.0, 1.0, 0.0])
