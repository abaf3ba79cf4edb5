"""Capture / compile / replay engine tests (:mod:`repro.nn.graph`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import graph
from repro.nn import functional as F
from repro.nn import profiler as nn_profiler
from repro.nn.tensor import Tensor


def _mlp_like(t: Tensor) -> Tensor:
    w = Tensor(np.linspace(-0.5, 0.5, 12).reshape(4, 3).astype(t.data.dtype))
    return F.relu(t @ w) + 1.0


def _inputs(shape=(5, 4), dtype=np.float32, seed=0):
    return [np.random.default_rng(seed).standard_normal(shape).astype(dtype)]


class TestCapture:
    def test_capture_records_ops_in_order(self):
        trace = graph.capture(_mlp_like, _inputs())
        assert [s.op for s in trace.steps] == ["matmul", "relu", "add"]
        assert trace.inputs == [0]
        assert trace.output == trace.steps[-1].out

    def test_capture_rejects_nested_capture(self):
        def nested(t):
            graph.capture(_mlp_like, _inputs())
            return t + 1.0

        with pytest.raises(graph.TraceError, match="already active"):
            graph.capture(nested, _inputs())

    def test_capture_rejects_untraced_output(self):
        with pytest.raises(graph.TraceError, match="no traced ops"):
            graph.capture(lambda t: t, _inputs())

    def test_render_lists_steps(self):
        trace = graph.capture(_mlp_like, _inputs())
        listing = trace.render()
        assert "matmul" in listing and "relu" in listing

    def test_mid_capture_constants_are_baked_by_copy(self):
        leak = np.ones(4, dtype=np.float32)

        def fn(t):
            return t + Tensor(leak)

        trace = graph.capture(fn, _inputs((3, 4)))
        compiled = graph.compile_trace(trace)
        first = compiled.run(_inputs((3, 4)))
        leak[:] = 99.0  # mutating the source must not change the program
        second = compiled.run(_inputs((3, 4)))
        np.testing.assert_array_equal(first, second)

    def test_params_are_held_by_reference(self):
        weight = Tensor(np.full((4, 3), 2.0, dtype=np.float32))

        def fn(t):
            return t @ weight

        trace = graph.capture(fn, _inputs())
        compiled = graph.compile_trace(trace)
        x = _inputs()
        first = compiled.run(x)
        weight.data *= 2.0  # in-place update, as an optimizer would do
        second = compiled.run(x)
        np.testing.assert_array_equal(second, 2.0 * first)


class TestCompile:
    def test_dead_step_elimination(self):
        def fn(t):
            _dead = (t * 3.0).exp()  # never reaches the output
            return t + 1.0

        trace = graph.capture(fn, _inputs())
        compiled = graph.compile_trace(trace)
        assert compiled.dead_steps == 2
        assert [s.op for s in compiled.steps] == ["add"]

    def test_arena_reuses_blocks_across_lifetimes(self):
        def chain(t):
            return (((t + 1.0) * 2.0) - 3.0) / 4.0

        compiled = graph.compile_trace(graph.capture(chain, _inputs()))
        # Four same-sized intermediates with disjoint lifetimes need
        # far fewer blocks than steps (output storage is never arena).
        assert len(compiled.plan.blocks) < len(compiled.steps)
        assert compiled.arena_bytes < compiled.eager_bytes

    def test_views_share_storage_with_parent(self):
        def fn(t):
            return (t.reshape(2, 10).transpose(1, 0) * 2.0).sum(axis=0)

        trace = graph.capture(fn, _inputs((4, 5)))
        views = [s for s in trace.steps if s.alias_of is not None]
        assert {s.op for s in views} == {"reshape", "transpose"}
        compiled = graph.compile_trace(trace)
        for step in views:
            assert step.out not in compiled.plan.buffers

    def test_replay_matches_eager_bitwise(self):
        x = _inputs((6, 4), np.float64)
        compiled = graph.compile_trace(graph.capture(_mlp_like, x))
        with nn.no_grad():
            eager = _mlp_like(Tensor(x[0])).data
        for _ in range(3):  # repeated replays reuse the same arena
            np.testing.assert_array_equal(compiled.run(x), eager)

    def test_permuted_layouts_replay_bitwise(self):
        # Reductions over axis-permuted ufunc outputs follow memory
        # order; the arena must reproduce eager strides exactly.
        def fn(t):
            moved = t.transpose(1, 0, 2) * 1.7
            return (moved - moved.mean(axis=-1, keepdims=True)).sum(axis=-1)

        x = _inputs((7, 5, 16), np.float32)
        compiled = graph.compile_trace(graph.capture(fn, x))
        with nn.no_grad():
            eager = fn(Tensor(x[0])).data
        np.testing.assert_array_equal(compiled.run(x), eager)


class TestReplayGuard:
    def test_shape_mismatch_raises_guard(self):
        compiled = graph.compile_trace(graph.capture(_mlp_like, _inputs()))
        with pytest.raises(graph.ReplayGuard, match="signature"):
            compiled.run(_inputs((7, 4)))

    def test_dtype_mismatch_raises_guard(self):
        compiled = graph.compile_trace(graph.capture(_mlp_like, _inputs()))
        with pytest.raises(graph.ReplayGuard, match="signature"):
            compiled.run(_inputs(dtype=np.float64))

    def test_param_drift_raises_guard(self):
        weight = Tensor(np.ones((4, 3), dtype=np.float32))
        compiled = graph.compile_trace(graph.capture(lambda t: t @ weight, _inputs()))
        weight.data = np.ones((4, 7), dtype=np.float32)
        with pytest.raises(graph.ReplayGuard, match="parameter"):
            compiled.run(_inputs())

    def test_result_never_aliases_the_arena(self):
        compiled = graph.compile_trace(graph.capture(_mlp_like, _inputs()))
        first = compiled.run(_inputs(seed=1))
        snapshot = first.copy()
        compiled.run(_inputs(seed=2))
        np.testing.assert_array_equal(first, snapshot)


class TestGraphCache:
    def test_cache_compiles_once_per_bucket(self):
        cache = graph.GraphCache()
        for seed in range(3):
            out = cache.run(_mlp_like, _inputs(seed=seed)[0])
            assert out is not None
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 2
        assert len(cache) == 1

    def test_cache_separates_shape_buckets(self):
        cache = graph.GraphCache()
        assert cache.run(_mlp_like, _inputs((5, 4))[0]) is not None
        assert cache.run(_mlp_like, _inputs((9, 4))[0]) is not None
        assert len(cache) == 2

    def test_disable_compilation(self):
        cache = graph.GraphCache()
        with graph.compile_disabled():
            assert not graph.compile_enabled()
            assert cache.run(_mlp_like, _inputs()[0]) is None
        assert graph.compile_enabled()
        assert cache.run(_mlp_like, _inputs()[0]) is not None

    def test_uncapturable_function_falls_back(self):
        rng = np.random.default_rng(0)
        cache = graph.GraphCache()

        def noisy(t):
            return F.dropout(t * 2.0, 0.5, True, rng)

        assert cache.run(noisy, _inputs()[0]) is None
        assert cache.stats()["fallbacks"] == 1

    def test_eviction_keeps_cache_bounded(self):
        cache = graph.GraphCache(max_entries=2)
        for n in (2, 3, 4, 5):
            cache.run(_mlp_like, _inputs((n, 4))[0])
        assert len(cache) == 2

    def test_hit_refreshes_lru_order(self):
        cache = graph.GraphCache(max_entries=2)
        a, b, c = (_inputs((n, 4))[0] for n in (2, 3, 4))
        for x in (a, b, a, c):  # c evicts b, the least recently used
            assert cache.run(_mlp_like, x) is not None
        assert cache.misses == 3
        assert cache.run(_mlp_like, a) is not None
        assert cache.misses == 3 and cache.hits == 2


class TestProfilerIntegration:
    def test_replay_stats_recorded(self):
        compiled = graph.compile_trace(graph.capture(_mlp_like, _inputs()))
        with nn_profiler.profile() as prof:
            compiled.run(_inputs())
            compiled.run(_inputs())
        replay = prof.replay_summary()
        assert replay["runs"] == 2
        assert set(replay["ops"]) == {"matmul", "relu", "add"}
        assert replay["bytes_saved"] > 0
        rendered = nn_profiler.render_replay_ops(replay)
        assert "graph replays: 2" in rendered

    def test_eager_path_records_no_replays(self):
        with nn_profiler.profile() as prof:
            with nn.no_grad():
                _mlp_like(Tensor(_inputs()[0]))
        assert prof.replay_summary()["runs"] == 0
