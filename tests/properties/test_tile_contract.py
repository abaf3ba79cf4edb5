"""The fixed-tile contract, property-tested.

Every inference pass runs over row tiles of exactly ``TILE_ROWS``
samples (:mod:`repro.training.tiles`), so a sample's logits are a pure
function of (sample, ``TILE_ROWS``).  The properties below pin that
across every width knob the library exposes: the offline
``batch_size``, the fit-time embedding fill, the served ``max_batch``,
the streaming ``batch_size`` and ``encode_long``'s ``batch_windows``.
Bit-identity (``np.array_equal``) throughout.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapters import make_adapter
from repro.models import load_pretrained
from repro.serve import PipelineRegistry, PipelineServer, ServeConfig
from repro.stream import StreamingClassifier, encode_long
from repro.stream.windows import window_batch, window_starts
from repro.training import AdapterPipeline, TrainConfig, compute_embeddings
from repro.training.tiles import TILE_ROWS, map_tiles

CHANNELS = 4
LENGTH = 24
BATCH_SIZES = (1, 3, TILE_ROWS, 5 * TILE_ROWS + 1)


def _data(seed: int, n: int, length: int = LENGTH) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, length, CHANNELS))


@pytest.fixture(scope="module")
def fitted():
    """A fitted pipeline plus the embeddings its fit trained the head on."""
    x = _data(3, 18)
    y = np.random.default_rng(4).integers(0, 3, size=len(x))
    pipeline = AdapterPipeline(
        load_pretrained("moment-tiny", seed=0), make_adapter("pca", 2, seed=0), 3, seed=0
    )
    fills = []
    fit_head = pipeline._fit_head

    def spy(embeddings, labels, config):
        fills.append(embeddings)
        return fit_head(embeddings, labels, config)

    pipeline._fit_head = spy
    pipeline.fit(x, y, config=TrainConfig(epochs=1, batch_size=8, seed=0))
    return pipeline, x, fills[0]


@pytest.fixture(scope="module")
def registry(fitted, tmp_path_factory):
    registry = PipelineRegistry(tmp_path_factory.mktemp("tile-registry"))
    registry.publish(fitted[0], "tiles")
    return registry


class TestTileRunner:
    def test_map_tiles_sees_only_full_tiles(self):
        seen = []

        def fn(tile):
            seen.append(len(tile))
            return tile * 2

        x = np.arange(2 * TILE_ROWS + 1, dtype=float)[:, None]
        np.testing.assert_array_equal(map_tiles(fn, x), x * 2)
        assert seen == [TILE_ROWS] * 3


class TestOfflineBatchSize:
    @settings(max_examples=3)
    @given(data_seed=st.integers(0, 10_000), n=st.integers(1, 23))
    def test_logits_independent_of_batch_size(self, fitted, data_seed, n):
        pipeline = fitted[0]
        x = _data(data_seed, n)
        reference = pipeline.predict_logits(x, batch_size=BATCH_SIZES[0])
        for batch_size in BATCH_SIZES[1:]:
            np.testing.assert_array_equal(
                pipeline.predict_logits(x, batch_size=batch_size), reference
            )
        # A sample's logits do not depend on the rest of the call.
        np.testing.assert_array_equal(pipeline.predict_logits(x[-1:]), reference[-1:])

    def test_eager_matches_compiled(self, fitted):
        pipeline = fitted[0]
        x = _data(11, 2 * TILE_ROWS + 1)
        np.testing.assert_array_equal(
            pipeline.predict_logits(x, batch_size=3, compiled=False),
            pipeline.predict_logits(x, batch_size=16, compiled=True),
        )


class TestFitFill:
    def test_fit_fill_equals_predict_time_embeddings(self, fitted):
        pipeline, x, fill = fitted
        for start, stop in ((0, 1), (1, 4), (4, 11), (11, len(x))):
            predicted = compute_embeddings(pipeline.model, pipeline._reduce(x[start:stop]))
            np.testing.assert_array_equal(predicted, fill[start:stop])
        np.testing.assert_array_equal(
            pipeline._head_logits(fill), pipeline.predict_logits(x, batch_size=5)
        )


class TestServedWidth:
    @pytest.mark.parametrize("max_batch", [1, 3, 16])
    def test_served_rows_equal_offline(self, fitted, registry, max_batch):
        pipeline = fitted[0]
        x = _data(21, 10)
        config = ServeConfig(max_batch=max_batch, max_delay_s=0.002)
        results: list = [None] * len(x)
        with PipelineServer(registry, "tiles", config=config) as server:

            def one(i: int) -> None:
                results[i] = server.predict_logits(x[i])

            threads = [threading.Thread(target=one, args=(i,)) for i in range(len(x))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        served = np.stack(results, axis=0)
        for batch_size in (1, 7):
            np.testing.assert_array_equal(
                served, pipeline.predict_logits(x, batch_size=batch_size)
            )


class TestStreamWidth:
    @settings(max_examples=3)
    @given(
        window=st.integers(8, 16),
        stride=st.integers(2, 8),
        stream_batch=st.sampled_from((1, 3, 16)),
        batch_windows=st.sampled_from((1, 5, 16)),
        data_seed=st.integers(0, 10_000),
    )
    def test_stream_and_encode_long_rows_match_offline(
        self, fitted, window, stride, stream_batch, batch_windows, data_seed
    ):
        pipeline = fitted[0]
        series = np.random.default_rng(data_seed).normal(size=(window + 30, CHANNELS))
        windows = window_batch(series, window_starts(len(series), window, stride), window)

        stream = StreamingClassifier(pipeline, window, stride, batch_size=stream_batch)
        stream.push(series)
        streamed = np.stack([p.logits for p in stream.emitted], axis=0)
        np.testing.assert_array_equal(
            streamed, pipeline.predict_logits(windows, batch_size=7)
        )

        encoded = encode_long(
            pipeline.model,
            series,
            window,
            stride,
            batch_windows=batch_windows,
            transform=pipeline._reduce_tile,
            return_windows=True,
        ).window_embeddings
        offline = compute_embeddings(pipeline.model, pipeline._reduce(windows))
        np.testing.assert_array_equal(encoded, offline)
        cached = np.stack([stream.cache.embedding(w) for w in windows], axis=0)
        np.testing.assert_array_equal(cached, offline)
