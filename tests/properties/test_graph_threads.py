"""Compiled replay under threads, property-tested.

Two contracts of :mod:`repro.nn.graph` that only show when threads
share a process (the in-process server's batcher thread next to a
caller that keeps fitting or predicting):

* a capture records only its own thread's ops, so another thread's
  eager work neither corrupts the trace nor gets pushed off replay;
* concurrent replays of one compiled graph never see each other's
  intermediates.

Each example draws its data from a seed; both threads run while the
interpreter switches threads every few microseconds, so interleavings
that a default switch interval would rarely produce happen on every
run.  Every row must equal a serial run's bits, no thread may raise,
and no bucket may fall back to eager.
"""

from __future__ import annotations

import contextlib
import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import build_model

T, D = 16, 2


@contextlib.contextmanager
def fast_switching():
    """Switch threads every 10 us; as the innermost decorator of a
    property it wraps each example, not the whole test."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _frozen(seed: int, train: bool = False):
    model = build_model("moment-tiny", seed=seed)
    model.freeze()
    return model.train() if train else model.eval()


def _run_threads(*targets) -> list[Exception]:
    """Run ``targets`` concurrently; return what any of them raised."""
    errors: list[Exception] = []

    def guarded(target):
        try:
            target()
        except Exception as err:  # reported to the test thread
            errors.append(err)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads), "a thread hung"
    return errors


@settings(max_examples=2)
@given(data_seed=st.integers(0, 2**16))
@fast_switching()
def test_capture_ignores_other_threads(data_seed):
    """Capture 20 shape buckets on model A while another thread runs
    eager encodes on model B: A never falls back, and both threads'
    rows equal a serial run."""
    rng = np.random.default_rng(data_seed)
    a_inputs = [rng.normal(size=(n, T, D)).astype(np.float32) for n in range(1, 21)]
    b_input = rng.normal(size=(3, T, D)).astype(np.float32)
    a_serial = [_frozen(0).encode(x).data for x in a_inputs]
    b_serial = _frozen(1, train=True).encode(b_input).data

    model_a, model_b = _frozen(0), _frozen(1, train=True)
    a_rows, b_rows = [], []
    done = threading.Event()

    def capture_on_a():
        try:
            a_rows.extend(model_a.encode(x).data for x in a_inputs)
        finally:
            done.set()

    def eager_on_b():
        while not done.is_set():
            b_rows.append(model_b.encode(b_input).data)

    assert _run_threads(capture_on_a, eager_on_b) == []
    stats = model_a._graph_cache.stats()
    assert stats["fallbacks"] == 0 and stats["misses"] == len(a_inputs)
    assert len(a_rows) == len(a_serial)
    for got, want in zip(a_rows, a_serial):
        np.testing.assert_array_equal(got, want)
    assert b_rows
    for got in b_rows:
        np.testing.assert_array_equal(got, b_serial)


@settings(max_examples=2)
@given(data_seed=st.integers(0, 2**16))
@fast_switching()
def test_concurrent_replays_of_one_graph(data_seed):
    """Two threads encode on one eval-mode model, 15 rounds x 6 inputs
    each, after its bucket was captured: every row equals a serial run."""
    rng = np.random.default_rng(data_seed)
    inputs = [rng.normal(size=(4, T, D)).astype(np.float32) for _ in range(12)]
    model = _frozen(0)
    serial = [model.encode(x).data for x in inputs]  # captures the bucket
    assert model._graph_cache.misses == 1
    results: dict[int, list] = {0: [], 1: []}

    def replay(worker: int):
        mine = inputs[6 * worker : 6 * worker + 6]
        for _ in range(15):
            results[worker].extend(model.encode(x).data for x in mine)

    assert _run_threads(lambda: replay(0), lambda: replay(1)) == []
    stats = model._graph_cache.stats()
    assert stats["fallbacks"] == 0 and stats["misses"] == 1
    for worker in (0, 1):
        want = serial[6 * worker : 6 * worker + 6] * 15
        assert len(results[worker]) == len(want)
        for got, expected in zip(results[worker], want):
            np.testing.assert_array_equal(got, expected)
