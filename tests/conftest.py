"""Shared fixtures for the test suite."""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import settings

# One property-test profile for the whole suite: derandomized, so every
# run draws the same examples (a failure reproduces by rerunning, and
# hypothesis prints the falsifying example), with no example database
# and no per-example deadline (model-building properties take seconds).
settings.register_profile("repro", derandomize=True, database=None, deadline=None)
settings.load_profile("repro")


@pytest.fixture(autouse=True)
def _seed_global_numpy_rng(request) -> None:
    """Seed numpy's legacy global RNG per test, from the test's node id.

    Code under test that falls back to ``np.random.*`` (e.g. a module
    constructed without an explicit generator) becomes deterministic
    and independent of test execution order: every test starts from
    the same, test-specific state on every run, so no individual test
    needs an ad-hoc ``np.random.seed`` call.
    """
    np.random.seed(zlib.crc32(request.node.nodeid.encode("utf-8")) % 2**32)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for test randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_series(rng) -> np.ndarray:
    """A small (N, T, D) multivariate batch."""
    return rng.normal(size=(6, 20, 8))


def finite_difference(fn, array: np.ndarray, index: tuple, eps: float = 1e-6) -> float:
    """Central finite difference of scalar ``fn`` wrt ``array[index]``."""
    original = array[index]
    array[index] = original + eps
    plus = fn()
    array[index] = original - eps
    minus = fn()
    array[index] = original
    return (plus - minus) / (2 * eps)
