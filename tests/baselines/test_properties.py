"""Cross-baseline sanity and permutation properties.

Complements the per-baseline unit tests with the two properties every
classical baseline must satisfy on seeded synthetic data: it solves a
perfectly separable problem, and (where the algorithm is channel- or
feature-symmetric) its predictions ignore input permutation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import DTW1NNClassifier, RidgeClassifier, RocketClassifier, dtw_distance


def _separable_batch(seed: int = 0):
    """A clearly class-separable (x, y) batch drawn from ``seed``.

    2-3 classes of 3-6 series each, ``T`` in 8-16, ``D`` in 2-6; each
    class is a distinct multi-channel sinusoid plus Gaussian noise.
    """
    rng = np.random.default_rng(seed)
    classes = int(rng.integers(2, 4))
    per_class = int(rng.integers(3, 7))
    t = int(rng.integers(8, 17))
    d = int(rng.integers(2, 7))
    time = np.linspace(0.0, 1.0, t)
    frequencies = rng.uniform(1.0, 5.0, size=classes)
    mixing = rng.normal(size=(classes, d))
    xs, ys = [], []
    for label in range(classes):
        clean = np.sin(2 * np.pi * frequencies[label] * time)[:, None] * mixing[label]
        xs.append(clean + 0.2 * rng.normal(size=(per_class, t, d)))
        ys.append(np.full(per_class, label, dtype=np.int64))
    x, y = np.concatenate(xs), np.concatenate(ys)
    order = rng.permutation(len(y))
    return x[order], y[order]


class TestRidge:
    def test_perfect_separation_accuracy(self):
        x, y = _separable_batch(7)
        flat = x.reshape(len(x), -1)
        model = RidgeClassifier(alpha=1e-3).fit(flat, y)
        assert model.score(flat, y) == 1.0

    def test_feature_permutation_invariance(self):
        """Ridge is feature-symmetric: permuting columns permutes the
        coefficients but leaves every decision value unchanged."""
        x, y = _separable_batch(11)
        flat = x.reshape(len(x), -1)
        perm = np.random.default_rng(13).permutation(flat.shape[1])
        base = RidgeClassifier(alpha=1.0).fit(flat, y)
        permuted = RidgeClassifier(alpha=1.0).fit(flat[:, perm], y)
        np.testing.assert_allclose(
            base.decision_function(flat),
            permuted.decision_function(flat[:, perm]),
            atol=1e-8,
        )
        np.testing.assert_array_equal(base.predict(flat), permuted.predict(flat[:, perm]))


class TestRocket:
    def test_seeded_accuracy_sanity(self):
        x, y = _separable_batch(17)
        model = RocketClassifier(num_kernels=200, seed=0).fit(x, y)
        assert model.score(x, y) >= 0.9

    def test_seed_reproducibility(self):
        """Same seed -> identical kernels -> identical predictions.
        (ROCKET assigns kernels to random channels, so it is NOT
        permutation-invariant; determinism is its contract instead.)"""
        x, y = _separable_batch(19)
        a = RocketClassifier(num_kernels=100, seed=3).fit(x, y)
        b = RocketClassifier(num_kernels=100, seed=3).fit(x, y)
        np.testing.assert_array_equal(a.predict(x), b.predict(x))


class TestDTW:
    def test_distance_channel_permutation_invariance(self):
        """Dependent multivariate DTW uses the Euclidean local cost
        over channels, which is permutation-invariant exactly."""
        rng = np.random.default_rng(23)
        a = rng.normal(size=(14, 5))
        b = rng.normal(size=(11, 5))
        perm = rng.permutation(5)
        assert dtw_distance(a, b) == pytest.approx(
            dtw_distance(a[:, perm], b[:, perm]), abs=1e-12
        )

    def test_classifier_perfect_separation(self):
        x, y = _separable_batch(29)
        model = DTW1NNClassifier(band=5).fit(x, y)
        test_x = x + 0.01 * np.random.default_rng(31).normal(size=x.shape)
        assert model.score(test_x, y) >= 0.9

    def test_classifier_prediction_permutation_invariance(self):
        x, y = _separable_batch(37)
        perm = np.random.default_rng(41).permutation(x.shape[-1])
        base = DTW1NNClassifier(band=5).fit(x, y)
        permuted = DTW1NNClassifier(band=5).fit(x[:, :, perm], y)
        np.testing.assert_array_equal(base.predict(x), permuted.predict(x[:, :, perm]))