"""Tests for the per-dataset-averaged p-value matrix (Figure 5 procedure)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation import mean_pairwise_pvalues, welch_ttest


def make_samples(rng, datasets=5, methods=("a", "b", "c"), shift=0.0):
    out = []
    for _ in range(datasets):
        base = rng.normal(0.6, 0.05)
        entry = {}
        for index, method in enumerate(methods):
            entry[method] = base + rng.normal(0, 0.02, size=3) + shift * index
        out.append(entry)
    return out


class TestStructure:
    def test_shape_symmetry_diagonal(self, rng):
        matrix = mean_pairwise_pvalues(make_samples(rng), ["a", "b", "c"])
        assert matrix.shape == (3, 3)
        np.testing.assert_array_equal(np.diag(matrix), np.ones(3))
        np.testing.assert_allclose(matrix, matrix.T)

    def test_values_in_unit_interval(self, rng):
        matrix = mean_pairwise_pvalues(make_samples(rng), ["a", "b", "c"])
        assert ((matrix >= 0) & (matrix <= 1)).all()

    def test_needs_two_methods(self, rng):
        with pytest.raises(ValueError):
            mean_pairwise_pvalues(make_samples(rng), ["a"])


class TestSemantics:
    def test_equivalent_methods_high_p(self, rng):
        matrix = mean_pairwise_pvalues(make_samples(rng, shift=0.0), ["a", "b", "c"])
        off = matrix[~np.eye(3, dtype=bool)]
        assert off.min() > 0.1

    def test_separated_methods_low_p(self, rng):
        matrix = mean_pairwise_pvalues(make_samples(rng, shift=0.5), ["a", "b", "c"])
        assert matrix[0, 2] < 0.05  # a vs c differ by 1.0

    def test_matches_manual_average(self, rng):
        samples = make_samples(rng, datasets=4, methods=("a", "b"))
        matrix = mean_pairwise_pvalues(samples, ["a", "b"])
        manual = np.mean([welch_ttest(s["a"], s["b"])[1] for s in samples])
        assert matrix[0, 1] == pytest.approx(manual)

    def test_skips_datasets_with_missing_runs(self, rng):
        samples = make_samples(rng, datasets=3, methods=("a", "b"))
        samples[1]["b"] = np.array([0.5])  # only one completed seed: skip
        matrix = mean_pairwise_pvalues(samples, ["a", "b"])
        manual = np.mean(
            [welch_ttest(s["a"], s["b"])[1] for s in (samples[0], samples[2])]
        )
        assert matrix[0, 1] == pytest.approx(manual)

    def test_all_missing_defaults_to_one(self, rng):
        samples = [{"a": np.array([0.1, 0.2])}]  # b never completed
        matrix = mean_pairwise_pvalues(samples, ["a", "b"])
        assert matrix[0, 1] == 1.0


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_property_matrix_valid_for_random_inputs(seed):
    rng = np.random.default_rng(seed)
    samples = make_samples(rng, datasets=rng.integers(1, 6))
    matrix = mean_pairwise_pvalues(samples, ["a", "b", "c"])
    assert ((matrix >= 0) & (matrix <= 1)).all()
    np.testing.assert_allclose(matrix, matrix.T)
