"""Property-based tests on the surrogate generator."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import dataset_names, dataset_info
from repro.data.generators import LatentFactorGenerator, generate_split

SMALL_DATASETS = [
    name
    for name in dataset_names()
    if dataset_info(name).num_channels <= 64 and dataset_info(name).sequence_length <= 500
]


@settings(max_examples=15)
@given(st.sampled_from(SMALL_DATASETS), st.integers(0, 50))
def test_sample_geometry_matches_registry(name, seed):
    info = dataset_info(name)
    generator = LatentFactorGenerator(info, seed=seed)
    x, y = generator.sample(12, np.random.default_rng(seed), length=20)
    assert x.shape == (12, 20, info.num_channels)
    assert y.max() < info.num_classes
    assert np.isfinite(x).all()


@settings(max_examples=10)
@given(st.sampled_from(SMALL_DATASETS), st.integers(0, 20))
def test_generation_is_deterministic(name, seed):
    info = dataset_info(name)
    a = generate_split(info, seed=seed, scale=0.05, max_length=16)
    b = generate_split(info, seed=seed, scale=0.05, max_length=16)
    for left, right in zip(a, b):
        np.testing.assert_array_equal(left, right)


@settings(max_examples=10)
@given(st.integers(0, 20), st.integers(21, 40))
def test_different_seeds_give_different_data(seed_a, seed_b):
    info = dataset_info("NATOPS")
    x_a, _, _, _ = generate_split(info, seed=seed_a, scale=0.05, max_length=16)
    x_b, _, _, _ = generate_split(info, seed=seed_b, scale=0.05, max_length=16)
    assert not np.array_equal(x_a, x_b)


@settings(max_examples=10)
@given(st.sampled_from(SMALL_DATASETS), st.integers(0, 20))
def test_every_class_present_in_train(name, seed):
    info = dataset_info(name)
    _, y_train, _, _ = generate_split(info, seed=seed, scale=0.02, max_length=16)
    assert len(np.unique(y_train)) == info.num_classes


@settings(max_examples=10)
@given(st.integers(0, 30))
def test_train_and_test_share_class_structure(seed):
    """Class centroids of the train and test splits must correlate —
    otherwise the test split measures nothing."""
    info = dataset_info("JapaneseVowels")
    x_train, y_train, x_test, y_test = generate_split(
        info, seed=seed, scale=0.3, max_length=29
    )
    correlations = []
    for cls in range(info.num_classes):
        a = x_train[y_train == cls].mean(axis=0).reshape(-1)
        b = x_test[y_test == cls].mean(axis=0).reshape(-1)
        correlations.append(np.corrcoef(a, b)[0, 1])
    assert np.mean(correlations) > 0.5
