"""Tests for the MOMENT-style foundation model."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.models import MomentModel


@pytest.fixture
def model():
    return MomentModel("moment-tiny", seed=0)


class TestConstruction:
    def test_rejects_vit_config(self):
        with pytest.raises(ValueError):
            MomentModel("vit-tiny")

    def test_embed_dim(self, model):
        assert model.embed_dim == 64

    def test_deterministic_by_seed(self):
        a = MomentModel("moment-tiny", seed=5)
        b = MomentModel("moment-tiny", seed=5)
        x = np.random.default_rng(0).normal(size=(2, 32, 3))
        np.testing.assert_array_equal(a.encode(x).data, b.encode(x).data)


class TestEncoding:
    def test_encode_univariate_shape(self, model, rng):
        out = model.encode_univariate(nn.Tensor(rng.normal(size=(4, 32))))
        assert out.shape == (4, 4, 64)  # 32 / patch 8 = 4 patches

    def test_encode_multivariate_shape(self, model, rng):
        out = model.encode(rng.normal(size=(3, 32, 5)))
        assert out.shape == (3, 64)

    def test_truncates_beyond_context(self, model, rng):
        long_x = rng.normal(size=(2, 600, 2))
        out = model.encode(long_x)
        trunc = model.encode(long_x[:, :512, :])
        np.testing.assert_allclose(out.data, trunc.data, atol=1e-12)

    def test_pads_short_series(self, model, rng):
        out = model.encode(rng.normal(size=(2, 5, 2)))  # shorter than patch 8
        assert out.shape == (2, 64)

    def test_channel_mean_pooling(self, model, rng):
        """Duplicating every channel must not change the pooled embedding."""
        x = rng.normal(size=(2, 32, 3))
        doubled = np.concatenate([x, x], axis=2)
        np.testing.assert_allclose(
            model.encode(x).data, model.encode(doubled).data, rtol=1e-5, atol=1e-6
        )

    def test_chunked_inference_matches_full(self, model, rng):
        x = rng.normal(size=(2, 32, 6))
        model.eval()
        with nn.no_grad():
            full = model.encode(x).data
            chunked = model.encode(x, channel_batch=4).data
        np.testing.assert_allclose(full, chunked, atol=1e-10)

    def test_chunking_rejected_in_grad_mode(self, model, rng):
        x = rng.normal(size=(2, 32, 6))
        with pytest.raises(RuntimeError):
            model.encode(x, channel_batch=4)

    def test_tensor_input_is_differentiable(self, model, rng):
        x = nn.Tensor(rng.normal(size=(2, 32, 3)), requires_grad=True)
        model.encode(x).sum().backward()
        assert x.grad is not None
        assert np.abs(x.grad).sum() > 0


class TestReconstruction:
    def test_shapes(self, model, rng):
        x = nn.Tensor(rng.normal(size=(3, 32)))
        mask = np.zeros((3, 4), dtype=bool)
        mask[:, 1] = True
        recon, target = model.reconstruct(x, mask)
        assert recon.shape == (3, 4, 8)
        assert target.shape == (3, 4, 8)

    def test_target_is_input_patches(self, model, rng):
        x_data = rng.normal(size=(2, 32))
        mask = np.zeros((2, 4), dtype=bool)
        mask[:, 0] = True
        _, target = model.reconstruct(nn.Tensor(x_data), mask)
        np.testing.assert_array_equal(target.data[0, 0], x_data[0, :8])

    def test_mask_shape_validated(self, model, rng):
        with pytest.raises(ValueError):
            model.reconstruct(nn.Tensor(rng.normal(size=(2, 32))), np.zeros((2, 7), dtype=bool))

    def test_mask_changes_output(self, model, rng):
        """Masked tokens use the mask embedding, so outputs differ."""
        x = nn.Tensor(rng.normal(size=(1, 32)))
        no_mask = np.zeros((1, 4), dtype=bool)
        with_mask = no_mask.copy()
        with_mask[0, 2] = True
        a, _ = model.reconstruct(x, no_mask)
        b, _ = model.reconstruct(x, with_mask)
        assert not np.allclose(a.data, b.data)

    def test_reconstruction_grads_reach_mask_token(self, model, rng):
        x = nn.Tensor(rng.normal(size=(2, 32)))
        mask = np.zeros((2, 4), dtype=bool)
        mask[:, 1] = True
        recon, target = model.reconstruct(x, mask)
        from repro.nn import functional as F

        loss = F.masked_mse_loss(recon, target.data, mask[..., None].astype(float))
        loss.backward()
        assert model.mask_token.grad is not None
        assert np.abs(model.mask_token.grad).sum() > 0
