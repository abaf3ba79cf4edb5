"""End-to-end learning tests for the nn framework.

Each test trains a small architecture on a synthetic task it should be
able to solve; these catch subtle autodiff bugs that per-op gradient
checks miss (wrong accumulation across steps, optimizer state issues,
dropout/eval interactions).
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.nn import functional as F


def train(model, x, y, steps=150, lr=1e-2):
    optimizer = nn.Adam(model.trainable_parameters(), lr=lr)
    losses = []
    for _ in range(steps):
        loss = F.cross_entropy(model(nn.Tensor(x)), y)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        losses.append(float(loss.data))
    return losses


def accuracy(model, x, y):
    with nn.no_grad():
        return float((model(nn.Tensor(x)).data.argmax(axis=1) == y).mean())


class TestMlp:
    def test_learns_xor(self):
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        x = np.tile(x, (25, 1)) + 0.05 * np.random.default_rng(0).normal(size=(100, 2))
        y = (np.round(x[:, 0]) != np.round(x[:, 1])).astype(np.int64)
        rng = np.random.default_rng(1)
        model = nn.Sequential(nn.Linear(2, 16, rng=rng), nn.GELU(), nn.Linear(16, 2, rng=rng))
        losses = train(model, x, y, steps=300, lr=3e-2)
        assert losses[-1] < 0.1
        assert accuracy(model, x, y) > 0.95


class TestConvClassifier:
    def test_learns_frequency_discrimination(self):
        """Conv1d front end distinguishing low- vs high-frequency waves."""
        rng = np.random.default_rng(0)
        n, length = 120, 64
        t = np.linspace(0, 1, length)
        y = (np.arange(n) % 2).astype(np.int64)
        freqs = np.where(y == 0, 2.0, 9.0)
        x = np.sin(2 * np.pi * freqs[:, None] * t[None, :] + rng.uniform(0, 2 * np.pi, (n, 1)))
        x = x[:, None, :] + 0.1 * rng.normal(size=(n, 1, length))

        init_rng = np.random.default_rng(1)

        class ConvNet(nn.Module):
            def __init__(self):
                super().__init__()
                self.conv = nn.Conv1d(1, 8, kernel_size=7, stride=2, rng=init_rng)
                self.head = nn.Linear(8, 2, rng=init_rng)

            def forward(self, x):
                hidden = F.relu(self.conv(x))
                pooled = hidden.mean(axis=2)
                return self.head(pooled)

        model = ConvNet()
        train(model, x, y, steps=150, lr=1e-2)
        assert accuracy(model, x, y) > 0.9


class TestAttentionClassifier:
    def test_learns_token_position_task(self):
        """A transformer must find which position carries the marker."""
        rng = np.random.default_rng(0)
        n, tokens, dim = 90, 6, 8
        x = rng.normal(size=(n, tokens, dim)) * 0.1
        y = rng.integers(0, 3, size=n)
        marker = np.zeros(dim)
        marker[0] = 3.0
        for i in range(n):
            x[i, y[i]] += marker  # class = marked position (0..2)

        init_rng = np.random.default_rng(1)

        class TinyTransformer(nn.Module):
            def __init__(self):
                super().__init__()
                self.pos = nn.Parameter(nn.init.normal((tokens, dim), init_rng, std=0.5))
                self.encoder = nn.TransformerEncoder(dim, 2, 16, 1, rng=init_rng)
                self.head = nn.Linear(dim, 3, rng=init_rng)

            def forward(self, x):
                hidden = self.encoder(x + self.pos.reshape(1, tokens, dim))
                return self.head(hidden.mean(axis=1))

        model = TinyTransformer()
        train(model, x, y.astype(np.int64), steps=250, lr=1e-2)
        assert accuracy(model, x, y) > 0.85


class TestRegularisation:
    def test_dropout_changes_training_but_not_eval(self, rng):
        model = nn.Sequential(
            nn.Linear(4, 32, rng=rng), nn.Dropout(0.5, rng=rng), nn.Linear(32, 2, rng=rng)
        )
        x = nn.Tensor(rng.normal(size=(8, 4)))
        model.train()
        assert not np.array_equal(model(x).data, model(x).data)
        model.eval()
        np.testing.assert_array_equal(model(x).data, model(x).data)

    def test_weight_decay_shrinks_weights(self, rng):
        x = rng.normal(size=(50, 4))
        y = np.zeros(50, dtype=np.int64)
        heavy = nn.Linear(4, 2, rng=np.random.default_rng(0))
        light = nn.Linear(4, 2, rng=np.random.default_rng(0))
        for model, decay in ((heavy, 0.0), (light, 0.5)):
            optimizer = nn.AdamW(model.trainable_parameters(), lr=1e-2, weight_decay=decay)
            for _ in range(100):
                loss = F.cross_entropy(model(nn.Tensor(x)), y)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
        assert np.abs(light.weight.data).sum() < np.abs(heavy.weight.data).sum()
