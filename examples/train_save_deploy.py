"""Train, publish, and serve a fine-tuned classifier.

A fitted pipeline bundles three stateful pieces — adapter projection,
foundation-model weights, classification head — and the pipeline
registry persists all of them as one named, versioned, digest-checked
artifact (numpy archives + a JSON manifest, no pickle).  This example
fine-tunes on 61-channel Heartbeat data, publishes the result into a
registry, reloads it as a "deployed" copy and verifies bit-identical
predictions, then serves it online through ``deploy`` / ``client``
with micro-batching — and checks the served logits are bit-identical
to offline prediction too (execution is tiled, so batch sizes never
change the bits).

Run with:  python examples/train_save_deploy.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import ServeConfig, client, deploy, fit_pipeline, undeploy
from repro.training import AdapterPipeline, TrainConfig


def main() -> None:
    fitted = fit_pipeline(
        "Heartbeat",
        adapter="pca",
        channels=5,
        seed=0,
        scale=0.2,
        max_length=96,
        train_config=TrainConfig(epochs=60, batch_size=32, learning_rate=3e-3, seed=0),
    )
    dataset = fitted.dataset
    print(f"Loaded {dataset.describe()}")
    print(f"Trained: test accuracy {fitted.score(dataset.x_test, dataset.y_test):.3f}")

    with tempfile.TemporaryDirectory() as workdir:
        registry_dir = Path(workdir) / "registry"
        record = fitted.save(registry_dir, "heartbeat-pca")
        print(f"Published {record.ref} (digest {record.digest[:12]})")

        # --- cold restore: fresh objects, no retraining -----------------
        restored = AdapterPipeline.load(registry_dir, "heartbeat-pca")
        identical = np.array_equal(
            fitted.predict(dataset.x_test), restored.predict(dataset.x_test)
        )
        print(f"Restored copy reproduces predictions exactly: {identical}")

        # --- online serving: micro-batched, still the same bits ---------
        config = ServeConfig(max_batch=8, max_delay_s=0.002)
        deploy(fitted.pipeline, "heartbeat", store=registry_dir, config=config)
        handle = client("heartbeat")
        # The array form submits every series as its own request, so
        # they co-batch exactly like concurrent clients would.
        served = handle.predict_logits(dataset.x_test[:16])
        # Execution is tiled, so any offline batch size gives the same bits.
        offline = fitted.predict_logits(dataset.x_test[:16])
        print(f"Served logits match the offline recipe: {np.array_equal(served, offline)}")
        print(f"One series -> label {handle.predict(dataset.x_test[0])}")
        stats = handle.stats()["batcher"]
        print(
            f"Served {stats['requests']} requests in {stats['batches']} micro-batches "
            f"(mean width {stats['batch_width']['mean']:.2f})"
        )
        undeploy("heartbeat")


if __name__ == "__main__":
    main()
