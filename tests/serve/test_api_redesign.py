"""The redesigned predict-facing public API.

Covers the satellite work of the serve PR: the :class:`FittedPipeline`
handle, ``deploy`` / ``client`` from the package root, consistent
``batch_size`` / ``compiled`` kwargs, typed ``run_experiment``
signature, and the deprecation shims over the old entry points.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import FittedPipeline, ServeConfig, client, deploy, fit_pipeline, undeploy
from repro.serve import PipelineNotFoundError
from repro.training import TrainConfig


@pytest.fixture(scope="module")
def fitted():
    return fit_pipeline(
        "JapaneseVowels",
        adapter="pca",
        channels=4,
        seed=0,
        scale=0.1,
        max_length=32,
        train_config=TrainConfig(epochs=2, batch_size=16, seed=0),
    )


class TestFittedPipelineHandle:
    def test_unpacks_as_pipeline_dataset_pair(self, fitted):
        pipeline, dataset = fitted
        assert pipeline is fitted.pipeline
        assert dataset is fitted.dataset

    def test_predict_surface_delegates(self, fitted):
        x = fitted.dataset.x_test[:5]
        np.testing.assert_array_equal(
            fitted.predict_logits(x, batch_size=8),
            fitted.pipeline.predict_logits(x, batch_size=8),
        )
        assert fitted.predict(x).shape == (5,)
        proba = fitted.predict_proba(x)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-6)

    def test_report_property(self, fitted):
        assert fitted.report is not None
        assert fitted.report.total_s >= 0

    def test_save_publishes_to_registry(self, fitted, tmp_path):
        from repro.serve import PipelineRegistry
        from repro.training import AdapterPipeline

        record = fitted.save(tmp_path / "reg", "vowels")
        assert record.ref == "vowels@v1"
        restored = AdapterPipeline.load(tmp_path / "reg", "vowels")
        x = fitted.dataset.x_test[:4]
        np.testing.assert_array_equal(
            restored.predict_logits(x), fitted.predict_logits(x)
        )
        assert PipelineRegistry(tmp_path / "reg").names() == ["vowels"]


class TestDeployClient:
    def test_deploy_then_client_predict(self, fitted):
        x = fitted.dataset.x_test[:4]
        config = ServeConfig(max_batch=4, max_delay_s=0.001)
        record = deploy(fitted.pipeline, "api-vowels", config=config)
        try:
            assert record.version == 1
            handle = client("api-vowels")
            np.testing.assert_array_equal(
                handle.predict_logits(x),
                fitted.predict_logits(x, batch_size=4),
            )
            # Execution is tiled, so any batch_size gives the same bits
            # and is accepted; a conflicting compiled flag still raises.
            for batch_size in (1, 4, 32):
                np.testing.assert_array_equal(
                    handle.predict_logits(x, batch_size=batch_size),
                    fitted.predict_logits(x, batch_size=batch_size),
                )
            handle.predict(x[0], batch_size=4, compiled=True)
            with pytest.raises(ValueError, match="batch_size"):
                handle.predict(x[0], batch_size=0)
            with pytest.raises(ValueError, match="compiled"):
                handle.predict(x[0], compiled=False)
        finally:
            assert undeploy("api-vowels") is True

    def test_redeploy_bumps_version_and_swaps(self, fitted):
        try:
            first = deploy(fitted.pipeline, "api-swap")
            second = fitted.deploy("api-swap")
            assert (first.version, second.version) == (1, 2)
            assert client("api-swap").server.record.version == 2
        finally:
            undeploy("api-swap")

    def test_client_without_deploy_is_typed_error(self):
        with pytest.raises(PipelineNotFoundError):
            client("never-deployed")

    def test_undeploy_missing_returns_false(self):
        assert undeploy("never-deployed") is False

    def test_root_exports(self):
        for name in ("fit_pipeline", "FittedPipeline", "deploy", "client",
                     "undeploy", "ServeConfig", "serve"):
            assert hasattr(repro, name)
        assert isinstance(fit_pipeline("JapaneseVowels", scale=0.05, max_length=16,
                                       train_config=TrainConfig(epochs=1, seed=0)),
                          FittedPipeline)


class TestRunExperimentSignature:
    def test_unknown_kwarg_is_helpful_typeerror(self):
        from repro import JobSpec, run_experiment

        spec = JobSpec(dataset="Heartbeat", model="MOMENT", adapter="pca")
        with pytest.raises(TypeError, match="cache_path.*valid keywords"):
            run_experiment(spec, cache_path="/tmp/x")

    def test_config_type_checked(self):
        from repro import JobSpec, run_experiment

        spec = JobSpec(dataset="Heartbeat", model="MOMENT", adapter="pca")
        with pytest.raises(TypeError, match="ExperimentConfig"):
            run_experiment(spec, config="fast")

    def test_runner_type_checked(self):
        from repro import JobSpec, run_experiment

        spec = JobSpec(dataset="Heartbeat", model="MOMENT", adapter="pca")
        with pytest.raises(TypeError, match="ExperimentRunner"):
            run_experiment(spec, runner=object())


class TestDeprecationShims:
    def test_save_load_pipeline_warn_but_work(self, fitted, tmp_path):
        from repro.training import load_pipeline, save_pipeline

        with pytest.warns(DeprecationWarning, match="save"):
            path = save_pipeline(fitted.pipeline, tmp_path / "ckpt")
        with pytest.warns(DeprecationWarning, match="load"):
            restored = load_pipeline(path)
        x = fitted.dataset.x_test[:4]
        np.testing.assert_array_equal(
            restored.predict_logits(x), fitted.predict_logits(x)
        )
