"""Top-level facade: the 90% use case in a handful of calls.

* :func:`fit_pipeline` — load data, load a pretrained model, build an
  adapter and fit the :class:`~repro.training.AdapterPipeline`; returns
  a :class:`FittedPipeline` handle exposing ``.predict`` / ``.save`` /
  ``.deploy`` directly (and still unpacking as ``(pipeline, dataset)``);
* :func:`deploy` / :func:`client` — publish a fitted pipeline under a
  name and serve micro-batched predictions against it (re-exported
  from :mod:`repro.serve`);
* :func:`run_experiment` — run one :class:`~repro.exec.JobSpec` (or a
  grid of them) through an :class:`~repro.experiments.ExperimentRunner`
  with caching, parallelism and fault handling included;
* :func:`run_sweep` — grid-driven ablation sweeps (re-exported from
  :mod:`repro.experiments.sweeps`).

All are re-exported from the package root::

    from repro import fit_pipeline, deploy, client

    fitted = fit_pipeline("Heartbeat", adapter="pca")
    print(fitted.score(fitted.dataset.x_test, fitted.dataset.y_test))
    fitted.deploy("heartbeat")
    label = client("heartbeat").predict(fitted.dataset.x_test[0])
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping, NamedTuple

import numpy as np

from .adapters import make_adapter
from .data import load_dataset
from .data.uea import MultivariateDataset
from .exec import JobSpec
from .experiments.sweeps import run_sweep
from .models import load_pretrained
from .serve import ServeConfig, client, deploy, undeploy
from .training import AdapterPipeline, FineTuneStrategy, TrainConfig

if TYPE_CHECKING:
    from .experiments import ExperimentConfig, ExperimentRunner
    from .serve import PipelineRecord
    from .training import FitReport

__all__ = [
    "JobSpec",
    "run_experiment",
    "run_sweep",
    "fit_pipeline",
    "FittedPipeline",
    "deploy",
    "client",
    "undeploy",
    "ServeConfig",
]


def run_experiment(
    spec: JobSpec | Iterable[JobSpec],
    *,
    preset: str = "fast",
    config: "ExperimentConfig | None" = None,
    cache_dir: str | None = None,
    workers: int = 1,
    job_timeout: float | None = None,
    runner: "ExperimentRunner | None" = None,
    **unknown: Any,
):
    """Run one spec (or a grid) and return the ExperimentResult(s).

    Parameters
    ----------
    spec:
        A single :class:`JobSpec` (returns one result) or an iterable
        of specs (returns a list in input order, executed through the
        parallel executor with deduplication).
    preset / config:
        Experiment preset name, or an explicit
        :class:`~repro.experiments.ExperimentConfig` overriding it.
    cache_dir:
        Persistent artifact cache directory (default:
        ``$REPRO_CACHE_DIR``; unset means memory-only caching).
    workers / job_timeout:
        Executor settings — worker process count and the per-job
        wall-clock budget (jobs over it surface as ``TO`` cells).
    runner:
        Reuse an existing :class:`~repro.experiments.ExperimentRunner`
        (overrides every other construction parameter).
    """
    from .experiments import ExperimentConfig, ExperimentRunner, get_preset

    if unknown:
        valid = "preset, config, cache_dir, workers, job_timeout, runner"
        raise TypeError(
            f"run_experiment() got unexpected keyword argument(s) "
            f"{sorted(unknown)}; valid keywords are: {valid}"
        )
    if config is not None and not isinstance(config, ExperimentConfig):
        raise TypeError(
            f"config must be an ExperimentConfig (e.g. get_preset({preset!r})), "
            f"got {type(config).__name__}"
        )
    if runner is not None and not isinstance(runner, ExperimentRunner):
        raise TypeError(
            f"runner must be an ExperimentRunner, got {type(runner).__name__}"
        )
    if runner is None:
        runner = ExperimentRunner(
            config if config is not None else get_preset(preset),
            cache_dir=cache_dir,
            workers=workers,
            job_timeout=job_timeout,
        )
    if isinstance(spec, JobSpec):
        return runner.run_specs([spec])[0]
    return runner.run_specs(list(spec))


class FittedPipeline(NamedTuple):
    """Handle returned by :func:`fit_pipeline`.

    A named tuple, so the historical ``pipeline, ds = fit_pipeline(...)``
    unpacking keeps working — while the handle itself exposes the
    predict / persist / deploy surface directly.
    """

    pipeline: AdapterPipeline
    dataset: MultivariateDataset

    @property
    def report(self) -> "FitReport | None":
        """The :class:`FitReport` of the fit that produced this handle."""
        return getattr(self.pipeline, "last_fit_report_", None)

    def predict(
        self, x: np.ndarray, batch_size: int = 64, compiled: bool = True
    ) -> np.ndarray:
        """Predicted class labels for ``(N, T, D)`` input."""
        return self.pipeline.predict(x, batch_size=batch_size, compiled=compiled)

    def predict_proba(
        self, x: np.ndarray, batch_size: int = 64, compiled: bool = True
    ) -> np.ndarray:
        """Class probabilities (softmax over :meth:`predict_logits`)."""
        return self.pipeline.predict_proba(x, batch_size=batch_size, compiled=compiled)

    def predict_logits(
        self, x: np.ndarray, batch_size: int = 64, compiled: bool = True
    ) -> np.ndarray:
        """Raw classification logits for ``(N, T, D)`` input."""
        return self.pipeline.predict_logits(x, batch_size=batch_size, compiled=compiled)

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        """Accuracy of :meth:`predict` against labels ``y``."""
        return self.pipeline.score(x, y)

    def save(self, store, name: str) -> "PipelineRecord":
        """Publish into a registry: ``fitted.save(store_or_dir, name)``."""
        return self.pipeline.save(store, name)

    def stream(
        self,
        window: int,
        stride: int,
        *,
        batch_size: int = 16,
        compiled: bool = True,
        **kwargs: Any,
    ):
        """An incremental :class:`~repro.stream.StreamingClassifier`.

        ``push(samples)`` classifies every window that completes, with
        logits bit-identical to ``predict_logits(windows)`` offline at
        any ``batch_size``::

            stream = fitted.stream(window=64, stride=16)
            for chunk in live_feed:
                prediction = stream.push(chunk)
        """
        from .stream import StreamingClassifier

        return StreamingClassifier(
            self.pipeline,
            window,
            stride,
            batch_size=batch_size,
            compiled=compiled,
            **kwargs,
        )

    def encode_long(
        self,
        x: np.ndarray,
        window: int,
        stride: int,
        *,
        agg: str = "mean",
        batch_windows: int = 16,
        compiled: bool = True,
        return_windows: bool = False,
    ):
        """Bounded-memory chunked encoding of one very long series.

        Cuts the ``(T, D)`` series into sliding windows, routes them
        through this pipeline's adapter + frozen encoder in
        ``batch_windows``-sized chunks and returns an aggregated
        :class:`~repro.stream.LongSeriesEncoding` (see
        :func:`repro.stream.encode_long`).
        """
        from .stream import encode_long as _encode_long

        pipeline = self.pipeline
        return _encode_long(
            pipeline.model,
            x,
            window,
            stride,
            agg=agg,
            batch_windows=batch_windows,
            compiled=compiled,
            transform=pipeline._reduce_tile,
            return_windows=return_windows,
        )

    def deploy(
        self, name: str, *, store=None, config: ServeConfig | None = None
    ) -> "PipelineRecord":
        """Publish and start serving under ``name`` (see :func:`deploy`)."""
        return deploy(self.pipeline, name, store=store, config=config)


def fit_pipeline(
    dataset: str | MultivariateDataset,
    model: str = "moment-tiny",
    adapter: str = "pca",
    channels: int = 5,
    *,
    strategy: FineTuneStrategy | str = FineTuneStrategy.ADAPTER_HEAD,
    seed: int = 0,
    train_config: TrainConfig | None = None,
    adapter_kwargs: Mapping[str, Any] | None = None,
    scale: float = 0.1,
    max_length: int | None = 96,
) -> FittedPipeline:
    """Load, build and fit an adapter pipeline in one call.

    Returns a :class:`FittedPipeline` — usable directly
    (``fitted.predict(x)``, ``fitted.deploy("name")``) or unpacked as
    the historical ``(pipeline, dataset)`` pair::

        fitted = fit_pipeline("Heartbeat", adapter="pca")
        print(fitted.score(fitted.dataset.x_test, fitted.dataset.y_test))

    Parameters
    ----------
    dataset:
        Dataset name (loaded as a surrogate at ``scale`` /
        ``max_length``) or an already-loaded
        :class:`MultivariateDataset`.
    model:
        Runnable model name (``moment-tiny`` or ``vit-tiny``).
    adapter / channels / adapter_kwargs:
        Adapter registry name (``"none"`` trains the head on raw
        channels), its reduced channel count D', and extra options.
    strategy / seed / train_config:
        Fine-tuning strategy, random seed and training
        hyperparameters (library defaults when ``None``).
    """
    if isinstance(dataset, MultivariateDataset):
        ds = dataset
    else:
        ds = load_dataset(dataset, seed=seed, scale=scale, max_length=max_length)
    runnable = load_pretrained(model, seed=seed)
    if adapter == "none":
        built = make_adapter("none")
    else:
        built = make_adapter(adapter, channels, seed=seed, **dict(adapter_kwargs or {}))
    pipeline = AdapterPipeline(runnable, built, ds.num_classes, seed=seed)
    if not isinstance(strategy, FineTuneStrategy):
        strategy = FineTuneStrategy(strategy)
    pipeline.fit(ds.x_train, ds.y_train, strategy=strategy, config=train_config)
    return FittedPipeline(pipeline=pipeline, dataset=ds)
