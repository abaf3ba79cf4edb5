"""Online inference: pipeline registry + micro-batched serving.

The paper's fit-once adapters make frozen-encoder inference cheap; this
subsystem makes it *servable*.  Four parts:

* :mod:`repro.serve.registry` — named, versioned fitted-pipeline
  snapshots in the content-addressed :class:`repro.runtime`
  artifact store, with integrity-checked load and an LRU of hot
  deployments;
* :mod:`repro.serve.batching` — the bounded request queue and dynamic
  micro-batcher (max-batch / max-delay coalescing, load shedding,
  per-request deadlines);
* :mod:`repro.serve.workers` — the multi-process serving pool, built
  on the :mod:`repro.exec` spawn-worker protocol (graceful drain,
  crashed-worker respawn);
* :mod:`repro.serve.server` / :mod:`repro.serve.service` — the
  :class:`PipelineServer` front end and the module-level
  ``deploy(pipeline, name)`` / ``client(name)`` facade re-exported
  from the package root;
* :mod:`repro.serve.sessions` — per-session incremental streaming
  (``server.open_stream`` / ``client(name).stream``): each session's
  completed windows enter the same micro-batch queue as every other
  request, so concurrent streams share batches and inherit the pool's
  crashed-worker resubmission.

Responses are bit-identical to offline
:meth:`~repro.training.AdapterPipeline.predict_logits` at any
``batch_size`` because both paths run the same fixed-tile execution
(:mod:`repro.training.tiles`) — see ``docs/serve.md``.
"""

from .batching import MicroBatcher, ServeConfig, ServeFuture
from .errors import (
    DeadlineExceededError,
    InvalidRequestError,
    PipelineNotFoundError,
    QueueFullError,
    RegistryIntegrityError,
    ServeError,
    ServerClosedError,
)
from .registry import PipelineRecord, PipelineRegistry
from .server import PipelineServer
from .service import ServeClient, client, deploy, undeploy
from .sessions import StreamSession
from .workers import ServePool

__all__ = [
    "ServeError",
    "PipelineNotFoundError",
    "RegistryIntegrityError",
    "QueueFullError",
    "DeadlineExceededError",
    "ServerClosedError",
    "InvalidRequestError",
    "PipelineRecord",
    "PipelineRegistry",
    "ServeConfig",
    "ServeFuture",
    "MicroBatcher",
    "ServePool",
    "PipelineServer",
    "ServeClient",
    "StreamSession",
    "deploy",
    "client",
    "undeploy",
]
