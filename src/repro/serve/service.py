"""Module-level deployment facade: ``deploy`` / ``client`` / ``undeploy``.

The 90% serving path in three lines::

    from repro import deploy, client

    deploy(pipeline, "heartbeat")
    label = client("heartbeat").predict(series)      # one (T, D) series

``deploy`` publishes the fitted pipeline into a registry (an
in-process one by default) and starts a :class:`PipelineServer` under
the name; ``client`` hands out a thin :class:`ServeClient` over the
running server.  Pass ``store=`` (an
:class:`~repro.runtime.ArtifactStore` or a cache directory) to make
the deployment persistent and shareable with worker processes and the
``repro serve`` / ``repro predict`` CLI.
"""

from __future__ import annotations

import threading

import numpy as np

from ..runtime import ArtifactStore
from .batching import ServeConfig
from .errors import PipelineNotFoundError
from .registry import PipelineRecord, PipelineRegistry
from .server import PipelineServer

__all__ = ["ServeClient", "deploy", "client", "undeploy"]

# One process-wide default registry backs store-less deployments, so a
# deploy in one module is visible to a client() in another.
_DEFAULT_STORE = ArtifactStore(max_memory_entries=64)
_DEPLOYMENTS: dict[str, PipelineServer] = {}
_LOCK = threading.Lock()


class ServeClient:
    """Caller-facing handle over one running deployment.

    Mirrors the offline :class:`~repro.training.AdapterPipeline`
    surface (``predict`` / ``predict_proba`` / ``predict_logits`` with
    ``batch_size`` / ``compiled`` kwargs).  Execution is tiled, so any
    ``batch_size`` yields the same bits and is accepted as is; the
    server pins ``compiled``, so a conflicting value is an error rather
    than a silent override.
    """

    def __init__(self, server: PipelineServer) -> None:
        self._server = server

    @property
    def server(self) -> PipelineServer:
        return self._server

    def _check_kwargs(self, batch_size: int | None, compiled: bool | None) -> None:
        config = self._server.config
        if batch_size is not None and batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if compiled is not None and compiled != config.compiled:
            raise ValueError(
                f"this deployment is pinned to compiled={config.compiled}; "
                "results are bit-identical either way, so there is nothing to switch"
            )

    def predict_logits(
        self,
        x: np.ndarray,
        batch_size: int | None = None,
        compiled: bool | None = None,
        deadline_s: float | None = None,
    ) -> np.ndarray:
        """Raw logits via the server (``compiled`` must match its pinned policy)."""
        self._check_kwargs(batch_size, compiled)
        return self._server.predict_logits(x, deadline_s=deadline_s)

    def predict(
        self,
        x: np.ndarray,
        batch_size: int | None = None,
        compiled: bool | None = None,
        deadline_s: float | None = None,
    ) -> np.ndarray:
        """Predicted label(s) via the server (``compiled`` must match its policy)."""
        self._check_kwargs(batch_size, compiled)
        return self._server.predict(x, deadline_s=deadline_s)

    def predict_proba(
        self,
        x: np.ndarray,
        batch_size: int | None = None,
        compiled: bool | None = None,
        deadline_s: float | None = None,
    ) -> np.ndarray:
        """Class probabilities via the server (``compiled`` must match its policy)."""
        self._check_kwargs(batch_size, compiled)
        return self._server.predict_proba(x, deadline_s=deadline_s)

    def stream(self, window: int, stride: int, deadline_s: float | None = None):
        """Open an incremental :class:`~repro.serve.sessions.StreamSession`.

        ::

            with client("heartbeat").stream(window=64, stride=16) as session:
                for chunk in live_feed:
                    session.push(chunk)
                predictions = session.results()
        """
        return self._server.open_stream(window, stride, deadline_s=deadline_s)

    def stats(self) -> dict:
        """The deployment's ``/stats`` snapshot."""
        return self._server.stats()

    def __repr__(self) -> str:
        return f"ServeClient({self._server.record.ref})"


def deploy(
    pipeline,
    name: str,
    *,
    store: ArtifactStore | str | None = None,
    config: ServeConfig | None = None,
) -> PipelineRecord:
    """Publish ``pipeline`` under ``name`` and start serving it.

    Re-deploying a name publishes the next version and swaps the
    running server to it (the old server drains and closes).  Returns
    the published :class:`PipelineRecord`.
    """
    registry = PipelineRegistry(store if store is not None else _DEFAULT_STORE)
    record = registry.publish(pipeline, name)
    server = PipelineServer(registry, name, version=record.version, config=config)
    with _LOCK:
        previous = _DEPLOYMENTS.pop(name, None)
        _DEPLOYMENTS[name] = server
    if previous is not None:
        previous.close(drain=True)
    return record


def client(name: str) -> ServeClient:
    """A :class:`ServeClient` over the running deployment ``name``."""
    with _LOCK:
        server = _DEPLOYMENTS.get(name)
    if server is None:
        raise PipelineNotFoundError(
            f"no running deployment named {name!r}; call deploy(pipeline, {name!r}) first"
        )
    return ServeClient(server)


def undeploy(name: str, drain: bool = True) -> bool:
    """Stop and remove deployment ``name``; True if one was running."""
    with _LOCK:
        server = _DEPLOYMENTS.pop(name, None)
    if server is None:
        return False
    server.close(drain=drain)
    return True
