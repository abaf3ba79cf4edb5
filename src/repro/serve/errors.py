"""Typed serving errors.

Every failure mode a caller can act on gets its own class, so clients
distinguish "back off" (:class:`QueueFullError`), "you waited too
long" (:class:`DeadlineExceededError`), "redeploy"
(:class:`PipelineNotFoundError` / :class:`RegistryIntegrityError`),
"fix your input" (:class:`InvalidRequestError`) and "the server is
gone" (:class:`ServerClosedError`) without string matching.
"""

from __future__ import annotations

__all__ = [
    "ServeError",
    "PipelineNotFoundError",
    "RegistryIntegrityError",
    "QueueFullError",
    "DeadlineExceededError",
    "ServerClosedError",
    "InvalidRequestError",
]


class ServeError(RuntimeError):
    """Base class for every serving-layer error."""


class PipelineNotFoundError(ServeError):
    """No pipeline published under the requested name / version."""


class RegistryIntegrityError(ServeError):
    """A registry entry exists but its payload is missing or corrupt.

    Raised when the stored arrays fail the content-digest check (or the
    catalog references an entry the store can no longer produce) — the
    one corruption case that must *not* degrade to a silent cache miss,
    because serving stale or damaged weights is worse than refusing.
    """


class QueueFullError(ServeError):
    """Request rejected: the server queue is at capacity (shed load).

    The 429 of this stack — the request was never enqueued, so retrying
    after backoff is safe.
    """


class DeadlineExceededError(ServeError):
    """The request's deadline passed before a result was produced."""


class ServerClosedError(ServeError):
    """The server is draining or closed; no new work is accepted."""


class InvalidRequestError(ServeError, ValueError):
    """Request rejected at submit: wrong rank, wrong channel count, an
    empty series or non-finite values.  It was never enqueued, so it
    cannot affect any other request.
    """
