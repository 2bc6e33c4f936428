"""repro.serve — the audit-as-a-service daemon.

One persistent process that runs audits on demand instead of one process
per study:

- :class:`~repro.serve.daemon.AuditDaemon` composes the pieces and owns
  the lifecycle (recover -> serve -> drain);
- :class:`~repro.serve.jobs.JobQueue` accepts typed jobs with priorities
  and dedups active work;
- :class:`~repro.serve.scheduler.JobScheduler` multiplexes every job
  over one shared worker pool, with per-job checkpoints, cancellation,
  and drain-requeue;
- :class:`~repro.serve.store.ResultStore` makes every job and result a
  file on disk — the daemon can die at any instant and pick up where it
  left off;
- :mod:`~repro.serve.protocol` is the versioned wire schema, and
  :class:`~repro.serve.client.ServeClient` the stdlib HTTP client.

Lazy exports keep ``import repro.serve`` cheap; submodules load on
attribute access.
"""

from __future__ import annotations

_EXPORTS = {
    "AuditDaemon": ("repro.serve.daemon", "AuditDaemon"),
    "JobQueue": ("repro.serve.jobs", "JobQueue"),
    "UnknownJobError": ("repro.serve.jobs", "UnknownJobError"),
    "JobScheduler": ("repro.serve.scheduler", "JobScheduler"),
    "ResultStore": ("repro.serve.store", "ResultStore"),
    "ServeClient": ("repro.serve.client", "ServeClient"),
    "ServeError": ("repro.serve.client", "ServeError"),
    "build_server": ("repro.serve.httpapi", "build_server"),
    "PROTOCOL_VERSION": ("repro.serve.protocol", "PROTOCOL_VERSION"),
    "ProtocolError": ("repro.serve.protocol", "ProtocolError"),
    "JobKind": ("repro.serve.protocol", "JobKind"),
    "JobState": ("repro.serve.protocol", "JobState"),
    "JobRequest": ("repro.serve.protocol", "JobRequest"),
    "JobRecord": ("repro.serve.protocol", "JobRecord"),
    "SubmitReply": ("repro.serve.protocol", "SubmitReply"),
    "JobStatusReply": ("repro.serve.protocol", "JobStatusReply"),
    "TraceQueryReply": ("repro.serve.protocol", "TraceQueryReply"),
    "EventsReply": ("repro.serve.protocol", "EventsReply"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
