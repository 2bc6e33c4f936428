"""Wire protocol of the audit service.

Every payload that crosses the daemon's HTTP boundary — job submissions,
status views, error replies — is a frozen dataclass here with a versioned
``to_dict`` / ``from_dict`` round-trip: :mod:`repro.codec` plus the
``version`` stamp.  Schema first: the daemon, the Python client, the CLI
and the tests all build and parse exactly these shapes, so a field added
here is a field everywhere.  An unknown protocol version, or a value of
the wrong type, fails loudly at the edge as a :class:`ProtocolError`
naming the field, instead of corrupting a job.

Jobs are typed by :class:`JobKind`:

- ``study`` — a full (or provider-subset) audit, the one-shot
  ``repro study`` as a service;
- ``recheck`` — a single-provider re-audit with tracing forced on, so the
  result carries evidence chains for every verdict;
- ``snapshots`` — a longitudinal series, run as one study of its
  :func:`repro.runtime.scheduler.snapshot_specs` on the executor.

The measurement itself is pinned by the embedded
:class:`repro.config.StudyConfig`; the request adds only service-level
concerns (priority, a human label).  Two active requests with the same
:meth:`JobRequest.fingerprint` are the same work — the queue deduplicates
them onto one job.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Optional

from repro.codec import CodecError, from_jsonable, to_jsonable
from repro.config import StudyConfig
from repro.runtime.retry import stable_hash

#: Bumped whenever a payload shape changes.  ``from_dict`` accepts
#: payloads without a version (assumed current) and any version in
#: ``SUPPORTED_VERSIONS`` — v2 added the optional ``source``/``shards``
#: config fields, which a v1 payload simply omits, so v1 submissions
#: still parse — but rejects anything newer or unknown, so a client from
#: the future fails at parse time, not at interpretation time.
PROTOCOL_VERSION = 2

#: Versions this daemon parses.  v1 payloads are a strict subset of v2.
SUPPORTED_VERSIONS = frozenset({1, 2})


class ProtocolError(ValueError):
    """A payload that does not parse as this protocol version."""


class _Payload:
    """The one wire difference of every payload: the ``version`` stamp.

    ``to_dict`` is the codec's form with ``version`` added; ``from_dict``
    checks the version, then decodes with the codec, turning any type
    mismatch into a :class:`ProtocolError` that names the payload and the
    field (``bad job request: priority: expected int, got str``).  Nested
    payloads (a record's request, a status reply's record) go through
    the same pair, so they carry and check their own stamp.
    """

    def to_dict(self) -> dict:
        return {"version": PROTOCOL_VERSION, **to_jsonable(self)}

    @classmethod
    def from_dict(cls, data: dict):
        name = re.sub(r"(?<!^)(?=[A-Z])", " ", cls.__name__).lower()
        if not isinstance(data, dict):
            raise ProtocolError(
                f"{name} must be a JSON object, got {type(data).__name__}"
            )
        version = data.get("version", PROTOCOL_VERSION)
        if type(version) is not int or version not in SUPPORTED_VERSIONS:
            raise ProtocolError(
                f"{name} has protocol version {version!r}, "
                f"this daemon speaks {PROTOCOL_VERSION}"
            )
        try:
            return from_jsonable(cls, data)
        except CodecError as exc:
            raise ProtocolError(f"bad {name}: {exc}") from exc


class JobKind(enum.Enum):
    STUDY = "study"
    RECHECK = "recheck"
    SNAPSHOTS = "snapshots"


class JobState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job never leaves (and whose checkpoints are prunable).
TERMINAL_STATES = frozenset(
    {JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED}
)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobRequest(_Payload):
    """What a client asks the daemon to run."""

    kind: JobKind
    config: StudyConfig
    priority: int = 0
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.config, StudyConfig):
            raise TypeError("config must be a StudyConfig")
        if self.config.stream:
            # Streamed runs return a StreamedStudy (archive on the shared
            # filesystem), which the daemon's result store cannot serve
            # over HTTP yet; keep the failure at the protocol edge.
            raise ProtocolError(
                "streamed studies (config.stream) are not servable jobs; "
                "run them via the CLI or api"
            )
        if self.kind is JobKind.RECHECK:
            provider_list = self.config.provider_list
            if provider_list is None or len(provider_list) != 1:
                raise ProtocolError(
                    "a recheck job must name exactly one provider"
                )
        if self.kind is JobKind.SNAPSHOTS and self.config.snapshots < 2:
            raise ProtocolError(
                "a snapshots job needs config.snapshots >= 2"
            )

    def fingerprint(self) -> str:
        """Identity of the *work*: two active requests with equal
        fingerprints would measure the same thing, so the queue runs one.

        Priority and label are presentation, not work — excluded on
        purpose.
        """
        config = to_jsonable(self.config)
        return f"{stable_hash(self.kind.value, repr(sorted(config.items()))):016x}"


# ----------------------------------------------------------------------
# Job records (persisted by the store, served by GET /jobs/{id})
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobRecord(_Payload):
    """One job's durable identity and state.

    Frozen: state transitions produce a new record via :meth:`advance`,
    which keeps every mutation an explicit, persistable step (the store
    writes the record back to ``job.json`` on each one).
    """

    job_id: str
    request: JobRequest
    state: JobState = JobState.QUEUED
    sequence: int = 0
    error: Optional[str] = None
    #: Final execution counters, filled at the terminal transition
    #: (live counters come from the scheduler while running).
    progress: dict = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def advance(
        self,
        state: JobState,
        error: Optional[str] = None,
        progress: Optional[dict] = None,
    ) -> "JobRecord":
        return JobRecord(
            job_id=self.job_id,
            request=self.request,
            state=state,
            sequence=self.sequence,
            error=error if error is not None else self.error,
            progress=progress if progress is not None else self.progress,
        )


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SubmitReply(_Payload):
    """Answer to ``POST /jobs``."""

    job_id: str
    state: JobState
    deduplicated: bool = False


@dataclass(frozen=True)
class JobStatusReply(_Payload):
    """Answer to ``GET /jobs/{id}``: the record plus live progress."""

    record: JobRecord = field(metadata={"key": "job"})
    progress: dict = field(default_factory=dict)
    results: tuple[str, ...] = ()  # fetchable result names, e.g. "report"


@dataclass(frozen=True)
class ErrorReply(_Payload):
    """Any non-2xx body."""

    error: str
    detail: str = ""


@dataclass(frozen=True)
class EventsReply(_Payload):
    """Answer to ``GET /jobs/{id}/events?since=N&wait=S``.

    ``events`` are wire-form bus events (``event`` key names the type,
    ``seq`` is the monotonic cursor); ``next`` is the cursor to pass as
    ``since`` on the following poll.  A terminal ``state`` means the log
    is complete — once the client has drained past it, the stream is
    over and no further polls are needed.
    """

    job_id: str
    state: JobState
    events: tuple[dict, ...] = ()
    next: int = 0

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


@dataclass(frozen=True)
class TraceQueryReply(_Payload):
    """Answer to ``GET /trace/query``."""

    job_id: str
    expression: str
    matches: tuple[dict, ...]
    total_records: int
