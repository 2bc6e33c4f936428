"""Progress and telemetry events for study execution.

The executor publishes typed events onto an :class:`EventBus` as units move
through their lifecycle — started (dispatched to the pool), finished,
retried, failed, skipped (checkpoint hits) — with per-unit wall time and
the remaining queue depth.  Subscribers are plain callables; two are
provided here:

- :class:`TextProgressRenderer` — one line per event to a stream, the CLI's
  ``--progress`` view;
- :class:`EventLog` — the run's event stream in its wire form, appended
  to a JSON Lines file as each event is published: ``repro study
  --ledger`` and every served job's ``events.jsonl`` write through one,
  and :func:`read_events` reads either back.

The one fold that turns the stream into numbers (counts, rate, ETA,
resource peaks, the merged metrics registry) is
:class:`repro.runtime.dashboard.DashboardState`.

Handler exceptions are swallowed (a broken renderer must not kill a
two-hour study); the bus keeps the first error for inspection.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, TextIO

from repro.codec import from_jsonable, to_jsonable


# ----------------------------------------------------------------------
# Event types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StudyStarted:
    total_units: int
    providers: int
    vantage_points: int
    workers: int
    resumed_units: int = 0


@dataclass(frozen=True)
class UnitStarted:
    """Unit dispatched: submitted to the pool as a window slot freed."""

    unit_id: str
    provider: str
    kind: str
    index: int          # 1-based position in the plan
    total: int
    shard: int = 0      # which shard's world serves this unit


@dataclass(frozen=True)
class UnitFinished:
    unit_id: str
    wall_ms: float
    vantage_points: int
    queue_depth: int    # units still outstanding after this one
    connect_retries: int = 0


@dataclass(frozen=True)
class UnitRetried:
    unit_id: str
    attempt: int        # the attempt that just failed (1-based)
    backoff_s: float
    error: str


@dataclass(frozen=True)
class UnitFailed:
    unit_id: str
    attempts: int
    error: str


@dataclass(frozen=True)
class UnitSkipped:
    """Unit satisfied from a checkpoint instead of being executed."""

    unit_id: str
    wall_ms: float      # the original run's cost, from the journal


@dataclass(frozen=True)
class StudyFinished:
    wall_s: float
    completed: int
    skipped: int
    failed: int
    retried: int


@dataclass(frozen=True)
class StudyHalted:
    """The run stopped on request (SIGTERM, cancellation, daemon drain).

    Published after every in-flight unit has been committed and the
    checkpoint flushed; ``remaining`` units stay pending for a resume.
    """

    completed: int
    remaining: int


@dataclass(frozen=True)
class UnitMetrics:
    """One unit's drained metrics delta, published at its commit point.

    Commit is the checkpoint boundary, so metrics aggregation and durable
    progress advance together — a resumed study re-merges exactly the
    deltas of the units it re-runs, nothing more.  ``snapshot`` has the
    :meth:`repro.obs.metrics.MetricsRegistry.drain` shape.
    """

    unit_id: str
    snapshot: dict


@dataclass(frozen=True)
class StudyMetrics:
    """The merged study-wide metrics snapshot, published at study end."""

    snapshot: dict


@dataclass(frozen=True)
class ResourceSample:
    """A coordinator-side resource reading from the background sampler.

    Published every tick by :class:`repro.obs.sample.ResourceSampler`
    while a ledgered/dashboarded study runs.  All fields are read from
    the OS and the executor's own live bookkeeping — never from world
    state — so the sample stream cannot perturb results.
    """

    elapsed_s: float
    rss_kb: int
    queue_depth: int = 0        # pending units not yet dispatched
    in_flight: int = 0          # dispatched units not yet committed
    shards_resident: int = 0    # shard worlds live in this process
    suite_hits: int = 0         # world-suite LRU hits (cumulative)
    suite_misses: int = 0       # world-suite LRU misses (cumulative)
    worker: str = "coordinator"


@dataclass(frozen=True)
class WorkerSample:
    """A worker's resource reading, carried home with a finished unit.

    Pool workers cannot publish onto the coordinator's bus directly
    (process workers live in another address space), so each completed
    unit piggybacks one sample; the executor publishes it at the unit's
    commit point.
    """

    unit_id: str
    worker: str
    rss_kb: int
    shards_resident: int = 0
    suite_hits: int = 0
    suite_misses: int = 0


Event = object
Handler = Callable[[Event], None]


# ----------------------------------------------------------------------
# Wire serialization
# ----------------------------------------------------------------------
_EVENT_TYPES = {
    cls.__name__: cls
    for cls in (
        StudyStarted,
        UnitStarted,
        UnitFinished,
        UnitRetried,
        UnitFailed,
        UnitSkipped,
        StudyFinished,
        StudyHalted,
        UnitMetrics,
        StudyMetrics,
        ResourceSample,
        WorkerSample,
    )
}


def event_to_dict(event: Event) -> Optional[dict]:
    """Serialize a bus event to a JSON-safe dict, or None if untyped.

    The ``event`` key carries the dataclass name; everything else is the
    dataclass's own fields.  Unknown (ad-hoc) events serialize to None so
    stream consumers can skip them without guessing at their shape.
    """
    name = type(event).__name__
    if name not in _EVENT_TYPES:
        return None
    return {**to_jsonable(event), "event": name}


def event_from_dict(data: dict) -> Optional[Event]:
    """Rebuild a typed event from :func:`event_to_dict` output.

    Returns None for unknown event names, so newer daemons can stream
    event types an older client does not know about (the codec likewise
    ignores fields it does not know, such as the stream's ``seq``).
    """
    cls = _EVENT_TYPES.get(data.get("event"))
    if cls is None:
        return None
    return from_jsonable(cls, data)


class EventBus:
    """Synchronous fan-out of events to subscribers (thread-safe).

    The bus keeps a bounded history of published events, and
    :meth:`subscribe` replays it to the new handler by default — so a
    subscriber attached *after* a study has started (a UI connecting to a
    long run, a metrics aggregator created mid-flight) still observes the
    events it missed, in order, rather than joining blind.  Handlers that
    only care about the live stream subscribe with ``replay=False``.
    """

    HISTORY_LIMIT = 4096

    def __init__(self) -> None:
        self._handlers: list[Handler] = []
        self._lock = threading.RLock()
        self._history: deque[Event] = deque(maxlen=self.HISTORY_LIMIT)
        self.first_handler_error: Optional[BaseException] = None

    def subscribe(self, handler: Handler, replay: bool = True) -> Handler:
        # Replay and registration are atomic with respect to publish: a
        # concurrent publisher blocks until the replay finishes, so the
        # handler sees history followed by live events with no gap,
        # duplicate, or reordering.  The lock is reentrant so a handler
        # may subscribe/publish from within its own replay.
        with self._lock:
            if replay:
                for event in list(self._history):
                    self._dispatch(handler, event)
            self._handlers.append(handler)
        return handler

    def unsubscribe(self, handler: Handler) -> None:
        with self._lock:
            if handler in self._handlers:
                self._handlers.remove(handler)

    def publish(self, event: Event) -> None:
        with self._lock:
            handlers = list(self._handlers)
            self._history.append(event)
        for handler in handlers:
            self._dispatch(handler, event)

    def _dispatch(self, handler: Handler, event: Event) -> None:
        try:
            handler(event)
        except BaseException as exc:  # noqa: BLE001 - isolation by design
            if self.first_handler_error is None:
                self.first_handler_error = exc


# ----------------------------------------------------------------------
# The event log
# ----------------------------------------------------------------------
class EventLog:
    """The run's event stream, appended to a JSON Lines file as published.

    A record is the wire form: :func:`event_to_dict` plus a ``seq``
    cursor counting from 0, written as one ``json.dumps(...,
    sort_keys=True)`` line and flushed before the next event is taken.
    Memory holds only each record's byte offset.  Clients long-poll with
    a cursor — ``read(since, wait_s)`` blocks until records past
    ``since`` exist or the log closes — and every read comes from the
    file, so a live reader and a replay of the finished file see the
    same bytes.  Untyped (ad-hoc) events are not recorded.
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("wb")
        self._offsets = array("q")
        self._size = 0
        self._closed = False
        self._lock = threading.Condition()

    # -- bus side ------------------------------------------------------
    def __call__(self, event: Event) -> None:
        record = event_to_dict(event)
        if record is None:
            return
        with self._lock:
            if self._closed:
                return
            record["seq"] = len(self._offsets)
            line = (json.dumps(record, sort_keys=True) + "\n").encode()
            self._handle.write(line)
            self._handle.flush()
            self._offsets.append(self._size)
            self._size += len(line)
            self._lock.notify_all()

    def close(self) -> None:
        """Complete the file: no more records; wake every blocked reader."""
        with self._lock:
            if not self._closed:
                self._closed = True
                self._handle.close()
            self._lock.notify_all()

    @property
    def size(self) -> int:
        """Bytes written to the file so far."""
        return self._size

    # -- reader side ---------------------------------------------------
    def read(
        self, since: int = 0, wait_s: float = 0.0
    ) -> tuple[list[dict], bool]:
        """Records with ``seq >= since`` and whether the log is closed.

        Blocks up to *wait_s* seconds while no such record exists and the
        log is still open (the long-poll).  An empty result with
        ``closed=True`` tells the client the stream is over.
        """
        deadline = time.monotonic() + wait_s
        with self._lock:
            while len(self._offsets) <= since and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._lock.wait(timeout=remaining):
                    break
            if since >= len(self._offsets):
                return [], self._closed
            start, end, closed = self._offsets[since], self._size, self._closed
        # Every byte before `end` was flushed under the lock; records
        # appended since land past it.
        with self.path.open("rb") as handle:
            handle.seek(start)
            data = handle.read(end - start)
        return _parse_records(data.splitlines()), closed


def read_events(path: str | pathlib.Path) -> list[dict]:
    """Every record of an :class:`EventLog` file, in order.

    Stops at a torn last line, which a run killed mid-write leaves, and
    skips a line that is not a JSON object.
    """
    with open(path, "rb") as handle:
        return _parse_records(handle)


def _parse_records(lines) -> list[dict]:
    records = []
    for line in lines:
        try:
            record = json.loads(line)
        except ValueError:
            break
        if isinstance(record, dict):
            records.append(record)
    return records


# ----------------------------------------------------------------------
# Subscribers
# ----------------------------------------------------------------------
@dataclass
class ExecutionStats:
    """Aggregate counters for one executor run."""

    total_units: int = 0
    completed_units: int = 0
    skipped_units: int = 0
    failed_units: int = 0
    retried_units: int = 0
    connect_retries: int = 0
    wall_s: float = 0.0
    halted: bool = False
    unit_wall_ms: dict[str, float] = field(default_factory=dict)

    @property
    def total_unit_wall_ms(self) -> float:
        return sum(self.unit_wall_ms.values())

    def summary(self) -> str:
        return (
            f"{self.completed_units} units executed, "
            f"{self.skipped_units} from checkpoint, "
            f"{self.failed_units} failed, "
            f"{self.retried_units} retried, "
            f"{self.connect_retries} endpoint reconnects, "
            f"{self.wall_s:.1f}s wall"
        )


class TextProgressRenderer:
    """Render events as plain text lines (the CLI ``--progress`` view)."""

    def __init__(self, stream: TextIO, verbose: bool = True) -> None:
        self.stream = stream
        self.verbose = verbose
        self._done = 0
        self._total = 0

    def _emit(self, line: str) -> None:
        self.stream.write(line + "\n")

    def __call__(self, event: Event) -> None:
        if isinstance(event, StudyStarted):
            self._total = event.total_units
            # Checkpointed units arrive as UnitSkipped events, which is
            # where they are counted — do not pre-seed the counter here.
            self._done = 0
            self._emit(
                f"study: {event.total_units} units over "
                f"{event.providers} providers "
                f"({event.vantage_points} vantage points), "
                f"{event.workers} worker(s)"
                + (
                    f", {event.resumed_units} already checkpointed"
                    if event.resumed_units
                    else ""
                )
            )
        elif isinstance(event, UnitFinished):
            self._done += 1
            if self.verbose:
                self._emit(
                    f"[{self._done:4d}/{self._total}] done "
                    f"{event.unit_id}  {event.wall_ms / 1000:.2f}s  "
                    f"(queue {event.queue_depth})"
                )
        elif isinstance(event, UnitSkipped):
            self._done += 1
            if self.verbose:
                self._emit(
                    f"[{self._done:4d}/{self._total}] skip "
                    f"{event.unit_id}  (checkpointed)"
                )
        elif isinstance(event, UnitRetried):
            self._emit(
                f"retry {event.unit_id} after attempt {event.attempt} "
                f"(+{event.backoff_s:.2f}s): {event.error}"
            )
        elif isinstance(event, UnitFailed):
            self._emit(
                f"FAILED {event.unit_id} after {event.attempts} "
                f"attempt(s): {event.error}"
            )
        elif isinstance(event, StudyHalted):
            self._emit(
                f"study halted on request: {event.completed} unit(s) "
                f"committed, {event.remaining} left for resume"
            )
        elif isinstance(event, StudyFinished):
            self._emit(
                f"study finished in {event.wall_s:.1f}s: "
                f"{event.completed} executed, {event.skipped} skipped, "
                f"{event.failed} failed, {event.retried} retried"
            )
