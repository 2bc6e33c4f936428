"""Progress and telemetry events for study execution.

The executor publishes typed events onto an :class:`EventBus` as units move
through their lifecycle — started (dispatched to the pool), finished,
retried, failed, skipped (checkpoint hits) — with per-unit wall time and
the remaining queue depth.  Subscribers are plain callables; two are
provided:

- :class:`TextProgressRenderer` — one line per event to a stream, the CLI's
  ``--progress`` view;
- :class:`StatsCollector` — aggregates counts and wall times into an
  :class:`ExecutionStats` the executor exposes after the run (and perfbench
  reads for its unit counts).

Handler exceptions are swallowed (a broken renderer must not kill a
two-hour study); the bus keeps the first error for inspection.
"""

from __future__ import annotations

import threading
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
    def executed_units(self) -> int:
        return self.completed_units

    @property
    def total_unit_wall_ms(self) -> float:
        return sum(self.unit_wall_ms.values())

    @property
    def max_unit_wall_ms(self) -> float:
        return max(self.unit_wall_ms.values(), default=0.0)

    def summary(self) -> str:
        return (
            f"{self.completed_units} units executed, "
            f"{self.skipped_units} from checkpoint, "
            f"{self.failed_units} failed, "
            f"{self.retried_units} retried, "
            f"{self.connect_retries} endpoint reconnects, "
            f"{self.wall_s:.1f}s wall"
        )


class StatsCollector:
    """EventBus subscriber that fills an :class:`ExecutionStats`."""

    def __init__(self) -> None:
        self.stats = ExecutionStats()

    def __call__(self, event: Event) -> None:
        stats = self.stats
        if isinstance(event, StudyStarted):
            stats.total_units = event.total_units
        elif isinstance(event, UnitFinished):
            stats.completed_units += 1
            stats.connect_retries += event.connect_retries
            stats.unit_wall_ms[event.unit_id] = event.wall_ms
        elif isinstance(event, UnitSkipped):
            stats.skipped_units += 1
        elif isinstance(event, UnitRetried):
            stats.retried_units += 1
        elif isinstance(event, UnitFailed):
            stats.failed_units += 1
        elif isinstance(event, StudyHalted):
            stats.halted = True
        elif isinstance(event, StudyFinished):
            stats.wall_s = event.wall_s


class MetricsAggregator:
    """EventBus subscriber folding :class:`UnitMetrics` into one registry.

    Obs metrics flow through the same bus as progress events rather than a
    side channel, so any subscriber — the executor's own aggregate, a CLI
    renderer, a test — sees the identical stream; combined with replay, an
    aggregator attached mid-study still converges on the same totals
    (snapshot merging is commutative).
    """

    def __init__(self, registry=None) -> None:
        if registry is None:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
        self.registry = registry

    def __call__(self, event: Event) -> None:
        if isinstance(event, UnitMetrics):
            self.registry.merge(event.snapshot)
        elif isinstance(event, ResourceSample):
            # Resource series are wall-clock-like: nondeterministic by
            # nature, so they live under runtime.* gauges only and never
            # mix with the deterministic counter/histogram families.
            registry = self.registry
            registry.set_gauge("runtime.rss_kb", event.rss_kb)
            self._track_peak("runtime.rss_peak_kb", event.rss_kb)
            registry.set_gauge("runtime.queue_depth", event.queue_depth)
            registry.set_gauge("runtime.in_flight", event.in_flight)
            registry.set_gauge(
                "runtime.shards_resident", event.shards_resident
            )
            self._track_peak(
                "runtime.shards_resident_peak", event.shards_resident
            )
            registry.set_gauge("runtime.suite_hits", event.suite_hits)
            registry.set_gauge("runtime.suite_misses", event.suite_misses)
        elif isinstance(event, WorkerSample):
            self._track_peak("runtime.worker_rss_peak_kb", event.rss_kb)
            self._track_peak(
                "runtime.shards_resident_peak", event.shards_resident
            )

    def _track_peak(self, name: str, value: float) -> None:
        gauge = self.registry.gauge(name)
        if value > gauge.value:
            gauge.set(value)


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
