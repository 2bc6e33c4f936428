"""The run's numbers: one fold of the event stream, three views.

:class:`DashboardState` is the one :class:`~repro.runtime.events.EventBus`
subscriber that turns the typed event stream into numbers: the
:class:`~repro.runtime.events.ExecutionStats` counters, per-shard
progress, throughput and ETA, each worker's latest resource reading,
resource peaks, and a :class:`~repro.obs.metrics.MetricsRegistry` that
merges every ``UnitMetrics`` delta and holds the ``runtime.*`` resource
gauges.  Elapsed time comes from the stream itself —
``StudyFinished.wall_s``, else the latest ``ResourceSample.elapsed_s`` —
so a live fold and a replay of the run's
:class:`~repro.runtime.events.EventLog` report the same rate and ETA.

The executor folds its own run into one (``StudyExecutor.stats`` and
``StudyExecutor.metrics`` read it), each served job holds one, and the
same numbers drive three views:

- ``repro study --dashboard`` — an in-terminal refreshing panel
  (:func:`render_dashboard`), redrawn in place on a TTY and emitted as
  periodic compact lines elsewhere;
- ``GET /jobs/{id}/top`` and ``repro ledger show`` — a running job's
  live fold, or a finished event log replayed through
  :func:`state_from_events`, returned as :meth:`DashboardState.top` and
  rendered by :func:`render_top`;
- tests — the state is a plain object fed with events, no terminal
  required.

Everything here is read-only over the event stream: attaching a
dashboard cannot perturb results, and the archive bytes are pinned
unchanged with the dashboard on (``tests/test_ledger.py``).
"""

from __future__ import annotations

import sys
import threading
from typing import Optional, TextIO

from repro.obs.metrics import MetricsRegistry
from repro.runtime import events as ev

#: ``top()["peaks"]`` key -> the ``runtime.*`` peak gauges it reads.
_PEAK_GAUGES = {
    "rss_kb": ("runtime.rss_peak_kb", "runtime.worker_rss_peak_kb"),
    "queue_depth": ("runtime.queue_depth_peak",),
    "in_flight": ("runtime.in_flight_peak",),
    "shards_resident": ("runtime.shards_resident_peak",),
}


class DashboardState:
    """Fold the event stream into the numbers every view renders.

    Thread-safe: the executor's bus dispatches from worker-facing
    threads while a renderer thread reads ``top()`` concurrently.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Unit counts and per-unit wall times.
        self.stats = ev.ExecutionStats()
        #: Every ``UnitMetrics`` delta, plus the ``runtime.*`` gauges.
        self.registry = MetricsRegistry()
        self.providers = 0
        self.workers = 0
        self.finished = False
        self._elapsed_s = 0.0
        # shard -> [started, done]; unit_id -> shard for lookups on finish.
        self._shards: dict[int, list[int]] = {}
        self._unit_shard: dict[str, int] = {}
        # worker name -> latest resource reading (coordinator + workers).
        self._resources: dict[str, dict] = {}

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def __call__(self, event: ev.Event) -> None:
        with self._lock:
            self._fold(event)

    def _fold(self, event: ev.Event) -> None:
        stats = self.stats
        if isinstance(event, ev.StudyStarted):
            stats.total_units = event.total_units
            self.providers = event.providers
            self.workers = event.workers
        elif isinstance(event, ev.UnitStarted):
            self._unit_shard[event.unit_id] = event.shard
            self._shards.setdefault(event.shard, [0, 0])[0] += 1
        elif isinstance(event, ev.UnitFinished):
            stats.completed_units += 1
            stats.connect_retries += event.connect_retries
            stats.unit_wall_ms[event.unit_id] = event.wall_ms
            shard = self._unit_shard.get(event.unit_id)
            if shard is not None:
                self._shards[shard][1] += 1
        elif isinstance(event, ev.UnitSkipped):
            stats.skipped_units += 1
        elif isinstance(event, ev.UnitFailed):
            stats.failed_units += 1
        elif isinstance(event, ev.UnitRetried):
            stats.retried_units += 1
        elif isinstance(event, (ev.ResourceSample, ev.WorkerSample)):
            self._fold_resources(event)
        elif isinstance(event, ev.UnitMetrics):
            self.registry.merge(event.snapshot)
        elif isinstance(event, ev.StudyHalted):
            stats.halted = True
        elif isinstance(event, ev.StudyFinished):
            self.finished = True
            stats.wall_s = event.wall_s

    def _fold_resources(
        self, event: "ev.ResourceSample | ev.WorkerSample"
    ) -> None:
        record = {
            "rss_kb": event.rss_kb,
            "shards_resident": event.shards_resident,
            "suite_hits": event.suite_hits,
            "suite_misses": event.suite_misses,
        }
        if isinstance(event, ev.ResourceSample):
            self._elapsed_s = event.elapsed_s
            record["queue_depth"] = event.queue_depth
            record["in_flight"] = event.in_flight
            # Resource series are wall-clock-like: nondeterministic by
            # nature, so they live under runtime.* gauges only and never
            # mix with the deterministic counter/histogram families.
            for name, value in record.items():
                self.registry.set_gauge(f"runtime.{name}", value)
            self._track_peak("runtime.rss_peak_kb", event.rss_kb)
            self._track_peak("runtime.queue_depth_peak", event.queue_depth)
            self._track_peak("runtime.in_flight_peak", event.in_flight)
        else:
            self._track_peak("runtime.worker_rss_peak_kb", event.rss_kb)
        self._track_peak(
            "runtime.shards_resident_peak", event.shards_resident
        )
        self._resources[event.worker] = record

    def _track_peak(self, name: str, value: float) -> None:
        gauge = self.registry.gauge(name)
        if value > gauge.value:
            gauge.set(value)

    # ------------------------------------------------------------------
    # Derived numbers
    # ------------------------------------------------------------------
    def top(self, stage_limit: int = 5) -> dict:
        """The dashboard numbers as one JSON-safe dict.

        This is the body of ``GET /jobs/{id}/top`` and the input of
        :func:`render_top` — everything derived (rate, ETA, shares,
        peaks) is computed here so every view agrees.
        """
        from repro.obs.profile import stage_breakdown

        with self._lock:
            stats = self.stats
            elapsed = stats.wall_s if self.finished else self._elapsed_s
            rate = stats.completed_units / elapsed if elapsed > 0 else None
            remaining = max(
                0,
                stats.total_units - stats.skipped_units
                - stats.completed_units,
            )
            eta_s = remaining / rate if rate else None
            shards = [
                {"shard": shard, "started": counts[0], "done": counts[1]}
                for shard, counts in sorted(self._shards.items())
            ]
            resources = {
                name: dict(record)
                for name, record in sorted(self._resources.items())
            }
            snapshot = self.registry.snapshot()
            gauges = snapshot["gauges"]
            peaks = {
                key: max(int(gauges.get(name, 0)) for name in names)
                for key, names in _PEAK_GAUGES.items()
            }
            stages = [
                {
                    "stage": row["stage"],
                    "calls": row["calls"],
                    "est_ms": round(row["est_ms"], 3),
                    "share": round(row["share"], 4),
                }
                for row in stage_breakdown(snapshot)[:stage_limit]
            ]
            return {
                "total_units": stats.total_units,
                "completed": stats.completed_units,
                "skipped": stats.skipped_units,
                "failed": stats.failed_units,
                "retried": stats.retried_units,
                "providers": self.providers,
                "workers": self.workers,
                "finished": self.finished,
                "halted": stats.halted,
                "elapsed_s": round(elapsed, 3),
                "units_per_s": round(rate, 3) if rate is not None else None,
                "eta_s": round(eta_s, 1) if eta_s is not None else None,
                "shards": shards,
                "resources": resources,
                "peaks": peaks,
                "stages": stages,
            }


def _bar(done: int, total: int, width: int = 24) -> str:
    if total <= 0:
        return "-" * width
    filled = int(round(width * min(done, total) / total))
    return "#" * filled + "-" * (width - filled)


def _fmt_eta(eta_s: Optional[float]) -> str:
    if eta_s is None:
        return "--:--"
    eta = int(eta_s)
    return f"{eta // 60:02d}:{eta % 60:02d}"


def render_top(top: dict) -> str:
    """Render a ``top`` dict (local state or the daemon's reply)."""
    done = top["completed"] + top["skipped"]
    lines = [
        f"units    : {done}/{top['total_units']} "
        f"({top['completed']} run, {top['skipped']} from checkpoint, "
        f"{top['failed']} failed, {top['retried']} retried)",
        f"progress : [{_bar(done, top['total_units'])}] "
        f"{done / top['total_units'] * 100 if top['total_units'] else 0:.1f}%"
        f"  {top['units_per_s'] or 0:.2f} units/s  "
        f"ETA {_fmt_eta(top['eta_s'])}"
        + ("  [done]" if top["finished"] else "")
        + ("  [halted]" if top["halted"] else ""),
    ]
    if top["shards"]:
        lines.append("shards   :")
        for entry in top["shards"]:
            lines.append(
                f"  shard {entry['shard']:>4d}  "
                f"[{_bar(entry['done'], entry['started'], 16)}] "
                f"{entry['done']}/{entry['started']}"
            )
    if top["resources"]:
        lines.append("workers  :  (rss kB, shards resident, LRU hit/miss)")
        for name, record in top["resources"].items():
            lines.append(
                f"  {name:<28s} {record.get('rss_kb', 0):>10,}"
                f" {record.get('shards_resident', 0):>4d}"
                f" {record.get('suite_hits', 0):>6d}/"
                f"{record.get('suite_misses', 0)}"
            )
    peaks = top.get("peaks")
    if peaks and any(peaks.values()):
        lines.append(
            f"peaks    : rss {peaks['rss_kb']:,} kB  "
            f"queue {peaks['queue_depth']}  "
            f"in flight {peaks['in_flight']}  "
            f"shards resident {peaks['shards_resident']}"
        )
    if top["stages"]:
        lines.append("stages   :  (self-time share of delivery)")
        for row in top["stages"]:
            lines.append(
                f"  {row['stage']:<10s} [{_bar(int(row['share'] * 100), 100, 16)}]"
                f" {row['share'] * 100:5.1f}%  "
                f"{row['calls']:>9,d} calls  {row['est_ms']:>9.1f} ms"
            )
    return "\n".join(lines)


def render_dashboard(state: DashboardState, width: int = 72) -> str:
    """One dashboard frame (the ``--dashboard`` panel body)."""
    top = state.top()
    header = (
        f"repro study dashboard — {top['providers']} providers, "
        f"{top['workers']} worker(s)"
    )
    return header + "\n" + "=" * min(width, len(header)) + "\n" + render_top(
        top
    )


class Dashboard:
    """Drive the in-terminal view: subscribe, refresh, final frame.

    On a TTY the panel redraws in place (cursor-up escapes); on a pipe
    it degrades to one compact progress line per refresh so logs stay
    readable.  ``stop()`` always emits one final frame, so even a run
    shorter than the refresh interval shows its finished numbers.
    """

    def __init__(
        self,
        bus: ev.EventBus,
        stream: Optional[TextIO] = None,
        interval_s: float = 1.0,
    ) -> None:
        self.state = DashboardState()
        self.bus = bus
        self.stream = stream if stream is not None else sys.stderr
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._last_lines = 0
        bus.subscribe(self.state, replay=True)

    # ------------------------------------------------------------------
    def _is_tty(self) -> bool:
        try:
            return bool(self.stream.isatty())
        except (AttributeError, ValueError):
            return False

    def _draw(self) -> None:
        try:
            if self._is_tty():
                frame = render_dashboard(self.state)
                lines = frame.count("\n") + 1
                if self._last_lines:
                    # Repaint over the previous frame.
                    self.stream.write(f"\x1b[{self._last_lines}F\x1b[J")
                self.stream.write(frame + "\n")
                self._last_lines = lines
            else:
                top = self.state.top()
                done = top["completed"] + top["skipped"]
                self.stream.write(
                    f"dashboard: {done}/{top['total_units']} units  "
                    f"{top['units_per_s'] or 0:.2f}/s  "
                    f"ETA {_fmt_eta(top['eta_s'])}  "
                    f"rss {max((r.get('rss_kb', 0) for r in top['resources'].values()), default=0):,} kB\n"
                )
            self.stream.flush()
        except (OSError, ValueError):
            # A closed stream must never take the study down.
            self._stop.set()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._draw()

    def start(self) -> "Dashboard":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-dashboard", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.bus.unsubscribe(self.state)
        self._draw()


def state_from_events(events: list[dict]) -> DashboardState:
    """Rebuild a dashboard state from wire-form event dicts.

    ``GET /jobs/{id}/top`` of a finished job and ``repro ledger show``
    replay an event log file (:func:`~repro.runtime.events.read_events`)
    through this, so they derive their numbers from exactly the frames
    the watch stream carries, with the clock the live fold had.
    """
    state = DashboardState()
    for data in events:
        event = ev.event_from_dict(data)
        if event is not None:
            state(event)
    return state


__all__ = [
    "Dashboard",
    "DashboardState",
    "render_dashboard",
    "render_top",
    "state_from_events",
]
