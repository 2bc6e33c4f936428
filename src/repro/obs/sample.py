"""Runtime resource sampling and the run ledger.

Where :mod:`repro.obs.profile` answers "where does delivery time go?",
this module answers "what is the *machine* doing while the study runs?"
— resident set size, dispatch queue depth, in-flight units, how many
shard worlds each worker is holding, and how well the per-worker world
LRU is doing.

Two pieces:

- :class:`ResourceSampler` — a coordinator-side background ticker that
  calls a probe every ``interval_s`` and publishes the resulting
  :class:`~repro.runtime.events.ResourceSample` on the executor's event
  bus.  Worker-side numbers arrive separately: each completed unit
  carries a small resource payload home with its results, which the
  executor publishes as a :class:`~repro.runtime.events.WorkerSample`.

- :class:`RunLedger` — a bus subscriber that persists the telemetry
  stream as JSON Lines (``ledger.jsonl``), one timestamped record per
  event.  The ledger rides *alongside* the archive: it is ``.jsonl``
  precisely so :func:`repro.core.archive.archive_fingerprint` (which
  hashes ``*.json``) never sees it — a ledgered run stays byte-identical
  to an unledgered one.

Nothing here touches the simulation: samples are read from the OS and
the executor's own bookkeeping, never from world state, and none of it
flows into deterministic metric series (wall-clock-like, resource
series live under ``runtime.*`` gauges only).
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from typing import TYPE_CHECKING, Callable, Optional

from repro.runtime.events import event_to_dict

if TYPE_CHECKING:
    from repro.runtime.events import Event, EventBus

_PAGE_SIZE: Optional[int] = None


def rss_kb() -> int:
    """Current resident set size of this process, in kilobytes.

    Reads ``/proc/self/statm`` (current RSS) where available; falls back
    to ``getrusage`` peak RSS elsewhere.  Returns 0 when neither source
    works — telemetry must never take a run down.
    """
    global _PAGE_SIZE
    try:
        with open("/proc/self/statm", "rb") as handle:
            pages = int(handle.read().split()[1])
        if _PAGE_SIZE is None:
            import resource

            _PAGE_SIZE = resource.getpagesize()
        return pages * _PAGE_SIZE // 1024
    except (OSError, ValueError, IndexError, ImportError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports kilobytes, macOS bytes.
        return peak // 1024 if peak > 1 << 32 else peak
    except Exception:  # pragma: no cover - exotic platforms
        return 0


class ResourceSampler:
    """Background ticker publishing resource samples onto an event bus.

    ``probe(elapsed_s)`` builds the sample event (the executor's probe
    reads its own live queue/in-flight counters plus :func:`rss_kb`);
    the sampler only owns the cadence.  :meth:`stop` publishes one final
    sample before joining, so even a run shorter than ``interval_s``
    lands at least one record in the ledger.
    """

    def __init__(
        self,
        bus: "EventBus",
        probe: Callable[[float], "Event"],
        interval_s: float = 0.5,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.bus = bus
        self.probe = probe
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at = 0.0

    def _sample_once(self) -> None:
        try:
            event = self.probe(time.monotonic() - self._started_at)
        except Exception:  # noqa: BLE001 - telemetry must not kill the run
            return
        self.bus.publish(event)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample_once()

    def start(self) -> None:
        if self._thread is not None:
            return
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._run, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the ticker; always emits one final sample."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self._sample_once()


class RunLedger:
    """Persist the telemetry event stream as JSON Lines.

    Subscribes to the executor's bus and appends one record per
    telemetry-relevant event — study lifecycle, per-unit completion,
    coordinator resource samples, worker samples — each stamped with
    seconds elapsed since the ledger opened.  Rendered back by
    ``repro ledger show`` (:func:`render_ledger`).
    """

    #: Event class names worth persisting.  Per-packet noise (UnitMetrics
    #: snapshots) stays off the ledger; it has its own channel.
    RECORDED = frozenset(
        {
            "StudyStarted",
            "StudyFinished",
            "StudyHalted",
            "UnitFinished",
            "UnitFailed",
            "ResourceSample",
            "WorkerSample",
        }
    )

    def __init__(self, path: str | pathlib.Path, bus: "EventBus") -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", encoding="utf-8")
        self._lock = threading.Lock()
        self._t0 = time.monotonic()
        self.bus = bus
        bus.subscribe(self._handle_event, replay=True)

    def _handle_event(self, event: "Event") -> None:
        if type(event).__name__ not in self.RECORDED:
            return
        data = event_to_dict(event)
        if data is None:
            return
        record = {"t": round(time.monotonic() - self._t0, 3)}
        record.update(data)
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            if self._handle.closed:
                return
            self._handle.write(line + "\n")

    def close(self) -> None:
        self.bus.unsubscribe(self._handle_event)
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()


def read_ledger(path: str | pathlib.Path) -> list[dict]:
    """Read a ledger back; corrupt (torn) lines are skipped."""
    entries: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                entries.append(record)
    return entries


def ledger_summary(entries: list[dict]) -> dict:
    """Aggregate a ledger into the numbers the renderer (and CI) checks."""
    coordinator = [e for e in entries if e.get("event") == "ResourceSample"]
    workers = [e for e in entries if e.get("event") == "WorkerSample"]
    units = [e for e in entries if e.get("event") == "UnitFinished"]
    finished = next(
        (e for e in entries if e.get("event") == "StudyFinished"), None
    )

    def peak(records: list[dict], key: str) -> float:
        return max((r.get(key) or 0 for r in records), default=0)

    worker_names = sorted({w.get("worker", "?") for w in workers})
    return {
        "samples": len(coordinator),
        "worker_samples": len(workers),
        "units_finished": len(units),
        "rss_peak_kb": int(
            max(peak(coordinator, "rss_kb"), peak(workers, "rss_kb"))
        ),
        "queue_depth_peak": int(peak(coordinator, "queue_depth")),
        "in_flight_peak": int(peak(coordinator, "in_flight")),
        "shards_resident_peak": int(
            max(
                peak(coordinator, "shards_resident"),
                peak(workers, "shards_resident"),
            )
        ),
        "suite_hits": int(
            max(peak(coordinator, "suite_hits"), peak(workers, "suite_hits"))
        ),
        "suite_misses": int(
            max(
                peak(coordinator, "suite_misses"),
                peak(workers, "suite_misses"),
            )
        ),
        "workers": worker_names,
        "wall_s": finished.get("wall_s") if finished else None,
    }


def render_ledger(entries: list[dict]) -> str:
    """Human-readable summary of one run ledger."""
    if not entries:
        return "ledger: empty"
    summary = ledger_summary(entries)
    hits, misses = summary["suite_hits"], summary["suite_misses"]
    lookups = hits + misses
    hit_rate = f"{hits / lookups * 100:.1f}%" if lookups else "-"
    lines = [
        "run ledger:",
        f"  coordinator samples     : {summary['samples']}",
        f"  worker samples          : {summary['worker_samples']}",
        f"  units finished          : {summary['units_finished']}",
        f"  peak RSS                : {summary['rss_peak_kb']:,} kB",
        f"  peak queue depth        : {summary['queue_depth_peak']}",
        f"  peak units in flight    : {summary['in_flight_peak']}",
        f"  peak shards resident    : {summary['shards_resident_peak']}",
        f"  world-suite LRU         : {hits} hits / {misses} misses"
        f" ({hit_rate})",
    ]
    if summary["workers"]:
        lines.append(
            f"  workers seen            : {', '.join(summary['workers'])}"
        )
    if summary["wall_s"] is not None:
        lines.append(f"  study wall              : {summary['wall_s']:.1f}s")
    tail = [e for e in entries if e.get("event") == "ResourceSample"][-5:]
    if tail:
        lines.append("  recent samples (t, rss kB, queue, in-flight):")
        for record in tail:
            lines.append(
                f"    {record.get('t', 0):8.2f}s"
                f"  {record.get('rss_kb', 0):>10,}"
                f"  {record.get('queue_depth', 0):>5}"
                f"  {record.get('in_flight', 0):>5}"
            )
    return "\n".join(lines)


__all__ = [
    "ResourceSampler",
    "RunLedger",
    "ledger_summary",
    "read_ledger",
    "render_ledger",
    "rss_kb",
]
