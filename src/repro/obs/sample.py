"""Runtime resource sampling.

Where :mod:`repro.obs.profile` answers "where does delivery time go?",
this module answers "what is the *machine* doing while the study runs?"
— resident set size, dispatch queue depth, in-flight units, how many
shard worlds each worker is holding, and how well the per-worker world
LRU is doing.

:class:`ResourceSampler` is a coordinator-side background ticker that
calls a probe every ``interval_s`` and publishes the resulting
:class:`~repro.runtime.events.ResourceSample` on the executor's event
bus.  Worker-side numbers arrive separately: each completed unit carries
a small resource payload (read with :func:`rss_kb`) home with its
results, which the executor publishes as a
:class:`~repro.runtime.events.WorkerSample`.  Both land wherever the bus
goes: the fold (:class:`repro.runtime.dashboard.DashboardState`) turns
them into ``runtime.*`` gauges and peaks, and an
:class:`~repro.runtime.events.EventLog` (``repro study --ledger``, a
served job's ``events.jsonl``) records them.

Nothing here touches the simulation: samples are read from the OS and
the executor's own bookkeeping, never from world state, and none of it
flows into deterministic metric series (wall-clock-like, resource
series live under ``runtime.*`` gauges only).
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable, Optional

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
    lands at least one sample on the bus.
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


__all__ = ["ResourceSampler", "rss_kb"]
