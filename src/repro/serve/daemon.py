"""The audit daemon: queue + scheduler + store + HTTP, composed.

:class:`AuditDaemon` is the long-running process behind ``repro serve``.
It owns the four serve components and wires their lifecycles together:

- on **start** it recovers every persisted job from the
  :class:`~repro.serve.store.ResultStore` (jobs that were running when a
  previous daemon died re-queue and resume from their checkpoints),
  starts the :class:`~repro.serve.scheduler.JobScheduler`'s dispatcher,
  and binds the HTTP server (port 0 picks an ephemeral port — the bound
  address is ``endpoint``);
- while **serving** it answers the HTTP surface from memory and disk
  only — submissions enqueue, reads never block on running jobs;
- on **SIGTERM/SIGINT** (or :meth:`shutdown`) it drains: the HTTP server
  stops accepting, every running job finishes its in-flight units and
  flushes its checkpoint, interrupted jobs return to ``queued``, and the
  process exits — ``128 + signum`` when a signal initiated it, so
  supervisors can tell a drain from a crash.

Everything the daemon knows survives in the state directory; killing it
at any instant costs at most the units that were mid-flight.
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from typing import Optional

from repro.config import ServeConfig
from repro.obs.metrics import MetricsRegistry
from repro.serve.jobs import JobQueue
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    EventsReply,
    JobRecord,
    JobRequest,
    JobState,
    JobStatusReply,
    SubmitReply,
    TraceQueryReply,
)
from repro.serve.scheduler import JobScheduler
from repro.serve.store import ResultStore


class AuditDaemon:
    """Compose the serve components into one controllable process."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        log=None,
    ) -> None:
        self.config = config or ServeConfig()
        #: Daemon-wide registry: queue/store/scheduler counters live
        #: here; running jobs' obs snapshots merge in at scrape time.
        self.metrics = MetricsRegistry()
        self.store = ResultStore(self.config.state_dir, metrics=self.metrics)
        self.queue = JobQueue(
            on_change=self.store.save_record,
            make_job_id=self.store.next_job_id,
            metrics=self.metrics,
        )
        self.scheduler = JobScheduler(
            self.queue, self.store, self.config, metrics=self.metrics
        )
        self._log = log
        self._server = None
        self._server_thread: Optional[threading.Thread] = None
        self._started = False
        self._started_mono = time.monotonic()
        self._draining = threading.Event()
        self._signal = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Recover persisted jobs, start the scheduler and bind HTTP."""
        from repro.serve.httpapi import build_server

        if self._started:
            raise RuntimeError("daemon already started")
        self._started = True
        for record in self.store.load_records():
            self.queue.restore(record)
        self.scheduler.start()
        self._server = build_server(
            self, self.config.host, self.config.port
        )
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._server_thread.start()
        self.log(f"serving on {self.endpoint}, state in {self.store.root}")

    def shutdown(self, drain: bool = True) -> None:
        """Stop HTTP, drain (or abandon) running jobs, stop the pool."""
        if not self._started:
            return
        self._draining.set()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        if self._server_thread is not None:
            self._server_thread.join()
        self.scheduler.shutdown(drain=drain)
        self._started = False
        self.log("drained and stopped")

    def serve_forever(self, install_signals: bool = True) -> int:
        """Block until SIGTERM/SIGINT, then drain; returns the exit code.

        The handler only sets an event — the actual drain runs on the
        main thread after the wait returns, so in-flight units finish and
        checkpoints flush no matter which instant the signal hit.
        """
        woken = threading.Event()

        def _on_signal(signum: int, frame: object) -> None:
            self._signal = signum
            woken.set()

        if install_signals:
            signal.signal(signal.SIGTERM, _on_signal)
            signal.signal(signal.SIGINT, _on_signal)
        self._started_mono = time.monotonic()
        self.start()
        woken.wait()
        self.log(
            f"signal {self._signal}: draining "
            f"({self.queue.counts()['running']} job(s) running)"
        )
        self.shutdown(drain=True)
        return 128 + self._signal if self._signal else 0

    @property
    def endpoint(self) -> str:
        """The bound ``http://host:port`` (resolves port 0)."""
        if self._server is None:
            return f"http://{self.config.host}:{self.config.port}"
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    # ------------------------------------------------------------------
    # Operations (what the HTTP layer and tests call)
    # ------------------------------------------------------------------
    def submit(self, request: JobRequest) -> SubmitReply:
        record, deduplicated = self.queue.submit(request)
        return SubmitReply(
            job_id=record.job_id,
            state=record.state,
            deduplicated=deduplicated,
        )

    def status(self, job_id: str) -> JobStatusReply:
        record = self.queue.get(job_id)
        progress = dict(record.progress)
        if record.state is JobState.RUNNING:
            progress.update(self.scheduler.progress(job_id))
        return JobStatusReply(
            record=record,
            progress=progress,
            results=self.store.available_results(job_id),
        )

    def list_jobs(self) -> list[JobStatusReply]:
        return [self.status(record.job_id) for record in self.queue.jobs()]

    def cancel(self, job_id: str) -> Optional[JobRecord]:
        self.queue.get(job_id)  # raises UnknownJobError first
        return self.scheduler.cancel(job_id)

    def result(self, job_id: str, name: str) -> Optional[dict]:
        self.queue.get(job_id)
        return self.store.result(job_id, name)

    def events(
        self, job_id: str, since: int = 0, wait_s: float = 0.0
    ) -> EventsReply:
        """The job's event stream from cursor *since* (long-poll).

        The record's state is read *before* the events: every event is
        published before a job resolves, so a terminal state in the
        reply guarantees the events returned alongside it complete the
        stream — the client can stop polling after draining them.
        """
        record = self.queue.get(job_id)
        log = self.scheduler.event_log(job_id)
        if log is not None:
            events, _ = log.read(
                since, wait_s=0.0 if record.terminal else wait_s
            )
        else:
            events = [
                event
                for event in self.store.load_events(job_id)
                if event.get("seq", 0) >= since
            ]
        return EventsReply(
            job_id=job_id,
            state=record.state,
            events=tuple(events),
            next=since + len(events),
        )

    def top(self, job_id: str) -> dict:
        """The job's dashboard numbers (``GET /jobs/{id}/top``).

        A running job answers from its live
        :class:`~repro.runtime.dashboard.DashboardState`; a finished one
        replays its ``events.jsonl`` through the same fold.  The fold's
        clock is read from the stream, so both give the numbers a local
        ``--dashboard`` and ``repro ledger show`` of the same events give.
        """
        from repro.runtime.dashboard import state_from_events

        self.queue.get(job_id)  # raises UnknownJobError first
        fold = self.scheduler.fold(job_id)
        if fold is None:
            fold = state_from_events(self.store.load_events(job_id))
        payload = fold.top()
        payload["job_id"] = job_id
        return payload

    def metrics_registry(self) -> MetricsRegistry:
        """A scrape-time merge of daemon counters + running jobs' obs.

        Gauges are computed here (not maintained incrementally) so the
        scrape always reflects the queue's current truth.
        """
        merged = MetricsRegistry()
        merged.merge(self.metrics.snapshot())
        for snapshot in self.scheduler.metrics_snapshots():
            merged.merge(snapshot)
        counts = self.queue.counts()
        for state, count in counts.items():
            merged.set_gauge(f"serve.jobs.state.{state}", count)
        merged.set_gauge("serve.queue.depth", counts.get("queued", 0))
        merged.set_gauge(
            "serve.uptime_s", time.monotonic() - self._started_mono
        )
        merged.set_gauge("serve.workers", self.config.workers)
        return merged

    def metrics_text(self) -> str:
        """The Prometheus text exposition served at ``GET /metrics``."""
        from repro.obs.export import render_prometheus

        return render_prometheus(self.metrics_registry().snapshot())

    def trace_query(self, job_id: str, expression: str) -> TraceQueryReply:
        from repro.obs.analyze import query_trace
        from repro.obs.trace import read_trace

        self.queue.get(job_id)
        path = self.store.trace_path(job_id)
        if path is None:
            raise FileNotFoundError(job_id)
        # Counted skips (trace.corrupt_lines) land in the daemon registry
        # and therefore in the /metrics exposition.
        records = read_trace(path, metrics=self.metrics)
        matches = query_trace(records, expression)
        return TraceQueryReply(
            job_id=job_id,
            expression=expression,
            matches=tuple(matches),
            total_records=len(records),
        )

    def health(self) -> dict:
        counts = self.queue.counts()
        return {
            "version": PROTOCOL_VERSION,
            "protocol_version": PROTOCOL_VERSION,
            "status": "draining" if self.draining else "ok",
            "workers": self.config.workers,
            "jobs": counts,
            "uptime_s": round(time.monotonic() - self._started_mono, 3),
            "queue_depth": counts.get("queued", 0),
            "active_jobs": counts.get("running", 0),
            "terminal_jobs": sum(
                counts.get(state, 0)
                for state in ("completed", "failed", "cancelled")
            ),
        }

    # ------------------------------------------------------------------
    def log(self, message: str) -> None:
        if self._log is not None:
            self._log(message)
        elif self._log is None and sys.stderr is not None:
            pass  # quiet by default; pass log=print-like for chatter

    def log_http(self, message: str) -> None:
        # Per-request lines are debug noise; route them with the same
        # hook so a verbose daemon can surface them.
        if self._log is not None:
            self._log(f"http: {message}")


__all__ = ["AuditDaemon"]
