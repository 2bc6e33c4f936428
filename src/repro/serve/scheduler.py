"""Job execution over one shared worker pool.

The scheduler is the daemon's engine room: a dispatcher thread claims
jobs off the :class:`~repro.serve.jobs.JobQueue` (priority order, at most
``max_active_jobs`` concurrently) and runs each one on a lightweight
runner thread.  The *unit work* of every job, however, executes on a
single shared :class:`~concurrent.futures.ThreadPoolExecutor` — each
job's :class:`~repro.runtime.executor.StudyExecutor` borrows the pool via
its ``pool=`` parameter and keeps at most two units per worker submitted
to it — so concurrent jobs take turns unit by unit on the same
``workers`` threads instead of each spawning its own pool, and a job that
starts second does not wait for the first job's whole plan.  Results
stay byte-identical regardless of the interleaving because unit results
are independent of scheduling order by construction.

Each job (a ``snapshots`` job is one series on one executor) also gets:

- a **checkpoint**, which is the job's archive directory in the store, so
  a daemon killed mid-job resumes the job from its last committed unit on
  restart, and each result is written once;
- a **stop event**, the one mechanism behind both job cancellation and
  graceful daemon drain — setting it makes the executor finish in-flight
  units, flush the checkpoint, and raise
  :class:`~repro.runtime.executor.StudyInterrupted`;
- a **private EventBus** with two subscribers: a
  :class:`~repro.runtime.dashboard.DashboardState`, the fold that
  ``GET /jobs/{id}`` progress, ``GET /jobs/{id}/top`` and the job's
  share of ``GET /metrics`` read while it runs, and an
  :class:`~repro.runtime.events.EventLog` writing the job's
  ``events.jsonl`` from its first event, which ``GET /jobs/{id}/events``
  reads.

On drain (SIGTERM) interrupted jobs go back to ``queued`` — the state a
restarted daemon re-dispatches from — while an explicit cancellation
lands in ``cancelled``.
"""

from __future__ import annotations

import gc
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.config import ServeConfig
from repro.runtime import events as ev
from repro.runtime.checkpoint import CheckpointMismatchError
from repro.runtime.dashboard import DashboardState
from repro.runtime.executor import StudyExecutor, StudyInterrupted
from repro.runtime.scheduler import snapshot_specs
from repro.serve.jobs import JobQueue
from repro.serve.protocol import JobKind, JobRecord, JobState
from repro.serve.store import ResultStore


class JobScheduler:
    """Claim, run, and resolve jobs until told to shut down."""

    def __init__(
        self,
        queue: JobQueue,
        store: ResultStore,
        config: ServeConfig,
        metrics=None,
    ) -> None:
        self.queue = queue
        self.store = store
        self.config = config
        #: Optional daemon-wide MetricsRegistry (job wall-time lands here).
        self.metrics = metrics
        self.pool = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="repro-serve"
        )
        self._dispatcher: Optional[threading.Thread] = None
        self._runners: dict[str, threading.Thread] = {}
        self._stop_events: dict[str, threading.Event] = {}
        self._folds: dict[str, DashboardState] = {}
        self._event_logs: dict[str, ev.EventLog] = {}
        self._cancelled: set[str] = set()
        self._active = threading.Semaphore(config.max_active_jobs)
        self._shutdown = threading.Event()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._dispatcher is not None:
            raise RuntimeError("scheduler already started")
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    def shutdown(self, drain: bool = True) -> None:
        """Stop dispatching; drain running jobs back to the queue.

        ``drain=True`` (the graceful path) sets every active job's stop
        event: executors finish their in-flight units, flush checkpoints,
        and the jobs are re-queued for the next daemon.  The call returns
        when every runner thread has finished and the pool is down.
        """
        self._shutdown.set()
        if drain:
            with self._lock:
                for event in self._stop_events.values():
                    event.set()
        if self._dispatcher is not None:
            self._dispatcher.join()
        while True:
            with self._lock:
                runners = list(self._runners.values())
            if not runners:
                break
            for runner in runners:
                runner.join()
        self.pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> Optional[JobRecord]:
        """Cancel a queued or running job; None when already terminal."""
        record = self.queue.cancel_queued(job_id)
        if record is not None:
            return record
        with self._lock:
            event = self._stop_events.get(job_id)
            if event is not None:
                event.set()
            elif self.queue.get(job_id).state is not JobState.RUNNING:
                return None
            # Otherwise the job is claimed but its runner has not
            # registered yet; it sets the stop event when it does.
            self._cancelled.add(job_id)
        return self.queue.get(job_id)

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    def progress(self, job_id: str) -> dict:
        """Live counters for a running job; {} when none are tracked."""
        fold = self.fold(job_id)
        return _progress_dict(fold.stats) if fold is not None else {}

    def fold(self, job_id: str) -> Optional[DashboardState]:
        """The live fold of a running job, or None once resolved."""
        with self._lock:
            return self._folds.get(job_id)

    def event_log(self, job_id: str) -> Optional[ev.EventLog]:
        """The live event log of a running job, or None once resolved."""
        with self._lock:
            return self._event_logs.get(job_id)

    def metrics_snapshots(self) -> list[dict]:
        """Per-job obs metrics snapshots of every running job.

        Each running job's fold merges the unit deltas flowing over its
        bus; snapshot merging is commutative, so ``GET /metrics`` can
        merge these into the daemon registry at scrape time without
        perturbing the jobs.
        """
        with self._lock:
            folds = list(self._folds.values())
        return [fold.registry.snapshot() for fold in folds]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._shutdown.is_set():
            if not self._active.acquire(timeout=self.config.poll_interval_s):
                continue
            record = self.queue.claim(timeout=self.config.poll_interval_s)
            if record is None:
                self._active.release()
                continue
            if self._shutdown.is_set():
                # Claimed during shutdown: hand it straight back.
                self.queue.resolve(record.job_id, JobState.QUEUED)
                self._active.release()
                break
            runner = threading.Thread(
                target=self._run_job,
                args=(record,),
                name=f"repro-serve-{record.job_id}",
                daemon=True,
            )
            with self._lock:
                self._runners[record.job_id] = runner
            runner.start()

    def _run_job(self, record: JobRecord) -> None:
        stop_event = threading.Event()
        bus = ev.EventBus()
        fold = DashboardState()
        bus.subscribe(fold, replay=False)
        # Subscribed before the executor starts, so the log holds the
        # complete stream and /jobs/{id}/events never joins blind.
        event_log = self.store.open_events(record.job_id)
        bus.subscribe(event_log, replay=False)
        started = time.monotonic()
        with self._lock:
            self._stop_events[record.job_id] = stop_event
            self._folds[record.job_id] = fold
            self._event_logs[record.job_id] = event_log
            cancelled = record.job_id in self._cancelled
        if cancelled or self._shutdown.is_set():
            stop_event.set()
        try:
            self._run_study(record, bus, stop_event, started)
        except StudyInterrupted:
            progress = _progress_dict(fold.stats)
            if record.job_id in self._cancelled:
                self._resolve(
                    record.job_id, started, JobState.CANCELLED,
                    progress=progress,
                )
            else:
                # Drain: the checkpoint holds every committed unit; the
                # job waits in the queue for this daemon's successor.
                self._resolve(
                    record.job_id, started, JobState.QUEUED,
                    progress=progress,
                )
        except CheckpointMismatchError as exc:
            self._resolve(
                record.job_id, started, JobState.FAILED, error=str(exc)
            )
        except Exception as exc:  # noqa: BLE001 - job isolation
            self._resolve(
                record.job_id, started, JobState.FAILED, error=repr(exc)
            )
        finally:
            # Close completes the file and wakes blocked /events readers
            # before the live log is dropped, so the stream replays from
            # disk with no gap (the record went terminal before this
            # point, and every event was published before it resolved).
            self.store.close_events(event_log)
            with self._lock:
                self._stop_events.pop(record.job_id, None)
                self._runners.pop(record.job_id, None)
                self._folds.pop(record.job_id, None)
                self._event_logs.pop(record.job_id, None)
                self._cancelled.discard(record.job_id)
            self._active.release()
            # The job's worlds are reference cycles, and other jobs'
            # units may hold the collector paused.
            gc.collect()

    def _resolve(
        self, job_id: str, started: float, state: JobState, **detail
    ) -> JobRecord:
        """Move a running job to *state*, its wall time observed first.

        Observing before the record changes means a client that sees the
        job finish always finds ``serve.job.wall_s`` in ``/metrics``.  A
        completed job whose checkpoint prune fails is resolved twice and
        observed once.
        """
        if (
            self.metrics is not None
            and self.queue.get(job_id).state is JobState.RUNNING
        ):
            self.metrics.observe(
                "serve.job.wall_s", time.monotonic() - started
            )
        return self.queue.resolve(job_id, state, **detail)

    def _run_study(
        self,
        record: JobRecord,
        bus: ev.EventBus,
        stop_event: threading.Event,
        started: float,
    ) -> None:
        config = record.request.config
        if record.request.kind is JobKind.RECHECK:
            # A re-check must come back explainable: force tracing so the
            # evidence document carries resolvable chains.
            config = config.replace(obs=config.obs.replace(trace=True))
        series = record.request.kind is JobKind.SNAPSHOTS
        executor = StudyExecutor.from_config(
            config,
            bus=bus,
            workers=self.config.workers,
            backend="thread",
            checkpoint_dir=str(self.store.archive_dir(record.job_id)),
            stop_event=stop_event,
            pool=self.pool,
            # Resource telemetry rides the job bus into its fold and event
            # log, which is where /jobs/{id}/top reads its RSS/queue
            # numbers.  A side channel: results stay byte-identical.
            sample_interval_s=self.config.sample_interval_s,
            snapshots=snapshot_specs(config) if series else None,
        )
        report = executor.run()
        if series:
            self.store.store_longitudinal_result(record, report)
            progress = self.progress(record.job_id)
            progress["snapshots_completed"] = len(report.snapshots)
            if report.interrupted:
                # The series stopped early; its completed prefix is
                # stored, and the job re-queues to finish the rest.
                raise StudyInterrupted(
                    completed=len(report.snapshots),
                    remaining=config.snapshots - len(report.snapshots),
                )
        else:
            metrics = executor.metrics
            fingerprint = self.store.store_study_result(
                record,
                report,
                trace_records=executor.trace_records,
                metrics_snapshot=(
                    metrics.snapshot() if metrics is not None else None
                ),
            )
            progress = self.progress(record.job_id)
            progress["archive_fingerprint"] = fingerprint
        resolved = self._resolve(
            record.job_id, started, JobState.COMPLETED, progress=progress
        )
        self._maybe_prune(resolved)

    def _maybe_prune(self, record: JobRecord) -> None:
        if self.config.keep_checkpoints:
            return
        self.store.prune_checkpoints([record])


def _progress_dict(stats: ev.ExecutionStats) -> dict:
    return {
        "total_units": stats.total_units,
        "completed_units": stats.completed_units,
        "skipped_units": stats.skipped_units,
        "failed_units": stats.failed_units,
        "retried_units": stats.retried_units,
        "connect_retries": stats.connect_retries,
        "halted": stats.halted,
    }


__all__ = ["JobScheduler"]
