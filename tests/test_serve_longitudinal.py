"""Longitudinal snapshot series under the daemon.

A snapshot series is the job type most exposed to service-level hazards:
a tick can fire while the previous one still runs (must dedup, not pile
up), a drain can land between or inside snapshots (the completed prefix
must persist and the job must resume), and the scheduler must honour the
stop event both between snapshots and mid-snapshot.
"""

import threading
import time

import pytest


def _series_config(seed=2018, snapshots=2, **changes):
    from repro.config import StudyConfig

    return StudyConfig(
        seed=seed,
        providers=("Seed4.me",),
        max_vantage_points=2,
        snapshots=snapshots,
        **changes,
    )


def _series_request(seed=2018, snapshots=2, priority=0):
    from repro.serve.protocol import JobKind, JobRequest

    return JobRequest(
        kind=JobKind.SNAPSHOTS,
        config=_series_config(seed, snapshots),
        priority=priority,
    )


def _daemon(tmp_path, **kwargs):
    from repro.config import ServeConfig
    from repro.serve.daemon import AuditDaemon

    defaults = dict(
        port=0, state_dir=str(tmp_path / "state"), workers=2,
        max_active_jobs=2,
    )
    defaults.update(kwargs)
    daemon = AuditDaemon(ServeConfig(**defaults))
    daemon.start()
    return daemon


# ----------------------------------------------------------------------
# The scheduler directly: stop semantics
# ----------------------------------------------------------------------
class TestSchedulerStop:
    def test_stop_between_snapshots_keeps_completed_prefix(self, tmp_path):
        from repro.runtime import events as ev
        from repro.runtime.scheduler import LongitudinalScheduler

        stop = threading.Event()
        bus = ev.EventBus()
        bus.subscribe(
            lambda e: stop.set()
            if isinstance(e, ev.StudyFinished)
            else None
        )
        scheduler = LongitudinalScheduler(
            _series_config(snapshots=3, checkpoint_dir=str(tmp_path / "ckpt")),
            bus=bus,
            stop_event=stop,
        )
        report = scheduler.run()
        assert report.interrupted
        assert len(report.snapshots) == 1
        # Round-trip: what the store persists is reconstructible.
        from repro.codec import from_jsonable
        from repro.runtime.scheduler import LongitudinalReport

        parsed = from_jsonable(LongitudinalReport, report.to_dict())
        assert parsed.interrupted
        assert len(parsed.snapshots) == 1
        assert "[interrupted]" in report.summary()

    def test_preset_stop_yields_empty_interrupted_report(self):
        from repro.runtime.scheduler import LongitudinalScheduler

        stop = threading.Event()
        stop.set()
        report = LongitudinalScheduler(_series_config(), stop_event=stop).run()
        assert report.interrupted
        assert report.snapshots == []

    def test_mid_snapshot_stop_marks_interrupted(self, tmp_path):
        """A stop landing inside a snapshot (not between) must surface as
        an interrupted report with the partial snapshot's units committed."""
        from repro.runtime import events as ev
        from repro.runtime.scheduler import LongitudinalScheduler

        stop = threading.Event()
        bus = ev.EventBus()
        bus.subscribe(
            lambda e: stop.set()
            if isinstance(e, ev.UnitFinished)
            else None
        )
        scheduler = LongitudinalScheduler(
            _series_config(checkpoint_dir=str(tmp_path / "ckpt")),
            bus=bus,
            stop_event=stop,
        )
        report = scheduler.run()
        assert report.interrupted
        assert report.snapshots == []  # snapshot 1 never finished
        journal = tmp_path / "ckpt" / "snapshot-00" / "units.jsonl"
        assert journal.exists()  # ...but its first unit committed

    def test_interrupted_series_resumes_from_snapshot_checkpoints(
        self, tmp_path
    ):
        from repro.runtime import events as ev
        from repro.runtime.scheduler import LongitudinalScheduler

        stop = threading.Event()
        bus = ev.EventBus()
        bus.subscribe(
            lambda e: stop.set()
            if isinstance(e, ev.StudyFinished)
            else None
        )
        config = _series_config(checkpoint_dir=str(tmp_path / "ckpt"))
        LongitudinalScheduler(config, bus=bus, stop_event=stop).run()

        resumed_bus = ev.EventBus()
        stats = ev.StatsCollector()
        resumed_bus.subscribe(stats)
        report = LongitudinalScheduler(config, bus=resumed_bus).run()
        assert not report.interrupted
        assert len(report.snapshots) == 2
        # Snapshot 1's units came from its checkpoint, not re-execution.
        assert stats.stats.skipped_units >= 2

        clean = LongitudinalScheduler(_series_config()).run()
        assert [s.verdicts for s in report.snapshots] == (
            [s.verdicts for s in clean.snapshots]
        )


# ----------------------------------------------------------------------
# Under the daemon
# ----------------------------------------------------------------------
class TestSeriesJobs:
    def test_series_job_completes_with_snapshot_report(self, tmp_path):
        from repro.serve.client import ServeClient

        daemon = _daemon(tmp_path)
        try:
            client = ServeClient(daemon.endpoint)
            reply = client.submit(_series_request())
            final = client.wait(reply.job_id, timeout_s=300)
            assert final.record.state.value == "completed"
            assert final.progress["snapshots_completed"] == 2

            report = client.result(reply.job_id, "report")
            assert len(report["snapshots"]) == 2
            assert report["interrupted"] is False
            assert [s["index"] for s in report["snapshots"]] == [0, 1]
        finally:
            daemon.shutdown()

    def test_tick_submitted_while_previous_runs_dedups(self, tmp_path):
        """Overlapping snapshot ticks: the second submission of the same
        series must join the running job, not queue a twin."""
        from repro.serve.client import ServeClient

        daemon = _daemon(tmp_path)
        try:
            client = ServeClient(daemon.endpoint)
            first = client.submit(_series_request())
            # Fire the "next tick" immediately — the first is still
            # queued or running either way.
            second = client.submit(_series_request())
            assert second.deduplicated
            assert second.job_id == first.job_id
            final = client.wait(first.job_id, timeout_s=300)
            assert final.record.state.value == "completed"
            # Exactly one job exists for the two ticks.
            assert len(client.jobs()) == 1
        finally:
            daemon.shutdown()

    def test_two_distinct_series_run_concurrently(self, tmp_path):
        from repro.serve.client import ServeClient

        daemon = _daemon(tmp_path)
        try:
            client = ServeClient(daemon.endpoint)
            a = client.submit(_series_request(seed=2018))
            b = client.submit(_series_request(seed=2019))
            assert a.job_id != b.job_id
            final_a = client.wait(a.job_id, timeout_s=300)
            final_b = client.wait(b.job_id, timeout_s=300)
            assert final_a.record.state.value == "completed"
            assert final_b.record.state.value == "completed"
            report_a = client.result(a.job_id, "report")
            report_b = client.result(b.job_id, "report")
            assert len(report_a["snapshots"]) == 2
            assert len(report_b["snapshots"]) == 2
        finally:
            daemon.shutdown()

    def test_daemon_shutdown_mid_series_requeues_and_resumes(self, tmp_path):
        """Drain while a series runs: the partial report persists, the job
        re-queues, and the next daemon finishes the series."""
        from repro.serve.client import ServeClient
        from repro.serve.store import ResultStore

        daemon = _daemon(tmp_path, workers=1, max_active_jobs=1)
        client = ServeClient(daemon.endpoint)
        job_id = client.submit(_series_request(snapshots=3)).job_id

        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            status = client.status(job_id)
            if status.progress.get("completed_units", 0) >= 1:
                break
            if status.record.terminal:
                break
            time.sleep(0.05)
        daemon.shutdown(drain=True)

        persisted = {
            r.job_id: r
            for r in ResultStore(daemon.config.state_dir).load_records()
        }[job_id]
        interrupted = persisted.state.value == "queued"

        successor = _daemon(tmp_path, workers=1, max_active_jobs=1)
        try:
            final = ServeClient(successor.endpoint).wait(
                job_id, timeout_s=300
            )
            assert final.record.state.value == "completed"
            assert final.progress["snapshots_completed"] == 3
            report = ServeClient(successor.endpoint).result(job_id, "report")
            assert len(report["snapshots"]) == 3
            assert report["interrupted"] is False
            if interrupted:
                # The successor skipped units the first daemon committed.
                assert final.progress["skipped_units"] >= 1
        finally:
            successor.shutdown()

    def test_cancel_running_series(self, tmp_path, monkeypatch):
        from repro.core.harness import TestSuite
        from repro.serve.client import ServeClient

        # The series' first unit waits until the cancel has returned, so
        # the job cannot finish before the cancel reaches it.
        cancelled = threading.Event()
        run_unit = TestSuite.run_unit

        def held_run_unit(suite, unit):
            cancelled.wait(timeout=60)
            return run_unit(suite, unit)

        monkeypatch.setattr(TestSuite, "run_unit", held_run_unit)
        daemon = _daemon(tmp_path, workers=1, max_active_jobs=1)
        try:
            client = ServeClient(daemon.endpoint)
            job_id = client.submit(_series_request(snapshots=3)).job_id
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if client.status(job_id).record.state.value == "running":
                    break
                time.sleep(0.02)
            try:
                reply = client.cancel(job_id)
            finally:
                cancelled.set()
            assert reply.record.state.value in {"running", "cancelled"}
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                state = client.status(job_id).record.state.value
                if state == "cancelled":
                    break
                time.sleep(0.05)
            assert state == "cancelled"
            # A cancelled series never dedups a fresh submission.
            fresh = client.submit(_series_request(snapshots=3))
            assert not fresh.deduplicated
            assert fresh.job_id != job_id
            client.wait(fresh.job_id, timeout_s=300)
        finally:
            daemon.shutdown()
