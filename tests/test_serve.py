"""The audit service: protocol, queue, store, and the HTTP daemon E2E.

The headline property (the issue's acceptance bar): a study submitted as
``POST /jobs`` must produce an archive byte-identical to the one-shot
``repro study`` run — same golden fingerprint, fetched over HTTP.  Around
it, the service-level contracts: priority with FIFO ties, dedup of active
work, durable job records, crash-resume after a daemon restart, and two
concurrent jobs sharing one worker pool while staying independently
fetchable.
"""

import json
import threading
import time

import pytest

from tests.test_determinism import (
    GOLDEN_STUDY_FINGERPRINT,
    GOLDEN_STUDY_PROVIDERS,
)


def _study_config(providers=None, **kwargs):
    from repro.config import StudyConfig

    return StudyConfig(
        seed=2018,
        providers=tuple(providers or GOLDEN_STUDY_PROVIDERS),
        max_vantage_points=2,
        **kwargs,
    )


def _request(kind="study", providers=None, priority=0, label=None, **kwargs):
    from repro.serve.protocol import JobKind, JobRequest

    return JobRequest(
        kind=JobKind(kind),
        config=_study_config(providers, **kwargs),
        priority=priority,
        label=label,
    )


@pytest.fixture
def daemon(tmp_path):
    """An in-process daemon on an ephemeral port, torn down after."""
    from repro.config import ServeConfig
    from repro.serve.daemon import AuditDaemon

    daemon = AuditDaemon(ServeConfig(
        port=0,
        state_dir=str(tmp_path / "state"),
        workers=2,
        max_active_jobs=2,
    ))
    daemon.start()
    yield daemon
    daemon.shutdown()


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_job_request_round_trip(self):
        from repro.serve.protocol import JobRequest

        request = _request(priority=3, label="nightly")
        parsed = JobRequest.from_dict(
            json.loads(json.dumps(request.to_dict()))
        )
        assert parsed == request

    def test_job_record_round_trip(self):
        from repro.serve.protocol import JobRecord, JobState

        record = JobRecord(
            job_id="job-00001-aa",
            request=_request(),
            state=JobState.RUNNING,
            sequence=7,
            progress={"completed_units": 2},
        )
        assert JobRecord.from_dict(record.to_dict()) == record

    def test_version_mismatch_rejected(self):
        from repro.serve.protocol import JobRequest, ProtocolError

        payload = _request().to_dict()
        payload["version"] = 99
        with pytest.raises(ProtocolError, match="protocol version"):
            JobRequest.from_dict(payload)

    def test_unknown_kind_rejected(self):
        from repro.serve.protocol import JobRequest, ProtocolError

        payload = _request().to_dict()
        payload["kind"] = "demolish"
        with pytest.raises(ProtocolError, match="unknown job kind"):
            JobRequest.from_dict(payload)

    def test_recheck_requires_exactly_one_provider(self):
        from repro.serve.protocol import ProtocolError

        with pytest.raises(ProtocolError, match="exactly one provider"):
            _request(kind="recheck")  # three providers

    def test_snapshots_requires_at_least_two(self):
        from repro.serve.protocol import ProtocolError

        with pytest.raises(ProtocolError, match="snapshots >= 2"):
            _request(kind="snapshots", snapshots=1)

    def test_fingerprint_ignores_priority_and_label(self):
        a = _request(priority=0, label=None)
        b = _request(priority=9, label="urgent")
        c = _request(providers=["Seed4.me"])
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


_CONFIG = {"providers": ["Seed4.me"], "max_vantage_points": 1}

#: Submissions that do not parse (a value of the wrong JSON type, a
#: provider name outside the catalogue), and what each rejection must name.
MISTYPED_SUBMISSIONS = {
    "priority-string": (
        {"kind": "study", "config": _CONFIG, "priority": "high"}, "priority"
    ),
    "priority-null": (
        {"kind": "study", "config": _CONFIG, "priority": None}, "priority"
    ),
    "array-body": ([{"kind": "study", "config": _CONFIG}], "JSON object"),
    "providers-string": (
        {"kind": "study", "config": {"providers": "Seed4.me"}},
        "config.providers",
    ),
    "workers-float": (
        {"kind": "study", "config": dict(_CONFIG, workers=2.5)},
        "config.workers",
    ),
    "label-list": (
        {"kind": "study", "config": _CONFIG, "label": ["x"]}, "label"
    ),
    "providers-unknown": (
        {"kind": "study", "config": {"providers": ["NoSuchVPN"]}},
        "NoSuchVPN",
    ),
}


class TestMistypedSubmissions:
    """A mistyped submission is a ProtocolError naming the field — and an
    HTTP 400 ``bad_request`` — never a traceback or a silent coercion."""

    @pytest.mark.parametrize(
        "payload,field", MISTYPED_SUBMISSIONS.values(),
        ids=list(MISTYPED_SUBMISSIONS),
    )
    def test_rejected_naming_the_field(self, payload, field):
        from repro.serve.protocol import JobRequest, ProtocolError

        with pytest.raises(ProtocolError, match=field.replace(".", r"\.")):
            JobRequest.from_dict(json.loads(json.dumps(payload)))

    def test_live_post_gets_400_bad_request(self):
        import http.client

        from repro.serve.httpapi import build_server

        class IdleDaemon:
            draining = False

            def log_http(self, line):
                pass

        server = build_server(IdleDaemon(), "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            for payload, field in MISTYPED_SUBMISSIONS.values():
                conn = http.client.HTTPConnection(
                    "127.0.0.1", server.server_address[1], timeout=10
                )
                conn.request(
                    "POST", "/jobs", body=json.dumps(payload),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                body = json.loads(response.read())
                conn.close()
                assert response.status == 400
                assert body["error"] == "bad_request"
                assert field in body["detail"]
        finally:
            server.shutdown()
            server.server_close()


# ----------------------------------------------------------------------
# Queue
# ----------------------------------------------------------------------
class TestJobQueue:
    def test_priority_order_with_fifo_ties(self):
        from repro.serve.jobs import JobQueue

        queue = JobQueue()
        low_first, _ = queue.submit(_request(providers=["Seed4.me"]))
        low_second, _ = queue.submit(_request(providers=["PureVPN"]))
        high, _ = queue.submit(_request(providers=["MyIP.io"], priority=5))
        order = [queue.claim(timeout=0).job_id for _ in range(3)]
        assert order == [high.job_id, low_first.job_id, low_second.job_id]

    def test_dedup_active_but_not_terminal(self):
        from repro.serve.jobs import JobQueue
        from repro.serve.protocol import JobState

        queue = JobQueue()
        first, deduplicated = queue.submit(_request())
        assert not deduplicated
        again, deduplicated = queue.submit(_request(priority=2))
        assert deduplicated and again.job_id == first.job_id

        claimed = queue.claim(timeout=0)
        _, deduplicated = queue.submit(_request())
        assert deduplicated  # running still dedups

        queue.resolve(claimed.job_id, JobState.COMPLETED)
        fresh, deduplicated = queue.submit(_request())
        assert not deduplicated  # re-measuring finished work is the point
        assert fresh.job_id != first.job_id

    def test_cancel_queued_and_stale_heap_entry(self):
        from repro.serve.jobs import JobQueue
        from repro.serve.protocol import JobState

        queue = JobQueue()
        doomed, _ = queue.submit(_request(providers=["Seed4.me"]))
        kept, _ = queue.submit(_request(providers=["PureVPN"]))
        cancelled = queue.cancel_queued(doomed.job_id)
        assert cancelled.state is JobState.CANCELLED
        assert queue.claim(timeout=0).job_id == kept.job_id
        assert queue.claim(timeout=0) is None

    def test_claim_timeout_returns_none(self):
        from repro.serve.jobs import JobQueue

        assert JobQueue().claim(timeout=0.01) is None

    def test_every_transition_fires_on_change(self):
        from repro.serve.jobs import JobQueue
        from repro.serve.protocol import JobState

        seen = []
        queue = JobQueue(on_change=lambda r: seen.append(r.state))
        record, _ = queue.submit(_request())
        queue.claim(timeout=0)
        queue.resolve(record.job_id, JobState.COMPLETED)
        assert seen == [
            JobState.QUEUED, JobState.RUNNING, JobState.COMPLETED
        ]

    def test_restore_requeues_non_terminal(self):
        from repro.serve.jobs import JobQueue
        from repro.serve.protocol import JobRecord, JobState

        queue = JobQueue()
        running = JobRecord(
            job_id="job-00003-old",
            request=_request(),
            state=JobState.RUNNING,
            sequence=3,
        )
        done = JobRecord(
            job_id="job-00002-fin",
            request=_request(providers=["Seed4.me"]),
            state=JobState.COMPLETED,
            sequence=2,
        )
        queue.restore(running)
        queue.restore(done)
        assert queue.get("job-00003-old").state is JobState.QUEUED
        assert queue.get("job-00002-fin").state is JobState.COMPLETED
        assert queue.claim(timeout=0).job_id == "job-00003-old"
        # New submissions sequence after the restored record.
        fresh, _ = queue.submit(_request(providers=["PureVPN"]))
        assert fresh.sequence > 3


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
class TestResultStore:
    def test_records_survive_a_new_store_instance(self, tmp_path):
        from repro.serve.jobs import JobQueue
        from repro.serve.store import ResultStore

        store = ResultStore(tmp_path)
        queue = JobQueue(
            on_change=store.save_record, make_job_id=store.next_job_id
        )
        record, _ = queue.submit(_request())
        queue.claim(timeout=0)

        reloaded = ResultStore(tmp_path).load_records()
        assert [r.job_id for r in reloaded] == [record.job_id]
        assert reloaded[0].state.value == "running"

    def test_unreadable_record_skipped(self, tmp_path):
        from repro.serve.store import ResultStore

        store = ResultStore(tmp_path)
        bad = store.job_dir("job-00009-corrupt")
        bad.mkdir(parents=True)
        (bad / "job.json").write_text("{half a record")
        assert store.load_records() == []

    def test_a_write_torn_partway_leaves_the_previous_record(
        self, tmp_path, monkeypatch
    ):
        """A daemon killed mid-write must not lose the job from its queue."""
        import pathlib

        from repro.serve.protocol import JobRecord, JobState
        from repro.serve.store import ResultStore

        store = ResultStore(tmp_path)
        record = JobRecord(
            job_id="job-00001-torn", request=_request(), state=JobState.QUEUED
        )
        store.save_record(record)
        real_write_text = pathlib.Path.write_text

        def write_half_then_die(path, text, *args, **kwargs):
            real_write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError("killed mid-write")

        monkeypatch.setattr(pathlib.Path, "write_text", write_half_then_die)
        with pytest.raises(OSError, match="killed mid-write"):
            store.save_record(record.advance(JobState.RUNNING))
        monkeypatch.undo()
        (reloaded,) = ResultStore(tmp_path).load_records()
        assert reloaded == record

    def test_job_ids_monotonic_across_restarts(self, tmp_path):
        from repro.serve.store import ResultStore

        first = ResultStore(tmp_path).next_job_id(1, _request())
        # A fresh store (daemon restart) must never reuse the number even
        # when the in-memory sequence restarts from 1.
        second = ResultStore(tmp_path).next_job_id(1, _request())
        assert first.split("-")[1] != second.split("-")[1]

    def test_unknown_result_name_raises(self, tmp_path):
        from repro.serve.store import ResultStore

        with pytest.raises(KeyError):
            ResultStore(tmp_path).result("job-x", "telemetry")

    def test_prune_skips_non_terminal_jobs(self, tmp_path):
        from repro.serve.protocol import JobRecord, JobState
        from repro.serve.store import ResultStore

        store = ResultStore(tmp_path)
        for job_id, state in [
            ("job-00001-run", JobState.RUNNING),
            ("job-00002-don", JobState.COMPLETED),
        ]:
            ckpt = store.archive_dir(job_id)
            ckpt.mkdir(parents=True)
            (ckpt / "units.jsonl").write_text("{}\n")
            store.save_record(JobRecord(
                job_id=job_id, request=_request(), state=state
            ))
        pruned = store.prune_checkpoints()
        assert set(pruned) == {"job-00002-don"}
        assert store.archive_dir("job-00001-run").exists()
        assert not store.archive_dir("job-00002-don").exists()

    def test_prune_removes_a_checkpoint_tree_of_the_old_layout(
        self, tmp_path
    ):
        """A state directory written before the archive was the
        checkpoint keeps ``jobs/<id>/checkpoint/`` (``plan.json``, the
        journal and ``results/``); prune removes it and counts its files."""
        from repro.serve.protocol import JobRecord, JobState
        from repro.serve.store import ResultStore

        store = ResultStore(tmp_path)
        job_id = "job-00001-old"
        store.save_record(JobRecord(
            job_id=job_id, request=_request(), state=JobState.COMPLETED
        ))
        old = store.job_dir(job_id) / "checkpoint"
        (old / "results" / "seed4_me").mkdir(parents=True)
        (old / "plan.json").write_text("{}\n")
        (old / "units.jsonl").write_text("{}\n")
        (old / "results" / "seed4_me" / "vp1.json").write_text("{}\n")

        assert store.prune_checkpoints() == {job_id: 3}
        assert not old.exists()
        assert (store.job_dir(job_id) / "job.json").exists()


# ----------------------------------------------------------------------
# The daemon over HTTP
# ----------------------------------------------------------------------
class TestDaemonHttp:
    def test_study_job_matches_golden_fingerprint(self, daemon):
        """POST /jobs -> archive byte-identical to one-shot repro study."""
        from repro.serve.client import ServeClient

        client = ServeClient(daemon.endpoint)
        reply = client.submit(_request())
        final = client.wait(reply.job_id, timeout_s=300)
        assert final.record.state.value == "completed"
        assert final.progress["archive_fingerprint"] == (
            GOLDEN_STUDY_FINGERPRINT
        )
        fetched = client.result(reply.job_id, "fingerprint")
        assert fetched["fingerprint"] == GOLDEN_STUDY_FINGERPRINT
        # Every advertised result document is fetchable.
        for name in final.results:
            assert client.result(reply.job_id, name) is not None

    def test_two_concurrent_jobs_share_pool_and_stay_separate(self, daemon):
        from repro.serve.client import ServeClient

        client = ServeClient(daemon.endpoint)
        a = client.submit(_request(providers=["Seed4.me", "PureVPN"]))
        b = client.submit(_request(providers=["MyIP.io"]))
        assert a.job_id != b.job_id

        final_a = client.wait(a.job_id, timeout_s=300)
        final_b = client.wait(b.job_id, timeout_s=300)
        assert final_a.record.state.value == "completed"
        assert final_b.record.state.value == "completed"

        report_a = client.result(a.job_id, "report")
        report_b = client.result(b.job_id, "report")
        assert sorted(report_a["providers"]) == ["PureVPN", "Seed4.me"]
        assert sorted(report_b["providers"]) == ["MyIP.io"]
        # One shared pool, by construction: the scheduler owns the only
        # ThreadPoolExecutor, sized to the configured worker count.
        assert daemon.scheduler.pool._max_workers == daemon.config.workers

    def test_dedup_over_http(self, daemon):
        from repro.serve.client import ServeClient

        client = ServeClient(daemon.endpoint)
        first = client.submit(_request(label="one"))
        again = client.submit(_request(label="two"))
        assert again.deduplicated
        assert again.job_id == first.job_id
        client.wait(first.job_id, timeout_s=300)

    def test_error_paths(self, daemon):
        import urllib.request

        from repro.serve.client import ServeClient, ServeError

        client = ServeClient(daemon.endpoint)
        with pytest.raises(ServeError) as err:
            client.status("job-99999-missing")
        assert err.value.status == 404 and err.value.error == "unknown_job"

        record = client.submit(_request())
        with pytest.raises(ServeError) as err:
            client.result(record.job_id, "telemetry")
        assert err.value.error == "unknown_result"

        payload = _request().to_dict()
        payload["kind"] = "demolish"
        request = urllib.request.Request(
            daemon.endpoint + "/jobs",
            data=json.dumps(payload).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400

        health = client.health()
        assert health["status"] == "ok"
        client.wait(record.job_id, timeout_s=300)

    def test_healthz_reports_uptime_and_queue_shape(self, daemon):
        from repro.serve.client import ServeClient
        from repro.serve.protocol import PROTOCOL_VERSION

        client = ServeClient(daemon.endpoint)
        job = client.submit(_request()).job_id
        health = client.health()
        assert health["protocol_version"] == PROTOCOL_VERSION
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0
        # The submitted job is either still queued or already running.
        assert health["queue_depth"] + health["active_jobs"] >= 1
        assert health["queue_depth"] == health["jobs"]["queued"]
        assert health["active_jobs"] == health["jobs"]["running"]

        client.wait(job, timeout_s=300)
        health = client.health()
        assert health["terminal_jobs"] == 1
        assert health["active_jobs"] == 0

    def test_cancel_queued_job(self, tmp_path):
        """With max_active_jobs=1 the second submission stays queued and
        can be cancelled before it ever runs."""
        from repro.config import ServeConfig
        from repro.serve.client import ServeClient
        from repro.serve.daemon import AuditDaemon

        daemon = AuditDaemon(ServeConfig(
            port=0,
            state_dir=str(tmp_path / "state"),
            workers=2,
            max_active_jobs=1,
        ))
        daemon.start()
        try:
            client = ServeClient(daemon.endpoint)
            running = client.submit(_request())
            queued = client.submit(_request(providers=["Seed4.me"]))
            reply = client.cancel(queued.job_id)
            assert reply.record.state.value == "cancelled"
            final = client.wait(running.job_id, timeout_s=300)
            assert final.record.state.value == "completed"
        finally:
            daemon.shutdown()

    def test_cancel_between_claim_and_runner_start(self, daemon, monkeypatch):
        """A job already claimed (running) whose runner thread has not
        started yet still cancels, instead of reading as terminal."""
        from repro.serve.client import ServeClient

        scheduler = daemon.scheduler
        claimed, release = threading.Event(), threading.Event()
        run_job = scheduler._run_job

        def held_run_job(record):
            claimed.set()
            release.wait(timeout=60)
            run_job(record)

        monkeypatch.setattr(scheduler, "_run_job", held_run_job)
        client = ServeClient(daemon.endpoint)
        job = client.submit(_request(providers=["Seed4.me"])).job_id
        assert claimed.wait(timeout=60)
        try:
            reply = client.cancel(job)
        finally:
            release.set()
        assert reply.record.state.value == "running"
        final = client.wait(job, timeout_s=300)
        assert final.record.state.value == "cancelled"

    def test_recheck_job_stores_queryable_trace(self, daemon):
        from repro.serve.client import ServeClient

        client = ServeClient(daemon.endpoint)
        reply = client.submit(_request(kind="recheck", providers=["Seed4.me"]))
        final = client.wait(reply.job_id, timeout_s=300)
        assert final.record.state.value == "completed"

        evidence = client.result(reply.job_id, "evidence")
        assert "Seed4.me" in evidence

        trace = client.trace_query(reply.job_id, "kind=packet_send")
        assert trace.total_records > 0
        assert trace.matches

    def test_draining_daemon_refuses_submissions(self, daemon):
        from repro.serve.client import ServeClient, ServeError

        client = ServeClient(daemon.endpoint)
        daemon._draining.set()  # as shutdown() does, before HTTP stops
        try:
            with pytest.raises(ServeError) as err:
                client.submit(_request())
            assert err.value.status == 503
        finally:
            daemon._draining.clear()


# ----------------------------------------------------------------------
# The job's archive is its checkpoint
# ----------------------------------------------------------------------
class TestServedArchiveIsTheCheckpoint:
    def test_served_study_writes_each_result_once(
        self, tmp_path, monkeypatch
    ):
        """A served study records every vantage point once, into its
        archive; kept checkpoints are the archive's pin and journal."""
        import repro.core.archive as archive_module
        from repro.config import ServeConfig
        from repro.serve.client import ServeClient
        from repro.serve.daemon import AuditDaemon

        written = []
        write_results_file = archive_module._write_results_file

        def counting(results, directory):
            written.append(results.hostname)
            return write_results_file(results, directory)

        monkeypatch.setattr(archive_module, "_write_results_file", counting)
        daemon = AuditDaemon(ServeConfig(
            port=0, state_dir=str(tmp_path / "state"), workers=2,
            keep_checkpoints=True,
        ))
        daemon.start()
        try:
            client = ServeClient(daemon.endpoint)
            job_id = client.submit(_request(providers=["Seed4.me"])).job_id
            final = client.wait(job_id, timeout_s=300)
        finally:
            daemon.shutdown()
        assert final.record.state.value == "completed"

        job_dir = tmp_path / "state" / "jobs" / job_id
        archive = job_dir / "archive"
        assert (archive / "plan.pin").exists()
        assert (archive / "units.jsonl").exists()
        assert not (job_dir / "checkpoint").exists()
        results = [
            path for path in archive.glob("*/*.json")
            if path.name != "verdicts.json"
        ]
        assert results
        assert len(written) == len(set(written)) == len(results)


# ----------------------------------------------------------------------
# Drain + restart resume
# ----------------------------------------------------------------------
class TestDrainAndResume:
    def test_drained_job_resumes_on_restart_with_identical_archive(
        self, tmp_path
    ):
        """Kill the daemon mid-job; its successor must finish the job from
        the checkpoint and still hit the golden fingerprint."""
        from repro.config import ServeConfig
        from repro.serve.client import ServeClient
        from repro.serve.daemon import AuditDaemon

        config = ServeConfig(
            port=0, state_dir=str(tmp_path / "state"), workers=1,
        )
        first = AuditDaemon(config)
        first.start()
        client = ServeClient(first.endpoint)
        job_id = client.submit(_request()).job_id

        # Wait for at least one unit to commit, then drain mid-job.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            status = client.status(job_id)
            if status.progress.get("completed_units", 0) >= 1:
                break
            if status.record.terminal:
                break
            time.sleep(0.05)
        first.shutdown(drain=True)

        from repro.serve.store import ResultStore

        persisted = {
            r.job_id: r for r in ResultStore(config.state_dir).load_records()
        }[job_id]
        interrupted = persisted.state.value == "queued"
        if interrupted:  # the normal path; completed only if the job raced
            assert persisted.progress["completed_units"] >= 1

        second = AuditDaemon(config)
        second.start()
        try:
            final = ServeClient(second.endpoint).wait(job_id, timeout_s=300)
            assert final.record.state.value == "completed"
            assert final.progress["archive_fingerprint"] == (
                GOLDEN_STUDY_FINGERPRINT
            )
            if interrupted:
                # Proof the restart resumed instead of re-running: the
                # units the first daemon committed were skipped.
                assert final.progress["skipped_units"] >= 1
        finally:
            second.shutdown()

    def test_shutdown_with_idle_queue_is_clean(self, tmp_path):
        from repro.config import ServeConfig
        from repro.serve.daemon import AuditDaemon

        daemon = AuditDaemon(ServeConfig(
            port=0, state_dir=str(tmp_path / "state")
        ))
        daemon.start()
        daemon.shutdown()
        # Idempotent: a second shutdown is a no-op.
        daemon.shutdown()
