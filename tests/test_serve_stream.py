"""Service telemetry: event streaming, /metrics, and bus atomicity.

The streaming contract under test: ``GET /jobs/{id}/events`` delivers
the job's full EventBus history byte-for-byte (same events, same order,
same wire form), a watcher that disconnects mid-run reattaches at its
cursor with no gap or duplicate, and a terminal reply guarantees the
stream was complete.  Around it: the daemon's Prometheus exposition
parses and carries the queue/store counters, and the EventBus replay
fix — subscribe-then-replay is atomic against concurrent publishers.
"""

import json
import threading
import time

import pytest

from tests.test_determinism import GOLDEN_STUDY_PROVIDERS


def _study_config(providers=None, **kwargs):
    from repro.config import StudyConfig

    return StudyConfig(
        seed=2018,
        providers=tuple(providers or GOLDEN_STUDY_PROVIDERS),
        max_vantage_points=2,
        **kwargs,
    )


def _request(kind="study", providers=None, **kwargs):
    from repro.serve.protocol import JobKind, JobRequest

    return JobRequest(kind=JobKind(kind), config=_study_config(providers, **kwargs))


@pytest.fixture
def daemon(tmp_path):
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
# Event serialization
# ----------------------------------------------------------------------
class TestEventWire:
    def test_round_trip_every_event_type(self):
        from repro.runtime import events as ev

        samples = [
            ev.StudyStarted(total_units=4, providers=2, vantage_points=3,
                            workers=2, resumed_units=1),
            ev.UnitStarted(unit_id="u", provider="p", kind="full",
                           index=1, total=4),
            ev.UnitFinished(unit_id="u", wall_ms=12.5, vantage_points=2,
                            queue_depth=3, connect_retries=1),
            ev.UnitRetried(unit_id="u", attempt=1, backoff_s=0.5,
                           error="boom"),
            ev.UnitFailed(unit_id="u", attempts=3, error="boom"),
            ev.UnitSkipped(unit_id="u", wall_ms=9.0),
            ev.StudyFinished(wall_s=1.0, completed=4, skipped=0,
                             failed=0, retried=1),
            ev.StudyHalted(completed=2, remaining=2),
            ev.UnitMetrics(unit_id="u", snapshot={"counters": {"x": 1}}),
            ev.StudyMetrics(snapshot={"counters": {"x": 1}}),
        ]
        for event in samples:
            wire = ev.event_to_dict(event)
            assert wire["event"] == type(event).__name__
            json.dumps(wire)  # must be JSON-safe
            assert ev.event_from_dict(wire) == event

    def test_unknown_and_untyped_events(self):
        from repro.runtime import events as ev

        assert ev.event_to_dict(object()) is None
        assert ev.event_from_dict({"event": "FutureEvent", "x": 1}) is None

    def test_seq_cursor_stripped_on_parse(self):
        from repro.runtime import events as ev

        wire = ev.event_to_dict(ev.StudyHalted(completed=1, remaining=2))
        wire["seq"] = 7
        assert ev.event_from_dict(wire) == ev.StudyHalted(
            completed=1, remaining=2
        )


# ----------------------------------------------------------------------
# EventBus atomic subscribe (the late-subscriber fix)
# ----------------------------------------------------------------------
class TestAtomicSubscribe:
    def test_late_subscriber_sees_every_event_exactly_once_in_order(self):
        from repro.runtime.events import EventBus

        bus = EventBus()
        total = 400
        stop = threading.Event()

        def publisher():
            for i in range(total):
                bus.publish(("event", i))
                if stop.is_set():
                    pass  # keep publishing; subscribers attach mid-flood

        thread = threading.Thread(target=publisher)
        thread.start()
        try:
            observed_lists = []
            for _ in range(16):
                observed = []
                bus.subscribe(observed.append)
                observed_lists.append(observed)
                time.sleep(0.001)
        finally:
            thread.join()
        assert bus.first_handler_error is None
        for observed in observed_lists:
            # No matter when the handler attached, the replay + live
            # handoff yields the exact prefix-free sequence 0..N-1.
            values = [i for _, i in observed]
            assert values == list(range(values[0], values[0] + len(values)))
            assert values[-1] == total - 1

    def test_replay_happens_before_live_delivery(self):
        from repro.runtime.events import EventBus

        bus = EventBus()
        bus.publish("a")
        bus.publish("b")
        seen = []
        bus.subscribe(seen.append)
        bus.publish("c")
        assert seen == ["a", "b", "c"]


# ----------------------------------------------------------------------
# EventLog (a served job's events.jsonl)
# ----------------------------------------------------------------------
class TestJobEventLog:
    def test_read_blocks_until_event_or_close(self, tmp_path):
        from repro.runtime import events as ev

        log = ev.EventLog(tmp_path / "events.jsonl")
        results = []

        def reader():
            results.append(log.read(0, wait_s=5.0))

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        log(ev.StudyHalted(completed=1, remaining=0))
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        events, closed = results[0]
        assert [e["event"] for e in events] == ["StudyHalted"]
        assert closed is False

        # After close, a read past the end returns immediately.
        log.close()
        started = time.monotonic()
        events, closed = log.read(1, wait_s=5.0)
        assert time.monotonic() - started < 1.0
        assert events == [] and closed is True

    def test_untyped_events_are_skipped(self, tmp_path):
        from repro.runtime.events import EventLog

        log = EventLog(tmp_path / "events.jsonl")
        log(object())
        assert log.read(0) == ([], False)
        log.close()
        assert (tmp_path / "events.jsonl").read_bytes() == b""

    def test_file_equals_reads_under_concurrent_publishers(self, tmp_path):
        """The file, read back, is the live reads record for record.

        Publishers outnumber the cores and switch every few microseconds,
        so a seq handed out twice, or a line written out of offset order,
        would show as a gap, a duplicate or a parse failure.
        """
        import sys

        from repro.runtime import events as ev

        log = ev.EventLog(tmp_path / "events.jsonl")
        live: list[dict] = []

        def publish(worker: int) -> None:
            for index in range(200):
                log(ev.UnitSkipped(unit_id=f"w{worker}-{index}", wall_ms=1.0))

        def follow() -> None:
            cursor = 0
            while True:
                records, closed = log.read(cursor, wait_s=1.0)
                live.extend(records)
                cursor += len(records)
                if closed and not records:
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            follower = threading.Thread(target=follow)
            follower.start()
            publishers = [
                threading.Thread(target=publish, args=(worker,))
                for worker in range(8)
            ]
            for thread in publishers:
                thread.start()
            for thread in publishers:
                thread.join(timeout=30)
            log.close()
            follower.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not follower.is_alive()
        assert not any(thread.is_alive() for thread in publishers)

        persisted = ev.read_events(tmp_path / "events.jsonl")
        assert [e["seq"] for e in persisted] == list(range(8 * 200))
        assert persisted == log.read(0)[0] == live
        assert len({e["unit_id"] for e in persisted}) == 8 * 200


# ----------------------------------------------------------------------
# The HTTP stream
# ----------------------------------------------------------------------
class TestEventStream:
    def test_watch_matches_bus_history_byte_for_byte(self, daemon, tmp_path):
        """The full-job HTTP stream equals a direct EventBus subscription.

        A reference run on a local executor with the same config collects
        the bus events directly; the daemon's stream must serialize to
        the identical JSON line sequence (modulo the seq cursor and the
        wall-clock fields that differ between any two runs).
        """
        from repro.runtime import events as ev
        from repro.serve.client import ServeClient

        client = ServeClient(daemon.endpoint)
        job = client.submit(_request()).job_id
        streamed = []
        final = client.watch(job, streamed.append, timeout_s=300)
        assert final.terminal and final.state.value == "completed"

        # Stream vs the persisted log: byte-for-byte.  Persistence
        # happens in the runner's finally, a beat after the record goes
        # terminal — wait for it.
        deadline = time.monotonic() + 30
        persisted = daemon.store.load_events(job)
        while not persisted and time.monotonic() < deadline:
            time.sleep(0.02)
            persisted = daemon.store.load_events(job)
        assert [json.dumps(e, sort_keys=True) for e in streamed] == [
            json.dumps(e, sort_keys=True) for e in persisted
        ]

        # Shape: starts with StudyStarted, ends with StudyFinished,
        # cursors are the contiguous sequence 0..N-1.
        assert streamed[0]["event"] == "StudyStarted"
        assert streamed[-1]["event"] == "StudyFinished"
        assert [e["seq"] for e in streamed] == list(range(len(streamed)))

        # Deterministic skeleton vs a direct in-process bus subscription
        # of the same work: same event types for the same unit ids.
        from repro.runtime.executor import StudyExecutor

        bus = ev.EventBus()
        direct = []
        bus.subscribe(direct.append, replay=False)
        StudyExecutor(
            seed=2018,
            providers=list(GOLDEN_STUDY_PROVIDERS),
            max_vantage_points=2,
            workers=2,
            backend="thread",
            bus=bus,
        ).run()

        def skeleton(records):
            out = []
            for r in records:
                if isinstance(r, dict):
                    out.append((r["event"], r.get("unit_id")))
                else:
                    out.append(
                        (type(r).__name__, getattr(r, "unit_id", None))
                    )
            # Metric snapshots and resource telemetry are wall-clock
            # cadenced (the daemon's per-job sampler ticks on real time),
            # so only the deterministic work skeleton is comparable.
            return sorted(
                (kind, unit) for kind, unit in out
                if kind not in (
                    "UnitMetrics",
                    "StudyMetrics",
                    "ResourceSample",
                    "WorkerSample",
                )
            )

        assert skeleton(streamed) == skeleton(direct)

    def test_midstream_disconnect_and_reattach_sees_no_gap(self, daemon):
        from repro.serve.client import ServeClient

        client = ServeClient(daemon.endpoint)
        job = client.submit(_request()).job_id

        # First watcher "dies" after a few events: just stop polling.
        first = client.events(job, since=0, wait_s=10.0)
        cursor = first.next

        # A second watcher reattaches at the dropped cursor and drains.
        rest = []
        final = client.watch(job, rest.append, since=cursor, timeout_s=300)
        assert final.terminal

        whole = list(first.events) + rest
        assert [e["seq"] for e in whole] == list(range(len(whole)))
        assert whole[-1]["event"] == "StudyFinished"
        # And equals the from-zero replay exactly.
        replay = client.events(job, since=0)
        assert [json.dumps(e, sort_keys=True) for e in replay.events] == [
            json.dumps(e, sort_keys=True) for e in whole
        ]

    def test_cancellation_terminates_stream_with_terminal_state(
        self, daemon
    ):
        from repro.serve.client import ServeClient
        from repro.serve.protocol import JobState

        client = ServeClient(daemon.endpoint)
        # All 62 providers: long enough to cancel mid-run.
        job = client.submit(_request_all()).job_id
        # Wait for it to actually start producing events.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if client.events(job, since=0, wait_s=1.0).events:
                break
        client.cancel(job)

        seen = []
        final = client.watch(job, seen.append, timeout_s=300)
        assert final.terminal
        assert final.state in (JobState.CANCELLED, JobState.COMPLETED)
        # The stream ended; polling past the cursor yields nothing new.
        again = client.events(job, since=final.next, wait_s=0.5)
        assert again.events == () and again.terminal

    def test_stream_survives_daemon_restart(self, tmp_path):
        """A terminal job's stream replays from disk after a restart."""
        from repro.config import ServeConfig
        from repro.serve.client import ServeClient
        from repro.serve.daemon import AuditDaemon

        config = ServeConfig(
            port=0, state_dir=str(tmp_path / "state"), workers=2
        )
        first = AuditDaemon(config)
        first.start()
        try:
            client = ServeClient(first.endpoint)
            job = client.submit(_request()).job_id
            events = []
            client.watch(job, events.append, timeout_s=300)
        finally:
            first.shutdown()

        second = AuditDaemon(config)
        second.start()
        try:
            client = ServeClient(second.endpoint)
            replay = client.events(job, since=0)
            assert replay.terminal
            assert [json.dumps(e, sort_keys=True) for e in replay.events] \
                == [json.dumps(e, sort_keys=True) for e in events]
        finally:
            second.shutdown()


def _request_all():
    """A study over every provider — slow enough to cancel mid-flight."""
    from repro.config import StudyConfig
    from repro.serve.protocol import JobKind, JobRequest

    return JobRequest(
        kind=JobKind.STUDY,
        config=StudyConfig(seed=2018, providers=None, max_vantage_points=2),
    )


# ----------------------------------------------------------------------
# GET /metrics
# ----------------------------------------------------------------------
class TestMetricsEndpoint:
    def test_exposition_parses_and_carries_serve_counters(self, daemon):
        from repro.obs.export import parse_exposition
        from repro.serve.client import ServeClient

        client = ServeClient(daemon.endpoint)
        job = client.submit(_request()).job_id
        client.wait(job, timeout_s=300)

        families = parse_exposition(client.metrics_text())
        assert families["repro_serve_jobs_submitted_total"][0][1] == 1
        assert families["repro_serve_jobs_completed_total"][0][1] == 1
        assert families["repro_serve_queue_depth"][0][1] == 0
        assert families["repro_serve_uptime_s"][0][1] > 0
        assert families["repro_serve_store_writes_total"][0][1] > 0
        assert families["repro_serve_store_bytes_written_total"][0][1] > 0
        # Histograms expose a cumulative bucket series ending at +Inf
        # whose count equals the _count sample.
        buckets = families["repro_serve_job_wall_s_bucket"]
        les = [labels["le"] for labels, _ in buckets]
        assert les[-1] == "+Inf"
        inf_count = buckets[-1][1]
        assert inf_count == families["repro_serve_job_wall_s_count"][0][1]
        values = [value for _, value in buckets]
        assert values == sorted(values)  # cumulative

    def test_job_wall_time_is_scraped_as_soon_as_the_job_resolves(
        self, daemon, monkeypatch
    ):
        """The wall-time histogram lands before the job turns terminal.

        Closing the event log is held until the test has scraped, so a
        histogram observed after it would be missing from the scrape.
        """
        from repro.obs.export import parse_exposition
        from repro.runtime.events import EventLog
        from repro.serve.client import ServeClient

        scraped = threading.Event()
        close = EventLog.close

        def held_close(log):
            scraped.wait(timeout=60)
            close(log)

        monkeypatch.setattr(EventLog, "close", held_close)
        client = ServeClient(daemon.endpoint)
        job = client.submit(_request(providers=["Seed4.me"])).job_id
        try:
            client.wait(job, timeout_s=300)
            families = parse_exposition(client.metrics_text())
        finally:
            scraped.set()
        assert "repro_serve_job_wall_s_bucket" in families
        assert families["repro_serve_job_wall_s_count"][0][1] == 1

    def test_scrape_during_run_includes_job_obs_metrics(self, daemon):
        from repro.obs.config import ObsConfig
        from repro.obs.export import parse_exposition
        from repro.serve.client import ServeClient

        client = ServeClient(daemon.endpoint)
        job = client.submit(
            _request(obs=ObsConfig(metrics=True))
        ).job_id
        # Scrape repeatedly while the job runs; the exposition must
        # always parse, whatever instant it lands on.  (Whether a scrape
        # catches the running job's obs counters is timing-dependent —
        # the invariant is that every scrape is well-formed.)
        deadline = time.monotonic() + 300
        while time.monotonic() < deadline:
            parse_exposition(client.metrics_text())
            state = client.status(job).record.state.value
            if state in ("completed", "failed", "cancelled"):
                break
            time.sleep(0.05)
        assert client.status(job).record.state.value == "completed"


class TestDedupMetric:
    def test_dedup_hit_counter(self, daemon):
        from repro.serve.client import ServeClient

        client = ServeClient(daemon.endpoint)
        first = client.submit(_request())
        second = client.submit(_request())
        assert second.deduplicated and second.job_id == first.job_id
        registry = daemon.metrics_registry()
        snapshot = registry.snapshot()
        assert snapshot["counters"]["serve.jobs.dedup_hits"] == 1
        client.wait(first.job_id, timeout_s=300)
