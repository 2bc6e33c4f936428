"""Runtime telemetry: the event log, the fold, and the serve top view.

The binding constraint everywhere: telemetry is a side channel.  The
golden-fingerprint test pins that a run with the ledger (an
``EventLog``), the dashboard and the resource sampler all attached
archives byte-identical output; the rest checks that the log records
what it claims and that all three views (local panel, ``repro ledger
show``, ``GET /jobs/{id}/top``) derive their numbers from the same event
stream through the same fold.
"""

import io
import json
import time

import pytest

from tests.test_determinism import (
    GOLDEN_STUDY_FINGERPRINT,
    GOLDEN_STUDY_PROVIDERS,
)


def _events():
    from repro.runtime import events as ev

    return ev


# ----------------------------------------------------------------------
# The event log as a ledger
# ----------------------------------------------------------------------
class TestRunLedger:
    def test_records_every_typed_event_with_seq(self, tmp_path):
        from repro.runtime import events as ev

        bus = ev.EventBus()
        ledger = ev.EventLog(tmp_path / "ledger.jsonl")
        bus.subscribe(ledger)
        published = [
            ev.StudyStarted(
                total_units=2, providers=1, vantage_points=2, workers=1,
            ),
            ev.UnitFinished(
                unit_id="u1", wall_ms=5.0, vantage_points=1, queue_depth=1,
            ),
            ev.ResourceSample(elapsed_s=0.1, rss_kb=1000),
            ev.WorkerSample(unit_id="u1", worker="w0", rss_kb=900),
            ev.UnitMetrics(unit_id="u1", snapshot={}),
            ev.StudyFinished(
                wall_s=1.0, completed=2, skipped=0, failed=0, retried=0,
            ),
        ]
        for event in published:
            bus.publish(event)
        bus.publish("untyped")  # no wire form: not recorded
        ledger.close()

        entries = ev.read_events(tmp_path / "ledger.jsonl")
        assert entries == [
            {**ev.event_to_dict(event), "seq": seq}
            for seq, event in enumerate(published)
        ]

    def test_read_ledger_skips_torn_tail(self, tmp_path):
        from repro.runtime.events import read_events

        path = tmp_path / "ledger.jsonl"
        path.write_text(
            '{"event":"ResourceSample","rss_kb":1,"seq":0}\n'
            '{"event":"ResourceSa'  # killed mid-write
        )
        entries = read_events(path)
        assert len(entries) == 1

    def test_summary_peaks_and_render(self):
        from repro.runtime.dashboard import render_top, state_from_events

        entries = [
            {"event": "StudyStarted", "total_units": 1, "providers": 1,
             "vantage_points": 1, "workers": 1},
            {"event": "ResourceSample", "elapsed_s": 0.1, "rss_kb": 100,
             "queue_depth": 4, "in_flight": 2, "shards_resident": 1,
             "suite_hits": 0, "suite_misses": 1},
            {"event": "ResourceSample", "elapsed_s": 0.2, "rss_kb": 300,
             "queue_depth": 1, "in_flight": 1, "shards_resident": 2,
             "suite_hits": 3, "suite_misses": 2},
            {"event": "WorkerSample", "unit_id": "u1", "worker": "w0",
             "rss_kb": 500, "shards_resident": 3},
            {"event": "UnitFinished", "unit_id": "u1", "wall_ms": 1.0,
             "vantage_points": 1, "queue_depth": 0},
            {"event": "StudyFinished", "wall_s": 0.4, "completed": 1,
             "skipped": 0, "failed": 0, "retried": 0},
        ]
        top = state_from_events(entries).top()
        assert top["completed"] == 1
        assert top["peaks"] == {
            "rss_kb": 500,
            "queue_depth": 4,
            "in_flight": 2,
            "shards_resident": 3,
        }
        assert top["resources"]["coordinator"]["suite_hits"] == 3
        assert set(top["resources"]) == {"coordinator", "w0"}
        rendered = render_top(top)
        assert "shards resident 3" in rendered
        assert "  w0 " in rendered

    def test_resource_sampler_emits_final_sample_on_stop(self):
        from repro.obs.sample import ResourceSampler
        from repro.runtime import events as ev

        bus = ev.EventBus()
        seen = []
        bus.subscribe(seen.append)
        sampler = ResourceSampler(
            bus,
            probe=lambda elapsed: ev.ResourceSample(
                elapsed_s=elapsed, rss_kb=1
            ),
            interval_s=60.0,  # never fires on its own
        )
        sampler.start()
        sampler.stop()
        assert len(seen) == 1

    def test_rss_kb_positive_here(self):
        from repro.obs.sample import rss_kb

        assert rss_kb() > 0


# ----------------------------------------------------------------------
# DashboardState / renderers
# ----------------------------------------------------------------------
class TestDashboardState:
    def _fed_state(self):
        from repro.runtime.dashboard import DashboardState

        ev = _events()
        state = DashboardState()
        state(ev.StudyStarted(
            total_units=4, providers=2, vantage_points=4, workers=2,
        ))
        for index, shard in enumerate((0, 0, 1)):
            uid = f"u{index}"
            state(ev.UnitStarted(
                unit_id=uid, provider="p", kind="audit",
                index=index + 1, total=4, shard=shard,
            ))
        state(ev.UnitFinished(
            unit_id="u0", wall_ms=5.0, vantage_points=1, queue_depth=2,
        ))
        state(ev.UnitFinished(
            unit_id="u2", wall_ms=5.0, vantage_points=1, queue_depth=1,
        ))
        state(ev.ResourceSample(
            elapsed_s=0.5, rss_kb=2000, queue_depth=1, in_flight=1,
            shards_resident=2,
        ))
        state(ev.WorkerSample(
            unit_id="u0", worker="w0", rss_kb=1500, shards_resident=1,
        ))
        return state

    def test_top_aggregates_shards_resources_progress(self):
        state = self._fed_state()
        top = state.top()
        assert top["total_units"] == 4
        assert top["completed"] == 2
        assert top["shards"] == [
            {"shard": 0, "started": 2, "done": 1},
            {"shard": 1, "started": 1, "done": 1},
        ]
        assert set(top["resources"]) == {"coordinator", "w0"}
        assert top["resources"]["w0"]["rss_kb"] == 1500
        assert top["units_per_s"] is not None
        assert top["eta_s"] is not None

    def test_top_uses_final_wall_clock_once_finished(self):
        ev = _events()
        state = self._fed_state()
        state(ev.StudyFinished(
            wall_s=10.0, completed=4, skipped=0, failed=0, retried=0,
        ))
        top = state.top()
        assert top["finished"] is True
        assert top["elapsed_s"] == 10.0

    def test_stage_rows_from_unit_metrics(self):
        ev = _events()
        state = self._fed_state()
        state(ev.UnitMetrics(unit_id="u0", snapshot={
            "counters": {
                "stage.calls.route": 10, "stage.sampled.route": 10,
            },
            "histograms": {"stage.wall_ms.route": {
                "count": 1, "total": 3.0, "min": 3.0, "max": 3.0,
                "buckets": {"14": 1},
            }},
        }))
        top = state.top()
        assert top["stages"][0]["stage"] == "route"
        assert top["stages"][0]["est_ms"] == pytest.approx(3.0)

    def test_registry_carries_runtime_gauges_and_peaks(self):
        """The gauges a served job's share of ``/metrics`` exports."""
        ev = _events()
        state = self._fed_state()
        state(ev.ResourceSample(
            elapsed_s=1.0, rss_kb=1800, queue_depth=3, in_flight=2,
            shards_resident=1, suite_hits=4, suite_misses=2,
        ))
        gauges = state.registry.snapshot()["gauges"]
        assert gauges == {
            "runtime.rss_kb": 1800,
            "runtime.rss_peak_kb": 2000,
            "runtime.worker_rss_peak_kb": 1500,
            "runtime.queue_depth": 3,
            "runtime.queue_depth_peak": 3,
            "runtime.in_flight": 2,
            "runtime.in_flight_peak": 2,
            "runtime.shards_resident": 1,
            "runtime.shards_resident_peak": 2,
            "runtime.suite_hits": 4,
            "runtime.suite_misses": 2,
        }
        assert state.top()["peaks"] == {
            "rss_kb": 2000, "queue_depth": 3, "in_flight": 2,
            "shards_resident": 2,
        }

    def test_render_top_and_dashboard_frames(self):
        from repro.runtime.dashboard import render_dashboard, render_top

        state = self._fed_state()
        text = render_top(state.top())
        assert "units    : 2/4" in text
        assert "shard    0" in text
        assert "w0" in text
        frame = render_dashboard(state)
        assert "repro study dashboard" in frame

    def test_replayed_clock_comes_from_the_stream(self):
        """A replay reports the rate and ETA the live run had.

        Two of sixty units done when the sampler read 2.0 s: 1.0 units/s
        and 58 s to go, however long after the run the log is replayed.
        """
        from repro.runtime.dashboard import state_from_events
        from repro.runtime.events import event_to_dict

        ev = _events()
        wire = [event_to_dict(ev.StudyStarted(
            total_units=60, providers=20, vantage_points=60, workers=2,
        ))]
        for index in range(2):
            wire.append(event_to_dict(ev.UnitFinished(
                unit_id=f"u{index}", wall_ms=900.0, vantage_points=1,
                queue_depth=58 - index,
            )))
        wire.append(event_to_dict(ev.ResourceSample(
            elapsed_s=2.0, rss_kb=1000,
        )))
        top = state_from_events(wire).top()
        assert top["elapsed_s"] == 2.0
        assert top["units_per_s"] == 1.0
        assert top["eta_s"] == 58.0

    def test_state_from_events_round_trips_wire_forms(self):
        from repro.runtime.dashboard import state_from_events
        from repro.runtime.events import event_to_dict

        ev = _events()
        wire = [
            event_to_dict(ev.StudyStarted(
                total_units=1, providers=1, vantage_points=1, workers=1,
            )),
            event_to_dict(ev.UnitStarted(
                unit_id="u0", provider="p", kind="audit", index=1,
                total=1, shard=0,
            )),
            event_to_dict(ev.UnitFinished(
                unit_id="u0", wall_ms=1.0, vantage_points=1, queue_depth=0,
            )),
            {"event": "SomethingUnknown", "x": 1},  # ignored, not fatal
        ]
        top = state_from_events(wire).top()
        assert top["completed"] == top["total_units"] == 1

    def test_dashboard_panel_writes_compact_lines_off_tty(self):
        from repro.runtime.dashboard import Dashboard

        ev = _events()
        bus = ev.EventBus()
        stream = io.StringIO()
        panel = Dashboard(bus, stream=stream, interval_s=30.0).start()
        bus.publish(ev.StudyStarted(
            total_units=1, providers=1, vantage_points=1, workers=1,
        ))
        panel.stop()  # always draws one final frame
        assert "dashboard: 0/1 units" in stream.getvalue()


# ----------------------------------------------------------------------
# Integration: telemetry on, archive bytes pinned
# ----------------------------------------------------------------------
class TestTelemetrySideChannel:
    def test_golden_fingerprint_with_ledger_dashboard_and_sampler(
        self, tmp_path
    ):
        """Full telemetry attached must not move a single archive byte.

        Runs the golden study with the resource sampler ticking fast, a
        ledger persisting, and a dashboard folding the stream — the
        fingerprint pins that none of it perturbs the simulation, and the
        ledger must come back with coordinator samples, one worker sample
        per completed unit, and the run's lifecycle records.
        """
        from repro.core.archive import (
            archive_fingerprint,
            write_study_archive,
        )
        from repro.runtime.dashboard import Dashboard, state_from_events
        from repro.runtime.events import EventBus, EventLog, read_events
        from repro.runtime.executor import StudyExecutor

        bus = EventBus()
        stream = io.StringIO()
        panel = Dashboard(bus, stream=stream, interval_s=30.0).start()
        ledger_path = tmp_path / "ledger.jsonl"
        ledger = EventLog(ledger_path)
        bus.subscribe(ledger)
        executor = StudyExecutor(
            seed=2018,
            providers=GOLDEN_STUDY_PROVIDERS,
            max_vantage_points=2,
            workers=2,
            backend="thread",
            bus=bus,
            sample_interval_s=0.05,
        )
        report = executor.run()
        panel.stop()
        ledger.close()
        root = tmp_path / "archive"
        write_study_archive(report, root)
        assert archive_fingerprint(root) == GOLDEN_STUDY_FINGERPRINT

        entries = read_events(ledger_path)
        kinds = [entry["event"] for entry in entries]
        top = state_from_events(entries).top()
        assert kinds.count("ResourceSample") >= 1
        assert kinds.count("WorkerSample") == top["completed"] > 0
        assert top["peaks"]["rss_kb"] > 0
        assert top["finished"] is True
        # The ledger rides alongside the archive without touching the
        # fingerprint precisely because it is .jsonl, not .json.
        assert ledger_path.suffix == ".jsonl"
        assert "dashboard:" in stream.getvalue()

    def test_ledger_reports_shard_residency(self, tmp_path):
        """A sharded run's ledger must show multiple shards resident."""
        from repro.runtime.dashboard import state_from_events
        from repro.runtime.events import EventBus, EventLog, read_events
        from repro.runtime.executor import StudyExecutor

        bus = EventBus()
        ledger = EventLog(tmp_path / "ledger.jsonl")
        bus.subscribe(ledger)
        StudyExecutor(
            seed=2018,
            providers=GOLDEN_STUDY_PROVIDERS,
            max_vantage_points=2,
            workers=2,
            backend="thread",
            shards=2,
            bus=bus,
            sample_interval_s=5.0,
        ).run()
        ledger.close()
        top = state_from_events(read_events(tmp_path / "ledger.jsonl")).top()
        assert top["peaks"]["shards_resident"] >= 2

    def test_ledger_show_of_no_events_is_one_error_line(
        self, tmp_path, capsys
    ):
        """A log in which no record names an event is no run of 0 units."""
        from repro.cli import main

        path = tmp_path / "other.jsonl"
        path.write_text('{"unit": "a::full::b"}\n{"seq": 1}\n')
        assert main(["ledger", "show", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = [ln for ln in captured.err.splitlines() if ln.strip()]
        assert line.startswith("error: ")

    def test_ledger_show_command(self, tmp_path, capsys):
        """``study --ledger`` keeps the metrics deltas ``ledger show`` needs.

        With ``--profile-stages`` the log carries every ``UnitMetrics``
        delta, so the replay prints the hottest stages next to the
        progress and worker rows.
        """
        from repro.cli import main

        ledger = str(tmp_path / "ledger.jsonl")
        assert main([
            "study", "--providers", "Seed4.me", "MyIP.io", "--max-vps", "1",
            "--profile-stages", "--ledger", ledger,
        ]) == 0
        capsys.readouterr()
        assert main(["ledger", "show", ledger]) == 0
        out = capsys.readouterr().out
        assert "units    :" in out
        assert "workers  :" in out
        assert "stages   :" in out
        assert main(["ledger", "show", ledger, "--json"]) == 0
        top = json.loads(capsys.readouterr().out)
        assert top["completed"] >= 1
        assert top["stages"]

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"event": "UnitFinished", "unit_id": "u0"}\n')
        assert main(["ledger", "show", str(bad)]) == 2
        assert "bad ledger record" in capsys.readouterr().err

    def test_ledger_show_replays_a_retry_with_its_old_backoff_key(
        self, tmp_path, capsys
    ):
        """Logs written while ``UnitRetried`` carried ``backoff_s`` replay."""
        from repro.cli import main

        ledger = tmp_path / "ledger.jsonl"
        lines = [
            {"event": "StudyStarted", "seq": 0, "total_units": 2,
             "providers": 1, "vantage_points": 2, "workers": 1,
             "resumed_units": 0},
            {"event": "UnitRetried", "seq": 1, "unit_id": "u0",
             "attempt": 1, "backoff_s": 0.0, "error": "RuntimeError('x')"},
            {"event": "UnitFinished", "seq": 2, "unit_id": "u0",
             "wall_ms": 10.0, "vantage_points": 1, "queue_depth": 1},
            {"event": "UnitFinished", "seq": 3, "unit_id": "u1",
             "wall_ms": 12.0, "vantage_points": 1, "queue_depth": 0},
            {"event": "StudyFinished", "seq": 4, "wall_s": 0.5,
             "completed": 2, "skipped": 0, "failed": 0, "retried": 1},
        ]
        ledger.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert main(["ledger", "show", str(ledger), "--json"]) == 0
        top = json.loads(capsys.readouterr().out)
        assert (top["completed"], top["total_units"]) == (2, 2)
        assert top["retried"] == 1
        assert top["finished"] is True


# ----------------------------------------------------------------------
# Serve: GET /jobs/{id}/top and watch --json
# ----------------------------------------------------------------------
@pytest.fixture
def daemon(tmp_path):
    from repro.config import ServeConfig
    from repro.serve.daemon import AuditDaemon

    daemon = AuditDaemon(ServeConfig(
        port=0,
        state_dir=str(tmp_path / "state"),
        workers=2,
        sample_interval_s=0.1,
    ))
    daemon.start()
    yield daemon
    daemon.shutdown()


def _submit(daemon, providers=("Seed4.me", "PureVPN")):
    from repro.config import StudyConfig
    from repro.obs.config import ObsConfig
    from repro.serve.client import ServeClient
    from repro.serve.protocol import JobKind, JobRequest

    client = ServeClient(daemon.endpoint)
    reply = client.submit(JobRequest(
        kind=JobKind.STUDY,
        config=StudyConfig(
            seed=2018,
            providers=tuple(providers),
            max_vantage_points=2,
            obs=ObsConfig(stage_profile=True),
        ),
    ))
    return client, reply.job_id


class TestServeTop:
    def test_top_reflects_run_and_survives_completion(self, daemon):
        client, job_id = _submit(daemon)
        # Mid-run the endpoint serves from the live event log...
        top = client.top(job_id)
        assert top["job_id"] == job_id
        assert top["total_units"] >= 0
        client.wait(job_id, timeout_s=120)
        # ...after resolution it replays the persisted events.jsonl.
        deadline = time.monotonic() + 10
        while True:
            top = client.top(job_id)
            if top["finished"] or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert top["finished"] is True
        assert top["completed"] == top["total_units"] > 0
        assert top["stages"], "stage_profile on → stage rows expected"
        assert top["resources"], "worker samples expected in top"
        assert any(
            record.get("rss_kb", 0) > 0
            for record in top["resources"].values()
        )

    def test_top_unknown_job_404(self, daemon):
        from repro.serve.client import ServeClient, ServeError

        client = ServeClient(daemon.endpoint)
        with pytest.raises(ServeError) as excinfo:
            client.top("job-99999-zz")
        assert excinfo.value.status == 404

    def test_client_error_reply_is_one_error_line(self, daemon, capsys):
        from repro.cli import main

        assert main([
            "client", "--endpoint", daemon.endpoint, "top", "job-99999-zz",
        ]) == 2
        err = capsys.readouterr().err
        (line,) = [ln for ln in err.splitlines() if ln.strip()]
        assert line.startswith("error: ")
        assert "HTTP 404" in line

    def test_client_top_renders_same_numbers(self, daemon, capsys):
        from repro.cli import main

        client, job_id = _submit(daemon)
        client.wait(job_id, timeout_s=120)
        assert main([
            "client", "--endpoint", daemon.endpoint, "top", job_id,
        ]) == 0
        out = capsys.readouterr().out
        assert f"job      : {job_id}" in out
        assert "units    :" in out
        assert "stages   :" in out

    def test_ledger_show_of_served_events_matches_client_top(
        self, daemon, capsys
    ):
        """A served job's events.jsonl is a ledger: same fold, same numbers."""
        from repro.cli import main

        client, job_id = _submit(daemon)
        client.wait(job_id, timeout_s=120)
        # Whether /top still reads the live fold or already replays the
        # closed file, every event was published before the job resolved.
        assert main([
            "client", "--endpoint", daemon.endpoint, "top", job_id, "--json",
        ]) == 0
        served = json.loads(capsys.readouterr().out)
        events = daemon.store.job_dir(job_id) / "events.jsonl"
        assert main(["ledger", "show", str(events), "--json"]) == 0
        replayed = json.loads(capsys.readouterr().out)
        for key in ("completed", "total_units", "shards", "peaks"):
            assert replayed[key] == served[key], key
        assert replayed["completed"] > 0

    def test_watch_json_emits_machine_readable_events(self, daemon, capsys):
        from repro.cli import main

        client, job_id = _submit(daemon, providers=("Seed4.me",))
        client.wait(job_id, timeout_s=120)
        assert main([
            "client", "--endpoint", daemon.endpoint,
            "watch", job_id, "--json",
        ]) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines() if line
        ]
        events = [json.loads(line) for line in lines]
        kinds = {record["event"] for record in events}
        assert "StudyStarted" in kinds
        assert "UnitFinished" in kinds
        assert "WorkerSample" in kinds  # resource stream rides the wire
