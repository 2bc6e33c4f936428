"""Tests for repro.runtime — the parallel, checkpointable execution engine.

Covers unit decomposition, the shared retry policy, the event bus and its
subscribers, checkpoint persistence/resume, executor parity with a pinned
reference archive, and the longitudinal scheduler.
"""

from __future__ import annotations

import io
import json
import pathlib
import threading

import pytest

from repro.config import StudyConfig
from repro.core.archive import (
    ArchiveReadError,
    archive_fingerprint,
    write_study_archive,
)
from repro.core.harness import TestSuite
from repro.runtime import events as ev
from repro.runtime.checkpoint import CheckpointMismatchError, CheckpointStore
from repro.runtime.executor import StudyExecutor, StudyInterrupted
from repro.runtime.retry import RetryPolicy, stable_hash
from repro.runtime.units import (
    AuditUnit,
    StudyPlan,
    UnitKind,
    decompose_study,
    derive_unit_seed,
)
from repro.world import World
from tests.test_runtime_stop import _stop_after

SMALL = ["Seed4.me", "Mullvad"]
# archive_fingerprint of the SMALL study at seed 2018 and
# max_vantage_points=2, recorded from the sequential harness loop (plan,
# run each unit in plan order, assemble) before that loop was folded into
# the executor.  Every backend must still write exactly these bytes.
SMALL_FINGERPRINT = (
    "1a9d83d0eea4e6f18f4ec989047580f74bc8a9c5540824c4a16eed0119e86f15"
)


@pytest.fixture(scope="module")
def small_plan_suite():
    world = World.build(seed=2018, provider_names=SMALL)
    return TestSuite(world, max_vantage_points=2)


@pytest.fixture(scope="module")
def small_study():
    return StudyExecutor(
        seed=2018, providers=SMALL, max_vantage_points=2
    ).run()


def fingerprint(study, root: pathlib.Path) -> str:
    """Archive *study* under *root* and return the archive fingerprint."""
    return archive_fingerprint(write_study_archive(study, root))


class TestRetryPolicy:
    def test_single_retry_allows_exactly_two_attempts(self):
        policy = RetryPolicy.single_retry()
        assert policy.should_retry(1)
        assert not policy.should_retry(2)

    def test_no_retries_never_retries(self):
        policy = RetryPolicy.no_retries()
        assert not policy.should_retry(1)

    def test_backoff_is_deterministic_per_key_and_attempt(self):
        policy = RetryPolicy(
            max_attempts=4, backoff_base_s=1.0, backoff_factor=2.0,
            jitter=0.25, seed=7,
        )
        assert policy.backoff_s(1, "k") == policy.backoff_s(1, "k")
        assert policy.backoff_s(1, "k") != policy.backoff_s(1, "other")
        assert policy.backoff_s(1, "k") != policy.backoff_s(2, "k")

    def test_backoff_grows_exponentially_within_jitter(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_base_s=1.0, backoff_factor=2.0,
            jitter=0.25, seed=3,
        )
        for attempt in (1, 2, 3):
            nominal = 2.0 ** (attempt - 1)
            delay = policy.backoff_s(attempt, "unit")
            assert nominal * 0.75 <= delay <= nominal * 1.25

    def test_stable_hash_is_stable_and_input_sensitive(self):
        assert stable_hash("a", 1) == stable_hash("a", 1)
        assert stable_hash("a", 1) != stable_hash("a", 2)
        assert stable_hash("a", 1) != stable_hash("b", 1)


class TestUnitDecomposition:
    def test_plan_mirrors_sequential_order(self, small_plan_suite):
        plan = decompose_study(small_plan_suite)
        world = small_plan_suite.world
        assert plan.providers == list(world.providers)
        for name in plan.providers:
            units = [u for u in plan.units if u.provider == name]
            # Full units first, then exactly one sweep over the rest.
            kinds = [u.kind for u in units]
            assert kinds[:-1] == [UnitKind.FULL] * (len(units) - 1)
            assert kinds[-1] is UnitKind.SWEEP
            covered = [h for u in units for h in u.hostnames]
            assert sorted(covered) == sorted(
                vp.hostname
                for vp in world.provider(name).vantage_points
            )
            assert len(covered) == len(set(covered))

    def test_unit_seeds_are_deterministic_and_distinct(self, small_plan_suite):
        plan = decompose_study(small_plan_suite)
        seeds = [u.seed for u in plan.units]
        assert len(seeds) == len(set(seeds))
        again = decompose_study(small_plan_suite)
        assert [u.seed for u in again.units] == seeds
        unit = plan.units[0]
        assert unit.seed == derive_unit_seed(
            small_plan_suite.world.seed, unit.provider, unit.hostnames[0]
        )

    def test_plan_round_trips_through_json(self, small_plan_suite):
        plan = decompose_study(small_plan_suite)
        restored = StudyPlan.from_json(plan.to_json())
        assert restored.fingerprint() == plan.fingerprint()
        assert restored.units == plan.units

    def test_unit_ids_are_unique(self, small_plan_suite):
        plan = decompose_study(small_plan_suite)
        ids = plan.unit_ids()
        assert len(ids) == len(set(ids))


class TestEvents:
    def test_bus_fans_out_and_isolates_handler_errors(self):
        bus = ev.EventBus()
        seen: list = []
        bus.subscribe(seen.append)

        def broken(_event):
            raise RuntimeError("renderer crashed")

        bus.subscribe(broken)
        bus.publish(ev.UnitSkipped(unit_id="u", wall_ms=1.0))
        bus.publish(ev.UnitSkipped(unit_id="v", wall_ms=2.0))
        assert [e.unit_id for e in seen] == ["u", "v"]
        assert isinstance(bus.first_handler_error, RuntimeError)

    def test_stats_collector_aggregates(self):
        from repro.runtime.dashboard import DashboardState

        collector = DashboardState()
        for event in [
            ev.StudyStarted(
                total_units=3, providers=1, vantage_points=5, workers=2
            ),
            ev.UnitFinished(
                unit_id="a", wall_ms=10.0, vantage_points=1,
                queue_depth=1, connect_retries=2,
            ),
            ev.UnitSkipped(unit_id="b", wall_ms=5.0),
            ev.UnitRetried(unit_id="c", attempt=1, backoff_s=0.0, error="e"),
            ev.UnitFailed(unit_id="c", attempts=2, error="e"),
            ev.StudyFinished(
                wall_s=1.5, completed=1, skipped=1, failed=1, retried=1
            ),
        ]:
            collector(event)
        stats = collector.stats
        assert stats.total_units == 3
        assert stats.completed_units == 1
        assert stats.skipped_units == 1
        assert stats.failed_units == 1
        assert stats.retried_units == 1
        assert stats.connect_retries == 2
        assert stats.wall_s == 1.5
        assert stats.total_unit_wall_ms == 10.0
        assert "1 units executed" in stats.summary()

    def test_fold_sees_only_its_own_run_on_a_shared_bus(self):
        bus = ev.EventBus()
        first = StudyExecutor(
            seed=2018, providers=["Seed4.me"], max_vantage_points=1, bus=bus,
        )
        first.run()
        completed = first.stats.completed_units
        StudyExecutor(
            seed=2018, providers=["Seed4.me"], max_vantage_points=1, bus=bus,
        ).run()
        assert first.stats.completed_units == completed > 0

    def test_text_renderer_output(self):
        stream = io.StringIO()
        renderer = ev.TextProgressRenderer(stream)
        renderer(
            ev.StudyStarted(
                total_units=2, providers=1, vantage_points=3, workers=1
            )
        )
        renderer(
            ev.UnitFinished(
                unit_id="p::full::x", wall_ms=1500.0,
                vantage_points=1, queue_depth=1,
            )
        )
        renderer(
            ev.StudyFinished(
                wall_s=2.0, completed=2, skipped=0, failed=0, retried=0
            )
        )
        text = stream.getvalue()
        assert "2 units" in text
        assert "p::full::x" in text
        assert "study finished" in text


class TestCheckpointStore:
    def _plan(self) -> StudyPlan:
        plan = StudyPlan(seed=1, max_vantage_points=2, providers=["P"])
        plan.units.append(
            AuditUnit(
                provider="P", kind=UnitKind.FULL,
                hostnames=("vp1.example",), seed=11,
            )
        )
        return plan

    def test_open_pins_plan_and_rejects_mismatch(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        plan = self._plan()
        assert store.open(plan) == {}
        assert (tmp_path / "ck" / "plan.pin").exists()
        other = self._plan()
        other.seed = 2
        with pytest.raises(CheckpointMismatchError):
            CheckpointStore(tmp_path / "ck").open(other)

    def test_open_refuses_json_without_a_pin(self, tmp_path, small_study):
        """An archive, or a checkpoint of the old ``plan.json`` +
        ``results/`` layout, is no checkpoint of any study."""
        archive = write_study_archive(small_study, tmp_path / "archive")
        old_layout = tmp_path / "old"
        (old_layout / "results" / "p").mkdir(parents=True)
        (old_layout / "plan.json").write_text(self._plan().to_json())
        (old_layout / "results" / "p" / "h.json").write_text("{}")
        for directory in (archive, old_layout):
            before = archive_fingerprint(directory)
            with pytest.raises(CheckpointMismatchError, match="plan.pin"):
                CheckpointStore(directory).open(self._plan())
            assert not (directory / "plan.pin").exists()
            assert archive_fingerprint(directory) == before

    def test_record_and_reload_round_trip(self, tmp_path, small_study):
        results = small_study.providers["Seed4.me"].full_results[:1]
        unit = AuditUnit(
            provider="Seed4.me", kind=UnitKind.FULL,
            hostnames=(results[0].hostname,), seed=5,
        )
        store = CheckpointStore(tmp_path / "ck")
        store.record(unit, results, wall_ms=12.5, connect_retries=1)
        completed = store.completed_units()
        assert unit.unit_id in completed
        entry = completed[unit.unit_id]
        assert entry.wall_ms == 12.5
        assert entry.connect_retries == 1
        loaded = store.load_unit_results(entry)
        assert loaded == results
        assert loaded[0].to_json() == results[0].to_json()

    def test_truncated_journal_line_is_tolerated(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        journal = store.directory
        journal.mkdir(parents=True)
        good = json.dumps(
            {"unit": "a", "provider": "P", "hostnames": ["h"], "wall_ms": 1}
        )
        (journal / "units.jsonl").write_text(good + "\n" + '{"unit": "b", ')
        assert list(store.completed_units()) == ["a"]

    def test_missing_result_files_reload_as_none(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        unit = AuditUnit(
            provider="P", kind=UnitKind.FULL, hostnames=("h",), seed=1
        )
        entry_dict = {"unit": unit.unit_id, "provider": "P",
                      "hostnames": ["h"], "wall_ms": 1.0}
        store.directory.mkdir(parents=True)
        (store.directory / "units.jsonl").write_text(
            json.dumps(entry_dict) + "\n"
        )
        entry = store.completed_units()[unit.unit_id]
        with pytest.raises(ArchiveReadError):
            store.load_unit_results(entry)


class TestStudyExecutor:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            StudyExecutor(workers=0)
        with pytest.raises(ValueError):
            StudyExecutor(backend="rayon")

    def test_inline_run_matches_sequential_suite(self, tmp_path):
        executor = StudyExecutor(
            seed=2018, providers=SMALL, max_vantage_points=2, workers=1
        )
        report = executor.run()
        assert fingerprint(report, tmp_path / "ex") == SMALL_FINGERPRINT
        assert executor.stats.completed_units == len(executor.plan.units)
        assert executor.stats.failed_units == 0

    def test_threaded_run_is_byte_identical(self, tmp_path):
        executor = StudyExecutor(
            seed=2018, providers=SMALL, max_vantage_points=2,
            workers=3, backend="thread",
        )
        report = executor.run()
        assert fingerprint(report, tmp_path / "par") == SMALL_FINGERPRINT

    def test_resume_after_partial_run(self, tmp_path):
        checkpoint = tmp_path / "ck"
        stop = threading.Event()
        first = StudyExecutor(
            seed=2018, providers=SMALL, max_vantage_points=2,
            workers=1, checkpoint_dir=str(checkpoint), stop_event=stop,
        )
        _stop_after(first.bus, stop, units=2)
        with pytest.raises(StudyInterrupted):
            first.run()
        assert first.stats.completed_units == 2

        events: list = []
        bus = ev.EventBus()
        bus.subscribe(events.append)
        second = StudyExecutor(
            seed=2018, providers=SMALL, max_vantage_points=2,
            workers=1, checkpoint_dir=str(checkpoint), bus=bus,
        )
        resumed = second.run()
        assert second.stats.skipped_units == 2
        started = [e for e in events if isinstance(e, ev.UnitStarted)]
        total = len(second.plan.units)
        assert len(started) == total - 2
        assert fingerprint(resumed, tmp_path / "res") == SMALL_FINGERPRINT

    def test_resume_reruns_a_torn_checkpoint_file(self, tmp_path):
        """A journalled unit whose result file is torn is not committed:
        the resume re-runs it, and the checkpoint ends as the archive."""
        checkpoint = tmp_path / "ck"
        stop = threading.Event()
        first = StudyExecutor(
            seed=2018, providers=SMALL, max_vantage_points=2,
            workers=1, checkpoint_dir=str(checkpoint), stop_event=stop,
        )
        _stop_after(first.bus, stop, units=3)
        with pytest.raises(StudyInterrupted):
            first.run()
        assert first.plan.units[1].hostnames == ("au09.mullvad.net",)
        victim = checkpoint / "mullvad" / "au09_mullvad_net.json"
        victim.write_bytes(victim.read_bytes()[:40])

        second = StudyExecutor(
            seed=2018, providers=SMALL, max_vantage_points=2,
            workers=1, checkpoint_dir=str(checkpoint),
        )
        resumed = second.run()
        assert second.stats.skipped_units == 2
        assert second.stats.completed_units == len(second.plan.units) - 2
        assert fingerprint(resumed, tmp_path / "res") == SMALL_FINGERPRINT
        assert archive_fingerprint(checkpoint) == SMALL_FINGERPRINT

    def test_resume_rejects_different_parameters(self, tmp_path):
        checkpoint = tmp_path / "ck"
        stop = threading.Event()
        first = StudyExecutor(
            seed=2018, providers=SMALL, max_vantage_points=2,
            checkpoint_dir=str(checkpoint), stop_event=stop,
        )
        _stop_after(first.bus, stop, units=1)
        with pytest.raises(StudyInterrupted):
            first.run()
        clashing = StudyExecutor(
            seed=2018, providers=SMALL, max_vantage_points=1,
            checkpoint_dir=str(checkpoint),
        )
        with pytest.raises(CheckpointMismatchError):
            clashing.run()

    def test_unit_failure_is_retried_then_succeeds(self, monkeypatch):
        original = TestSuite.run_unit
        failures = {"left": 1}

        def flaky(self, unit):
            if unit.kind is UnitKind.SWEEP and failures["left"]:
                failures["left"] -= 1
                raise RuntimeError("transient unit failure")
            return original(self, unit)

        monkeypatch.setattr(TestSuite, "run_unit", flaky)
        executor = StudyExecutor(
            seed=2018, providers=["Mullvad"], max_vantage_points=1,
            workers=1, retry=RetryPolicy.single_retry(),
        )
        report = executor.run()
        assert executor.stats.retried_units == 1
        assert executor.stats.failed_units == 0
        assert not report.providers["Mullvad"].connect_failures

    def test_exhausted_unit_lands_in_connect_failures(self, monkeypatch):
        original = TestSuite.run_unit

        def always_fails(self, unit):
            if unit.kind is UnitKind.SWEEP:
                raise RuntimeError("permanent unit failure")
            return original(self, unit)

        monkeypatch.setattr(TestSuite, "run_unit", always_fails)
        events: list = []
        bus = ev.EventBus()
        bus.subscribe(events.append)
        executor = StudyExecutor(
            seed=2018, providers=["Mullvad"], max_vantage_points=1,
            workers=1, retry=RetryPolicy.no_retries(), bus=bus,
        )
        report = executor.run()
        assert executor.stats.failed_units == 1
        failed = [e for e in events if isinstance(e, ev.UnitFailed)]
        assert len(failed) == 1
        sweep = next(
            u for u in executor.plan.units if u.kind is UnitKind.SWEEP
        )
        assert sorted(report.providers["Mullvad"].connect_failures) == sorted(
            sweep.hostnames
        )


class TestLeakageRetry:
    """The shared RetryPolicy also covers leakage-test tunnel errors."""

    def _context(self):
        import types

        return types.SimpleNamespace(vpn_client=None, vantage_point=None)

    def test_transient_tunnel_error_is_retried(self, small_world):
        from repro.vpn.client import TunnelConnectionError

        suite = TestSuite(small_world, retry_policy=RetryPolicy.single_retry())
        calls = {"n": 0}

        def run():
            calls["n"] += 1
            if calls["n"] == 1:
                raise TunnelConnectionError("tunnel dropped mid-test")
            return "leak-result"

        before = suite.connect_retries
        assert suite._run_leakage_test(self._context(), run) == "leak-result"
        assert calls["n"] == 2
        assert suite.connect_retries == before + 1

    def test_policy_exhaustion_propagates(self, small_world):
        from repro.vpn.client import TunnelConnectionError

        suite = TestSuite(small_world, retry_policy=RetryPolicy.no_retries())

        def run():
            raise TunnelConnectionError("tunnel stays down")

        with pytest.raises(TunnelConnectionError):
            suite._run_leakage_test(self._context(), run)


class TestLongitudinalScheduler:
    def test_snapshot_seeds_and_budgets(self):
        from repro.runtime.scheduler import (
            derive_snapshot_seed,
            snapshot_specs,
        )

        specs = snapshot_specs(
            StudyConfig(seed=2018, snapshots=3, max_vantage_points=5),
            vantage_budgets=[None, 1, 3],
        )
        assert [s.index for s in specs] == [0, 1, 2]
        assert specs[0].seed == 2018
        assert specs[1].seed == derive_snapshot_seed(2018, 1)
        assert specs[1].seed != specs[2].seed
        assert [s.max_vantage_points for s in specs] == [5, 1, 3]

    def test_rejects_bad_schedules(self):
        from repro.runtime.scheduler import snapshot_specs

        with pytest.raises(ValueError):
            StudyConfig(snapshots=0)
        with pytest.raises(ValueError):
            snapshot_specs(StudyConfig(snapshots=2), vantage_budgets=[1])

    def test_diff_verdicts_reports_changes(self):
        from repro.runtime.scheduler import diff_verdicts

        before = {
            "A": {"dns_leak_detected": False, "fails_open": True},
            "Gone": {"dns_leak_detected": False, "fails_open": None},
        }
        after = {
            "A": {"dns_leak_detected": True, "fails_open": True},
            "New": {"dns_leak_detected": False, "fails_open": False},
        }
        diff = diff_verdicts(before, after, index=1)
        assert not diff.is_empty
        assert [c.provider for c in diff.changes] == ["A"]
        assert diff.changes[0].verdict == "dns_leak_detected"
        assert diff.changes[0].before is False
        assert diff.changes[0].after is True
        assert diff.providers_added == ["New"]
        assert diff.providers_removed == ["Gone"]
        assert "dns_leak_detected" in diff.changes[0].describe()

    def test_constant_schedule_is_stable_and_archives(self, tmp_path):
        from repro.api import run_longitudinal_study
        from repro.core.archive import read_study_archive

        # reseed=False models pure re-measurement of a static ecosystem:
        # every diff must come out empty.
        report = run_longitudinal_study(
            StudyConfig(
                seed=2018, snapshots=2, providers=["Mullvad"],
                max_vantage_points=1,
                archive_dir=str(tmp_path / "longitudinal"), reseed=False,
            ),
            vantage_budgets=[1, 1],
        )
        assert len(report.snapshots) == 2
        assert report.is_stable
        for label in ("snapshot-00", "snapshot-01"):
            archived = read_study_archive(tmp_path / "longitudinal" / label)
            assert archived.providers == ["Mullvad"]
        assert "2 snapshot(s)" in report.summary()

    def test_constant_schedule_snapshots_archive_equal_bytes(
        self, tmp_path
    ):
        """Snapshots that share a seed re-measure on worlds of their own:
        a unit run again on its world would probe with new DNS-origin
        tags, so a shared world would move the second archive's bytes."""
        from repro.api import run_longitudinal_study

        report = run_longitudinal_study(StudyConfig(
            seed=2018, snapshots=2, providers=["Mullvad"],
            max_vantage_points=1, archive_dir=str(tmp_path), reseed=False,
        ))
        first, second = (s.archive_dir for s in report.snapshots)
        assert archive_fingerprint(first) == archive_fingerprint(second)

    def test_generated_series_plans_its_source_on_its_shards(self, tmp_path):
        """Every snapshot audits the config's source on its shards, the
        series is one study of both snapshots' units, and snapshot 0
        writes the one-shot study's archive."""
        from repro.api import run_full_study, run_longitudinal_study
        from repro.source import StudySource

        source = StudySource.generated(3, generator_seed=7, vantage_points=2)
        stop = threading.Event()
        started: list[ev.StudyStarted] = []
        shards: set[int] = set()

        def record(event) -> None:
            if isinstance(event, ev.StudyStarted):
                started.append(event)
                if event.providers != 3:
                    stop.set()  # the wrong population: stop before any unit
            elif isinstance(event, ev.UnitStarted):
                shards.add(event.shard)

        bus = ev.EventBus()
        bus.subscribe(record)
        config = StudyConfig(
            seed=2018, source=source, shards=2, snapshots=2,
            max_vantage_points=1, archive_dir=str(tmp_path / "snaps"),
        )
        report = run_longitudinal_study(config, stop_event=stop, bus=bus)
        one_shot: list[ev.StudyStarted] = []
        single_bus = ev.EventBus()
        single_bus.subscribe(
            lambda e: one_shot.append(e)
            if isinstance(e, ev.StudyStarted)
            else None
        )
        single = run_full_study(
            config.replace(snapshots=1, archive_dir=None), bus=single_bus
        )
        # One StudyStarted, carrying both snapshots' units.
        assert [e.providers for e in started] == [3]
        assert started[0].total_units == 2 * one_shot[0].total_units
        assert shards == {0, 1}
        assert not report.interrupted
        names = source.provider_names(2018)
        for snapshot in report.snapshots:
            assert sorted(snapshot.verdicts) == sorted(names)
        assert fingerprint(single, tmp_path / "single") == archive_fingerprint(
            tmp_path / "snaps" / "snapshot-00"
        )

    def test_series_folds_as_one_study(self):
        """One fold over a 3-snapshot series: one start, never more units
        completed than planned, and ``finished`` set once, at the end."""
        from repro.api import run_longitudinal_study
        from repro.runtime.dashboard import DashboardState

        fold = DashboardState()
        seen: list[tuple[str, int, int, bool]] = []

        def check(event) -> None:
            # Subscribed after the fold, so it reads the folded state.
            seen.append((
                type(event).__name__,
                fold.stats.completed_units,
                fold.stats.total_units,
                fold.finished,
            ))

        bus = ev.EventBus()
        bus.subscribe(fold)
        bus.subscribe(check)
        report = run_longitudinal_study(
            StudyConfig(
                seed=2018, providers=("Seed4.me",), max_vantage_points=2,
                snapshots=3,
            ),
            bus=bus,
        )
        assert len(report.snapshots) == 3
        names = [name for name, *_ in seen]
        assert names.count("StudyStarted") == 1
        assert names.count("StudyFinished") == 1
        finished_units = [
            (done, total) for name, done, total, _ in seen
            if name == "UnitFinished"
        ]
        assert finished_units
        assert all(done <= total for done, total in finished_units)
        assert finished_units[-1][0] == finished_units[-1][1]
        assert [finished for *_, finished in seen] == (
            [False] * (len(seen) - 1) + [True]
        )
        assert names[-1] == "StudyFinished"

    def test_traced_series_writes_the_one_shot_trace_per_snapshot(
        self, tmp_path
    ):
        from repro.api import run_full_study, run_longitudinal_study
        from repro.obs.config import ObsConfig

        config = StudyConfig(
            seed=2018, providers=("Seed4.me",), max_vantage_points=2,
            snapshots=2,
            obs=ObsConfig(trace=True, trace_path=str(tmp_path / "s.jsonl")),
        )
        run_longitudinal_study(config)
        run_full_study(config.replace(
            snapshots=1,
            obs=ObsConfig(trace=True, trace_path=str(tmp_path / "one.jsonl")),
        ))
        first = (tmp_path / "s.jsonl.snapshot-00").read_bytes()
        assert first == (tmp_path / "one.jsonl").read_bytes()
        assert (tmp_path / "s.jsonl.snapshot-01").read_bytes() != first
        assert not (tmp_path / "s.jsonl").exists()

    def test_verdict_map_covers_all_fields(self, small_study):
        from repro.runtime.scheduler import VERDICT_FIELDS, verdict_map

        flattened = verdict_map(small_study)
        assert set(flattened) == set(small_study.providers)
        for verdicts in flattened.values():
            assert set(verdicts) == set(VERDICT_FIELDS)
