"""The cyclic garbage collector is paused inside study units.

Every unit runs through ``_timed_run_unit`` with automatic collection
paused by one process-wide count, and the caller's collector state comes
back when the last unit leaves.  Worlds are reference cycles, so each
site that drops one while a unit may hold the pause collects it there:
the suite-LRU eviction, the end of a served job, and the end of a
longitudinal snapshot.  None of these tests calls ``gc.collect()``.
"""

from __future__ import annotations

import gc
import pickle
import sys
import threading
import time
import weakref

import pytest

from repro.core.harness import TestSuite
from repro.runtime import executor as executor_module
from repro.runtime.executor import (
    _COLLECTOR_PAUSE,
    StudyExecutor,
    StudyInterrupted,
    SuiteCache,
    _CollectorPause,
    _shard_suite_cached,
)
from repro.runtime.retry import RetryPolicy
from repro.runtime.units import UnitKind
from repro.source import StudySource

PROVIDERS = ["Mullvad"]


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def caller_collector(request):
    """The caller's collector state before the study; restored after."""
    before = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    try:
        yield request.param
    finally:
        if before:
            gc.enable()
        else:
            gc.disable()


class UnitProbe:
    """Wraps ``TestSuite.run_unit`` to watch the collector inside units.

    ``states`` holds ``gc.isenabled()`` at the start and end of every
    attempt; ``collections`` counts the collections that started on a
    thread with ``run_unit`` on its stack.  The count is per thread
    because a collection runs on the thread whose allocation triggered
    it, and another thread may enter a unit while the collector's
    callbacks run.
    """

    def __init__(self, fail=None, after_unit=None) -> None:
        self.states: list[bool] = []
        self.collections = 0
        self._thread = threading.local()
        self._fail = fail
        self._after_unit = after_unit
        self._run_unit = TestSuite.run_unit

    def run_unit(self, suite, unit):
        self._thread.inside = True
        try:
            self.states.append(gc.isenabled())
            if self._fail is not None and self._fail(unit):
                raise RuntimeError("permanent unit failure")
            results = self._run_unit(suite, unit)
            self.states.append(gc.isenabled())
        finally:
            self._thread.inside = False
        if self._after_unit is not None:
            self._after_unit(unit)
        return results

    def on_collection(self, phase: str, info: dict) -> None:
        if phase == "start" and getattr(self._thread, "inside", False):
            self.collections += 1


@pytest.fixture
def probe_factory(monkeypatch):
    callbacks = []

    def make(**kwargs) -> UnitProbe:
        probe = UnitProbe(**kwargs)
        monkeypatch.setattr(
            TestSuite,
            "run_unit",
            lambda suite, unit: probe.run_unit(suite, unit),
        )
        gc.callbacks.append(probe.on_collection)
        callbacks.append(probe.on_collection)
        return probe

    yield make
    for callback in callbacks:
        gc.callbacks.remove(callback)


def _executor(
    workers: int, max_vantage_points: int = 1, **kwargs
) -> StudyExecutor:
    return StudyExecutor(
        seed=2018,
        providers=PROVIDERS,
        max_vantage_points=max_vantage_points,
        workers=workers,
        backend="thread",
        **kwargs,
    )


def _run(executor: StudyExecutor, entry: str, tmp_path):
    if entry == "run":
        return executor.run()
    return executor.run_streamed(tmp_path / "archive")


ENTRIES = pytest.mark.parametrize("entry", ["run", "run_streamed"])
WORKERS = pytest.mark.parametrize(
    "workers", [1, 2], ids=["inline", "thread-2"]
)


class TestCollectorState:
    @ENTRIES
    @WORKERS
    def test_paused_inside_every_unit_and_restored_after(
        self, probe_factory, caller_collector, entry, workers, tmp_path
    ):
        probe = probe_factory()
        executor = _executor(workers)
        _run(executor, entry, tmp_path)
        assert executor.stats.completed_units == len(executor.plan.units)
        assert probe.states and not any(probe.states)
        assert probe.collections == 0
        assert gc.isenabled() is caller_collector

    @ENTRIES
    @WORKERS
    def test_restored_after_a_unit_exhausts_its_retries(
        self, probe_factory, caller_collector, entry, workers, tmp_path
    ):
        probe = probe_factory(fail=lambda unit: unit.kind is UnitKind.SWEEP)
        executor = _executor(workers, retry=RetryPolicy.single_retry())
        _run(executor, entry, tmp_path)
        assert executor.stats.failed_units == 1
        assert executor.stats.retried_units == 1
        assert probe.states and not any(probe.states)
        assert probe.collections == 0
        assert gc.isenabled() is caller_collector

    @ENTRIES
    @WORKERS
    def test_restored_after_study_interrupted(
        self, probe_factory, caller_collector, entry, workers, tmp_path
    ):
        stop = threading.Event()
        probe = probe_factory(after_unit=lambda unit: stop.set())
        # Three units on two workers: when the first sets the stop, one
        # is still running, so the pool sees the stop before it drains.
        executor = _executor(workers, max_vantage_points=2, stop_event=stop)
        with pytest.raises(StudyInterrupted):
            _run(executor, entry, tmp_path)
        assert probe.states and not any(probe.states)
        assert probe.collections == 0
        assert gc.isenabled() is caller_collector


class TestConcurrency:
    def test_thread_stress_keeps_the_count(self, monkeypatch):
        """Four thread workers on two CPUs, switching every microsecond.

        A lost update to the pause count either runs a unit with the
        collector enabled or leaves it disabled after the study.
        """
        providers = [
            "Seed4.me", "PureVPN", "MyIP.io", "Mullvad", "AceVPN",
            "Freedome VPN",
        ]

        def study() -> StudyExecutor:
            return StudyExecutor(
                seed=2018,
                providers=providers,
                max_vantage_points=2,
                workers=4,
                backend="thread",
            )

        # One real study records every unit's results; the stressed
        # studies replay them, which allocates what a unit's results do
        # without re-running the simulation.
        recorded: dict[str, bytes] = {}
        real_run_unit = TestSuite.run_unit

        def recording(suite, unit):
            results = real_run_unit(suite, unit)
            recorded[unit.unit_id] = pickle.dumps(results)
            return results

        monkeypatch.setattr(TestSuite, "run_unit", recording)
        study().run()
        assert len(recorded) >= 16

        states: list[bool] = []

        def replayed(suite, unit):
            states.append(gc.isenabled())
            results = pickle.loads(recorded[unit.unit_id])
            states.append(gc.isenabled())
            return results

        monkeypatch.setattr(TestSuite, "run_unit", replayed)
        executors: list[StudyExecutor] = []

        def studies() -> None:
            for _ in range(4):
                executor = study()
                executor.run()
                executors.append(executor)

        gc.enable()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=studies, daemon=True)
            runner.start()
            runner.join(timeout=300)
            assert not runner.is_alive(), "stress studies did not finish"
        finally:
            sys.setswitchinterval(interval)
        assert len(executors) == 4
        for executor in executors:
            assert executor.stats.completed_units == len(recorded)
        assert len(states) == 2 * 4 * len(recorded)
        assert not any(states)
        assert gc.isenabled()

    def test_process_study_while_another_thread_holds_the_pause(self):
        """Forked workers start with a fresh lock and count.

        The holder thread keeps the pause and, while the pool forks, the
        pause's own lock.  A worker that kept the inherited lock would
        deadlock on its first unit.
        """
        gc.enable()
        holding = threading.Event()
        release = threading.Event()

        def holder() -> None:
            with _COLLECTOR_PAUSE:
                with _COLLECTOR_PAUSE._lock:
                    holding.set()
                    release.wait(timeout=600)

        held = threading.Thread(target=holder, daemon=True)
        held.start()
        assert holding.wait(timeout=10)
        reports = []
        executor = StudyExecutor(
            seed=2018,
            providers=PROVIDERS,
            max_vantage_points=1,
            workers=2,
            backend="process",
        )
        try:
            study = threading.Thread(
                target=lambda: reports.append(executor.run()), daemon=True
            )
            study.start()
            study.join(timeout=600)
            assert not study.is_alive(), "process study deadlocked"
            assert not gc.isenabled()
        finally:
            release.set()
            held.join(timeout=10)
        assert not held.is_alive()
        assert len(reports) == 1
        assert PROVIDERS[0] in reports[0].providers
        assert gc.isenabled()

    def test_after_fork_restores_the_state_the_pause_found(self):
        pause = _CollectorPause()
        gc.enable()
        pause.__enter__()
        pause._lock.acquire()  # as if a vanished thread held it
        assert not gc.isenabled()
        pause.after_fork()
        assert gc.isenabled()
        with pause:
            assert not gc.isenabled()
        assert gc.isenabled()


class TestDropSites:
    """A dropped world is dead at once even while a pause is held."""

    @pytest.fixture
    def world_refs(self, monkeypatch):
        refs: list[weakref.ref] = []
        build = executor_module._build_shard_suite

        def recording_build(*args, **kwargs):
            suite = build(*args, **kwargs)
            refs.append(weakref.ref(suite.world))
            return suite

        monkeypatch.setattr(
            executor_module, "_build_shard_suite", recording_build
        )
        return refs

    @pytest.fixture
    def paused(self):
        gc.enable()
        with _COLLECTOR_PAUSE:
            assert not gc.isenabled()
            yield
        assert gc.isenabled()

    def test_suite_lru_eviction(self, world_refs, paused):
        source = StudySource.explicit(["Seed4.me", "PureVPN", "MyIP.io"])
        cache = SuiteCache()
        for shard in range(3):
            _shard_suite_cached(cache, 2018, source, shard, 3, {})
        assert list(cache) == [(0, 1), (0, 2)]
        assert world_refs[0]() is None
        assert world_refs[1]() is not None
        assert world_refs[2]() is not None

    def test_served_job(self, world_refs, paused, tmp_path):
        from repro.config import ServeConfig, StudyConfig
        from repro.serve.daemon import AuditDaemon
        from repro.serve.protocol import JobKind, JobRequest, JobState

        daemon = AuditDaemon(ServeConfig(
            port=0, state_dir=str(tmp_path / "state"), workers=2,
        ))
        daemon.start()
        try:
            record, _ = daemon.queue.submit(JobRequest(
                kind=JobKind.STUDY,
                config=StudyConfig(
                    seed=2018, providers=tuple(PROVIDERS),
                    max_vantage_points=1,
                ),
            ))
            _wait_for_runner_exit(daemon, record.job_id)
            assert daemon.queue.get(record.job_id).state is JobState.COMPLETED
            assert world_refs
            assert [ref() for ref in world_refs] == [None] * len(world_refs)
        finally:
            daemon.shutdown()

    def test_longitudinal_snapshot(self, world_refs, paused):
        from repro.api import run_longitudinal_study
        from repro.config import StudyConfig
        from repro.runtime import events as ev
        from repro.runtime.scheduler import snapshot_specs

        config = StudyConfig(
            seed=2018, snapshots=2, providers=PROVIDERS, max_vantage_points=1
        )
        # Seeds of the worlds alive when each snapshot's first unit starts.
        alive_at_start: dict[str, list[int]] = {}

        def on_event(event) -> None:
            if isinstance(event, ev.UnitStarted):
                label = event.unit_id.split("/")[0]
                alive_at_start.setdefault(
                    label,
                    [ref().seed for ref in world_refs if ref() is not None],
                )

        bus = ev.EventBus()
        bus.subscribe(on_event)
        report = run_longitudinal_study(config, bus=bus)
        assert len(report.snapshots) == 2
        first, second = (spec.seed for spec in snapshot_specs(config))
        # Snapshot 0's world is gone before snapshot 1's first unit
        # starts, and every world is gone when the series returns.
        assert first in alive_at_start["snapshot-00"]
        assert first not in alive_at_start["snapshot-01"]
        assert second in alive_at_start["snapshot-01"]
        assert len(world_refs) == 2
        assert [ref() for ref in world_refs] == [None, None]


def _wait_for_runner_exit(daemon, job_id: str) -> None:
    """Wait until *job_id* is terminal and its runner thread has ended."""
    from repro.serve.protocol import TERMINAL_STATES

    name = f"repro-serve-{job_id}"
    deadline = time.monotonic() + 600
    while time.monotonic() < deadline:
        terminal = daemon.queue.get(job_id).state in TERMINAL_STATES
        if terminal and all(t.name != name for t in threading.enumerate()):
            return
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} did not finish")
