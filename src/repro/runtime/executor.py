"""Parallel, checkpointable execution of a study plan.

:class:`StudyExecutor` owns study orchestration: it decomposes the study
into :class:`~repro.runtime.units.AuditUnit` records, dispatches them onto
a worker pool, retries failures under a :class:`RetryPolicy`, publishes
progress events, and finally assembles the per-unit results — in plan
order, never completion order — into a study report that is the same at
any worker count.  One loop serves both entry points; they differ only in
the result sink, which makes committed units durable in a
:class:`CheckpointStore`: ``run()`` keeps them in memory (and in
``checkpoint_dir``, if set) and returns the
:class:`~repro.core.harness.StudyReport`, ``run_streamed()`` records them
in its archive and returns a :class:`StreamedStudy`.

Determinism is the design constraint everything else bends around:

- every worker (thread or process) builds its *own* world from the study
  seed; worlds are deterministic, and units are independent of what else
  ran before them in the same world, so a unit computes identical results
  on any worker of any run;
- assembly iterates the plan, so scheduling order never reaches the
  report; archived verdicts from ``workers=8`` are byte-identical to
  ``workers=1`` (asserted in ``tests/test_determinism.py``).

Backends: ``thread`` (default; worlds are cheap to build and share nothing)
and ``process`` (sidesteps the GIL for real multi-core scaling; unit
results travel home by pickle).  The simulation is pure CPU-bound Python,
so thread workers only help on interpreters without a GIL — the backend
exists for correctness on both and for the process pool to exploit real
cores where the hardware has them.

The per-unit timeout is *hard* for units still queued (they are cancelled)
and advisory for units already running — a GIL-bound worker cannot be
preempted — which keeps timeouts from ever introducing nondeterminism into
results that did complete.
"""

from __future__ import annotations

import concurrent.futures
import gc
import pathlib
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.harness import TestSuite
from repro.runtime import events as ev
from repro.runtime.checkpoint import CheckpointStore, CompletedUnit
from repro.runtime.retry import RetryPolicy
from repro.runtime.units import AuditUnit, StudyPlan
from repro.source import StudySource
from repro.world_factory import ShardedWorldFactory

if TYPE_CHECKING:
    from repro.config import StudyConfig
    from repro.core.harness import ProviderReport, StudyReport
    from repro.core.results import VantagePointResults
    from repro.obs.config import ObsConfig
    from repro.obs.metrics import MetricsRegistry

_BACKENDS = ("thread", "process")

# Per-worker cap on live shard suites: units arrive roughly in shard
# order, so two is enough to ride out stragglers without a worker ever
# holding every shard's world at once.
_WORKER_SUITE_CACHE = 2

# One attempt at a unit: (results, connect retries spent, wall
# milliseconds, drained observability payload or None, worker resource
# payload).  The resource payload travels with the results rather than
# inside the obs snapshot so the deterministic metric series stay free
# of machine-dependent values.
UnitOutcome = tuple[
    list["VantagePointResults"], int, float, Optional[dict], dict
]


class SuiteCache(OrderedDict):
    """Per-worker LRU of shard suites, with hit/miss counters.

    Plain class-attribute defaults keep lookups allocation-free until the
    first bump; the counters are cumulative for the worker's lifetime and
    ride home with each unit as part of its resource payload.
    """

    hits: int = 0
    misses: int = 0


class _CollectorPause:
    """Automatic cyclic collection paused while any unit is in flight.

    A unit allocates hundreds of thousands of objects and drops them by
    reference count, so the collector's automatic passes inside a unit
    find almost nothing, yet each full pass walks the whole heap, worlds
    included.  One count is shared by every executor in the process
    (``gc.disable`` is process-wide, and the serve daemon runs several
    jobs' units on one pool): the first unit to enter disables the
    collector, the last to leave re-enables it if it was enabled when
    the first entered.  Worlds are reference cycles, so every site that
    drops one while a unit may hold the pause collects explicitly.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._held = 0
        self._was_enabled = False

    def __enter__(self) -> None:
        with self._lock:
            if self._held == 0:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._held += 1

    def __exit__(self, *exc_info: object) -> None:
        with self._lock:
            self._held -= 1
            if self._held == 0 and self._was_enabled:
                gc.enable()

    def after_fork(self) -> None:
        """Start afresh in a forked child, where no unit is in flight.

        Only the forking thread survives a fork, so a count or a held
        lock inherited from the parent's unit threads can never be
        released here; the collector goes back to the state the pause
        found.
        """
        if self._held or self._lock.locked():
            if self._was_enabled:
                gc.enable()
        self._lock = threading.Lock()
        self._held = 0


_COLLECTOR_PAUSE = _CollectorPause()


class StudyInterrupted(RuntimeError):
    """The executor stopped on request before the plan finished.

    Raised (after every in-flight unit has been committed and the
    checkpoint flushed) when the executor's ``stop_event`` is set — by a
    SIGTERM handler, a job cancellation, or a daemon drain.  ``completed``
    counts units committed this run, ``remaining`` the units that were
    still pending when the stop took effect; re-running with the same
    checkpoint directory resumes exactly at the cut.
    """

    def __init__(self, completed: int, remaining: int) -> None:
        super().__init__(
            f"study interrupted: {completed} unit(s) committed, "
            f"{remaining} left for resume"
        )
        self.completed = completed
        self.remaining = remaining


def _build_shard_suite(
    seed: int,
    source: StudySource,
    shard: int,
    shards: int,
    suite_kwargs: dict,
) -> TestSuite:
    """A suite over one shard's world (the whole world when shards=1)."""
    world = ShardedWorldFactory.clone(
        seed=seed, source=source, shard=shard, shards=shards
    )
    return TestSuite(world, **suite_kwargs)


def _shard_suite_cached(
    cache: "OrderedDict[int, TestSuite]",
    seed: int,
    source: StudySource,
    shard: int,
    shards: int,
    suite_kwargs: dict,
) -> TestSuite:
    """Fetch/build a shard suite through a small per-worker LRU."""
    suite = cache.get(shard)
    if suite is None:
        cache.misses = getattr(cache, "misses", 0) + 1
        suite = _build_shard_suite(seed, source, shard, shards, suite_kwargs)
        cache[shard] = suite
        if len(cache) > _WORKER_SUITE_CACHE:
            cache.popitem(last=False)
            # The evicted world is a reference cycle, and units on other
            # threads may hold the collector paused.
            gc.collect()
    else:
        cache.hits = getattr(cache, "hits", 0) + 1
        cache.move_to_end(shard)
    return suite


def _worker_resources(cache: Optional[OrderedDict]) -> dict:
    """One worker resource reading, taken at a unit boundary.

    A couple of microseconds per unit (one /proc read), cheap enough to
    collect unconditionally; the executor decides whether anyone is
    listening.  The worker name combines thread name and pid so it is
    unique across both pool backends.
    """
    import os

    from repro.obs.sample import rss_kb

    return {
        "worker": f"{threading.current_thread().name}@{os.getpid()}",
        "rss_kb": rss_kb(),
        "shards_resident": len(cache) if cache is not None else 1,
        "suite_hits": getattr(cache, "hits", 0),
        "suite_misses": getattr(cache, "misses", 0),
    }


def _timed_run_unit(
    suite: TestSuite, unit: AuditUnit, cache: Optional[OrderedDict] = None
) -> UnitOutcome:
    retries_before = suite.connect_retries
    started = time.perf_counter()
    try:
        with _COLLECTOR_PAUSE:
            results = suite.run_unit(unit)
    except BaseException:
        # Discard the partial unit's obs buffers so a retry (or the next
        # unit on this worker) starts from clean per-unit state.
        if suite.obs is not None:
            suite.obs.drain_unit()
        raise
    wall_ms = (time.perf_counter() - started) * 1000.0
    obs_payload = suite.obs.drain_unit() if suite.obs is not None else None
    return (
        results,
        suite.connect_retries - retries_before,
        wall_ms,
        obs_payload,
        _worker_resources(cache),
    )


# ----------------------------------------------------------------------
# Process-backend worker side: a small LRU of shard suites per worker
# process (one world per worker when the study is unsharded).
# ----------------------------------------------------------------------
_PROCESS_STATE: dict = {}


def _process_worker_init(
    seed: int, source: StudySource, shards: int, suite_kwargs: dict
) -> None:
    _COLLECTOR_PAUSE.after_fork()
    _PROCESS_STATE.update(
        seed=seed,
        source=source,
        shards=shards,
        suite_kwargs=suite_kwargs,
        suites=SuiteCache(),
    )


def _process_run_unit(unit: AuditUnit) -> UnitOutcome:
    suites = _PROCESS_STATE["suites"]
    suite = _shard_suite_cached(
        suites,
        _PROCESS_STATE["seed"],
        _PROCESS_STATE["source"],
        unit.shard,
        _PROCESS_STATE["shards"],
        _PROCESS_STATE["suite_kwargs"],
    )
    return _timed_run_unit(suite, unit, suites)


@dataclass
class StreamedStudy:
    """What a streamed run returns instead of a :class:`StudyReport`.

    The full per-provider reports were written straight to disk and
    dropped; what remains in memory is the archive location(s), the
    manifest (merged across shards when the run was per-shard), and the
    per-provider verdict summaries — everything the CLI and serve layers
    report, at O(providers) not O(results) memory.
    """

    archive_dir: pathlib.Path
    shard_dirs: list[pathlib.Path] = field(default_factory=list)
    providers: list[str] = field(default_factory=list)
    manifest: dict = field(default_factory=dict)
    verdicts: dict[str, dict] = field(default_factory=dict)

    def fingerprint(self) -> str:
        """Byte fingerprint of the archive tree that was written."""
        from repro.core.archive import archive_fingerprint

        return archive_fingerprint(self.archive_dir)

    def summary(self) -> str:
        lines = [
            f"Streamed study over {len(self.providers)} providers "
            f"-> {self.archive_dir}",
        ]
        if self.shard_dirs:
            lines.append(
                f"  shard archives               : {len(self.shard_dirs)}"
            )
        lines += [
            f"  intercept/manipulate traffic : "
            f"{len(self.manifest.get('intercepting', []))}",
            f"  fail open on tunnel failure  : "
            f"{len(self.manifest.get('failing_open', []))}",
            f"  misrepresent locations       : "
            f"{len(self.manifest.get('misrepresenting', []))}",
        ]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Result sinks: where the study loop replays the journal, stores committed
# units and puts assembled providers.  The two differ only in storage.
# ----------------------------------------------------------------------
class _MemorySink:
    """Unit results kept as objects; assembles a :class:`StudyReport`.

    With a checkpoint directory, every committed unit is also recorded
    there and the finished study leaves its archive there.
    """

    def __init__(self, checkpoint_dir: Optional[str]) -> None:
        from repro.core.harness import StudyReport

        self._store = (
            CheckpointStore(checkpoint_dir) if checkpoint_dir else None
        )
        self._results: dict[str, list["VantagePointResults"]] = {}
        self._study = StudyReport()

    def open(self, plan: StudyPlan) -> dict[str, CompletedUnit]:
        """Replay the checkpoint; returns the units already committed."""
        if self._store is None:
            return {}
        journal = {}
        for entry, results in self._store.replay(plan):
            journal[entry.unit_id] = entry
            self._results[entry.unit_id] = results
        return journal

    def put(
        self, unit: AuditUnit, results: list["VantagePointResults"],
        wall_ms: float, connect_retries: int,
    ) -> None:
        self._results[unit.unit_id] = results
        if self._store is not None:
            self._store.record(unit, results, wall_ms, connect_retries)

    def get(self, unit: AuditUnit) -> Optional[list["VantagePointResults"]]:
        return self._results.get(unit.unit_id)

    def add(
        self,
        shard_suite: TestSuite,
        shard: int,
        name: str,
        report: "ProviderReport",
    ) -> None:
        self._study.providers[name] = report
        shard_suite.ingest_provider_aggregates(self._study, name, report)
        if self._store is not None:
            self._store.write_verdicts(report)

    def finish(self) -> "StudyReport":
        if self._store is not None:
            from repro.core.archive import study_manifest

            self._store.finalize(study_manifest(self._study))
        return self._study


class _ArchiveSink:
    """Unit results recorded in an archive, read back per provider.

    Each archive root is its own checkpoint.  Memory holds committed unit
    ids, verdict payloads and, per archive root, the study-wide aggregates
    its manifest needs — never a unit's results beyond the provider being
    assembled.
    """

    def __init__(
        self, archive_dir: str | pathlib.Path, shards: int, per_shard: bool
    ) -> None:
        from repro.core.harness import StudyReport

        self.archive_dir = pathlib.Path(archive_dir)
        self.per_shard = per_shard
        if per_shard:
            self._stores = {
                shard: CheckpointStore(self.archive_dir / f"shard-{shard:04d}")
                for shard in range(shards)
            }
        else:
            store = CheckpointStore(self.archive_dir)
            self._stores = dict.fromkeys(range(shards), store)
        # archive root -> (store, manifest aggregates, verdict payloads)
        self._roots = {
            store.root: (store, StudyReport(), [])
            for store in self._stores.values()
        }
        self._committed: dict[str, CheckpointStore] = {}
        self._verdicts: dict[str, dict] = {}

    def open(self, plan: StudyPlan) -> dict[str, CompletedUnit]:
        """Replay every store; returns the units already committed."""
        journal = {}
        for store, _, _ in self._roots.values():
            for entry, _results in store.replay(plan):
                journal[entry.unit_id] = entry
                self._committed[entry.unit_id] = store
        return journal

    def put(
        self, unit: AuditUnit, results: list["VantagePointResults"],
        wall_ms: float, connect_retries: int,
    ) -> None:
        store = self._stores[unit.shard]
        store.record(unit, results, wall_ms, connect_retries)
        self._committed[unit.unit_id] = store

    def get(self, unit: AuditUnit) -> Optional[list["VantagePointResults"]]:
        store = self._committed.get(unit.unit_id)
        return store.load_unit_results(unit) if store is not None else None

    def add(
        self,
        shard_suite: TestSuite,
        shard: int,
        name: str,
        report: "ProviderReport",
    ) -> None:
        store, study, verdicts = self._roots[self._stores[shard].root]
        shard_suite.ingest_provider_aggregates(study, name, report)
        payload = store.write_verdicts(report)
        verdicts.append(payload)
        self._verdicts[name] = payload

    def finish(self) -> StreamedStudy:
        from repro.core.archive import (
            _merge_manifests,
            manifest_from_verdicts,
        )

        manifests = []
        for store, study, verdicts in self._roots.values():
            manifest = manifest_from_verdicts(verdicts, study)
            store.finalize(manifest)
            manifests.append(manifest)
        return StreamedStudy(
            archive_dir=self.archive_dir,
            shard_dirs=list(self._roots) if self.per_shard else [],
            providers=list(self._verdicts),
            manifest=(
                manifests[0] if len(manifests) == 1
                else _merge_manifests(manifests)
            ),
            verdicts=self._verdicts,
        )


_ResultSink = _MemorySink | _ArchiveSink


class StudyExecutor:
    """Run a study as a unit graph on a worker pool.

    ``workers=1`` executes inline, in plan order, on the coordinator's own
    world: the sequential path.  ``checkpoint_dir`` makes :meth:`run`'s
    progress durable: re-running with the same directory (and parameters)
    skips every unit whose results are already journalled there.  A
    streamed run's archive is its own checkpoint.
    """

    def __init__(
        self,
        seed: int = 2018,
        providers: Optional[list[str]] = None,
        max_vantage_points: Optional[int] = 5,
        workers: int = 1,
        backend: str = "thread",
        retry: Optional[RetryPolicy] = None,
        unit_timeout_s: Optional[float] = None,
        checkpoint_dir: Optional[str] = None,
        bus: Optional[ev.EventBus] = None,
        sleep_on_retry: bool = False,
        obs: Optional["ObsConfig"] = None,
        stop_event: Optional[threading.Event] = None,
        pool: Optional[concurrent.futures.Executor] = None,
        source: Optional[StudySource] = None,
        shards: int = 1,
        ledger_path: Optional[str | pathlib.Path] = None,
        sample_interval_s: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}")
        if pool is not None and backend != "thread":
            # A shared pool cannot re-run per-job process initializers, so
            # only the thread backend may borrow one.
            raise ValueError("an external pool requires the thread backend")
        if providers is not None and source is not None:
            raise ValueError("pass providers= or source=, not both")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.seed = seed
        if source is None:
            source = (
                StudySource.explicit(providers)
                if providers is not None
                else StudySource.catalog()
            )
        self.source = source
        self.shards = shards
        self.max_vantage_points = max_vantage_points
        self.workers = workers
        self.backend = backend
        self.retry = retry or RetryPolicy.single_retry()
        self.unit_timeout_s = unit_timeout_s
        self.checkpoint_dir = checkpoint_dir
        self.bus = bus or ev.EventBus()
        self.sleep_on_retry = sleep_on_retry
        # stop_event is the cooperative cancellation point: when set, the
        # executor stops dispatching, commits every unit already running,
        # and raises StudyInterrupted.  pool, when given, is an external
        # ThreadPoolExecutor shared with other executors (the serve
        # daemon's); the executor then never shuts it down.
        self.stop_event = stop_event
        self.pool = pool
        self.obs_config = obs if obs is not None and obs.enabled else None
        # Internal collectors see only this executor's run: a shared bus
        # (the longitudinal scheduler reuses one across snapshots) must
        # not replay a previous executor's events into them.
        self._stats_collector = ev.StatsCollector()
        self.bus.subscribe(self._stats_collector, replay=False)
        self._metrics_aggregator: Optional[ev.MetricsAggregator] = None
        if self.obs_config is not None and self.obs_config.metrics_enabled:
            self._metrics_aggregator = ev.MetricsAggregator()
            self.bus.subscribe(self._metrics_aggregator, replay=False)
        self._obs_payloads: dict[str, dict] = {}
        self.trace_records: Optional[list[dict]] = None
        self.plan: Optional[StudyPlan] = None
        # Runtime telemetry: a background ResourceSampler ticks while
        # either is set, and a RunLedger persists the stream as JSONL.
        self.ledger_path = ledger_path
        self.sample_interval_s = sample_interval_s
        self._telemetry_on = (
            ledger_path is not None or sample_interval_s is not None
        )
        # Live dispatch-state counters the sampler probe reads; plain int
        # stores under the GIL, no lock needed for a telemetry read.
        self._live = {"queue_depth": 0, "in_flight": 0}
        # Coordinator-side shard suites (planning, inline runs, assembly).
        self._suites: SuiteCache = SuiteCache()

    @classmethod
    def from_config(
        cls,
        config: "StudyConfig",
        bus: Optional[ev.EventBus] = None,
        **overrides,
    ) -> "StudyExecutor":
        """Build an executor from a :class:`repro.config.StudyConfig`."""
        kwargs = dict(
            seed=config.seed,
            source=config.resolved_source(),
            max_vantage_points=config.max_vantage_points,
            workers=config.workers,
            backend=config.backend,
            checkpoint_dir=config.checkpoint_dir,
            obs=config.obs,
            bus=bus,
            shards=config.shards,
        )
        kwargs.update(overrides)
        return cls(**kwargs)

    def request_stop(self) -> None:
        """Ask the run to drain: finish in-flight units, then interrupt.

        Creates the stop event lazily so callers that constructed the
        executor without one (the CLI's signal handler) can still stop it.
        """
        if self.stop_event is None:
            self.stop_event = threading.Event()
        self.stop_event.set()

    @property
    def stats(self) -> ev.ExecutionStats:
        return self._stats_collector.stats

    @property
    def metrics(self) -> Optional["MetricsRegistry"]:
        """The merged study-wide registry (None unless metrics enabled)."""
        if self._metrics_aggregator is None:
            return None
        return self._metrics_aggregator.registry

    @property
    def flight_dumps(self) -> list[dict]:
        """Flight-recorder dumps from executed units, in plan order."""
        if self.plan is None:
            return []
        dumps: list[dict] = []
        for unit in self.plan.units:
            payload = self._obs_payloads.get(unit.unit_id)
            if payload:
                dumps.extend(payload.get("flight_dumps") or [])
        return dumps

    def _suite_kwargs(self) -> dict:
        return {
            "max_vantage_points": self.max_vantage_points,
            "retry_policy": self.retry,
            "obs_config": self.obs_config,
        }

    # ------------------------------------------------------------------
    # Runtime telemetry: sampler + ledger lifecycle
    # ------------------------------------------------------------------
    def _resource_probe(self, elapsed_s: float) -> ev.ResourceSample:
        """One coordinator resource reading (called from the sampler)."""
        from repro.obs.sample import rss_kb

        cache = self._suites
        return ev.ResourceSample(
            elapsed_s=round(elapsed_s, 3),
            rss_kb=rss_kb(),
            queue_depth=self._live["queue_depth"],
            in_flight=self._live["in_flight"],
            shards_resident=len(cache),
            suite_hits=getattr(cache, "hits", 0),
            suite_misses=getattr(cache, "misses", 0),
        )

    def _start_telemetry(self):
        """Start the resource sampler (and ledger) when requested.

        Returns an opaque handle for :meth:`_stop_telemetry`; None when
        telemetry is off — the zero-overhead default.
        """
        if not self._telemetry_on:
            return None
        from repro.obs.sample import ResourceSampler, RunLedger

        ledger = (
            RunLedger(self.ledger_path, bus=self.bus)
            if self.ledger_path is not None
            else None
        )
        sampler = ResourceSampler(
            bus=self.bus,
            probe=self._resource_probe,
            interval_s=self.sample_interval_s or 0.5,
        )
        sampler.start()
        handle = [sampler, ledger]
        self._telemetry_handle = handle
        return handle

    def _stop_sampler(self) -> None:
        """Stop the ticker ahead of the terminal bus event.

        Stop emits one final sample so even sub-interval runs ledger at
        least one reading; calling this *before* StudyFinished/StudyHalted
        publishes keeps the terminal event last on the bus — consumers
        (the serve event stream, watch) rely on that ordering.
        """
        handle = getattr(self, "_telemetry_handle", None)
        if not handle or handle[0] is None:
            return
        handle[0].stop()
        handle[0] = None

    def _stop_telemetry(self, handle) -> None:
        if handle is None:
            return
        self._stop_sampler()
        # The ledger closes after the terminal event so it records wall_s.
        if handle[1] is not None:
            handle[1].close()
        self._telemetry_handle = None

    def _shard_suite(self, shard: int) -> TestSuite:
        """The coordinator's suite for one shard (small LRU)."""
        return _shard_suite_cached(
            self._suites,
            self.seed,
            self.source,
            shard,
            self.shards,
            self._suite_kwargs(),
        )

    def _plan(self, suite: TestSuite) -> StudyPlan:
        """The study plan: shard decompositions concatenated in order.

        Shard order equals source order equals the monolithic provider
        order, so the sharded plan lists the same providers and units, in
        the same sequence, as the unsharded one — only the ``shard`` tags
        differ.
        """
        if self.shards == 1:
            plan = suite.plan_study()
        else:
            from repro.runtime.units import decompose_study

            plan = StudyPlan(
                seed=self.seed, max_vantage_points=self.max_vantage_points
            )
            for shard in range(self.shards):
                sub = decompose_study(self._shard_suite(shard), shard=shard)
                plan.providers.extend(sub.providers)
                plan.units.extend(sub.units)
        plan.source_key = self.source.plan_key()
        return plan

    # ------------------------------------------------------------------
    # The study loop: one path for both sinks
    # ------------------------------------------------------------------
    def run(self, limit_units: Optional[int] = None) -> "StudyReport":
        """Execute the study; returns the assembled report.

        Unit results stay in memory as objects until assembly (and the
        ``checkpoint_dir`` ends as the study's archive).  ``limit_units``
        stops after that many units have been *executed* (checkpointed
        units don't count) and assembles a partial report — the hook the
        resume tests and benchmarks use to simulate a study killed mid-run
        without actually killing a process.
        """
        return self._execute(_MemorySink(self.checkpoint_dir), limit_units)

    def run_streamed(
        self,
        archive_dir: str | pathlib.Path,
        per_shard: bool = False,
        limit_units: Optional[int] = None,
    ) -> StreamedStudy:
        """Execute the study, writing the archive as units complete.

        Unlike :meth:`run`, unit results never accumulate in memory: each
        completed unit's files are appended to the archive and journalled
        there immediately, and the per-provider reports are assembled one
        at a time from those files, then dropped once their verdicts are
        written.  Peak memory is O(one provider), flat in study size.  The
        archive is the run's checkpoint (``checkpoint_dir`` is not used):
        re-running into it resumes.  A committed unit whose files cannot
        be read back raises :class:`~repro.core.archive.ArchiveReadError`.

        ``per_shard=True`` writes one self-contained archive per shard
        (``<archive_dir>/shard-NNNN/``), each with its own manifest;
        :func:`repro.core.archive.merge_archives` combines them into an
        archive byte-identical to an unsharded, unstreamed run's.  With
        ``per_shard=False`` the single streamed archive itself is
        byte-identical to ``write_study_archive`` of :meth:`run`'s report.

        ``limit_units`` mirrors :meth:`run`: stop after that many executed
        units, leaving a readable archive prefix for resume tests.
        """
        return self._execute(
            _ArchiveSink(archive_dir, self.shards, per_shard), limit_units
        )

    def _execute(
        self, sink: "_ResultSink", limit_units: Optional[int]
    ) -> "StudyReport | StreamedStudy":
        """Plan, replay the journal, dispatch, assemble into *sink*."""
        telemetry = self._start_telemetry()
        try:
            started = time.perf_counter()
            suite = self._shard_suite(0)
            plan = self._plan(suite)
            self.plan = plan

            journal = sink.open(plan)
            skipped = [u for u in plan.units if u.unit_id in journal]
            pending = [u for u in plan.units if u.unit_id not in journal]
            if limit_units is not None:
                pending = pending[:limit_units]

            self.bus.publish(
                ev.StudyStarted(
                    total_units=len(plan.units),
                    providers=len(plan.providers),
                    vantage_points=plan.total_vantage_points,
                    workers=self.workers,
                    resumed_units=len(skipped),
                )
            )
            for unit in skipped:
                self.bus.publish(
                    ev.UnitSkipped(
                        unit_id=unit.unit_id,
                        wall_ms=journal[unit.unit_id].wall_ms,
                    )
                )

            if pending:
                if self.workers == 1 and self.pool is None:
                    self._run_inline(suite, plan, pending, sink)
                else:
                    self._run_pooled(plan, pending, sink)

            obs = suite.obs
            profile = obs.profile if obs is not None else None
            analysis = profile.phase("analysis") if profile else nullcontext()
            with analysis:
                self._assemble(plan, sink)
            result = sink.finish()
            if obs is not None:
                # Assembly runs on the coordinator outside any unit; its
                # profiled "analysis" phase joins the study aggregate as
                # one extra delta at the same merge point as everything
                # else.
                snapshot = obs.drain_profile()
                if snapshot is not None:
                    self.bus.publish(
                        ev.UnitMetrics(
                            unit_id="__analysis__", snapshot=snapshot
                        )
                    )
            self._finalize_obs(plan)
            self._stop_sampler()
            self.bus.publish(
                ev.StudyFinished(
                    wall_s=time.perf_counter() - started,
                    completed=self.stats.completed_units,
                    skipped=len(skipped),
                    failed=self.stats.failed_units,
                    retried=self.stats.retried_units,
                )
            )
            return result
        finally:
            self._stop_telemetry(telemetry)

    def _assemble(self, plan: StudyPlan, sink: "_ResultSink") -> None:
        """Assemble every provider into *sink*, in plan order.

        Each provider is assembled on its own shard's suite (only that
        world contains it; with one shard it is the coordinator's suite),
        so scheduling order and shard count never reach the report.
        """
        units_of: dict[str, list[AuditUnit]] = {}
        for unit in plan.units:
            units_of.setdefault(unit.provider, []).append(unit)
        for name in plan.providers:
            units = units_of.get(name, [])
            shard = units[0].shard if units else 0
            shard_suite = self._shard_suite(shard)
            unit_results = {}
            for unit in units:
                results = sink.get(unit)
                if results is not None:
                    unit_results[unit.unit_id] = results
            report = shard_suite.assemble_provider_from_plan(
                plan, name, unit_results
            )
            sink.add(shard_suite, shard, name, report)

    # ------------------------------------------------------------------
    # Inline (workers=1): the sequential path
    # ------------------------------------------------------------------
    def _run_inline(
        self,
        suite: TestSuite,
        plan: StudyPlan,
        pending: list[AuditUnit],
        sink: "_ResultSink",
    ) -> None:
        index_of = {u.unit_id: i + 1 for i, u in enumerate(plan.units)}
        for position, unit in enumerate(pending):
            if self._stopped():
                self._halt(remaining=len(pending) - position)
            self._live["queue_depth"] = len(pending) - position - 1
            self._live["in_flight"] = 1
            self.bus.publish(
                ev.UnitStarted(
                    unit_id=unit.unit_id,
                    provider=unit.provider,
                    kind=unit.kind.value,
                    index=index_of[unit.unit_id],
                    total=len(plan.units),
                    shard=unit.shard,
                )
            )
            unit_suite = (
                suite if self.shards == 1 else self._shard_suite(unit.shard)
            )
            outcome = self._attempt_with_retry(
                unit,
                lambda: _timed_run_unit(unit_suite, unit, self._suites),
            )
            if outcome is None:
                continue
            self._commit(
                unit, outcome, sink, queue_depth=len(pending) - position - 1
            )
        self._live["queue_depth"] = 0
        self._live["in_flight"] = 0

    # ------------------------------------------------------------------
    # Cooperative stop
    # ------------------------------------------------------------------
    def _stopped(self) -> bool:
        return self.stop_event is not None and self.stop_event.is_set()

    def _halt(self, remaining: int) -> None:
        """Publish the halt and raise; every committed unit is durable."""
        completed = self.stats.completed_units
        self._stop_sampler()
        self.bus.publish(
            ev.StudyHalted(completed=completed, remaining=remaining)
        )
        raise StudyInterrupted(completed=completed, remaining=remaining)

    # ------------------------------------------------------------------
    # Pooled (workers>1 or a shared pool): thread or process backend
    # ------------------------------------------------------------------
    def _run_pooled(
        self,
        plan: StudyPlan,
        pending: list[AuditUnit],
        sink: "_ResultSink",
    ) -> None:
        if self.backend == "process":
            pool: concurrent.futures.Executor = (
                concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_process_worker_init,
                    initargs=(
                        self.seed,
                        self.source,
                        self.shards,
                        self._suite_kwargs(),
                    ),
                )
            )
            run_unit: Callable[[AuditUnit], UnitOutcome] = _process_run_unit
        else:
            pool = self.pool or concurrent.futures.ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-runtime",
            )
            thread_state = threading.local()

            def run_unit(unit: AuditUnit) -> UnitOutcome:
                suites = getattr(thread_state, "suites", None)
                if suites is None:
                    suites = SuiteCache()
                    thread_state.suites = suites
                suite = _shard_suite_cached(
                    suites,
                    self.seed,
                    self.source,
                    unit.shard,
                    self.shards,
                    self._suite_kwargs(),
                )
                return _timed_run_unit(suite, unit, suites)

        index_of = {u.unit_id: i + 1 for i, u in enumerate(plan.units)}
        # future -> (unit, attempt number, dispatch timestamp)
        active: dict[concurrent.futures.Future, tuple[AuditUnit, int, float]]
        active = {}
        flagged_overrun: set[str] = set()
        stop_seen = False
        dropped = 0  # pending units cancelled before they started
        try:
            for unit in pending:
                self.bus.publish(
                    ev.UnitStarted(
                        unit_id=unit.unit_id,
                        provider=unit.provider,
                        kind=unit.kind.value,
                        index=index_of[unit.unit_id],
                        total=len(plan.units),
                        shard=unit.shard,
                    )
                )
                active[pool.submit(run_unit, unit)] = (
                    unit,
                    1,
                    time.perf_counter(),
                )
            while active:
                # Every submitted-but-unfinished unit is in `active`; at
                # most `workers` of them actually hold a worker.
                self._live["in_flight"] = min(len(active), self.workers)
                self._live["queue_depth"] = max(
                    0, len(active) - self.workers
                )
                if self._stopped() and not stop_seen:
                    # Drain: revoke everything still queued; the loop then
                    # runs on to commit the units workers already hold.
                    stop_seen = True
                    for future in list(active):
                        if future.cancel():
                            active.pop(future)
                            dropped += 1
                done, _ = concurrent.futures.wait(
                    active,
                    timeout=self._wait_timeout(),
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                if self.unit_timeout_s:
                    self._enforce_timeouts(active, done, flagged_overrun)
                for future in done:
                    unit, attempt, _dispatched = active.pop(future)
                    try:
                        outcome = future.result()
                    except concurrent.futures.CancelledError:
                        continue  # already reported by _enforce_timeouts
                    except Exception as exc:  # noqa: BLE001 - unit isolation
                        if self.retry.should_retry(attempt) and not stop_seen:
                            backoff = self.retry.backoff_s(
                                attempt, key=unit.unit_id
                            )
                            self.bus.publish(
                                ev.UnitRetried(
                                    unit_id=unit.unit_id,
                                    attempt=attempt,
                                    backoff_s=backoff,
                                    error=repr(exc),
                                )
                            )
                            if self.sleep_on_retry and backoff:
                                time.sleep(backoff)
                            active[pool.submit(run_unit, unit)] = (
                                unit,
                                attempt + 1,
                                time.perf_counter(),
                            )
                        else:
                            self.bus.publish(
                                ev.UnitFailed(
                                    unit_id=unit.unit_id,
                                    attempts=attempt,
                                    error=repr(exc),
                                )
                            )
                        continue
                    self._commit(
                        unit, outcome, sink, queue_depth=len(active)
                    )
        finally:
            self._live["queue_depth"] = 0
            self._live["in_flight"] = 0
            if pool is not self.pool:
                pool.shutdown(wait=True)
        if stop_seen:
            self._halt(remaining=dropped)

    def _wait_timeout(self) -> Optional[float]:
        """Poll interval for the dispatch loop.

        Bounded whenever a timeout must be enforced or a stop event could
        arrive; None (block until a future completes) otherwise.
        """
        if self.unit_timeout_s:
            return min(1.0, self.unit_timeout_s)
        if self.stop_event is not None:
            return 0.2
        return None

    def _enforce_timeouts(
        self,
        active: dict,
        done: set,
        flagged_overrun: set[str],
    ) -> None:
        now = time.perf_counter()
        for future, (unit, attempt, dispatched) in list(active.items()):
            if future in done or now - dispatched <= self.unit_timeout_s:
                continue
            if future.cancel():
                # Never started: a hard timeout while queued.
                active.pop(future)
                self.bus.publish(
                    ev.UnitTimedOut(
                        unit_id=unit.unit_id, timeout_s=self.unit_timeout_s
                    )
                )
                self.bus.publish(
                    ev.UnitFailed(
                        unit_id=unit.unit_id,
                        attempts=attempt,
                        error=f"timed out after {self.unit_timeout_s}s",
                    )
                )
            elif unit.unit_id not in flagged_overrun:
                # Running workers cannot be preempted; flag the overrun
                # once and let the unit finish (its result is still used).
                flagged_overrun.add(unit.unit_id)
                self.bus.publish(
                    ev.UnitTimedOut(
                        unit_id=unit.unit_id, timeout_s=self.unit_timeout_s
                    )
                )

    # ------------------------------------------------------------------
    def _attempt_with_retry(
        self, unit: AuditUnit, attempt_once: Callable[[], UnitOutcome]
    ) -> Optional[UnitOutcome]:
        attempt = 0
        while True:
            attempt += 1
            try:
                return attempt_once()
            except Exception as exc:  # noqa: BLE001 - unit isolation
                if not self.retry.should_retry(attempt):
                    self.bus.publish(
                        ev.UnitFailed(
                            unit_id=unit.unit_id,
                            attempts=attempt,
                            error=repr(exc),
                        )
                    )
                    return None
                backoff = self.retry.backoff_s(attempt, key=unit.unit_id)
                self.bus.publish(
                    ev.UnitRetried(
                        unit_id=unit.unit_id,
                        attempt=attempt,
                        backoff_s=backoff,
                        error=repr(exc),
                    )
                )
                if self.sleep_on_retry and backoff:
                    time.sleep(backoff)

    def _commit(
        self,
        unit: AuditUnit,
        outcome: UnitOutcome,
        sink: "_ResultSink",
        queue_depth: int,
    ) -> None:
        results, connect_retries, wall_ms, obs_payload, resources = outcome
        sink.put(unit, results, wall_ms, connect_retries)
        if obs_payload is not None:
            self._obs_payloads[unit.unit_id] = obs_payload
            snapshot = obs_payload.get("metrics")
            if snapshot is not None:
                # Commit is the checkpoint boundary: per-worker metrics
                # deltas merge into the study aggregate exactly when the
                # unit's results become durable.
                self.bus.publish(
                    ev.UnitMetrics(unit_id=unit.unit_id, snapshot=snapshot)
                )
        if resources and self._telemetry_on:
            self.bus.publish(
                ev.WorkerSample(unit_id=unit.unit_id, **resources)
            )
        self.bus.publish(
            ev.UnitFinished(
                unit_id=unit.unit_id,
                wall_ms=wall_ms,
                vantage_points=len(results),
                queue_depth=queue_depth,
                connect_retries=connect_retries,
            )
        )

    def _finalize_obs(self, plan: StudyPlan) -> None:
        """Assemble the study trace and publish the merged metrics.

        Trace records are concatenated in *plan order* — like result
        assembly, scheduling order never reaches the output, so the JSONL
        trace from ``workers=8 / process`` is byte-identical to the
        ``workers=1`` run (units resumed from a checkpoint were never
        executed and contribute no spans).
        """
        if self.obs_config is None:
            return
        if self.obs_config.trace_enabled:
            from repro.obs.trace import JsonlSpanSink, study_record

            records: list[dict] = [
                study_record(
                    seed=self.seed,
                    providers=plan.providers,
                    total_units=len(plan.units),
                    max_vantage_points=self.max_vantage_points,
                )
            ]
            for unit in plan.units:
                payload = self._obs_payloads.get(unit.unit_id)
                if payload:
                    records.extend(payload.get("trace") or [])
            self.trace_records = records
            if self.obs_config.trace_path:
                sink = JsonlSpanSink(self.obs_config.trace_path)
                try:
                    for record in records:
                        sink.write(record)
                finally:
                    sink.close()
        if self._metrics_aggregator is not None:
            snapshot = self._metrics_aggregator.registry.snapshot()
            self.bus.publish(ev.StudyMetrics(snapshot=snapshot))
            if self.obs_config.metrics_path:
                import json
                import pathlib

                path = pathlib.Path(self.obs_config.metrics_path)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(
                    json.dumps(snapshot, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8",
                )
