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

A snapshot series (``snapshots=``) is the same loop over one plan of all
snapshots' units; each snapshot has its own sink in ``snapshot-NN``, and
keeps only its verdicts once its last unit is done and it is assembled.

One dispatch loop serves every pool.  ``workers=1`` submits to an inline
pool that runs each unit at submit time on the coordinator's own suites;
thread, process and borrowed pools take the same path.  The loop keeps at
most a window of units submitted and not yet committed — one for the
inline pool, two per worker for a real pool — so executors sharing one
pool (the serve daemon's jobs) take turns unit by unit.

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
"""

from __future__ import annotations

import concurrent.futures
import gc
import pathlib
import threading
import time
from collections import OrderedDict, deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import takewhile
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.core.harness import TestSuite
from repro.runtime import events as ev
from repro.runtime.checkpoint import CheckpointStore, CompletedUnit
from repro.runtime.dashboard import DashboardState
from repro.runtime.retry import RetryPolicy
from repro.runtime.scheduler import LongitudinalReport, SnapshotRecord
from repro.runtime.scheduler import SnapshotSpec, diff_verdicts, verdict_fields
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
    counts units committed this run, ``remaining`` the units never
    dispatched; re-running with the same checkpoint directory resumes
    exactly at the cut.
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
    cache: "OrderedDict[tuple[int, int], TestSuite]",
    seed: int,
    source: StudySource,
    shard: int,
    shards: int,
    suite_kwargs: dict,
    snapshot: int = 0,
) -> TestSuite:
    """Fetch/build a suite through a small per-worker LRU, keyed
    ``(snapshot, shard)``: a unit run again on its world probes anew."""
    key = (snapshot, shard)
    suite = cache.get(key)
    if suite is None:
        cache.misses = getattr(cache, "misses", 0) + 1
        suite = _build_shard_suite(seed, source, shard, shards, suite_kwargs)
        cache[key] = suite
        if len(cache) > _WORKER_SUITE_CACHE:
            cache.popitem(last=False)
            # The evicted world is a reference cycle, and units on other
            # threads may hold the collector paused.
            gc.collect()
    else:
        cache.hits = getattr(cache, "hits", 0) + 1
        cache.move_to_end(key)
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
    seeds: list[int], source: StudySource, shards: int, suite_kwargs: dict
) -> None:
    _COLLECTOR_PAUSE.after_fork()
    _PROCESS_STATE.update(
        seeds=seeds,
        source=source,
        shards=shards,
        suite_kwargs=suite_kwargs,
        suites=SuiteCache(),
    )


def _process_run_unit(unit: AuditUnit) -> UnitOutcome:
    suites, snapshot = _PROCESS_STATE["suites"], unit.snapshot or 0
    suite = _shard_suite_cached(
        suites,
        _PROCESS_STATE["seeds"][snapshot],
        _PROCESS_STATE["source"],
        unit.shard,
        _PROCESS_STATE["shards"],
        _PROCESS_STATE["suite_kwargs"],
        snapshot,
    )
    return _timed_run_unit(suite, unit, suites)


class _InlinePool(concurrent.futures.Executor):
    """Runs each submitted call at once, on the submitting thread."""

    def submit(self, fn, /, *args, **kwargs) -> concurrent.futures.Future:
        future: concurrent.futures.Future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 - the future carries it
            future.set_exception(exc)
        return future


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

    def __init__(self, checkpoint_dir: Optional[str | pathlib.Path]) -> None:
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


@dataclass
class _Snapshot:
    """One snapshot's share of a run (all of it, in a one-shot study)."""

    record: SnapshotRecord
    plan: StudyPlan
    sink: Optional[_ResultSink]
    journal: dict[str, CompletedUnit]
    pending: int = 0
    settled: bool = False


class StudyExecutor:
    """Run a study as a unit graph on a worker pool.

    ``workers=1`` (without a borrowed ``pool``) executes inline, in plan
    order, on the coordinator's own world: the sequential path.
    ``checkpoint_dir`` makes :meth:`run`'s progress durable: re-running
    with the same directory (and parameters) skips every unit whose
    results are already journalled there.  A streamed run's archive is its
    own checkpoint.  ``snapshots`` (from
    :func:`~repro.runtime.scheduler.snapshot_specs`) makes the run a
    snapshot series, each snapshot with its own seed and vantage budget.
    """

    def __init__(
        self,
        seed: int = 2018,
        providers: Optional[list[str]] = None,
        max_vantage_points: Optional[int] = 5,
        workers: int = 1,
        backend: str = "thread",
        retry: Optional[RetryPolicy] = None,
        checkpoint_dir: Optional[str] = None,
        bus: Optional[ev.EventBus] = None,
        obs: Optional["ObsConfig"] = None,
        stop_event: Optional[threading.Event] = None,
        pool: Optional[concurrent.futures.Executor] = None,
        source: Optional[StudySource] = None,
        shards: int = 1,
        sample_interval_s: Optional[float] = None,
        snapshots: Optional[Sequence[SnapshotSpec]] = None,
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
        if source is None:
            source = (
                StudySource.explicit(providers)
                if providers is not None
                else StudySource.catalog()
            )
        self.source = source
        self.shards = shards
        self.max_vantage_points = max_vantage_points
        self.snapshots = list(snapshots) if snapshots is not None else None
        # A one-shot study runs as the one snapshot of its own parameters.
        self._specs = self.snapshots or [
            SnapshotSpec(0, seed, max_vantage_points)
        ]
        self._seeds = [spec.seed for spec in self._specs]
        self.workers = workers
        self.backend = backend
        self.retry = retry or RetryPolicy.single_retry()
        self.checkpoint_dir = checkpoint_dir
        self.bus = bus or ev.EventBus()
        # stop_event is the cooperative cancellation point: when set, the
        # executor stops dispatching, commits every unit already running,
        # and raises StudyInterrupted.  pool, when given, is an external
        # ThreadPoolExecutor of `workers` threads shared with other
        # executors (the serve daemon's); the executor never shuts it down.
        self.stop_event = stop_event
        self.pool = pool
        self.obs_config = obs if obs is not None and obs.enabled else None
        self._fold = DashboardState()
        self._obs_payloads: dict[str, dict] = {}
        self.trace_records: Optional[list[dict]] = None
        self.plan: Optional[StudyPlan] = None
        # Runtime telemetry: a background ResourceSampler ticks at this
        # cadence, and workers' resource readings are published, when set.
        self.sample_interval_s = sample_interval_s
        self._sampler = None
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

    @property
    def stats(self) -> ev.ExecutionStats:
        return self._fold.stats

    @property
    def metrics(self) -> Optional["MetricsRegistry"]:
        """The merged study-wide registry (None unless metrics enabled)."""
        if self.obs_config is None or not self.obs_config.metrics_enabled:
            return None
        return self._fold.registry

    @property
    def flight_dumps(self) -> list[dict]:
        """Flight-recorder dumps from executed units, in plan order."""
        if self.plan is None:
            return []
        dumps: list[dict] = []
        for unit in self.plan.units:
            payload = self._obs_payloads.get(unit.key)
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
    # Runtime telemetry: the resource sampler's lifecycle
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

    def _start_sampler(self) -> None:
        """Start the resource sampler when a cadence is set.

        Off by default: the zero-overhead path starts no thread.
        """
        if self.sample_interval_s is None:
            return
        from repro.obs.sample import ResourceSampler

        self._sampler = ResourceSampler(
            bus=self.bus,
            probe=self._resource_probe,
            interval_s=self.sample_interval_s,
        )
        self._sampler.start()

    def _stop_sampler(self) -> None:
        """Stop the ticker ahead of the terminal bus event.

        Stop emits one final sample so even sub-interval runs log at
        least one reading; calling this *before* StudyFinished/StudyHalted
        publishes keeps the terminal event last on the bus — consumers
        (the serve event stream, watch) rely on that ordering.
        """
        sampler, self._sampler = self._sampler, None
        if sampler is not None:
            sampler.stop()

    def _shard_suite(self, snapshot: int, shard: int) -> TestSuite:
        """The coordinator's suite for one snapshot's shard (small LRU)."""
        return _shard_suite_cached(
            self._suites,
            self._seeds[snapshot],
            self.source,
            shard,
            self.shards,
            self._suite_kwargs(),
            snapshot,
        )

    def _plan(self, spec: SnapshotSpec) -> StudyPlan:
        """One snapshot's plan: shard decompositions concatenated in order.

        Shard order equals source order equals the monolithic provider
        order, so the sharded plan lists the same providers and units, in
        the same sequence, as the unsharded one — only the ``shard`` tags
        differ.  In a series every unit is tagged with its snapshot too.
        """
        from repro.runtime.units import decompose_study

        plan = StudyPlan(spec.seed, spec.max_vantage_points)
        plan.source_key = self.source.plan_key()
        snapshot = spec.index if self.snapshots is not None else None
        for shard in range(self.shards):
            suite = self._shard_suite(spec.index, shard)
            # The snapshot's budget matters only here, selecting endpoints.
            suite.max_vantage_points = spec.max_vantage_points
            sub = decompose_study(suite, shard=shard, snapshot=snapshot)
            plan.providers.extend(sub.providers)
            plan.units.extend(sub.units)
        return plan

    # ------------------------------------------------------------------
    # The study loop: one path for both sinks
    # ------------------------------------------------------------------
    def run(self) -> "StudyReport | LongitudinalReport":
        """Execute the study; returns the assembled report (a series,
        its :class:`~repro.runtime.scheduler.LongitudinalReport`).

        Unit results stay in memory as objects until assembly (and the
        ``checkpoint_dir`` ends as the study's archive; a snapshot's in
        its ``snapshot-NN``).
        """
        return self._execute(self.checkpoint_dir, _MemorySink)

    def run_streamed(
        self, archive_dir: str | pathlib.Path, per_shard: bool = False
    ) -> "StreamedStudy | LongitudinalReport":
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
        A series streams each snapshot into ``<archive_dir>/snapshot-NN``.
        """
        return self._execute(
            archive_dir,
            lambda store: _ArchiveSink(store, self.shards, per_shard),
        )

    def _execute(
        self,
        root: Optional[str | pathlib.Path],
        make_sink: Callable[[Optional[pathlib.Path]], "_ResultSink"],
    ) -> "StudyReport | StreamedStudy | LongitudinalReport":
        """Plan and open each snapshot (with ``make_sink`` of its store
        under *root*), replay the journals, dispatch, settle."""
        # The fold sees only this run: a shared bus must neither replay
        # earlier runs into it nor feed it later ones.
        self.bus.subscribe(self._fold, replay=False)
        self._start_sampler()
        try:
            started = time.perf_counter()
            snapshots: list[_Snapshot] = []
            # Planned last to first, so the coordinator's suite cache is
            # left holding the worlds of the snapshots that run first.
            for spec in reversed(self._specs):
                label = spec.label if self.snapshots is not None else ""
                store = pathlib.Path(root, label) if root else None
                plan, sink = self._plan(spec), make_sink(store)
                record = SnapshotRecord(spec, {}, store)
                snapshots.insert(
                    0, _Snapshot(record, plan, sink, sink.open(plan))
                )
            if self.snapshots is None:
                self.plan = snapshots[0].plan
            units = [(s, u) for s in snapshots for u in s.plan.units]
            skipped = [u for s, u in units if u.unit_id in s.journal]
            pending = [u for s, u in units if u.unit_id not in s.journal]
            for unit in pending:
                snapshots[unit.snapshot or 0].pending += 1

            plans = [snapshot.plan for snapshot in snapshots]
            self.bus.publish(
                ev.StudyStarted(
                    total_units=len(skipped) + len(pending),
                    providers=len(set().union(*(p.providers for p in plans))),
                    vantage_points=sum(p.total_vantage_points for p in plans),
                    workers=self.workers,
                    resumed_units=len(skipped),
                )
            )
            for unit in skipped:
                journal = snapshots[unit.snapshot or 0].journal
                self.bus.publish(
                    ev.UnitSkipped(
                        unit_id=unit.key, wall_ms=journal[unit.unit_id].wall_ms
                    )
                )

            try:
                for snapshot in snapshots:
                    if self.snapshots is not None and not snapshot.pending:
                        self._settle(snapshot)
                if pending:
                    self._dispatch(snapshots, pending)
            except StudyInterrupted:
                if self.snapshots is None:
                    raise
                return self._series_report(snapshots, interrupted=True)
            if self.snapshots is None:
                result = self._settle(snapshots[0])
            else:
                result = self._series_report(snapshots, interrupted=False)
            self._finalize_obs()
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
            self._stop_sampler()
            self.bus.unsubscribe(self._fold)

    def _settle(
        self, snapshot: _Snapshot
    ) -> "Optional[StudyReport | StreamedStudy]":
        """Assemble a snapshot whose every unit is done; a series keeps
        its verdicts only, and drops its report and coordinator worlds."""
        result = self._assemble(snapshot)
        self._write_trace(snapshot)
        if self.snapshots is None:
            return result
        del result
        snapshot.settled, snapshot.sink = True, None
        for unit in snapshot.plan.units:
            self._obs_payloads.pop(unit.key, None)
        index = snapshot.record.spec.index
        for key in [key for key in self._suites if key[0] == index]:
            del self._suites[key]
        # Worlds are reference cycles, and units of other jobs on a shared
        # pool may hold the collector paused.
        gc.collect()

    def _series_report(
        self, snapshots: list[_Snapshot], interrupted: bool
    ) -> LongitudinalReport:
        """The settled snapshots before the first unsettled one, diffed."""
        records = [s.record for s in takewhile(lambda s: s.settled, snapshots)]
        return LongitudinalReport(
            snapshots=records,
            diffs=[
                diff_verdicts(old.verdicts, new.verdicts, new.spec.index)
                for old, new in zip(records, records[1:])
            ],
            interrupted=interrupted,
        )

    def _assemble(
        self, snapshot: _Snapshot
    ) -> "StudyReport | StreamedStudy":
        """Assemble each provider of *snapshot* into its sink, in plan order.

        Each provider is assembled on its own shard's suite (only that
        world contains it; with one shard it is the coordinator's suite),
        so scheduling order and shard count never reach the report.
        """
        plan, sink = snapshot.plan, snapshot.sink
        index = snapshot.record.spec.index
        obs = self._shard_suite(index, 0).obs if self.obs_config else None
        profile = obs.profile if obs is not None else None
        units_of: dict[str, list[AuditUnit]] = {}
        for unit in plan.units:
            units_of.setdefault(unit.provider, []).append(unit)
        with profile.phase("analysis") if profile else nullcontext():
            for name in plan.providers:
                units = units_of.get(name, [])
                shard = units[0].shard if units else 0
                shard_suite = self._shard_suite(index, shard)
                unit_results = {}
                for unit in units:
                    results = sink.get(unit)
                    if results is not None:
                        unit_results[unit.unit_id] = results
                report = shard_suite.assemble_provider_from_plan(
                    plan, name, unit_results
                )
                sink.add(shard_suite, shard, name, report)
                snapshot.record.verdicts[name] = verdict_fields(report)
        result = sink.finish()
        if obs is not None:
            # Assembly runs on the coordinator outside any unit; its
            # profiled "analysis" phase joins the study aggregate as one
            # extra delta at the same merge point as everything else.
            drained = obs.drain_profile()
            if drained is not None:
                self.bus.publish(
                    ev.UnitMetrics(unit_id="__analysis__", snapshot=drained)
                )
        return result

    # ------------------------------------------------------------------
    # Dispatch: one loop for the inline, thread, process and shared pools
    # ------------------------------------------------------------------
    def _pool(
        self,
    ) -> tuple[
        concurrent.futures.Executor, Callable[[AuditUnit], UnitOutcome], int
    ]:
        """The pool this run dispatches to, its unit runner and window.

        The window caps the units submitted and not yet committed: one for
        the inline pool, and two per worker for a real pool, so no worker
        idles while the coordinator commits.
        """
        if self.workers == 1 and self.pool is None:

            def run_inline(unit: AuditUnit) -> UnitOutcome:
                suite = self._shard_suite(unit.snapshot or 0, unit.shard)
                return _timed_run_unit(suite, unit, self._suites)

            return _InlinePool(), run_inline, 1
        if self.backend == "process":
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_process_worker_init,
                initargs=(
                    self._seeds, self.source, self.shards, self._suite_kwargs()
                ),
            )
            return pool, _process_run_unit, 2 * self.workers
        thread_state = threading.local()

        def run_unit(unit: AuditUnit) -> UnitOutcome:
            suites = getattr(thread_state, "suites", None)
            if suites is None:
                suites = SuiteCache()
                thread_state.suites = suites
            suite = _shard_suite_cached(
                suites,
                self._seeds[unit.snapshot or 0],
                self.source,
                unit.shard,
                self.shards,
                self._suite_kwargs(),
                unit.snapshot or 0,
            )
            return _timed_run_unit(suite, unit, suites)

        pool = self.pool or concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-runtime"
        )
        return pool, run_unit, 2 * self.workers

    def _dispatch(
        self, snapshots: list[_Snapshot], pending: list[AuditUnit]
    ) -> None:
        """Run *pending* through the pool's window, committing each unit.

        A unit is submitted, and its ``UnitStarted`` published, only when
        a slot frees.  A failed attempt is resubmitted while the retry
        policy allows it and no stop has been seen.  A series snapshot
        settles as soon as its last unit is committed or has failed.  On a
        stop the loop submits nothing more, cancels what the pool has not
        started, commits the rest as it finishes, and halts with the units
        never dispatched as ``remaining``.
        """
        pool, run_unit, window = self._pool()
        units = [u for snapshot in snapshots for u in snapshot.plan.units]
        index_of = {u.key: i + 1 for i, u in enumerate(units)}
        queue = deque(pending)
        # future -> (unit, attempt number)
        active: dict[concurrent.futures.Future, tuple[AuditUnit, int]] = {}
        stopping = False
        try:
            while True:
                if not stopping and self._stopped():
                    stopping = True
                    for future in list(active):
                        if future.cancel():
                            queue.append(active.pop(future)[0])
                while queue and len(active) < window and not stopping:
                    unit = queue.popleft()
                    self._live["queue_depth"] = len(queue)
                    self._live["in_flight"] = len(active) + 1
                    self.bus.publish(
                        ev.UnitStarted(
                            unit_id=unit.key,
                            provider=unit.provider,
                            kind=unit.kind.value,
                            index=index_of[unit.key],
                            total=len(units),
                            shard=unit.shard,
                        )
                    )
                    active[pool.submit(run_unit, unit)] = (unit, 1)
                if not active:
                    break
                # With a stop event, wake up to see a stop while every
                # worker is still busy.
                done, _ = concurrent.futures.wait(
                    active,
                    timeout=0.2 if self.stop_event is not None else None,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                for future in done:
                    unit, attempt = active.pop(future)
                    snapshot = snapshots[unit.snapshot or 0]
                    try:
                        outcome = future.result()
                    except Exception as exc:  # noqa: BLE001 - unit isolation
                        if self.retry.should_retry(attempt) and not stopping:
                            self.bus.publish(
                                ev.UnitRetried(
                                    unit_id=unit.key,
                                    attempt=attempt,
                                    backoff_s=self.retry.backoff_s(
                                        attempt, key=unit.unit_id
                                    ),
                                    error=repr(exc),
                                )
                            )
                            active[pool.submit(run_unit, unit)] = (
                                unit, attempt + 1
                            )
                            continue
                        self.bus.publish(
                            ev.UnitFailed(
                                unit_id=unit.key,
                                attempts=attempt,
                                error=repr(exc),
                            )
                        )
                    else:
                        self._commit(
                            unit, outcome, snapshot.sink,
                            queue_depth=len(queue) + len(active),
                        )
                    snapshot.pending -= 1
                    if not snapshot.pending and self.snapshots is not None:
                        self._settle(snapshot)
                self._live["in_flight"] = len(active)
        finally:
            self._live["queue_depth"] = 0
            self._live["in_flight"] = 0
            if pool is not self.pool:
                pool.shutdown(wait=True)
        if stopping:
            self._halt(remaining=len(queue))

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
            self._obs_payloads[unit.key] = obs_payload
            snapshot = obs_payload.get("metrics")
            if snapshot is not None:
                # Commit is the checkpoint boundary: per-worker metrics
                # deltas merge into the study aggregate exactly when the
                # unit's results become durable.
                self.bus.publish(
                    ev.UnitMetrics(unit_id=unit.key, snapshot=snapshot)
                )
        if resources and self.sample_interval_s is not None:
            self.bus.publish(
                ev.WorkerSample(unit_id=unit.key, **resources)
            )
        self.bus.publish(
            ev.UnitFinished(
                unit_id=unit.key,
                wall_ms=wall_ms,
                vantage_points=len(results),
                queue_depth=queue_depth,
                connect_retries=connect_retries,
            )
        )

    def _write_trace(self, snapshot: _Snapshot) -> None:
        """Assemble a snapshot's trace (the study's, in a one-shot run).

        Trace records are concatenated in *plan order* — like result
        assembly, scheduling order never reaches the output, so the JSONL
        trace from ``workers=8 / process`` is byte-identical to the
        ``workers=1`` run (units resumed from a checkpoint were never
        executed and contribute no spans).  Snapshots that share a seed
        share span ids, so each writes ``<trace_path>.snapshot-NN``.
        """
        if self.obs_config is None or not self.obs_config.trace_enabled:
            return
        from repro.obs.trace import JsonlSpanSink, study_record

        plan = snapshot.plan
        records: list[dict] = [
            study_record(
                seed=plan.seed,
                providers=plan.providers,
                total_units=len(plan.units),
                max_vantage_points=plan.max_vantage_points,
            )
        ]
        for unit in plan.units:
            payload = self._obs_payloads.get(unit.key)
            if payload:
                records.extend(payload.get("trace") or [])
        self.trace_records = records
        path = self.obs_config.trace_path
        if path and self.snapshots is not None:
            path = f"{path}.{snapshot.record.spec.label}"
        if path:
            sink = JsonlSpanSink(path)
            try:
                for record in records:
                    sink.write(record)
            finally:
                sink.close()

    def _finalize_obs(self) -> None:
        """Publish the run's merged metrics (and write ``metrics_path``)."""
        if self.metrics is not None:
            snapshot = self.metrics.snapshot()
            self.bus.publish(ev.StudyMetrics(snapshot=snapshot))
            if self.obs_config.metrics_path:
                import json

                path = pathlib.Path(self.obs_config.metrics_path)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(
                    json.dumps(snapshot, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8",
                )
