"""Top-level convenience API.

These helpers wire the full stack together: build the simulated internet with
the site catalogue and public resolvers, instantiate a provider from the
catalogue, run the measurement suite against its vantage points, and return
an analysis report.  They are what the examples and the quickstart use;
everything they do can also be done piecemeal through the subpackages.

Configuration flows through a single frozen :class:`repro.config.StudyConfig`
passed as ``config=``; ``config=None`` means ``StudyConfig()``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.config import StudyConfig
    from repro.core.harness import StudyReport
    from repro.world import World


def build_study(
    seed: int = 2018, providers: Optional[list[str]] = None
) -> "World":
    """Build the simulated world: internet, sites, resolvers, providers.

    ``providers`` selects a subset of the 62-provider catalogue by name;
    ``None`` builds all of them.

    Worlds come from the process-wide snapshot cache: the first build of a
    ``(seed, providers)`` key constructs from scratch, later calls restore
    an isolated clone from the pickled template (~10x faster).
    """
    from repro.world_factory import WorldFactory

    return WorldFactory.clone(seed=seed, provider_names=providers)


def audit_provider(name: str, *, config: Optional["StudyConfig"] = None):
    """Run the full measurement suite against a single provider.

    A one-provider :func:`run_full_study` of *config* with its source
    replaced by *name*.  Returns a
    :class:`repro.core.harness.ProviderReport` carrying the study's
    ``obs_metrics`` (merged snapshot dict, ``None`` unless metrics are
    enabled).
    """
    from repro.config import StudyConfig

    if config is None:
        config = StudyConfig()
    study = run_full_study(config.replace(providers=(name,), source=None))
    report = study.providers[name]
    report.obs_metrics = study.obs_metrics
    return report


def run_full_study(
    config: Optional["StudyConfig"] = None,
    *,
    stop_event=None,
    bus=None,
    sample_interval_s=None,
):
    """Run the paper's full study: all 62 providers.

    ``config.max_vantage_points`` caps vantage points per manually-evaluated
    provider (the paper used ~5); ``None`` tests every vantage point.

    Orchestration goes through :class:`repro.runtime.StudyExecutor`:
    ``config.workers`` sets the pool size (1 = inline sequential),
    ``config.backend`` picks ``"thread"`` or ``"process"`` workers,
    ``config.checkpoint_dir`` makes progress durable so re-running with the
    same directory resumes a killed study, and ``config.progress`` prints
    per-unit progress lines.  ``config.obs`` turns on tracing, metrics, and
    the flight recorder.  The report is byte-identical at any worker count.

    ``stop_event`` (a :class:`threading.Event`) requests a graceful stop:
    when set, the executor finishes in-flight units, flushes the
    checkpoint, and raises :class:`repro.runtime.StudyInterrupted` — this
    is what the CLI's SIGTERM handler and the serve daemon use.

    ``bus`` supplies the :class:`repro.runtime.EventBus` the run publishes
    on (pass one to attach subscribers — a dashboard, a renderer, an
    :class:`repro.runtime.EventLog` that ``repro ledger show`` reads back —
    before the study starts), and ``sample_interval_s`` turns on the
    background resource sampler at that cadence.  Telemetry is a side
    channel: results and archive bytes are identical with or without it.

    ``config.source`` generalises ``config.providers``: a
    :class:`repro.StudySource` naming the catalogue, an explicit provider
    list, or a generated ecosystem; ``config.shards`` splits world
    construction so workers only hold a provider slice.

    Returns a :class:`repro.core.harness.StudyReport`.  With
    ``config.stream=True`` the archive is written incrementally to
    ``config.archive_dir`` and a
    :class:`repro.runtime.executor.StreamedStudy` is returned instead —
    verdicts and manifest in memory, results on disk only.  Either result
    carries ``obs_metrics`` (merged snapshot dict, ``None`` unless metrics
    are enabled) and ``trace_records`` (the assembled span list or
    ``None``).
    """
    from repro.config import StudyConfig

    config = config or StudyConfig()
    executor = _executor(
        config, bus, stop_event=stop_event, sample_interval_s=sample_interval_s
    )
    # A streamed run writes one combined archive regardless of shard
    # count; per-shard archives are run_streamed(per_shard=True).
    study = (
        executor.run_streamed(config.archive_dir)
        if config.stream
        else executor.run()
    )
    metrics = executor.metrics
    study.obs_metrics = metrics.snapshot() if metrics is not None else None
    study.trace_records = executor.trace_records
    return study


def explain_provider(
    name: str,
    config: Optional["StudyConfig"] = None,
):
    """Audit one provider with tracing forced on; return explainable output.

    Runs the study through the executor (the unit-span path — evidence
    chains only exist inside unit/test spans) with ``obs.trace`` enabled
    regardless of what *config* says, so every verdict comes back with an
    :class:`~repro.obs.evidence.EvidenceChain` resolvable against the
    returned trace.

    Returns ``(ProviderReport, trace_records)`` — the report's
    ``evidence_chains()`` reference span IDs found in ``trace_records``.
    This is the engine behind ``repro report explain <provider>``.
    """
    from repro.config import StudyConfig

    if config is None:
        config = StudyConfig()
    config = config.replace(
        providers=(name,),
        source=None,
        obs=config.obs.replace(trace=True),
    )
    study = run_full_study(config=config)
    return study.providers[name], study.trace_records


def run_longitudinal_study(
    config: Optional["StudyConfig"] = None,
    *,
    stop_event=None,
    bus=None,
    sample_interval_s=None,
    vantage_budgets=None,
):
    """Re-run the study as *snapshots* measurements and diff the verdicts.

    The series is one study (one plan, pool and bus; the keywords act as
    in :func:`run_full_study`).  ``config.reseed=True`` rebuilds each
    snapshot's world from a derived seed (an ecosystem that may drift);
    ``reseed=False`` re-measures the same world, so any verdict change is
    a reproducibility failure.  ``vantage_budgets`` sets each snapshot's
    budget.  Snapshot N checkpoints in ``<root>/snapshot-NN`` (the root:
    ``config.checkpoint_dir``, else ``config.archive_dir``), which is its
    archive once finished.  Returns a
    :class:`repro.runtime.scheduler.LongitudinalReport` whose ``diffs``
    list what changed between snapshots; a stop returns the snapshots
    before the first one it cut short, marked ``interrupted``.
    """
    import pathlib
    import shutil

    from repro.config import StudyConfig
    from repro.runtime.checkpoint import CheckpointStore
    from repro.runtime.scheduler import snapshot_specs

    config = config or StudyConfig()
    root = config.checkpoint_dir or config.archive_dir
    executor = _executor(
        config,
        bus,
        stop_event=stop_event,
        sample_interval_s=sample_interval_s,
        checkpoint_dir=root,
        snapshots=snapshot_specs(config, vantage_budgets),
    )
    if config.stream:
        return executor.run_streamed(config.archive_dir)
    report = executor.run()
    if config.archive_dir and root != config.archive_dir:
        for record in report.snapshots:  # a finished checkpoint's copy
            target = pathlib.Path(config.archive_dir, record.spec.label)
            shutil.copytree(record.archive_dir, target, dirs_exist_ok=True)
            CheckpointStore(target).prune()
            record.archive_dir = target
    return report


def _executor(config: "StudyConfig", bus, **overrides):
    import sys

    from repro.runtime.events import EventBus, TextProgressRenderer
    from repro.runtime.executor import StudyExecutor

    bus = bus or EventBus()
    if config.progress:
        bus.subscribe(TextProgressRenderer(sys.stderr))
    return StudyExecutor.from_config(config, bus=bus, **overrides)
