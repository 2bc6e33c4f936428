"""Top-level convenience API.

These helpers wire the full stack together: build the simulated internet with
the site catalogue and public resolvers, instantiate a provider from the
catalogue, run the measurement suite against its vantage points, and return
an analysis report.  They are what the examples and the quickstart use;
everything they do can also be done piecemeal through the subpackages.

Configuration flows through a single frozen :class:`repro.config.StudyConfig`
passed as ``config=``.  The historical keyword arguments still work but are
a deprecated shim: each entry point warns once per process and folds them
into a ``StudyConfig`` internally, so both spellings execute the exact same
path.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.config import StudyConfig
    from repro.core.harness import StudyReport
    from repro.world import World

#: Sentinel distinguishing "keyword not passed" from any real value
#: (including ``None``, which is meaningful for e.g. ``providers``).
_UNSET = object()

#: Entry points that have already emitted their legacy-kwargs warning.
_DEPRECATION_WARNED: set[str] = set()


def _legacy_config(func_name: str, passed: dict) -> "StudyConfig":
    """Fold legacy keyword arguments into a StudyConfig, warning once.

    The warning renders the exact ``config=`` call that replaces the
    legacy spelling, so migrating is a copy-paste.
    """
    from repro.config import StudyConfig

    config = StudyConfig(**passed)
    if func_name not in _DEPRECATION_WARNED:
        _DEPRECATION_WARNED.add(func_name)
        rendered = ", ".join(
            f"{name}={passed[name]!r}" for name in sorted(passed)
        )
        warnings.warn(
            f"passing keyword arguments to {func_name}() is deprecated; "
            f"replace the call with "
            f"{func_name}(config=repro.StudyConfig({rendered}))",
            DeprecationWarning,
            stacklevel=3,
        )
    return config


def _resolve_config(
    func_name: str,
    config: Optional["StudyConfig"],
    legacy: dict,
) -> "StudyConfig":
    from repro.config import StudyConfig

    passed = {k: v for k, v in legacy.items() if v is not _UNSET}
    if config is not None:
        if passed:
            raise TypeError(
                f"{func_name}() takes either config= or legacy keyword "
                f"arguments, not both (got config and "
                f"{', '.join(sorted(passed))})"
            )
        return config
    if passed:
        return _legacy_config(func_name, passed)
    return StudyConfig()


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


def audit_provider(
    name: str,
    seed=_UNSET,
    config: Optional["StudyConfig"] = None,
):
    """Run the full measurement suite against a single provider.

    A one-provider :func:`run_full_study` of *config* with its source
    replaced by *name*.  Returns a
    :class:`repro.core.harness.ProviderReport` carrying the study's
    ``obs_metrics`` (merged snapshot dict, ``None`` unless metrics are
    enabled).
    """
    config = _resolve_config("audit_provider", config, {"seed": seed})
    study = run_full_study(config.replace(providers=(name,), source=None))
    report = study.providers[name]
    report.obs_metrics = study.obs_metrics
    return report


def run_full_study(
    config: Optional["StudyConfig"] = None,
    *,
    stop_event=None,
    bus=None,
    ledger_path=None,
    sample_interval_s=None,
    seed=_UNSET,
    max_vantage_points=_UNSET,
    providers=_UNSET,
    workers=_UNSET,
    backend=_UNSET,
    checkpoint_dir=_UNSET,
    progress=_UNSET,
    obs=_UNSET,
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
    on (pass one to attach subscribers — a dashboard, a renderer — before
    the study starts); ``ledger_path`` persists the runtime telemetry
    stream as JSONL (``repro ledger show`` reads it back) and
    ``sample_interval_s`` sets the background resource sampler's cadence
    — either turns the sampler on.  Telemetry is a side channel: results
    and archive bytes are identical with or without it.

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
    import sys

    from repro.runtime.events import EventBus, TextProgressRenderer
    from repro.runtime.executor import StudyExecutor

    config = _resolve_config(
        "run_full_study",
        config,
        {
            "seed": seed,
            "max_vantage_points": max_vantage_points,
            "providers": providers,
            "workers": workers,
            "backend": backend,
            "checkpoint_dir": checkpoint_dir,
            "progress": progress,
            "obs": obs,
        },
    )
    if bus is None:
        bus = EventBus()
    if config.progress:
        bus.subscribe(TextProgressRenderer(sys.stderr))
    executor = StudyExecutor.from_config(
        config,
        bus=bus,
        stop_event=stop_event,
        ledger_path=ledger_path,
        sample_interval_s=sample_interval_s,
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
        obs=config.obs.replace(trace=True),
    )
    study = run_full_study(config=config)
    return study.providers[name], study.trace_records


def run_longitudinal_study(
    config: Optional["StudyConfig"] = None,
    *,
    stop_event=None,
    seed=_UNSET,
    snapshots=_UNSET,
    max_vantage_points=_UNSET,
    providers=_UNSET,
    workers=_UNSET,
    backend=_UNSET,
    archive_root=_UNSET,
    reseed=_UNSET,
    obs=_UNSET,
):
    """Re-run the study as *snapshots* measurements and diff the verdicts.

    Every snapshot runs *config* (its source, shards, workers and backend)
    on the executor.  ``config.reseed=True`` rebuilds each snapshot's
    world from a derived seed (an ecosystem that may drift);
    ``reseed=False`` re-measures the same world every time, so any verdict
    change is a reproducibility failure.  Returns a
    :class:`repro.runtime.scheduler.LongitudinalReport` whose ``diffs``
    list what changed between consecutive snapshots (empty when the
    ecosystem — here, the simulation — is stable).
    """
    from repro.runtime.scheduler import LongitudinalScheduler

    legacy = {
        "seed": seed,
        "snapshots": snapshots,
        "max_vantage_points": max_vantage_points,
        "providers": providers,
        "workers": workers,
        "backend": backend,
        "reseed": reseed,
        "obs": obs,
        # Historical name: this keyword is archive_root, the config
        # calls it archive_dir.
        "archive_dir": archive_root,
    }
    config = _resolve_config("run_longitudinal_study", config, legacy)
    return LongitudinalScheduler(config, stop_event=stop_event).run()
