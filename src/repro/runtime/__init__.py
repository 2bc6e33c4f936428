"""repro.runtime — parallel, checkpointable study execution.

The runtime decomposes a study into independent work units
(:mod:`~repro.runtime.units`), executes them on a worker pool and retries
a failed unit once (:mod:`~repro.runtime.executor`,
:mod:`~repro.runtime.retry`), checkpoints completed units so a killed study
resumes (:mod:`~repro.runtime.checkpoint`), and publishes progress events
(:mod:`~repro.runtime.events`); an N-snapshot longitudinal series
(:mod:`~repro.runtime.scheduler`) is one plan on the same executor.

Exports are lazy (PEP 562): ``repro.core.harness`` imports
``repro.runtime.retry`` at module load while ``repro.runtime.executor``
imports the harness back, so eagerly importing submodules here would create
an import cycle.  Attribute access loads the owning submodule on demand.
"""

from __future__ import annotations

_EXPORTS = {
    "stable_hash": "repro.runtime.retry",
    "AuditUnit": "repro.runtime.units",
    "StudyPlan": "repro.runtime.units",
    "UnitKind": "repro.runtime.units",
    "decompose_study": "repro.runtime.units",
    "derive_unit_seed": "repro.runtime.units",
    "EventBus": "repro.runtime.events",
    "EventLog": "repro.runtime.events",
    "ExecutionStats": "repro.runtime.events",
    "read_events": "repro.runtime.events",
    "TextProgressRenderer": "repro.runtime.events",
    "CheckpointMismatchError": "repro.runtime.checkpoint",
    "CheckpointStore": "repro.runtime.checkpoint",
    "StudyExecutor": "repro.runtime.executor",
    "StudyInterrupted": "repro.runtime.executor",
    "StudyHalted": "repro.runtime.events",
    "LongitudinalReport": "repro.runtime.scheduler",
    "SnapshotDiff": "repro.runtime.scheduler",
    "VerdictChange": "repro.runtime.scheduler",
    "derive_snapshot_seed": "repro.runtime.scheduler",
    "diff_verdicts": "repro.runtime.scheduler",
    "snapshot_specs": "repro.runtime.scheduler",
    "verdict_map": "repro.runtime.scheduler",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
