"""Longitudinal study scheduling.

The paper is a single cross-sectional measurement; its own discussion (and
follow-up vantage-coverage work) argues the ecosystem should be re-measured
over time — providers change infrastructure, fix leaks, or start
misrepresenting new regions.  :class:`LongitudinalScheduler` runs the same
study as *N* snapshots and diffs the per-provider verdict vectors between
consecutive snapshots, producing a :class:`LongitudinalReport` of exactly
what changed.

Each snapshot gets a deterministically derived seed
(:func:`derive_snapshot_seed`) and, optionally, its own vantage-point
budget.  The budget knob matters: several paper findings are
coverage-sensitive (a provider that misrepresents only some regions looks
clean under a 1-endpoint budget and dirty under 5), so varying budgets
across snapshots is the canonical way to study how conclusions depend on
measurement effort — while a constant-configuration schedule verifies
stability (all diffs empty, itself a reproduction claim).
"""

from __future__ import annotations

import gc
import pathlib
import threading
from concurrent import futures
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.codec import from_jsonable, to_jsonable
from repro.runtime import events as ev
from repro.runtime.executor import StudyExecutor, StudyInterrupted
from repro.runtime.retry import RetryPolicy, stable_hash

if TYPE_CHECKING:
    from repro.config import StudyConfig
    from repro.core.harness import StudyReport

#: Per-provider verdict fields compared between snapshots (mirrors the
#: verdict summary written by ``repro.core.archive``).
VERDICT_FIELDS = (
    "injection_detected",
    "proxy_detected",
    "tls_interception_detected",
    "dns_leak_detected",
    "ipv6_leak_detected",
    "webrtc_leak_detected",
    "fails_open",
    "misrepresents_locations",
)


def derive_snapshot_seed(study_seed: int, index: int) -> int:
    """Deterministic seed for snapshot *index* (0-based).

    Snapshot 0 keeps the study seed itself so a one-snapshot schedule is
    exactly the plain study; later snapshots get derived seeds.
    """
    if index == 0:
        return study_seed
    return stable_hash("snapshot-seed", study_seed, index) % (2**31)


def verdict_map(report: "StudyReport") -> dict[str, dict[str, object]]:
    """Flatten a study into {provider: {verdict field: value}}."""
    flattened: dict[str, dict[str, object]] = {}
    for name, provider_report in report.providers.items():
        flattened[name] = {
            fieldname: getattr(provider_report, fieldname)
            for fieldname in VERDICT_FIELDS
        }
    return flattened


@dataclass(frozen=True)
class VerdictChange:
    """One provider verdict that differs between consecutive snapshots."""

    provider: str
    verdict: str
    before: object
    after: object

    def describe(self) -> str:
        return (
            f"{self.provider}: {self.verdict} "
            f"{self.before!r} -> {self.after!r}"
        )


@dataclass
class SnapshotDiff:
    """Changes from snapshot ``index - 1`` to snapshot ``index``."""

    index: int
    changes: list[VerdictChange] = field(default_factory=list)
    providers_added: list[str] = field(default_factory=list)
    providers_removed: list[str] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not (
            self.changes or self.providers_added or self.providers_removed
        )


def diff_verdicts(
    before: dict[str, dict[str, object]],
    after: dict[str, dict[str, object]],
    index: int,
) -> SnapshotDiff:
    """Compare two verdict maps field by field."""
    diff = SnapshotDiff(index=index)
    diff.providers_added = sorted(set(after) - set(before))
    diff.providers_removed = sorted(set(before) - set(after))
    for provider in sorted(set(before) & set(after)):
        fields = set(before[provider]) | set(after[provider])
        for verdict in sorted(fields):
            old = before[provider].get(verdict)
            new = after[provider].get(verdict)
            if old != new:
                diff.changes.append(
                    VerdictChange(
                        provider=provider,
                        verdict=verdict,
                        before=old,
                        after=new,
                    )
                )
    return diff


@dataclass(frozen=True)
class SnapshotSpec:
    """Parameters for one snapshot in the schedule."""

    index: int
    seed: int
    max_vantage_points: Optional[int]

    @property
    def label(self) -> str:
        return f"snapshot-{self.index:02d}"


@dataclass
class SnapshotRecord:
    """One executed snapshot: its spec, verdicts, and where it landed."""

    spec: SnapshotSpec
    verdicts: dict[str, dict[str, object]]
    archive_dir: Optional[pathlib.Path] = None

    def to_dict(self) -> dict:
        """The spec's fields flattened beside the verdicts."""
        out = to_jsonable(self)
        return {**out.pop("spec"), **out}

    @classmethod
    def from_dict(cls, data: dict) -> "SnapshotRecord":
        # The flat dict carries the spec's keys too; the codec ignores
        # the keys a class does not declare.
        return from_jsonable(cls, {**data, "spec": data})


@dataclass
class LongitudinalReport:
    """All snapshots plus the consecutive diffs between them."""

    snapshots: list[SnapshotRecord] = field(default_factory=list)
    diffs: list[SnapshotDiff] = field(default_factory=list)
    #: True when the schedule was stopped before running every snapshot
    #: (daemon drain, job cancellation) — the snapshots list is a prefix.
    interrupted: bool = False

    @property
    def changed_snapshots(self) -> list[SnapshotDiff]:
        return [d for d in self.diffs if not d.is_empty]

    @property
    def is_stable(self) -> bool:
        """True when every consecutive diff is empty."""
        return not self.changed_snapshots

    def to_dict(self) -> dict:
        """The codec's form plus the derived ``stable`` flag (the shape
        ``repro.serve`` stores and serves)."""
        return {**to_jsonable(self), "stable": self.is_stable}

    def summary(self) -> str:
        lines = [
            f"{len(self.snapshots)} snapshot(s), "
            f"{len(self.changed_snapshots)} with verdict changes"
            + (" [interrupted]" if self.interrupted else "")
        ]
        for diff in self.changed_snapshots:
            lines.append(f"  snapshot {diff.index}:")
            for change in diff.changes:
                lines.append(f"    {change.describe()}")
            for name in diff.providers_added:
                lines.append(f"    provider appeared: {name}")
            for name in diff.providers_removed:
                lines.append(f"    provider disappeared: {name}")
        return "\n".join(lines)


class LongitudinalScheduler:
    """Drive ``config.snapshots`` executor runs and diff their verdicts.

    Every snapshot runs *config* (its source, shards, workers, backend and
    obs) through :meth:`StudyExecutor.from_config`, changing only the
    seed, the vantage budget, the obs output paths and the checkpoint
    directory.  Each snapshot checkpoints in ``<root>/snapshot-NN``, the
    root being ``config.checkpoint_dir`` or else ``config.archive_dir``, so
    an interrupted series resumes mid-snapshot and a finished snapshot's
    checkpoint is its study archive.  Only when ``config.archive_dir``
    names a different root is the snapshot archived there a second time.
    ``config.reseed=True`` rebuilds each snapshot's world from a derived
    seed (an ecosystem that may drift); ``False`` models pure
    re-measurement of a static ecosystem, where any non-empty diff is
    itself a reproducibility failure.

    ``vantage_budgets`` (one entry per snapshot, ``None`` entries falling
    back to ``config.max_vantage_points``) varies measurement effort
    across snapshots.  ``stop_event`` halts the schedule between snapshots
    and drains the snapshot in flight (the executor commits running units
    first), and ``pool`` lets every snapshot share one external worker
    pool.
    """

    def __init__(
        self,
        config: "StudyConfig",
        vantage_budgets: Optional[Sequence[Optional[int]]] = None,
        retry: Optional[RetryPolicy] = None,
        bus: Optional[ev.EventBus] = None,
        stop_event: Optional[threading.Event] = None,
        pool: Optional[futures.Executor] = None,
    ) -> None:
        if (
            vantage_budgets is not None
            and len(vantage_budgets) != config.snapshots
        ):
            raise ValueError(
                "vantage_budgets must have one entry per snapshot "
                f"({len(vantage_budgets)} != {config.snapshots})"
            )
        self.config = config
        self.vantage_budgets = (
            list(vantage_budgets) if vantage_budgets is not None else None
        )
        self.retry = retry
        self.bus = bus
        self.stop_event = stop_event
        self.pool = pool

    def schedule(self) -> list[SnapshotSpec]:
        config = self.config
        specs = []
        for index in range(config.snapshots):
            budget = config.max_vantage_points
            if self.vantage_budgets is not None:
                override = self.vantage_budgets[index]
                if override is not None:
                    budget = override
            specs.append(
                SnapshotSpec(
                    index=index,
                    seed=(
                        derive_snapshot_seed(config.seed, index)
                        if config.reseed
                        else config.seed
                    ),
                    max_vantage_points=budget,
                )
            )
        return specs

    def run(self) -> LongitudinalReport:
        from repro.core.archive import write_study_archive

        config = self.config
        checkpoint_root = config.checkpoint_dir or config.archive_dir
        report = LongitudinalReport()
        previous: Optional[dict[str, dict[str, object]]] = None
        for spec in self.schedule():
            if self.stop_event is not None and self.stop_event.is_set():
                report.interrupted = True
                break
            obs = config.obs
            if obs.trace_path:
                # One JSONL per snapshot: <path>.snapshot-NN so traces
                # from consecutive snapshots never interleave.
                obs = obs.replace(trace_path=f"{obs.trace_path}.{spec.label}")
            if obs.metrics_path:
                obs = obs.replace(
                    metrics_path=f"{obs.metrics_path}.{spec.label}"
                )
            executor = StudyExecutor.from_config(
                config.replace(
                    seed=spec.seed,
                    max_vantage_points=spec.max_vantage_points,
                    obs=obs,
                    stream=False,  # a snapshot is assembled in memory
                    checkpoint_dir=(
                        str(pathlib.Path(checkpoint_root) / spec.label)
                        if checkpoint_root is not None
                        else None
                    ),
                ),
                bus=self.bus,
                retry=self.retry,
                stop_event=self.stop_event,
                pool=self.pool,
            )
            try:
                study = executor.run()
            except StudyInterrupted:
                # The snapshot's completed units are checkpointed (when
                # it has a checkpoint root); the series stops cleanly here
                # and a re-run resumes this snapshot mid-flight.
                report.interrupted = True
                break
            verdicts = verdict_map(study)
            archive_dir = None
            if config.archive_dir is not None:
                archive_dir = pathlib.Path(config.archive_dir) / spec.label
                if checkpoint_root != config.archive_dir:
                    write_study_archive(study, archive_dir)
            # The snapshot's worlds are reference cycles, and units of
            # other jobs on a shared pool may hold the collector paused.
            del executor, study
            gc.collect()
            report.snapshots.append(
                SnapshotRecord(
                    spec=spec, verdicts=verdicts, archive_dir=archive_dir
                )
            )
            if previous is not None:
                report.diffs.append(
                    diff_verdicts(previous, verdicts, spec.index)
                )
            previous = verdicts
        return report
