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
    from repro.core.harness import StudyReport
    from repro.obs.config import ObsConfig

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
    """Drive *snapshots* executor runs and diff their verdicts.

    ``vantage_budgets`` (one entry per snapshot, ``None`` entries falling
    back to ``max_vantage_points``) varies measurement effort across
    snapshots; ``archive_root`` archives each snapshot under
    ``<root>/snapshot-NN`` in the standard study-archive format.
    """

    def __init__(
        self,
        seed: int = 2018,
        snapshots: int = 2,
        providers: Optional[list[str]] = None,
        max_vantage_points: Optional[int] = 5,
        vantage_budgets: Optional[Sequence[Optional[int]]] = None,
        workers: int = 1,
        backend: str = "thread",
        retry: Optional[RetryPolicy] = None,
        archive_root: Optional[str | pathlib.Path] = None,
        bus: Optional[ev.EventBus] = None,
        reseed: bool = True,
        obs: Optional["ObsConfig"] = None,
        stop_event: Optional[threading.Event] = None,
        pool: Optional[futures.Executor] = None,
        checkpoint_root: Optional[str | pathlib.Path] = None,
    ) -> None:
        if snapshots < 1:
            raise ValueError("snapshots must be >= 1")
        if vantage_budgets is not None and len(vantage_budgets) != snapshots:
            raise ValueError(
                "vantage_budgets must have one entry per snapshot "
                f"({len(vantage_budgets)} != {snapshots})"
            )
        self.seed = seed
        self.snapshots = snapshots
        self.providers = providers
        self.max_vantage_points = max_vantage_points
        self.vantage_budgets = (
            list(vantage_budgets) if vantage_budgets is not None else None
        )
        self.workers = workers
        self.backend = backend
        self.retry = retry
        self.archive_root = (
            pathlib.Path(archive_root) if archive_root is not None else None
        )
        self.bus = bus
        self.obs = obs if obs is not None and obs.enabled else None
        # stop_event halts the schedule between snapshots and drains the
        # snapshot in flight (the executor commits running units first);
        # pool lets every snapshot share one external worker pool; and
        # checkpoint_root gives each snapshot a durable checkpoint under
        # <root>/snapshot-NN so an interrupted series resumes mid-snapshot.
        self.stop_event = stop_event
        self.pool = pool
        self.checkpoint_root = (
            pathlib.Path(checkpoint_root)
            if checkpoint_root is not None
            else None
        )
        # reseed=True rebuilds each snapshot's world from a derived seed
        # (an ecosystem that may drift); reseed=False models pure
        # re-measurement of a static ecosystem, where any non-empty diff
        # is itself a reproducibility failure.
        self.reseed = reseed

    def schedule(self) -> list[SnapshotSpec]:
        specs = []
        for index in range(self.snapshots):
            budget = self.max_vantage_points
            if self.vantage_budgets is not None:
                override = self.vantage_budgets[index]
                if override is not None:
                    budget = override
            specs.append(
                SnapshotSpec(
                    index=index,
                    seed=(
                        derive_snapshot_seed(self.seed, index)
                        if self.reseed
                        else self.seed
                    ),
                    max_vantage_points=budget,
                )
            )
        return specs

    def run(self) -> LongitudinalReport:
        from repro.core.archive import write_study_archive

        report = LongitudinalReport()
        previous: Optional[dict[str, dict[str, object]]] = None
        for spec in self.schedule():
            if self.stop_event is not None and self.stop_event.is_set():
                report.interrupted = True
                break
            snapshot_obs = self.obs
            if snapshot_obs is not None and snapshot_obs.trace_path:
                # One JSONL per snapshot: <path>.snapshot-NN so traces
                # from consecutive snapshots never interleave.
                snapshot_obs = snapshot_obs.replace(
                    trace_path=f"{snapshot_obs.trace_path}.{spec.label}"
                )
            if snapshot_obs is not None and snapshot_obs.metrics_path:
                snapshot_obs = snapshot_obs.replace(
                    metrics_path=f"{snapshot_obs.metrics_path}.{spec.label}"
                )
            executor = StudyExecutor(
                seed=spec.seed,
                providers=self.providers,
                max_vantage_points=spec.max_vantage_points,
                workers=self.workers,
                backend=self.backend,
                retry=self.retry,
                bus=self.bus,
                obs=snapshot_obs,
                stop_event=self.stop_event,
                pool=self.pool,
                checkpoint_dir=(
                    str(self.checkpoint_root / spec.label)
                    if self.checkpoint_root is not None
                    else None
                ),
            )
            try:
                study = executor.run()
            except StudyInterrupted:
                # The snapshot's completed units are checkpointed (when a
                # checkpoint_root is set); the series stops cleanly here
                # and a re-run resumes this snapshot mid-flight.
                report.interrupted = True
                break
            verdicts = verdict_map(study)
            archive_dir = None
            if self.archive_root is not None:
                archive_dir = write_study_archive(
                    study, self.archive_root / spec.label
                )
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
