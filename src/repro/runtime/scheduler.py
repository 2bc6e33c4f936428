"""Longitudinal study schedules and their reports.

The paper is a single cross-sectional measurement; its own discussion (and
follow-up vantage-coverage work) argues the ecosystem should be re-measured
over time — providers change infrastructure, fix leaks, or start
misrepresenting new regions.  A series (:func:`snapshot_specs`, run as
one study by the executor) re-measures as *N* snapshots and diffs the
per-provider verdict vectors between consecutive snapshots, producing a
:class:`LongitudinalReport` of exactly what changed.

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

import pathlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.codec import from_jsonable, to_jsonable
from repro.runtime.retry import stable_hash

if TYPE_CHECKING:
    from repro.config import StudyConfig
    from repro.core.harness import ProviderReport, StudyReport

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


def verdict_fields(report: "ProviderReport") -> dict[str, object]:
    """One provider's {verdict field: value}."""
    return {name: getattr(report, name) for name in VERDICT_FIELDS}


def verdict_map(report: "StudyReport") -> dict[str, dict[str, object]]:
    """Flatten a study into {provider: {verdict field: value}}."""
    return {
        name: verdict_fields(provider_report)
        for name, provider_report in report.providers.items()
    }


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


def snapshot_specs(
    config: "StudyConfig",
    vantage_budgets: Optional[Sequence[Optional[int]]] = None,
) -> list[SnapshotSpec]:
    """The ``config.snapshots`` snapshots of a series, in order: derived
    seeds when ``config.reseed``, and ``vantage_budgets`` (one per
    snapshot, ``None`` for ``config.max_vantage_points``) as budgets."""
    if vantage_budgets is None:
        vantage_budgets = [None] * config.snapshots
    if len(vantage_budgets) != config.snapshots:
        raise ValueError(
            "vantage_budgets must have one entry per snapshot "
            f"({len(vantage_budgets)} != {config.snapshots})"
        )
    return [
        SnapshotSpec(
            index=index,
            seed=(
                derive_snapshot_seed(config.seed, index)
                if config.reseed
                else config.seed
            ),
            max_vantage_points=(
                config.max_vantage_points if budget is None else budget
            ),
        )
        for index, budget in enumerate(vantage_budgets)
    ]
