"""Work-unit decomposition of a study.

The paper's study is embarrassingly parallel once phrased as independent
work units: for each provider, one *full-battery* run per selected vantage
point (the manual ~5-endpoint evaluation of Section 5.2) plus one
*lightweight sweep* over every remaining vantage point (the automated
ping/geolocation collection that covered all 1,046 endpoints).  This module
turns a world into that explicit unit list — a :class:`StudyPlan` — which
the executor runs in any order on any number of workers and then reassembles
in plan order, so the resulting :class:`~repro.core.harness.StudyReport`
is identical to a sequential run.

Each unit carries a seed derived deterministically from
``(study seed, provider, hostname)`` via a process-independent hash, so any
per-unit randomness (retry jitter today, stochastic probe schedules
tomorrow) is a stable function of the unit, not of scheduling.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.codec import from_jsonable, to_jsonable
from repro.core.archive import _slug
from repro.runtime.retry import stable_hash

if TYPE_CHECKING:
    from repro.core.harness import TestSuite


class UnitKind(enum.Enum):
    """What a unit runs at its vantage point(s)."""

    FULL = "full"       # complete battery at one endpoint
    SWEEP = "sweep"     # ping + geolocation over the remaining endpoints


def derive_unit_seed(study_seed: int, provider: str, hostname: str) -> int:
    """Deterministic per-unit seed; identical at any worker count."""
    return stable_hash("unit-seed", study_seed, provider, hostname)


@dataclass(frozen=True)
class AuditUnit:
    """One independently executable slice of the study.

    ``shard`` names the world shard the unit's provider lives in
    (always 0 for unsharded studies); workers use it to pick the right
    world template.  It is routing metadata, not identity — two plans
    that differ only in shard assignment have identical unit ids and
    can resume each other's checkpoints.
    """

    provider: str
    kind: UnitKind
    hostnames: tuple[str, ...]
    seed: int
    shard: int = 0

    @property
    def unit_id(self) -> str:
        """Stable identifier used for checkpoints, events and retry keys."""
        anchor = _slug(self.hostnames[0]) if self.kind is UnitKind.FULL else "all"
        return f"{_slug(self.provider)}::{self.kind.value}::{anchor}"

    @property
    def vantage_point_count(self) -> int:
        return len(self.hostnames)

    def describe(self) -> str:
        if self.kind is UnitKind.FULL:
            return f"{self.provider} full battery @ {self.hostnames[0]}"
        return (
            f"{self.provider} infrastructure sweep "
            f"({len(self.hostnames)} endpoints)"
        )


@dataclass
class StudyPlan:
    """The ordered unit list plus the parameters that produced it.

    The order is the inline executor's execution order; assembly walks it,
    so the report never depends on the order units actually ran in.
    """

    seed: int
    max_vantage_points: int | None
    providers: list[str] = field(default_factory=list)
    #: Extra compatibility marker for non-catalogue studies (a generated
    #: source's parameters); None for catalogue/explicit studies so their
    #: fingerprints — and existing checkpoints — stay unchanged.  Declared
    #: before ``units`` because field order is the plan pin's key order.
    source_key: str | None = None
    units: list[AuditUnit] = field(default_factory=list)

    @property
    def total_vantage_points(self) -> int:
        return sum(u.vantage_point_count for u in self.units)

    def unit_ids(self) -> list[str]:
        return [u.unit_id for u in self.units]

    # ------------------------------------------------------------------
    # Serialisation (a checkpoint pins the plan so a resume can refuse to
    # mix incompatible studies).
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(to_jsonable(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "StudyPlan":
        return from_jsonable(cls, json.loads(text))

    def fingerprint(self) -> str:
        """Compatibility key for checkpoint validation.

        Shard assignment is deliberately excluded: units are identical at
        any shard count, so a 4-shard run may resume a 1-shard checkpoint
        (and vice versa).  A generated source's parameters are included —
        the same names with different topology knobs plan different units.
        """
        base = (
            f"seed={self.seed}"
            f"|max_vps={self.max_vantage_points}"
            f"|providers={','.join(self.providers)}"
        )
        if self.source_key:
            base += f"|source={self.source_key}"
        return base


def decompose_study(suite: "TestSuite", shard: int = 0) -> StudyPlan:
    """Decompose *suite*'s world into the study's unit graph.

    Providers in the world's order; per provider, the selected endpoints
    (full battery) in selection order, then a single sweep unit over every
    remaining endpoint.  ``shard`` tags every unit with the world shard it
    belongs to; a sharded plan is the concatenation of per-shard
    decompositions in shard order.
    """
    world = suite.world
    plan = StudyPlan(
        seed=world.seed, max_vantage_points=suite.max_vantage_points
    )
    for name, provider in world.providers.items():
        plan.providers.append(name)
        selected = suite.select_vantage_points(provider)
        selected_names = {vp.hostname for vp in selected}
        for vantage_point in selected:
            plan.units.append(
                AuditUnit(
                    provider=name,
                    kind=UnitKind.FULL,
                    hostnames=(vantage_point.hostname,),
                    seed=derive_unit_seed(
                        world.seed, name, vantage_point.hostname
                    ),
                    shard=shard,
                )
            )
        remaining = tuple(
            vp.hostname
            for vp in provider.vantage_points
            if vp.hostname not in selected_names
        )
        if remaining:
            plan.units.append(
                AuditUnit(
                    provider=name,
                    kind=UnitKind.SWEEP,
                    hostnames=remaining,
                    seed=derive_unit_seed(world.seed, name, "*sweep*"),
                    shard=shard,
                )
            )
    return plan
