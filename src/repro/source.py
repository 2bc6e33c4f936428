"""Study input sources: *what* a study measures, as a first-class value.

Historically the only way to scope a study was the ad-hoc ``providers=``
filter threaded through the CLI, ``repro.api`` and the serve protocol — a
list of catalogue names or ``None`` for "all 62".  Ecosystem-scale studies
need a third shape: providers that do not exist in the catalogue at all but
are generated parametrically (``repro.ecosystem.generate``).  A
:class:`StudySource` names any of the three uniformly:

- ``catalog``   — the paper's 62-provider catalogue (the default);
- ``explicit``  — a fixed list of catalogue provider names;
- ``generated`` — ``count`` synthetic-but-fully-auditable providers derived
  from a generator seed, realised lazily (and shard by shard) so a
  10,000-provider study never materialises 10,000 profiles at once.

The source is plain data (frozen, hashable, JSON round-trip) so it can ride
inside :class:`repro.config.StudyConfig`, a serve job request, or an
on-disk *ecosystem spec* file that ``repro ecosystem generate`` emits and
``repro study --source`` / ``repro client submit --source`` both accept.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.codec import from_jsonable, to_jsonable

if TYPE_CHECKING:
    from repro.ecosystem.generate import ProviderSource
    from repro.vpn.provider import ProviderProfile

_KINDS = ("catalog", "explicit", "generated")

#: Magic/format fields of the spec file ``repro ecosystem generate`` writes.
SPEC_FORMAT = "repro-ecosystem-spec"
SPEC_VERSION = 1

#: Generated vantage points live two-per-slot in one /24 (so a deliberate
#: fraction of provider pairs can share a block, reproducing the paper's
#: shared-infrastructure findings at scale) — which bounds how many
#: endpoints one generated provider can advertise.
MAX_GENERATED_VANTAGE_POINTS = 96

#: Generated provider blocks are carved from 11.0.0.0/8 (unused by the
#: simulation's baseline internet), one /24 slot per provider index.
MAX_GENERATED_PROVIDERS = 60000


def check_catalog_names(names: Sequence[str]) -> None:
    """Refuse a provider list that names anything outside the catalogue."""
    from repro.vpn.catalog import catalog_names

    known = set(catalog_names())
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(
            f"unknown provider(s): {', '.join(unknown)}; see 'repro list'"
        )


@dataclass(frozen=True)
class StudySource:
    """Where a study's providers come from.

    ``kind`` selects the shape; the other fields only apply to their kind:
    ``providers`` for ``explicit``, ``count``/``generator_seed``/
    ``vantage_points`` for ``generated`` (``generator_seed=None`` derives
    the generator from the study seed, so re-seeding a longitudinal study
    re-generates a drifted ecosystem).
    """

    kind: str = "catalog"
    providers: Optional[tuple[str, ...]] = None
    count: int = 0
    generator_seed: Optional[int] = None
    vantage_points: int = 4

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"source kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if self.providers is not None and not isinstance(
            self.providers, tuple
        ):
            object.__setattr__(self, "providers", tuple(self.providers))
        if self.kind == "explicit":
            if not self.providers:
                raise ValueError(
                    "an explicit source needs at least one provider name"
                )
            check_catalog_names(self.providers)
        elif self.providers is not None:
            raise ValueError(
                f"a {self.kind!r} source takes no provider list"
            )
        if self.kind == "generated":
            if not (1 <= self.count <= MAX_GENERATED_PROVIDERS):
                raise ValueError(
                    f"generated provider count must be in "
                    f"[1, {MAX_GENERATED_PROVIDERS}], got {self.count}"
                )
            if not (1 <= self.vantage_points <= MAX_GENERATED_VANTAGE_POINTS):
                raise ValueError(
                    f"vantage_points per generated provider must be in "
                    f"[1, {MAX_GENERATED_VANTAGE_POINTS}], "
                    f"got {self.vantage_points}"
                )
        elif self.count:
            raise ValueError(f"a {self.kind!r} source takes no count")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def catalog(cls) -> "StudySource":
        """The paper's full 62-provider catalogue."""
        return cls(kind="catalog")

    @classmethod
    def explicit(cls, providers: Sequence[str]) -> "StudySource":
        """A fixed list of catalogue provider names."""
        return cls(kind="explicit", providers=tuple(providers))

    @classmethod
    def generated(
        cls,
        count: int,
        generator_seed: Optional[int] = None,
        vantage_points: int = 4,
    ) -> "StudySource":
        """``count`` parametrically generated auditable providers."""
        return cls(
            kind="generated",
            count=count,
            generator_seed=generator_seed,
            vantage_points=vantage_points,
        )

    # ------------------------------------------------------------------
    @property
    def is_generated(self) -> bool:
        return self.kind == "generated"

    def effective_generator_seed(self, study_seed: int) -> int:
        return (
            self.generator_seed
            if self.generator_seed is not None
            else study_seed
        )

    def provider_source(self, study_seed: int) -> "ProviderSource":
        """The lazy provider iterator behind this source."""
        from repro.ecosystem.generate import (
            CatalogProviderSource,
            GeneratedProviderSource,
        )

        if self.kind == "generated":
            return GeneratedProviderSource(
                count=self.count,
                seed=self.effective_generator_seed(study_seed),
                vantage_points=self.vantage_points,
            )
        return CatalogProviderSource(only=self.providers)

    def provider_names(self, study_seed: int) -> list[str]:
        """All provider names this source yields, in study order."""
        return list(self.provider_source(study_seed).names())

    def profiles_for(
        self, names: Sequence[str], study_seed: int
    ) -> list["ProviderProfile"]:
        """Realise ground-truth profiles for a name subset (one shard)."""
        return list(self.provider_source(study_seed).profiles(names))

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def cache_key(self) -> str:
        """Stable text identity, used to key world-template caches."""
        if self.kind == "explicit":
            return "explicit:" + ",".join(self.providers or ())
        if self.kind == "generated":
            seed = (
                "study" if self.generator_seed is None
                else str(self.generator_seed)
            )
            return (
                f"generated:count={self.count}:seed={seed}"
                f":vps={self.vantage_points}"
            )
        return "catalog"

    def plan_key(self) -> Optional[str]:
        """Checkpoint-compatibility marker, or None for catalogue studies.

        Catalogue and explicit sources are fully identified by their
        provider-name list, which the plan fingerprint already contains —
        returning None keeps old checkpoints resumable.  Generated sources
        add their parameters (the same names with a different
        ``vantage_points`` would plan different units).
        """
        return self.cache_key() if self.is_generated else None

    def describe(self) -> str:
        if self.kind == "explicit":
            return f"{len(self.providers or ())} named provider(s)"
        if self.kind == "generated":
            return (
                f"{self.count} generated provider(s) "
                f"({self.vantage_points} vantage points each)"
            )
        return "full 62-provider catalogue"

    # ------------------------------------------------------------------
    # Spec files (what ``repro ecosystem generate --out`` emits)
    # ------------------------------------------------------------------
    def spec_dict(self) -> dict:
        return {
            "format": SPEC_FORMAT,
            "spec_version": SPEC_VERSION,
            "source": to_jsonable(self),
        }

    def write_spec(self, path: str | pathlib.Path) -> pathlib.Path:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spec_dict(), indent=2) + "\n")
        return path

    @classmethod
    def from_spec(cls, path: str | pathlib.Path) -> "StudySource":
        path = pathlib.Path(path)
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise ValueError(f"unreadable ecosystem spec {path}: {exc}")
        if not isinstance(raw, dict) or raw.get("format") != SPEC_FORMAT:
            raise ValueError(
                f"{path} is not a {SPEC_FORMAT} file (missing format field)"
            )
        if raw.get("spec_version") != SPEC_VERSION:
            raise ValueError(
                f"{path} has spec version {raw.get('spec_version')!r}; "
                f"this build reads {SPEC_VERSION}"
            )
        return from_jsonable(cls, raw.get("source") or {})

    # ------------------------------------------------------------------
    # CLI parsing: --source catalog | generated:N[:SEED[:VPS]] | spec path
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "StudySource":
        """Parse a CLI ``--source`` value.

        Accepts ``catalog``, ``generated:COUNT[:SEED[:VPS]]``, the path of
        an ecosystem spec file, or a comma-separated list of catalogue
        provider names.
        """
        text = text.strip()
        if text == "catalog":
            return cls.catalog()
        if text.startswith("generated:"):
            parts = text.split(":")[1:]
            if not parts or len(parts) > 3:
                raise ValueError(
                    "generated source syntax: generated:COUNT[:SEED[:VPS]]"
                )
            try:
                numbers = [int(p) for p in parts]
            except ValueError:
                raise ValueError(
                    f"generated source parameters must be integers, "
                    f"got {text!r}"
                )
            count = numbers[0]
            seed = numbers[1] if len(numbers) > 1 else None
            vps = numbers[2] if len(numbers) > 2 else 4
            return cls.generated(
                count, generator_seed=seed, vantage_points=vps
            )
        path = pathlib.Path(text)
        if path.suffix == ".json" or path.exists():
            return cls.from_spec(path)
        return cls.explicit(
            [name.strip() for name in text.split(",") if name.strip()]
        )
