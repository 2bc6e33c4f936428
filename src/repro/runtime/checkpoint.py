"""Incremental study checkpoints.

A killed study should resume without re-running finished work.  A
checkpoint is just an archive that isn't finished yet — a streaming archive
writer plus a plan pin and a journal — and the executor records every
completed unit in it as soon as the unit finishes:

- the unit's per-vantage-point results are appended to the archive;
- a journal line is then appended to ``units.jsonl``; the journal append is
  the commit point, so a crash between the result files and the journal
  simply re-runs that unit (results are deterministic, the rewrite is
  byte-identical).

``plan.pin`` pins the study parameters; resuming with a different seed,
vantage-point budget, or provider set raises
:class:`CheckpointMismatchError` instead of silently mixing studies.  Pin
and journal are not ``*.json``, so archive fingerprints and merges never
see them: a finished checkpoint is byte for byte the study's archive.
"""

from __future__ import annotations

import json
import pathlib
import shutil
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.core import archive
from repro.core.archive import ArchiveReadError, StreamingArchiveWriter
from repro.runtime.units import AuditUnit, StudyPlan

if TYPE_CHECKING:
    from repro.core.results import VantagePointResults

_PIN = "plan.pin"
_JOURNAL = "units.jsonl"


class CheckpointMismatchError(RuntimeError):
    """The directory is not a checkpoint of this study."""


@dataclass(frozen=True)
class CompletedUnit:
    """One journal entry: a unit that finished in a previous (or this) run."""

    unit_id: str
    provider: str
    hostnames: tuple[str, ...]
    wall_ms: float
    connect_retries: int = 0


class CheckpointStore(StreamingArchiveWriter):
    """Persist and recover per-unit study progress in an archive directory."""

    def __init__(self, directory: str | pathlib.Path) -> None:
        # Unlike a bare writer, a store creates its directory when opened.
        self.root = self.directory = pathlib.Path(directory)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open(self, plan: StudyPlan) -> dict[str, CompletedUnit]:
        """Bind the store to *plan*; returns the units already journalled.

        A fresh directory is initialised with the plan pin; a pinned one is
        validated against it (same seed, budget and provider set) and its
        journal replayed.  ``*.json`` files without a pin (an archive, or
        the old ``plan.json`` + ``results/`` layout) are refused.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        pin = self.directory / _PIN
        if pin.exists():
            existing = StudyPlan.from_json(pin.read_text())
            if existing.fingerprint() != plan.fingerprint():
                raise CheckpointMismatchError(
                    f"checkpoint at {self.directory} was created for "
                    f"[{existing.fingerprint()}], not [{plan.fingerprint()}]"
                )
        elif any(self.directory.rglob("*.json")):
            raise CheckpointMismatchError(
                f"{self.directory} holds *.json files but no {_PIN}, so it "
                f"is no checkpoint of [{plan.fingerprint()}]"
            )
        else:
            pin.write_text(plan.to_json())
        return self.completed_units()

    def replay(
        self, plan: StudyPlan
    ) -> Iterator[tuple[CompletedUnit, list["VantagePointResults"]]]:
        """Open for *plan*, then yield each journalled unit's results; a
        unit whose files are missing or torn is not committed and re-runs."""
        for entry in self.open(plan).values():
            try:
                yield entry, self.load_unit_results(entry)
            except ArchiveReadError:
                continue

    def completed_units(self) -> dict[str, CompletedUnit]:
        """Replay the journal; tolerates a truncated final line."""
        journal = self.directory / _JOURNAL
        completed: dict[str, CompletedUnit] = {}
        if not journal.exists():
            return completed
        for line in journal.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError:
                continue  # killed mid-append; the unit will simply re-run
            entry = CompletedUnit(
                unit_id=raw["unit"],
                provider=raw["provider"],
                hostnames=tuple(raw["hostnames"]),
                wall_ms=raw.get("wall_ms", 0.0),
                connect_retries=raw.get("connect_retries", 0),
            )
            completed[entry.unit_id] = entry
        return completed

    # ------------------------------------------------------------------
    # Recording and recovery
    # ------------------------------------------------------------------
    def record(
        self,
        unit: AuditUnit,
        results: list["VantagePointResults"],
        wall_ms: float,
        connect_retries: int = 0,
    ) -> None:
        """Persist one finished unit (results first, then the journal)."""
        for vp_results in results:
            self.append_result(vp_results)
        entry = {
            "unit": unit.unit_id,
            "provider": unit.provider,
            "hostnames": [r.hostname for r in results],
            "wall_ms": round(wall_ms, 3),
            "connect_retries": connect_retries,
        }
        with (self.directory / _JOURNAL).open("a") as journal:
            journal.write(json.dumps(entry) + "\n")

    def load_unit_results(
        self, entry: CompletedUnit | AuditUnit
    ) -> list["VantagePointResults"]:
        """A unit's results read back; a missing or torn file raises
        :class:`~repro.core.archive.ArchiveReadError` naming it."""
        directory = self.root / archive._slug(entry.provider)
        results = []
        for hostname in entry.hostnames:
            path = directory / (archive._slug(hostname) + ".json")
            try:
                results.append(archive.read_vantage_point_results(path))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise ArchiveReadError(path, entry.unit_id, exc) from exc
        return results

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def prune(self) -> int:
        """Delete the checkpoint scaffolding; returns how many files went.

        A finished archive (one with a manifest) loses only its pin and
        journal.  An unfinished one — a cancelled or abandoned study — is
        removed whole.  A directory with neither a pin nor a journal is no
        checkpoint: nothing is deleted and 0 is returned.
        """
        pin, journal = self.directory / _PIN, self.directory / _JOURNAL
        removed = [path for path in (pin, journal) if path.exists()]
        if removed and not (self.directory / archive._MANIFEST).exists():
            removed = [p for p in self.directory.rglob("*") if p.is_file()]
            shutil.rmtree(self.directory)
        else:
            for path in removed:
                path.unlink()
        return len(removed)
