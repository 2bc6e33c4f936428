"""The benchmark's workloads: what one timed study call runs.

Every workload is a closed loop of one caller waiting for one study.  The
inputs are a pure function of the workload seed:

``golden``
    The golden study: ``Seed4.me``/``PureVPN``/``MyIP.io`` at
    ``max_vantage_points=2``, in memory, ``workers=1`` (9 units, 54
    vantage points).  Packet delivery dominates it; it bypasses shards,
    streaming, archive reads and checkpoints.
``scale-stream``
    ``StudySource.generated(20, generator_seed=7, vantage_points=3)``
    audited at study seed ``seed`` with ``max_vantage_points=2``,
    ``shards=4``, one combined ``run_streamed`` archive, process backend,
    ``workers=2`` (60 units).
``resume``
    The same 20-provider population, in memory, ``workers=1``,
    ``shards=1``, resumed from a checkpoint that journals the first 30 of
    its 60 units.

Nothing here imports :mod:`repro` at module level, so the parent process
(``run.py``) stays free of the program under test.
"""

from __future__ import annotations

import pathlib
import shutil
from dataclasses import dataclass
from typing import Optional

#: The fixed point of ``tests/test_determinism.py``: the archive
#: fingerprint of the golden study at seed 2018.
GOLDEN_SEED = 2018
GOLDEN_FINGERPRINT = (
    "089be0e16eadd949c1d0e5a81d691eb9381b69e195cc8f4a13df111c83c08a86"
)
GOLDEN_PROVIDERS = ("Seed4.me", "PureVPN", "MyIP.io")

MAX_VANTAGE_POINTS = 2
GENERATED_PROVIDERS = 20
#: The generated population is fixed (it is the one ``BENCH_scale.json``
#: used); the workload seed is the study seed.  Populations drawn from
#: other generator seeds differ in cost by up to 30%, far beyond the
#: run-to-run noise, so a seed-drawn population would make every
#: cross-seed spread a property of the population, not of the program.
GENERATOR_SEED = 7
GENERATED_VANTAGE_POINTS = 3
#: Units the resume workload finds journalled (half of the 60).
RESUME_JOURNALLED = 30


@dataclass(frozen=True)
class Workload:
    name: str
    generated: bool
    workers: int
    backend: str
    shards: int
    streamed: bool
    resume: bool

    # ------------------------------------------------------------------
    # Inputs (these import repro; only the study child calls them)
    # ------------------------------------------------------------------
    def source(self, seed: int):
        from repro.source import StudySource

        if self.generated:
            return StudySource.generated(
                GENERATED_PROVIDERS,
                generator_seed=GENERATOR_SEED,
                vantage_points=GENERATED_VANTAGE_POINTS,
            )
        return StudySource.explicit(list(GOLDEN_PROVIDERS))

    def executor(self, seed: int, checkpoint_dir: Optional[str] = None,
                 **extra):
        """The :class:`StudyExecutor` for one timed call."""
        from repro.runtime.executor import StudyExecutor

        return StudyExecutor(
            seed=seed,
            source=self.source(seed),
            max_vantage_points=MAX_VANTAGE_POINTS,
            workers=self.workers,
            backend=self.backend,
            shards=self.shards,
            checkpoint_dir=checkpoint_dir,
            **extra,
        )

    def reference_key(self, seed: int) -> str:
        """Workloads over one population share one reference archive."""
        return f"{'generated' if self.generated else 'golden'}-{seed}"

    def sizes(self) -> dict:
        """Execution settings, for provenance (the plan gives the rest)."""
        return {
            "shards": self.shards,
            "workers": self.workers,
            "backend": self.backend,
            "streamed": self.streamed,
            "resumed_units": RESUME_JOURNALLED if self.resume else 0,
        }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="golden",
            generated=False,
            workers=1,
            backend="thread",
            shards=1,
            streamed=False,
            resume=False,
        ),
        Workload(
            name="scale-stream",
            generated=True,
            workers=2,
            backend="process",
            shards=4,
            streamed=True,
            resume=False,
        ),
        Workload(
            name="resume",
            generated=True,
            workers=1,
            backend="thread",
            shards=1,
            streamed=False,
            resume=True,
        ),
    )
}


# ----------------------------------------------------------------------
# Reference preparation (runs once per seed, outside any timed path)
# ----------------------------------------------------------------------
def prepare_reference(workload: Workload, seed: int,
                      out_dir: pathlib.Path) -> dict:
    """Compute the reference fingerprint (and resume checkpoint).

    The reference is the plain in-memory sequential path: one
    ``StudyExecutor(workers=1).run()`` whose report is archived with
    ``write_study_archive``.  For generated populations the same run
    journals every unit into a checkpoint, and the resume input is a
    second checkpoint holding the first ``RESUME_JOURNALLED`` units of
    that journal, rewritten through the public ``CheckpointStore`` API —
    exactly what a study killed at that point leaves behind.
    """
    from repro.core.archive import archive_fingerprint, write_study_archive
    from repro.runtime.checkpoint import CheckpointStore
    from repro.runtime.executor import StudyExecutor

    out_dir.mkdir(parents=True, exist_ok=True)
    full = out_dir / "full-checkpoint"
    executor = StudyExecutor(
        seed=seed,
        source=workload.source(seed),
        max_vantage_points=MAX_VANTAGE_POINTS,
        workers=1,
        checkpoint_dir=str(full) if workload.generated else None,
    )
    report = executor.run()
    archive = write_study_archive(report, out_dir / "archive")
    info = {
        "fingerprint": archive_fingerprint(archive),
        "units": len(executor.plan.units),
        "vantage_points": executor.plan.total_vantage_points,
        "providers": len(executor.plan.providers),
    }
    shutil.rmtree(archive)
    if workload.generated:
        source_store = CheckpointStore(full)
        journal = source_store.completed_units()
        half = CheckpointStore(out_dir / "checkpoint")
        half.open(executor.plan)
        for unit in executor.plan.units[:RESUME_JOURNALLED]:
            entry = journal[unit.unit_id]
            half.record(
                unit,
                source_store.load_unit_results(entry),
                entry.wall_ms,
                entry.connect_retries,
            )
        shutil.rmtree(full)
    return info
