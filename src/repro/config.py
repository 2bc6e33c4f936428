"""The study configuration: one frozen object instead of seven kwargs.

:class:`StudyConfig` is the single source of truth for how a study runs —
what to measure (seed, providers, vantage-point cap), how to schedule it
(workers, backend, checkpointing, snapshots) and what to observe
(:class:`~repro.obs.config.ObsConfig`).  The CLI builds one from its flags,
``repro.api`` takes one as ``config=``, and the executor/scheduler
construct themselves from one — so a config value round-trips unchanged
from flag to worker.

Frozen and hashable on purpose: a config can key caches, be compared for
checkpoint compatibility, and cannot drift mid-study.
:func:`repro.codec.to_jsonable` / :func:`~repro.codec.from_jsonable` give
a stable JSON round-trip for archiving alongside results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.obs.config import ObsConfig
from repro.source import StudySource

_BACKENDS = ("thread", "process")


@dataclass(frozen=True)
class StudyConfig:
    """Everything that determines a study run.

    Measurement identity (what the archive fingerprint is a function of):
    ``seed``, ``source`` (what to measure: catalogue, an explicit provider
    list, or a generated ecosystem — ``providers`` survives as the legacy
    spelling of an explicit list), and ``max_vantage_points`` (None = test
    every vantage point).

    Scheduling (must never change results): ``workers``, ``backend``,
    ``shards`` (worlds built per-provider-slice instead of monolithically),
    ``stream`` (archive-as-you-go, flat memory; ``archive_dir`` is its
    checkpoint), ``checkpoint_dir`` (resume a killed study), ``snapshots`` +
    ``reseed`` (longitudinal re-runs), ``archive_dir``, ``progress``.

    Observability (a side channel — never perturbs results): ``obs``.
    """

    seed: int = 2018
    providers: Optional[tuple[str, ...]] = None
    max_vantage_points: Optional[int] = 5
    workers: int = 1
    backend: str = "thread"
    checkpoint_dir: Optional[str] = None
    snapshots: int = 1
    reseed: bool = True
    archive_dir: Optional[str] = None
    progress: bool = False
    obs: ObsConfig = field(default_factory=ObsConfig)
    source: Optional[StudySource] = None
    shards: int = 1
    stream: bool = False

    def __post_init__(self) -> None:
        # Normalise providers to a tuple so the config stays hashable and
        # list/tuple callers compare equal.
        if self.providers is not None and not isinstance(
            self.providers, tuple
        ):
            object.__setattr__(self, "providers", tuple(self.providers))
        if self.providers is not None and self.source is not None:
            raise ValueError("pass providers= or source=, not both")
        if self.source is not None and not isinstance(
            self.source, StudySource
        ):
            raise TypeError("source must be a StudySource")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.stream and not self.archive_dir:
            raise ValueError("stream=True requires archive_dir")
        if self.stream and self.checkpoint_dir not in (None, self.archive_dir):
            raise ValueError("a streamed study checkpoints into archive_dir")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.backend not in _BACKENDS:
            raise ValueError(
                f"backend must be one of {_BACKENDS}, got {self.backend!r}"
            )
        if self.snapshots < 1:
            raise ValueError("snapshots must be >= 1")
        if (
            self.max_vantage_points is not None
            and self.max_vantage_points < 1
        ):
            raise ValueError("max_vantage_points must be >= 1 or None")
        if not isinstance(self.obs, ObsConfig):
            raise TypeError("obs must be an ObsConfig")

    # ------------------------------------------------------------------
    def replace(self, **changes: object) -> "StudyConfig":
        return replace(self, **changes)  # type: ignore[arg-type]

    @property
    def provider_list(self) -> Optional[list[str]]:
        """Providers as the list the lower layers expect (or None)."""
        if self.providers is not None:
            return list(self.providers)
        if self.source is not None and self.source.kind == "explicit":
            return list(self.source.providers or ())
        return None

    def resolved_source(self) -> StudySource:
        """The study's :class:`StudySource`, whichever way it was given."""
        if self.source is not None:
            return self.source
        if self.providers is not None:
            return StudySource.explicit(self.providers)
        return StudySource.catalog()


@dataclass(frozen=True)
class ServeConfig:
    """How the audit service (:mod:`repro.serve`) runs.

    Deliberately separate from :class:`StudyConfig`: a daemon hosts *many*
    studies, each carrying its own StudyConfig inside its job request,
    while this object fixes what is per-process — where state lives
    (``state_dir``), the listen address, the size of the one shared worker
    pool every job multiplexes onto (``workers``), how many jobs may run
    concurrently (``max_active_jobs``), and whether a finished job's
    archive keeps its plan pin and journal for forensics instead of having
    them pruned (``keep_checkpoints``).
    """

    host: str = "127.0.0.1"
    port: int = 8321
    state_dir: str = "serve-state"
    workers: int = 2
    max_active_jobs: int = 2
    poll_interval_s: float = 0.05
    keep_checkpoints: bool = False
    #: Cadence of each job's runtime resource sampler (RSS, queue depth,
    #: shard residency); feeds ``GET /jobs/{id}/top``.  None disables it.
    sample_interval_s: Optional[float] = 1.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.sample_interval_s is not None and self.sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be > 0 or None")
        if self.max_active_jobs < 1:
            raise ValueError("max_active_jobs must be >= 1")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be > 0")
        if not (0 <= self.port <= 65535):
            raise ValueError("port must be in [0, 65535] (0 = ephemeral)")

    def replace(self, **changes: object) -> "ServeConfig":
        return replace(self, **changes)  # type: ignore[arg-type]
