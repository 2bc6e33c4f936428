"""Observability configuration.

:class:`ObsConfig` is the single switchboard for the observability
subsystem: structured tracing (span tree exported as JSONL), the metrics
registry and the phase/stage profiler.  It is a frozen dataclass of
plain values so it can ride inside :class:`repro.config.StudyConfig`,
cross process boundaries in worker-pool ``initargs``, and participate in
config equality/hashing.

The cardinal rule is that a fully disabled config costs nothing: when
``enabled`` is False no :class:`~repro.obs.session.Observability` object is
built at all, so every instrumentation site in the packet hot path pays
exactly one attribute load and ``None`` check, and no call: the golden
study's pinned call count (``tests/test_determinism.py``) holds it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.obs.session import Observability


@dataclass(frozen=True)
class ObsConfig:
    """What to observe during a study.

    ``trace`` collects the span tree in memory (read it back from the
    executor's ``trace_records``), every ``packet_send`` event inside its
    test span included; ``trace_path`` additionally writes it as JSONL,
    one record per line, and implies ``trace``.  ``metrics`` turns on the
    counters/gauges/histograms registry; ``metrics_path`` additionally
    writes the merged study snapshot as JSON and implies ``metrics``.
    ``profile`` arms the :class:`~repro.obs.profile.Profiler` with phase
    frames only — the per-unit dns/browser/tls/delivery/analysis
    wall-clock attribution — and implies ``metrics``, since profile
    totals travel as ordinary metrics (``phase.*`` / ``stage.*``).
    ``stage_profile`` adds the per-packet stage frames *inside* delivery
    and implies ``profile``; ``stage_sample`` is the deterministic 1-in-N
    top-level send sampling period that times them (1 = every send).
    """

    trace: bool = False
    trace_path: Optional[str] = None
    metrics: bool = False
    metrics_path: Optional[str] = None
    profile: bool = False
    stage_profile: bool = False
    stage_sample: int = 8

    def __post_init__(self) -> None:
        if self.stage_sample < 1:
            raise ValueError("stage_sample must be >= 1")

    # ------------------------------------------------------------------
    @property
    def trace_enabled(self) -> bool:
        return self.trace or self.trace_path is not None

    @property
    def profile_enabled(self) -> bool:
        return self.profile or self.stage_profile

    @property
    def metrics_enabled(self) -> bool:
        return (
            self.metrics
            or self.metrics_path is not None
            or self.profile_enabled
        )

    @property
    def enabled(self) -> bool:
        """Whether *any* observability feature is on."""
        return self.trace_enabled or self.metrics_enabled

    def replace(self, **changes: object) -> "ObsConfig":
        return replace(self, **changes)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def build(self, seed: int = 0) -> "Optional[Observability]":
        """Build the runtime session, or None when nothing is enabled.

        Returning ``None`` (rather than an inert object) is what keeps the
        disabled fast path to a single ``is not None`` check per event.
        """
        if not self.enabled:
            return None
        from repro.obs.session import Observability

        return Observability(self, seed=seed)
