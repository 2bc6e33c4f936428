"""Phase-level wall-clock attribution.

A cumulative cProfile top-N cannot say which layer owns study
wall-clock: packet delivery, or the *application emulation* layers
(browser/DOM, TLS, DNS) above it.  That takes per-unit, per-phase
exclusive time that survives the executor's snapshot-merging so
``workers=8`` reports the same shape as ``workers=1``.

:class:`PhaseProfiler` is that instrument.  Hook sites bracket the five
coarse phases (``dns``, ``browser``, ``tls``, ``delivery``, ``analysis``)
with :meth:`enter`/:meth:`leave`; accounting is **exclusive**: a phase's
recorded time excludes any nested phase, so DNS resolution inside a page
load bills to ``dns``, the packet delivery underneath bills to
``delivery``, and the phase totals sum to real wall-clock without double
counting.  Nested or recursive entries of the *same* phase (a tunnel
re-entering ``Host.send``, a TLS validation inside a TLS probe) are
likewise exact — the child's slice is subtracted from the parent frame
and re-attributed to the same phase.

The profiler is deliberately dumb and fast: a list-based stack, two
dicts, one ``perf_counter`` call per transition.  It is only ever
reached behind the existing ``internet.obs is None`` fast path, so a
study without ``--profile`` pays nothing (gated <= 3% in CI), and an
enabled profiler stays within the <= 5% gate in
``benchmarks/bench_profile.py``.

At every unit boundary :meth:`~repro.obs.session.Observability.drain_unit`
folds the accumulated totals into the ordinary metrics registry as
``phase.calls.<name>`` counters and one ``phase.wall_ms.<name>``
histogram observation per phase (the unit's total), so phase data rides
the existing :class:`~repro.runtime.events.UnitMetrics` events through
commutative snapshot merging — into ``repro study --profile``'s table,
``metrics.json``, and the daemon's ``GET /metrics``.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

#: The coarse phases the standard hook sites report, in display order.
STANDARD_PHASES = ("dns", "browser", "tls", "delivery", "analysis")


class PhaseProfiler:
    """Stack-based exclusive wall-clock accounting per named phase."""

    __slots__ = ("_stack", "_calls", "_wall_ms")

    def __init__(self) -> None:
        # Each frame: [phase name, start timestamp, nested child seconds].
        self._stack: list[list] = []
        self._calls: dict[str, int] = {}
        self._wall_ms: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Hot path: one append on enter, one pop + two dict updates on leave.
    # ------------------------------------------------------------------
    def enter(self, phase: str) -> None:
        self._stack.append([phase, perf_counter(), 0.0])

    def leave(self) -> None:
        name, started, child_s = self._stack.pop()
        elapsed = perf_counter() - started
        self._calls[name] = self._calls.get(name, 0) + 1
        self._wall_ms[name] = (
            self._wall_ms.get(name, 0.0) + (elapsed - child_s) * 1e3
        )
        stack = self._stack
        if stack:
            # The parent frame loses this whole slice (including our own
            # children, already subtracted from *our* total above).
            stack[-1][2] += elapsed

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context-manager convenience for non-hot-path sites."""
        self.enter(name)
        try:
            yield
        finally:
            self.leave()

    # ------------------------------------------------------------------
    # Unit boundaries
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Discard all accumulated state (unit start)."""
        self._stack.clear()
        self._calls.clear()
        self._wall_ms.clear()

    def drain(self) -> dict[str, tuple[int, float]]:
        """``{phase: (calls, exclusive wall ms)}`` since the last drain.

        Open frames (a drain mid-phase can only happen on an aborted
        unit) are discarded — a half-measured phase would attribute
        noise, and the retry re-measures it anyway.
        """
        out = {
            name: (self._calls[name], self._wall_ms.get(name, 0.0))
            for name in sorted(self._calls)
        }
        self.reset()
        return out


def fold_phases(profiler: PhaseProfiler, metrics) -> None:
    """Fold a drained profiler into *metrics* (one observation per phase).

    ``phase.calls.<name>`` counters stay deterministic (call counts are a
    pure function of the unit); ``phase.wall_ms.<name>`` histograms carry
    one observation per phase per unit, so their *counts* merge
    deterministically across backends even though wall-clock sums cannot.
    """
    for name, (calls, wall_ms) in profiler.drain().items():
        metrics.inc(f"phase.calls.{name}", calls)
        metrics.observe(f"phase.wall_ms.{name}", wall_ms)


def phase_breakdown(snapshot: dict) -> list[dict]:
    """Extract the per-phase rows from a metrics snapshot, largest first.

    Accepts the :meth:`repro.obs.metrics.MetricsRegistry.snapshot` shape
    and returns ``[{"phase", "calls", "wall_ms", "share", "units",
    "p50_ms", "p95_ms"}, ...]`` — the data behind the ``--profile`` table
    and the EXPERIMENTS.md attribution numbers.
    """
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    rows = []
    for key, calls in counters.items():
        if not key.startswith("phase.calls."):
            continue
        name = key[len("phase.calls."):]
        histogram = histograms.get(f"phase.wall_ms.{name}", {})
        rows.append(
            {
                "phase": name,
                "calls": int(calls),
                "wall_ms": float(histogram.get("total", 0.0)),
                "units": int(histogram.get("count", 0)),
                "p50_ms": histogram.get("p50"),
                "p95_ms": histogram.get("p95"),
            }
        )
    total = sum(row["wall_ms"] for row in rows) or 1.0
    for row in rows:
        row["share"] = row["wall_ms"] / total
    rows.sort(key=lambda row: (-row["wall_ms"], row["phase"]))
    return rows


def render_phase_table(snapshot: dict) -> str:
    """The human-readable attribution table for ``repro study --profile``."""
    rows = phase_breakdown(snapshot)
    if not rows:
        return "phase attribution: no phases recorded (profiler off?)"
    lines = [
        "phase attribution (exclusive wall-clock):",
        f"  {'phase':<10s} {'calls':>8s} {'total ms':>10s} {'share':>7s} "
        f"{'unit p50':>9s} {'unit p95':>9s}",
    ]
    for row in rows:
        p50 = f"{row['p50_ms']:.1f}" if row["p50_ms"] is not None else "-"
        p95 = f"{row['p95_ms']:.1f}" if row["p95_ms"] is not None else "-"
        lines.append(
            f"  {row['phase']:<10s} {row['calls']:>8d} "
            f"{row['wall_ms']:>10.1f} {row['share']:>6.1%} "
            f"{p50:>9s} {p95:>9s}"
        )
    return "\n".join(lines)


__all__ = [
    "PhaseProfiler",
    "STANDARD_PHASES",
    "fold_phases",
    "phase_breakdown",
    "render_phase_table",
]
