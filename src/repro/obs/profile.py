"""One self-time profiler: the study's phases and the delivery stages.

A cumulative cProfile top-N cannot say which layer owns study
wall-clock.  That takes per-unit exclusive time that survives the
executor's snapshot merging, so ``workers=8`` reports the same shape as
``workers=1``.  :class:`Profiler` keeps one stack of frames of two
kinds:

- **Phase frames** bracket the coarse layers (``dns``, ``browser``,
  ``tls``, ``delivery``, ``analysis``) and are timed on every call.
- **Stage frames** bracket what every packet traverses inside delivery
  (``STANDARD_STAGES``): ``route`` (routing-table lookups), ``firewall``
  (rule evaluation, only when a firewall is active), ``capture``
  (capture-entry appends), ``latency`` (jitter, RTT and clock advance in
  ``Internet.deliver``), ``dispatch`` (the receive side,
  ``Host.receive``) and ``encap`` (tunnel encapsulation).  ``send`` is
  the delivery frame itself seen as a stage: its self-time is the
  per-send orchestration residue no finer stage claims.

A frame's self-time is its elapsed time minus that of its timed
children of any kind, so a stage self-time excludes the phase frames
nested under it (a resolver a service handler runs bills to ``dns``,
not ``dispatch``).  A phase's wall-clock is its own self-time plus that
of the stage frames under it: elapsed minus nested phase frames only.
A stage frame's time therefore counts once in its own row and once in
its phase's total, and the stage rows under ``delivery`` sum to the
delivery phase when every send is timed.  Same-name recursion (a
tunnel re-entering ``Host.send``) is exact, since a child's whole
slice is subtracted from its parent.

Determinism: call counts are exact on every backend.  Stage frames are
always counted but only timed on a seeded 1-in-``sample_every`` sample
of top-level sends (``sends % sample_every == seed % sample_every``,
with the send ordinal restarting every unit); the decision holds for
the whole nested send tree, so timed stage frames always pair up and
the sampled frame counts are byte-stable across backends too.
Sampling is what keeps stage attribution cheap: an unsampled stage
frame is two dict operations and no ``perf_counter`` call.

At unit boundaries :func:`fold_profile` lands the totals in the metrics
registry: ``phase.calls.*`` counters and one ``phase.wall_ms.*``
observation per phase, ``stage.calls.*`` and ``stage.sampled.*``
counters and one ``stage.wall_ms.*`` observation per sampled stage.
They ride :class:`~repro.runtime.events.UnitMetrics` through
commutative snapshot merging into ``repro study --profile``'s table,
``metrics.json`` and the daemon's ``GET /metrics``.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

#: The per-packet stages the delivery hook sites report, in display order.
STANDARD_STAGES = (
    "send",
    "route",
    "firewall",
    "capture",
    "latency",
    "dispatch",
    "encap",
)

_PHASE_CALLS = "phase.calls."
_PHASE_WALL = "phase.wall_ms."
_STAGE_CALLS = "stage.calls."
_STAGE_SAMPLED = "stage.sampled."
_STAGE_WALL = "stage.wall_ms."


class Profiler:
    """Phase frames timed always, stage frames counted always and sampled."""

    __slots__ = (
        "stages",
        "sample_every",
        "_offset",
        "_depth",
        "_sends",
        "_timing",
        "_stack",
        "_phase_calls",
        "_phase_ms",
        "_stage_calls",
        "_stage_sampled",
        "_stage_ms",
    )

    def __init__(
        self, stages: bool = False, seed: int = 0, sample_every: int = 8
    ) -> None:
        self.stages = stages
        self.sample_every = max(1, int(sample_every))
        self._offset = seed % self.sample_every
        self._depth = 0
        self._sends = 0
        self._timing = False
        # Each timed frame: [name, start, seconds in timed children,
        # seconds in nested phase frames].
        self._stack: list[list] = []
        self._phase_calls: dict[str, int] = {}
        self._phase_ms: dict[str, float] = {}
        self._stage_calls: dict[str, int] = {}
        self._stage_sampled: dict[str, int] = {}
        self._stage_ms: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Phase frames: one push on enter, one pop and two dict updates on
    # leave.
    # ------------------------------------------------------------------
    def enter(self, phase: str) -> None:
        self._stack.append([phase, perf_counter(), 0.0, 0.0])

    def leave(self) -> float:
        """Close the innermost phase frame; returns its self-time (s)."""
        name, started, child_s, phase_s = self._stack.pop()
        elapsed = perf_counter() - started
        calls = self._phase_calls
        calls[name] = calls.get(name, 0) + 1
        self._phase_ms[name] = (
            self._phase_ms.get(name, 0.0) + (elapsed - phase_s) * 1e3
        )
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[2] += elapsed
            parent[3] += elapsed
        return elapsed - child_s

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context-manager convenience for non-hot-path sites."""
        self.enter(name)
        try:
            yield
        finally:
            self.leave()

    # ------------------------------------------------------------------
    # The delivery frame: the ``delivery`` phase and the ``send`` stage.
    # ------------------------------------------------------------------
    def begin_send(self) -> None:
        """Open a delivery frame; at send depth 0, decide its sampling.

        The decision is a pure function of the per-unit send ordinal and
        the seed, and it holds for the entire nested send tree (a tunnel
        re-entering ``Host.send`` stays inside its parent's sample).
        """
        if self.stages:
            if self._depth == 0:
                self._timing = self._sends % self.sample_every == self._offset
                self._sends += 1
            self._depth += 1
            calls = self._stage_calls
            calls["send"] = calls.get("send", 0) + 1
        self._stack.append(["delivery", perf_counter(), 0.0, 0.0])

    def end_send(self) -> None:
        self_s = self.leave()
        if self.stages:
            if self._timing:
                self._sample("send", self_s)
            self._depth -= 1
            if self._depth == 0:
                self._timing = False

    # ------------------------------------------------------------------
    # Stage frames.  Unsampled: one dict get and one dict store on enter,
    # nothing on leave.  Sampled: adds a push/pop and two perf_counter
    # calls, amortised 1-in-N.
    # ------------------------------------------------------------------
    def enter_stage(self, stage: str) -> None:
        calls = self._stage_calls
        calls[stage] = calls.get(stage, 0) + 1
        if self._timing:
            self._stack.append([stage, perf_counter(), 0.0, 0.0])

    def leave_stage(self) -> None:
        if not self._timing:
            return
        name, started, child_s, phase_s = self._stack.pop()
        elapsed = perf_counter() - started
        self._sample(name, elapsed - child_s)
        # A timed stage frame only exists inside a sampled send, so the
        # delivery frame (or a deeper one) is always below it.
        parent = self._stack[-1]
        parent[2] += elapsed
        parent[3] += phase_s

    def _sample(self, stage: str, self_s: float) -> None:
        sampled = self._stage_sampled
        sampled[stage] = sampled.get(stage, 0) + 1
        self._stage_ms[stage] = (
            self._stage_ms.get(stage, 0.0) + self_s * 1e3
        )

    # ------------------------------------------------------------------
    # Unit boundaries
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Discard all accumulated state (unit start).

        Also restarts the send ordinal, so the sampling pattern is a
        pure function of each unit, whichever worker runs it and
        whatever ran there before.
        """
        self._depth = 0
        self._sends = 0
        self._timing = False
        self._stack.clear()
        self._phase_calls.clear()
        self._phase_ms.clear()
        self._stage_calls.clear()
        self._stage_sampled.clear()
        self._stage_ms.clear()

    def drain(self) -> tuple[dict, dict]:
        """``({phase: (calls, ms)}, {stage: (calls, sampled, ms)})``; resets.

        Frames still open (only possible on an aborted unit) are
        discarded: a half-measured frame would attribute noise, and the
        retry measures it again.  Stages are counted on entry, phases
        on exit.
        """
        phases = {
            name: (self._phase_calls[name], self._phase_ms[name])
            for name in sorted(self._phase_calls)
        }
        stages = {
            name: (
                self._stage_calls[name],
                self._stage_sampled.get(name, 0),
                self._stage_ms.get(name, 0.0),
            )
            for name in sorted(self._stage_calls)
        }
        self.reset()
        return phases, stages


def fold_profile(profiler: Profiler, metrics) -> None:
    """Drain *profiler* into *metrics*: one observation per frame name.

    The counters are deterministic (pure functions of the unit and the
    seed); the ``*.wall_ms.*`` histograms carry one observation per name
    per unit, so their counts merge deterministically even though
    wall-clock sums cannot.  Unsampled stages write no wall series.
    """
    phases, stages = profiler.drain()
    for name, (calls, wall_ms) in phases.items():
        metrics.inc(_PHASE_CALLS + name, calls)
        metrics.observe(_PHASE_WALL + name, wall_ms)
    for name, (calls, sampled, wall_ms) in stages.items():
        metrics.inc(_STAGE_CALLS + name, calls)
        if sampled:
            metrics.inc(_STAGE_SAMPLED + name, sampled)
            metrics.observe(_STAGE_WALL + name, wall_ms)


def phase_breakdown(snapshot: dict) -> list[dict]:
    """Per-phase rows from a metrics snapshot, largest first.

    Accepts the :meth:`repro.obs.metrics.MetricsRegistry.snapshot` shape
    and returns ``[{"phase", "calls", "wall_ms", "share", "units",
    "p50_ms", "p95_ms"}, ...]``.
    """
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    rows = []
    for key, calls in counters.items():
        if not key.startswith(_PHASE_CALLS):
            continue
        name = key[len(_PHASE_CALLS):]
        histogram = histograms.get(_PHASE_WALL + name, {})
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


def stage_breakdown(snapshot: dict) -> list[dict]:
    """Per-stage rows from a metrics snapshot, largest self-time first.

    ``wall_ms`` is the *sampled* self-time; ``est_ms`` scales it back to
    every call (``wall_ms * calls / sampled``), which is what shares and
    the coverage footer use.
    """
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    rows = []
    for key, calls in counters.items():
        if not key.startswith(_STAGE_CALLS):
            continue
        name = key[len(_STAGE_CALLS):]
        sampled = int(counters.get(_STAGE_SAMPLED + name, 0))
        histogram = histograms.get(_STAGE_WALL + name, {})
        wall_ms = float(histogram.get("total", 0.0))
        est_ms = wall_ms * (calls / sampled) if sampled else 0.0
        rows.append(
            {
                "stage": name,
                "calls": int(calls),
                "sampled": sampled,
                "wall_ms": wall_ms,
                "est_ms": est_ms,
            }
        )
    total = sum(row["est_ms"] for row in rows) or 1.0
    for row in rows:
        row["share"] = row["est_ms"] / total
    rows.sort(key=lambda row: (-row["est_ms"], row["stage"]))
    return rows


def render_profile_table(snapshot: dict) -> str:
    """The ``repro study --profile`` / ``--profile-stages`` table.

    One row per phase, largest first, with the stage rows nested under
    ``delivery`` (their shares are of the delivery stages) and a footer
    saying how much of the delivery phase the stages account for.
    """
    phases = phase_breakdown(snapshot)
    if not phases:
        return "profile: no frames recorded (profiler off?)"
    stages = stage_breakdown(snapshot)
    lines = [
        "phase wall-clock attribution (exclusive ms"
        + ("; stage rows scaled from samples):" if stages else "):"),
        f"  {'frame':<12s} {'calls':>9s} {'sampled':>8s} {'ms':>10s} "
        f"{'share':>7s} {'unit p50':>9s} {'unit p95':>9s}",
    ]
    footer = []
    for row in phases:
        p50 = f"{row['p50_ms']:.1f}" if row["p50_ms"] is not None else "-"
        p95 = f"{row['p95_ms']:.1f}" if row["p95_ms"] is not None else "-"
        lines.append(
            f"  {row['phase']:<12s} {row['calls']:>9d} {row['calls']:>8d} "
            f"{row['wall_ms']:>10.1f} {row['share']:>6.1%} "
            f"{p50:>9s} {p95:>9s}"
        )
        if row["phase"] != "delivery" or not stages:
            continue
        for stage in stages:
            lines.append(
                f"    {stage['stage']:<10s} {stage['calls']:>9d} "
                f"{stage['sampled']:>8d} {stage['est_ms']:>10.1f} "
                f"{stage['share']:>6.1%} {'-':>9s} {'-':>9s}"
            )
        if row["wall_ms"] > 0.0:
            covered = sum(stage["est_ms"] for stage in stages)
            footer.append(
                f"  stages cover {covered / row['wall_ms']:.1%} of the "
                f"delivery phase ({row['wall_ms']:.1f} ms)"
            )
    return "\n".join(lines + footer)


__all__ = [
    "Profiler",
    "STANDARD_STAGES",
    "fold_profile",
    "phase_breakdown",
    "render_profile_table",
    "stage_breakdown",
]
