"""Per-packet stage attribution inside the delivery phase.

The phase profiler (``repro.obs.profile``) answered *which phase* owns
study wall-clock and pointed at delivery (~81%, EXPERIMENTS.md).  This
module answers the next question — *where inside delivery* — by
bracketing the stages every packet traverses (routing lookup, firewall
verdict, capture append, latency/clock advance, receive-side dispatch,
tunnel encapsulation) with the same exclusive accounting, at packet
granularity.

Stage taxonomy (``STANDARD_STAGES``, display order):

``send``
    The per-send orchestration residue: everything inside ``Host.send``
    not billed to a finer stage (result assembly, guard checks).
    Because the frame opens at the top of every send, the stage totals
    sum to ~100% of the delivery phase by construction.
``route``
    Routing-table lookups (``RoutingTable.lookup``).
``firewall``
    Rule evaluation (``Firewall.permits``), only counted when the
    firewall is active — the inactive fast path stays a plain boolean
    check.
``capture``
    Capture-entry construction and append on tx/rx interfaces.
``latency``
    Jitter-sample derivation, RTT computation and simulation-clock
    advancement in ``Internet.deliver``.
``dispatch``
    The receive side: ``Host.receive`` — service handlers, echo
    replies, response tx recording.
``encap``
    Tunnel encapsulation/decapsulation (``TunnelEndpoint``).

Determinism contract (the same one phases obey, tightened for
sampling): stage **call counts are exact and deterministic** — every
``enter`` bumps the counter, identically on every backend.
Wall-clock is only measured for a deterministic 1-in-N sample of
*top-level sends*: :meth:`StageProfiler.begin_send` decides timing
from the per-unit send ordinal and the seed (``sends % sample_every ==
seed % sample_every``), and the decision holds for the whole nested
send tree, so timed enters and leaves always pair up and the sampled
frame counts (``stage.sampled.*``) are themselves byte-stable across
backends.  Sampling is what keeps the enabled overhead inside the ≤5%
``BENCH_stages.json`` gate: the unsampled path is two dict operations
per stage, no ``perf_counter`` calls.

At unit boundaries :func:`fold_stages` lands the totals in the metrics
registry (``stage.calls.*`` / ``stage.sampled.*`` counters and one
``stage.wall_ms.*`` histogram observation per stage), so stage data
rides :class:`~repro.runtime.events.UnitMetrics` through commutative
snapshot merging exactly like phases do.  The table renderer scales the
sampled wall-clock back up (``est_ms = wall_ms * calls / sampled``) for
the ``repro study --profile-stages`` view.
"""

from __future__ import annotations

from time import perf_counter

#: Stages the standard hook sites report, in display order.
STANDARD_STAGES = (
    "send",
    "route",
    "firewall",
    "capture",
    "latency",
    "dispatch",
    "encap",
)

_CALLS_PREFIX = "stage.calls."
_SAMPLED_PREFIX = "stage.sampled."
_WALL_PREFIX = "stage.wall_ms."


class StageProfiler:
    """Exact stage counting with deterministically sampled self-time."""

    __slots__ = (
        "sample_every",
        "_offset",
        "_depth",
        "_sends",
        "_timing",
        "_stack",
        "_calls",
        "_sampled",
        "_wall_ms",
    )

    def __init__(self, seed: int = 0, sample_every: int = 8) -> None:
        self.sample_every = max(1, int(sample_every))
        self._offset = seed % self.sample_every
        self._depth = 0
        self._sends = 0
        self._timing = False
        # Each timed frame: [stage name, start timestamp, child seconds].
        self._stack: list[list] = []
        self._calls: dict[str, int] = {}
        self._sampled: dict[str, int] = {}
        self._wall_ms: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Send boundaries: where the sampling decision is made.
    # ------------------------------------------------------------------
    def begin_send(self) -> None:
        """Open a ``send`` frame; at depth 0, decide whether to time it.

        The decision is a pure function of the per-unit send ordinal and
        the seed, so it is identical on every backend; it then holds for
        the entire nested send tree (a tunnel re-entering ``Host.send``
        stays inside its parent's sample), which is what guarantees
        every timed ``enter`` has a timed ``leave``.
        """
        if self._depth == 0:
            self._timing = (
                self._sends % self.sample_every == self._offset
            )
            self._sends += 1
        self._depth += 1
        self.enter("send")

    def end_send(self) -> None:
        self.leave()
        self._depth -= 1
        if self._depth == 0:
            self._timing = False

    # ------------------------------------------------------------------
    # Hot path.  Unsampled: one dict get + one dict store per enter,
    # nothing on leave.  Sampled: adds a list push/pop and two
    # perf_counter calls, amortised 1-in-N.
    # ------------------------------------------------------------------
    def enter(self, stage: str) -> None:
        calls = self._calls
        calls[stage] = calls.get(stage, 0) + 1
        if self._timing:
            self._stack.append([stage, perf_counter(), 0.0])

    def leave(self) -> None:
        if not self._timing:
            return
        name, started, child_s = self._stack.pop()
        elapsed = perf_counter() - started
        sampled = self._sampled
        sampled[name] = sampled.get(name, 0) + 1
        self._wall_ms[name] = (
            self._wall_ms.get(name, 0.0) + (elapsed - child_s) * 1e3
        )
        stack = self._stack
        if stack:
            stack[-1][2] += elapsed

    # ------------------------------------------------------------------
    # Unit boundaries
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Discard all accumulated state (unit start).

        Also restarts the send ordinal, so the sampling pattern is a
        pure function of each unit — the property that keeps
        ``stage.sampled.*`` identical no matter which worker runs the
        unit or what ran there before.
        """
        self._depth = 0
        self._sends = 0
        self._timing = False
        self._stack.clear()
        self._calls.clear()
        self._sampled.clear()
        self._wall_ms.clear()

    def drain(self) -> dict[str, tuple[int, int, float]]:
        """``{stage: (calls, sampled frames, sampled wall ms)}``; resets.

        Open frames (only possible on an aborted unit) are discarded,
        mirroring :meth:`PhaseProfiler.drain`.
        """
        out = {
            name: (
                self._calls[name],
                self._sampled.get(name, 0),
                self._wall_ms.get(name, 0.0),
            )
            for name in sorted(self._calls)
        }
        self.reset()
        return out


def fold_stages(profiler: StageProfiler, metrics) -> None:
    """Fold a drained stage profiler into *metrics*.

    ``stage.calls.*`` and ``stage.sampled.*`` counters are deterministic
    (pure functions of the unit and the seed); ``stage.wall_ms.*``
    histograms carry one observation per stage per unit — their counts
    merge deterministically even though wall-clock sums cannot.
    """
    for name, (calls, sampled, wall_ms) in profiler.drain().items():
        metrics.inc(_CALLS_PREFIX + name, calls)
        if sampled:
            metrics.inc(_SAMPLED_PREFIX + name, sampled)
            metrics.observe(_WALL_PREFIX + name, wall_ms)


def stage_breakdown(snapshot: dict) -> list[dict]:
    """Per-stage rows from a metrics snapshot, largest self-time first.

    ``wall_ms`` is the *sampled* exclusive time; ``est_ms`` scales it
    back to the full population (``wall_ms * calls / sampled``), which
    is what shares, packets/sec and the coverage check use.
    """
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    rows = []
    for key, calls in counters.items():
        if not key.startswith(_CALLS_PREFIX):
            continue
        name = key[len(_CALLS_PREFIX):]
        sampled = int(counters.get(_SAMPLED_PREFIX + name, 0))
        histogram = histograms.get(_WALL_PREFIX + name, {})
        wall_ms = float(histogram.get("total", 0.0))
        est_ms = wall_ms * (calls / sampled) if sampled else 0.0
        rows.append(
            {
                "stage": name,
                "calls": int(calls),
                "sampled": sampled,
                "wall_ms": wall_ms,
                "est_ms": est_ms,
                "pkts_per_s": (
                    calls / (est_ms / 1e3) if est_ms > 0.0 else None
                ),
            }
        )
    total = sum(row["est_ms"] for row in rows) or 1.0
    for row in rows:
        row["share"] = row["est_ms"] / total
    rows.sort(key=lambda row: (-row["est_ms"], row["stage"]))
    return rows


def stage_total_ms(snapshot: dict) -> float:
    """Scaled-up total stage self-time — comparable to the delivery
    phase's ``phase.wall_ms.delivery`` total from the same snapshot."""
    return sum(row["est_ms"] for row in stage_breakdown(snapshot))


def render_stage_table(snapshot: dict) -> str:
    """The table behind ``repro study --profile-stages``.

    When the snapshot also carries phase data (``--profile`` and stage
    profiling share the metrics registry), a footer reports how much of
    the delivery phase's wall-clock the stages account for.
    """
    rows = stage_breakdown(snapshot)
    if not rows:
        return "stage attribution: no stages recorded (stage profiler off?)"
    lines = [
        "delivery stage attribution (exclusive, sampled wall-clock):",
        f"  {'stage':<10s} {'calls':>9s} {'sampled':>8s} {'self ms':>9s} "
        f"{'share':>7s} {'pkts/s':>10s}",
    ]
    for row in rows:
        rate = (
            f"{row['pkts_per_s']:,.0f}"
            if row["pkts_per_s"] is not None
            else "-"
        )
        lines.append(
            f"  {row['stage']:<10s} {row['calls']:>9d} {row['sampled']:>8d} "
            f"{row['est_ms']:>9.1f} {row['share']:>6.1%} {rate:>10s}"
        )
    histograms = snapshot.get("histograms", {})
    delivery = histograms.get("phase.wall_ms.delivery", {})
    delivery_ms = float(delivery.get("total", 0.0))
    if delivery_ms > 0.0:
        covered = sum(row["est_ms"] for row in rows) / delivery_ms
        lines.append(
            f"  stages cover {covered:.1%} of the delivery phase "
            f"({delivery_ms:.1f} ms)"
        )
    return "\n".join(lines)


__all__ = [
    "StageProfiler",
    "STANDARD_STAGES",
    "fold_stages",
    "stage_breakdown",
    "stage_total_ms",
    "render_stage_table",
]
