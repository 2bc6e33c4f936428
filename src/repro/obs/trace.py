"""Structured tracing: a deterministic span tree exported as JSONL.

The trace is the provenance layer the verdict tables lack: every study is
a tree of spans — ``study`` → ``unit`` → ``test`` — with leaf events
(``dns_query``, ``packet_send``) attached to whichever span was open when
they happened.  Two properties make it auditable:

- **Seeded-deterministic span IDs.**  IDs are derived with the same
  process-independent hash the runtime uses for unit seeds:
  the study span from the study seed, unit spans from the unit seed, and
  child spans from ``(parent id, child index, name)``.  No randomness, no
  wall clock, no PIDs — the same study produces the same IDs on any
  worker of any run.
- **Simulation-clock timestamps.**  Spans carry ``t0_ms``/``t1_ms`` on the
  simulated internet clock (rebased per unit by the harness), never the
  host's wall clock, so two runs of the same :class:`~repro.config.
  StudyConfig` emit byte-identical JSONL across the sequential, thread
  and process backends — asserted in ``tests/test_obs.py``.

Workers record spans into a per-unit buffer; the executor collects the
buffers with each unit result and writes the merged trace in *plan* order
with :func:`write_trace`, so scheduling order never reaches the file.
"""

from __future__ import annotations

import json
import pathlib
from collections import Counter as _Counter
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional

from repro.runtime.retry import stable_hash

TraceRecord = dict


def _hex_id(value: int) -> str:
    return f"{value & 0xFFFFFFFFFFFFFFFF:016x}"


def study_span_id(seed: int) -> str:
    """The root span ID for a study — derivable by every worker."""
    return _hex_id(stable_hash("span", "study", seed))


def unit_span_id(unit_seed: int, parent_id: str, unit_id: str) -> str:
    return _hex_id(stable_hash("span", "unit", unit_seed, parent_id, unit_id))


def child_span_id(parent_id: str, index: int, name: str) -> str:
    return _hex_id(stable_hash("span", "child", parent_id, index, name))


def study_record(
    seed: int,
    providers: Iterable[str],
    total_units: int,
    max_vantage_points: Optional[int],
) -> TraceRecord:
    """The root JSONL record.

    Deliberately excludes workers/backend/wall-clock: the trace must be a
    function of the study configuration, not of how it was scheduled.
    """
    return {
        "kind": "study",
        "span_id": study_span_id(seed),
        "parent_id": None,
        "name": "study",
        "seed": seed,
        "providers": list(providers),
        "total_units": total_units,
        "max_vantage_points": max_vantage_points,
    }


def write_trace(
    records: Iterable[TraceRecord], path: str | pathlib.Path
) -> None:
    """Write *records* to *path* as JSONL, one record per line.

    Compact, key-sorted records make the byte stream canonical: equal
    record sequences produce equal files.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
                + "\n"
            )


def read_trace(
    path: str | pathlib.Path, metrics=None
) -> list[TraceRecord]:
    """Load a JSONL trace back into records.

    Streams line-by-line (a multi-gigabyte trace never has to fit in one
    string) and tolerates damage: blank lines are skipped silently, while
    corrupt or truncated lines — e.g. the tail of a run killed mid-write —
    are skipped with a stderr warning carrying the line number, so one bad
    byte does not make the rest of a trace unreadable.

    *metrics* (a :class:`~repro.obs.metrics.MetricsRegistry`) counts each
    skip as ``trace.corrupt_lines`` so silent data loss shows up at
    ``/metrics`` instead of only scrolling past on stderr.
    """
    import sys

    records: list[TraceRecord] = []
    with pathlib.Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                print(
                    f"warning: {path}:{lineno}: skipping corrupt trace "
                    f"line ({exc.msg})",
                    file=sys.stderr,
                )
                if metrics is not None:
                    metrics.inc("trace.corrupt_lines")
                continue
            if not isinstance(record, dict):
                print(
                    f"warning: {path}:{lineno}: skipping non-object trace "
                    f"line",
                    file=sys.stderr,
                )
                if metrics is not None:
                    metrics.inc("trace.corrupt_lines")
                continue
            records.append(record)
    return records


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------
class Tracer:
    """Collects the span tree for the unit currently executing.

    One tracer lives per worker (inside its
    :class:`~repro.obs.session.Observability`).  ``begin_unit`` resets all
    per-unit state — the record buffer, the span stack and the per-parent
    child counters — so the IDs and ordering of a unit's records are a
    pure function of the unit, never of which units this worker happened
    to execute before it.  ``drain`` appends the closing ``unit`` record
    and hands the buffer over for coordinator-side assembly.
    """

    def __init__(
        self, seed: int, clock: Optional[Callable[[], float]] = None
    ) -> None:
        self.seed = seed
        self.root_id = study_span_id(seed)
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self._records: list[TraceRecord] = []
        self._stack: list[str] = [self.root_id]
        self._children: dict[str, int] = {}
        self._unit: Optional[tuple[str, str, float]] = None

    # ------------------------------------------------------------------
    @property
    def current_span_id(self) -> str:
        return self._stack[-1]

    def _next_child_id(self, name: str) -> str:
        parent = self._stack[-1]
        index = self._children.get(parent, 0)
        self._children[parent] = index + 1
        return child_span_id(parent, index, name)

    # ------------------------------------------------------------------
    def begin_unit(self, unit_id: str, unit_seed: int) -> str:
        """Open the unit span; returns its ID."""
        span = unit_span_id(unit_seed, self.root_id, unit_id)
        self._records = []
        self._stack = [self.root_id, span]
        self._children = {}
        self._unit = (span, unit_id, self.clock())
        return span

    @contextmanager
    def span(self, kind: str, name: str, **attrs: object) -> Iterator[str]:
        """Open a child span for the duration of the ``with`` body."""
        span = self._next_child_id(name)
        parent = self._stack[-1]
        t0 = self.clock()
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            record: TraceRecord = {
                "kind": kind,
                "span_id": span,
                "parent_id": parent,
                "name": name,
                "t0_ms": round(t0, 6),
                "t1_ms": round(self.clock(), 6),
            }
            if attrs:
                record["attrs"] = attrs
            self._records.append(record)

    def event(self, kind: str, name: str, **attrs: object) -> str:
        """Record a zero-duration leaf event; returns its span ID."""
        span = self._next_child_id(name)
        record: TraceRecord = {
            "kind": kind,
            "span_id": span,
            "parent_id": self._stack[-1],
            "name": name,
            "t_ms": round(self.clock(), 6),
        }
        if attrs:
            record["attrs"] = attrs
        self._records.append(record)
        return span

    def drain(self) -> list[TraceRecord]:
        """Close the unit (if one is open) and return its records."""
        records = self._records
        if self._unit is not None:
            span, unit_id, t0 = self._unit
            records.append(
                {
                    "kind": "unit",
                    "span_id": span,
                    "parent_id": self.root_id,
                    "name": unit_id,
                    "t0_ms": round(t0, 6),
                    "t1_ms": round(self.clock(), 6),
                }
            )
            self._unit = None
        self._records = []
        self._stack = [self.root_id]
        self._children = {}
        return records


# ----------------------------------------------------------------------
# Summaries (the `repro trace summarize` subcommand)
# ----------------------------------------------------------------------
def summarize_trace(records: list[TraceRecord]) -> str:
    """A human-readable digest of a trace record list."""
    by_kind = _Counter(r.get("kind", "?") for r in records)
    tests = _Counter(
        r.get("name", "?") for r in records if r.get("kind") == "test"
    )
    packets = _Counter(
        str((r.get("attrs") or {}).get("status", "?"))
        for r in records
        if r.get("kind") == "packet_send"
    )
    units = [r for r in records if r.get("kind") == "unit"]
    lines = [f"{len(records)} trace records"]
    lines.append(
        "  kinds: "
        + ", ".join(f"{kind}={count}" for kind, count in sorted(by_kind.items()))
    )
    if units:
        walls = [r["t1_ms"] - r["t0_ms"] for r in units]
        lines.append(
            f"  units: {len(units)}  sim-clock total "
            f"{sum(walls):.1f} ms  max {max(walls):.1f} ms"
        )
    if tests:
        lines.append("  tests:")
        for name, count in sorted(tests.items()):
            lines.append(f"    {name:<24s} {count}")
    if packets:
        lines.append(
            "  packets: "
            + ", ".join(
                f"{status}={count}" for status, count in sorted(packets.items())
            )
        )
    return "\n".join(lines)
