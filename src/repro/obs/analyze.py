"""Trace analytics: flow reconstruction, a filter grammar, and run diffs.

Pure consumers of the JSONL trace (:mod:`repro.obs.trace`): nothing here
touches emission, so analytics can grow without ever perturbing the
byte-identical traces the determinism tests pin.

Three tools:

- :func:`reconstruct_flows` rebuilds per-packet *causal hop chains* from
  the flat event list.  The simulated internet emits a ``packet_send``
  event only after the destination host finished processing the packet,
  so nested deliveries — a tunnel forwarding the inner packet, a resolver
  recursing — appear in the trace *before* the hop that caused them.
  Walking each test span's events with a pending stack therefore recovers
  the causal tree exactly, with no packet IDs in the records.
- :func:`parse_query`/:func:`query_trace` implement the small
  deterministic filter grammar behind ``repro trace query``
  (``kind=packet_send status=leaked host=*client*``).
- :func:`diff_traces` aligns two runs by their seeded span IDs — the same
  config always derives the same IDs, so alignment is exact, not
  heuristic — and reports added/removed/attr-changed spans.  It turns the
  golden-fingerprint determinism test's "bytes differ" into "these three
  spans changed, here's how".
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.obs.trace import TraceRecord

# ----------------------------------------------------------------------
# Flow reconstruction
# ----------------------------------------------------------------------


@dataclass
class Hop:
    """One packet's terminal fate, with the deliveries it caused nested."""

    record: TraceRecord
    children: list["Hop"] = field(default_factory=list)
    annotations: list[TraceRecord] = field(default_factory=list)

    @property
    def host(self) -> str:
        return str((self.record.get("attrs") or {}).get("host", "?"))

    @property
    def status(self) -> str:
        return str((self.record.get("attrs") or {}).get("status", "?"))

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)


@dataclass
class TestFlows:
    """All reconstructed flows under one parent span."""

    unit: str
    test: str
    vantage: str
    span_id: str
    flows: list[Hop] = field(default_factory=list)

    @property
    def packet_count(self) -> int:
        def count(hop: Hop) -> int:
            return 1 + sum(count(child) for child in hop.children)

        return sum(count(flow) for flow in self.flows)


def _group_by_parent(
    records: Iterable[TraceRecord],
) -> dict[Optional[str], list[TraceRecord]]:
    grouped: dict[Optional[str], list[TraceRecord]] = {}
    for record in records:
        grouped.setdefault(record.get("parent_id"), []).append(record)
    return grouped


def _build_flows(events: list[TraceRecord]) -> list[Hop]:
    """Recover the causal hop tree from one span's events, in order.

    Two invariants drive the reconstruction:

    - **Inside-out emission** (from ``Internet.deliver``): a
      ``packet_send`` event is emitted after the destination finished
      processing, so the deliveries a hop *caused* (a vantage point
      forwarding a decapsulated query, a resolver recursing) appear in
      the trace immediately before the hop itself.
    - **One driving host per span**: tests are driven serially from the
      measurement client, so every outermost hop has the same source
      host — and since nothing after the span's final event could claim
      it, that final event is an outermost hop, which identifies the
      origin host without any out-of-band knowledge.

    An origin-host event is therefore a completed root claiming every
    pending hop as its causal subtree; any other host's event claims the
    trailing pending hops it nests above (stopping at its own host —
    consecutive same-host deliveries are siblings, not ancestors).
    ``dns_query`` events are emitted by the querying host after the
    answer arrived, so they annotate the hop that carried the query: the
    just-completed root (or the innermost pending hop mid-flow).
    """
    packet_events = [e for e in events if e.get("kind") == "packet_send"]
    origin: Optional[str] = None
    if packet_events:
        origin = str(
            (packet_events[-1].get("attrs") or {}).get("host", "?")
        )
    pending: list[Hop] = []
    roots: list[Hop] = []
    for event in events:
        kind = event.get("kind")
        if kind == "packet_send":
            host = str((event.get("attrs") or {}).get("host", "?"))
            if host == origin:
                roots.append(Hop(record=event, children=list(pending)))
                pending.clear()
            else:
                claimed: list[Hop] = []
                while pending and pending[-1].host != host:
                    claimed.append(pending.pop())
                claimed.reverse()
                pending.append(Hop(record=event, children=claimed))
        elif kind == "dns_query":
            if pending:
                pending[-1].annotations.append(event)
            elif roots:
                roots[-1].annotations.append(event)
            else:
                # A query with no observable packet (e.g. cache hit):
                # stands alone as an annotation-only hop.
                roots.append(Hop(record=event))
        else:
            # Any other leaf kind neither opens nor claims a hop.
            continue
    roots.extend(pending)
    return roots


def reconstruct_flows(records: list[TraceRecord]) -> list[TestFlows]:
    """Group packet/DNS events under their test spans as causal flows.

    Events recorded directly under a *unit* span (outside any test, e.g.
    connect-time traffic) are grouped under a pseudo-test named
    ``(unit)``.
    """
    by_parent = _group_by_parent(records)
    by_id = {r["span_id"]: r for r in records if "span_id" in r}
    flows: list[TestFlows] = []
    units = [r for r in records if r.get("kind") == "unit"]
    for unit in units:
        unit_events: list[TraceRecord] = []
        tests: list[TraceRecord] = []
        for child in by_parent.get(unit["span_id"], []):
            if child.get("kind") == "test":
                tests.append(child)
            elif child.get("kind") in ("packet_send", "dns_query"):
                unit_events.append(child)
        for test in tests:
            events = [
                r
                for r in by_parent.get(test["span_id"], [])
                if r.get("kind") in ("packet_send", "dns_query")
            ]
            if not events:
                continue
            flows.append(
                TestFlows(
                    unit=str(unit.get("name", "?")),
                    test=str(test.get("name", "?")),
                    vantage=str(
                        (test.get("attrs") or {}).get("vantage", "?")
                    ),
                    span_id=str(test["span_id"]),
                    flows=_build_flows(events),
                )
            )
        if unit_events:
            flows.append(
                TestFlows(
                    unit=str(unit.get("name", "?")),
                    test="(unit)",
                    vantage="?",
                    span_id=str(unit["span_id"]),
                    flows=_build_flows(unit_events),
                )
            )
    # Orphan test spans (damaged trace missing its unit record) still
    # deserve reconstruction rather than silent omission.
    seen_tests = {f.span_id for f in flows}
    for record in records:
        if record.get("kind") != "test":
            continue
        if record["span_id"] in seen_tests:
            continue
        if record.get("parent_id") in by_id:
            continue
        events = [
            r
            for r in by_parent.get(record["span_id"], [])
            if r.get("kind") in ("packet_send", "dns_query")
        ]
        if events:
            flows.append(
                TestFlows(
                    unit="?",
                    test=str(record.get("name", "?")),
                    vantage=str(
                        (record.get("attrs") or {}).get("vantage", "?")
                    ),
                    span_id=str(record["span_id"]),
                    flows=_build_flows(events),
                )
            )
    return flows


def _render_hop(hop: Hop, indent: int, lines: list[str]) -> None:
    attrs = hop.record.get("attrs") or {}
    pad = "  " * indent
    if hop.record.get("kind") == "dns_query":
        lines.append(
            f"{pad}? dns {attrs.get('qname', '?')}/{attrs.get('qtype', '?')}"
            f" via {attrs.get('resolver', '?')} -> {attrs.get('rcode', '?')}"
        )
        return
    detail = attrs.get("detail", "")
    lines.append(
        f"{pad}- {hop.host}: {attrs.get('protocol', '?')} -> "
        f"{attrs.get('dst', '?')} [{hop.status}]"
        + (f" ({detail})" if detail else "")
        + f"  span {hop.record.get('span_id')}"
    )
    for annotation in hop.annotations:
        a = annotation.get("attrs") or {}
        lines.append(
            f"{pad}    dns {a.get('qname', '?')}/{a.get('qtype', '?')}"
            f" via {a.get('resolver', '?')} -> {a.get('rcode', '?')}"
        )
    for child in hop.children:
        _render_hop(child, indent + 1, lines)


def render_flows(
    flows: list[TestFlows],
    test: Optional[str] = None,
    max_flows: Optional[int] = None,
) -> str:
    """Human-readable flow listing (``repro trace flows``)."""
    lines: list[str] = []
    shown = 0
    for group in flows:
        if test is not None and not fnmatch.fnmatchcase(group.test, test):
            continue
        lines.append(
            f"{group.unit} / {group.test} @ {group.vantage} "
            f"({group.packet_count} packets, {len(group.flows)} flows)"
        )
        for flow in group.flows:
            if max_flows is not None and shown >= max_flows:
                lines.append("  ... (truncated)")
                return "\n".join(lines)
            _render_hop(flow, 1, lines)
            shown += 1
    if not lines:
        lines.append("no flows matched")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Query grammar
# ----------------------------------------------------------------------
# Longest operators first so "<=" is not parsed as "<" + "=".
_OPERATORS = ("!=", "<=", ">=", "=", "<", ">")


@dataclass(frozen=True)
class QueryTerm:
    """One ``key OP value`` condition; terms AND together."""

    key: str
    op: str
    value: str

    def matches(self, record: TraceRecord) -> bool:
        actual = _lookup(record, self.key)
        if self.op in ("=", "!="):
            if actual is None:
                matched = False
            else:
                matched = fnmatch.fnmatchcase(_text(actual), self.value)
            return matched if self.op == "=" else not matched
        # Numeric comparisons: non-numeric sides never match.
        try:
            left = float(actual)  # type: ignore[arg-type]
            right = float(self.value)
        except (TypeError, ValueError):
            return False
        if self.op == "<":
            return left < right
        if self.op == ">":
            return left > right
        if self.op == "<=":
            return left <= right
        return left >= right


def _text(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _lookup(record: TraceRecord, key: str) -> Any:
    """Resolve *key* against a record: top-level first, then attrs.

    An explicit ``attrs.`` prefix skips the top level.
    """
    if key.startswith("attrs."):
        return (record.get("attrs") or {}).get(key[len("attrs."):])
    if key in record:
        return record[key]
    return (record.get("attrs") or {}).get(key)


def parse_query(expression: str) -> list[QueryTerm]:
    """Parse ``key=value status!=delivered t_ms>100`` into terms.

    Whitespace separates terms; every term must contain an operator.
    Raises ``ValueError`` on malformed terms so the CLI can exit cleanly.
    """
    terms: list[QueryTerm] = []
    for token in expression.split():
        for op in _OPERATORS:
            index = token.find(op)
            if index > 0:
                key, value = token[:index], token[index + len(op):]
                if not value:
                    raise ValueError(
                        f"query term {token!r} has an empty value"
                    )
                if op in ("<", ">", "<=", ">="):
                    try:
                        float(value)
                    except ValueError:
                        raise ValueError(
                            f"query term {token!r} compares against a "
                            f"non-numeric value"
                        ) from None
                terms.append(QueryTerm(key=key, op=op, value=value))
                break
        else:
            raise ValueError(
                f"query term {token!r} has no operator "
                f"(expected one of {', '.join(_OPERATORS)})"
            )
    if not terms:
        raise ValueError("empty query")
    return terms


def query_trace(
    records: Iterable[TraceRecord], expression: str
) -> list[TraceRecord]:
    """Records matching every term of *expression* (AND semantics)."""
    terms = parse_query(expression)
    return [
        record
        for record in records
        if all(term.matches(record) for term in terms)
    ]


# ----------------------------------------------------------------------
# Trace diff
# ----------------------------------------------------------------------


@dataclass
class SpanChange:
    """One span present in both runs whose record content differs."""

    span_id: str
    kind: str
    name: str
    changed: dict[str, tuple[Any, Any]]  # field -> (a_value, b_value)


@dataclass
class TraceDiff:
    """Span-level difference between two runs of (nominally) one config."""

    removed: list[TraceRecord] = field(default_factory=list)  # only in A
    added: list[TraceRecord] = field(default_factory=list)  # only in B
    changed: list[SpanChange] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (self.removed or self.added or self.changed)

    def summary(self) -> str:
        return (
            f"{len(self.added)} added, {len(self.removed)} removed, "
            f"{len(self.changed)} changed"
        )


def _record_fields(record: TraceRecord) -> dict[str, Any]:
    flat: dict[str, Any] = {}
    for key, value in record.items():
        if key == "span_id":
            continue
        if key == "attrs" and isinstance(value, dict):
            for attr_key, attr_value in value.items():
                flat[f"attrs.{attr_key}"] = attr_value
        else:
            flat[key] = value
    return flat


def diff_traces(
    a: list[TraceRecord], b: list[TraceRecord]
) -> TraceDiff:
    """Align two traces by span ID and report the differences.

    Span IDs are seeded hashes of (seed, unit, parent, child index, name),
    so two runs of the same config produce the *same* IDs for the same
    logical spans — alignment is exact.  A span only in A is "removed", only
    in B "added"; a span in both with different fields (timestamps, attrs)
    is reported field-by-field.  Duplicate span IDs within one trace are
    compared positionally within the ID's occurrence list.
    """
    a_by_id: dict[str, list[TraceRecord]] = {}
    for record in a:
        a_by_id.setdefault(str(record.get("span_id")), []).append(record)
    b_by_id: dict[str, list[TraceRecord]] = {}
    for record in b:
        b_by_id.setdefault(str(record.get("span_id")), []).append(record)

    diff = TraceDiff()
    # Removed + changed, in A order (deterministic output).
    seen_pairs: set[tuple[str, int]] = set()
    index_in_a: dict[str, int] = {}
    for record in a:
        span = str(record.get("span_id"))
        occurrence = index_in_a.get(span, 0)
        index_in_a[span] = occurrence + 1
        matches = b_by_id.get(span, [])
        if occurrence >= len(matches):
            diff.removed.append(record)
            continue
        seen_pairs.add((span, occurrence))
        other = matches[occurrence]
        fields_a = _record_fields(record)
        fields_b = _record_fields(other)
        changed = {
            key: (fields_a.get(key), fields_b.get(key))
            for key in sorted(set(fields_a) | set(fields_b))
            if fields_a.get(key) != fields_b.get(key)
        }
        if changed:
            diff.changed.append(
                SpanChange(
                    span_id=span,
                    kind=str(record.get("kind", "?")),
                    name=str(record.get("name", "?")),
                    changed=changed,
                )
            )
    # Added, in B order.
    index_in_b: dict[str, int] = {}
    for record in b:
        span = str(record.get("span_id"))
        occurrence = index_in_b.get(span, 0)
        index_in_b[span] = occurrence + 1
        if (span, occurrence) not in seen_pairs:
            if occurrence >= len(a_by_id.get(span, [])):
                diff.added.append(record)
    return diff


def render_diff(
    diff: TraceDiff, max_entries: int = 50
) -> str:
    """Human-readable diff (``repro trace diff``)."""
    lines = [diff.summary()]

    def describe(record: TraceRecord) -> str:
        attrs = record.get("attrs") or {}
        extra = " ".join(
            f"{k}={attrs[k]}"
            for k in ("host", "status", "dst", "qname", "vantage")
            if k in attrs
        )
        return (
            f"{record.get('kind', '?')} {record.get('name', '?')} "
            f"[{record.get('span_id')}]" + (f" {extra}" if extra else "")
        )

    shown = 0
    for record in diff.removed:
        if shown >= max_entries:
            break
        lines.append(f"  - {describe(record)}")
        shown += 1
    for record in diff.added:
        if shown >= max_entries:
            break
        lines.append(f"  + {describe(record)}")
        shown += 1
    for change in diff.changed:
        if shown >= max_entries:
            break
        lines.append(
            f"  ~ {change.kind} {change.name} [{change.span_id}]"
        )
        for key, (old, new) in change.changed.items():
            lines.append(f"      {key}: {old!r} -> {new!r}")
        shown += 1
    total = len(diff.removed) + len(diff.added) + len(diff.changed)
    if total > shown:
        lines.append(f"  ... {total - shown} more")
    return "\n".join(lines)
