"""Evidence chains: machine-readable provenance for audit verdicts.

A flagged verdict in a :class:`~repro.core.harness.ProviderReport` used to
be a bare boolean — ``LEAKED`` with no pointer to the packets that prove
it.  An :class:`EvidenceChain` closes that gap: while a test runs inside
its trace span, the harness and the leakage tests record the span IDs of
the incriminating trace records (the ``packet_send`` events of leaked
packets, plus free-form notes for observations that are not packets), so
every verdict links to the exact records in the JSONL trace that justify
it.  ``repro report explain <provider>`` renders the chains with the
referenced records resolved.

Two invariants keep evidence honest:

- **Span IDs always resolve.**  Every ID in a chain is either the test's
  own span or a ``packet_send`` event recorded by the same tracer in the
  same unit, so looking the chain up in the study's trace always succeeds
  (asserted in ``tests/test_evidence.py``).
- **Emission is untouched.**  Evidence is *consumption*: chains are built
  from span IDs the tracer already assigned.  The JSONL trace bytes and
  the study archive bytes are identical with and without this module —
  chains ride on the in-memory result objects and in
  ``ProviderReport.to_dict()``, never in the per-vantage-point archive
  files (the golden fingerprint in ``tests/test_determinism.py`` pins
  this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from repro.net.packet import Packet
    from repro.obs.session import Observability
    from repro.obs.trace import TraceRecord


@dataclass
class EvidenceLink:
    """One incriminating trace record, by span ID."""

    span_id: str
    kind: str  # the linked record's kind, e.g. "packet_send"
    note: str = ""


@dataclass
class EvidenceChain:
    """Why one test reached its verdict, as resolvable trace pointers.

    ``test_span_id`` anchors the chain to the test's own span (always
    present, so even a clean verdict documents *what was checked*);
    ``links`` point at the incriminating leaf records; ``notes`` carry
    observations with no packet of their own (an exposed WebRTC host
    candidate, an injected header name).
    """

    verdict: str  # which verdict this justifies, e.g. "dns_leakage"
    vantage: str  # vantage-point hostname the test ran at
    test_span_id: str
    links: list[EvidenceLink] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def span_ids(self) -> list[str]:
        """Every span ID the chain references (test span first)."""
        return [self.test_span_id] + [link.span_id for link in self.links]

    def resolve(
        self, records: Iterable["TraceRecord"]
    ) -> dict[str, Optional["TraceRecord"]]:
        """Map each referenced span ID to its trace record (or None)."""
        wanted = set(self.span_ids)
        found: dict[str, Optional["TraceRecord"]] = dict.fromkeys(wanted)
        for record in records:
            span = record.get("span_id")
            if span in wanted:
                found[span] = record
        return found

    # ------------------------------------------------------------------
    def render(
        self, records: Optional[Iterable["TraceRecord"]] = None
    ) -> str:
        """Human-readable chain; resolves IDs when *records* is given."""
        resolved = self.resolve(records) if records is not None else {}
        lines = [f"{self.verdict} @ {self.vantage}  [span {self.test_span_id}]"]
        for link in self.links:
            line = f"  -> {link.kind} {link.span_id}"
            if link.note:
                line += f"  {link.note}"
            record = resolved.get(link.span_id)
            if record is not None:
                attrs = record.get("attrs") or {}
                summary = " ".join(
                    f"{key}={attrs[key]}"
                    for key in ("host", "status", "protocol", "dst")
                    if key in attrs
                )
                if summary:
                    line += f"  ({summary})"
            lines.append(line)
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


class EvidenceCollector:
    """Gathers evidence links while a test span is open.

    Built through :meth:`TestContext.evidence`; inert when observability
    or tracing is off, or when no unit span is open (the plain
    ``repro audit`` path) — then :meth:`chain` returns ``None`` and the
    result serialises exactly as before.  Packet links resolve through
    the session's per-unit packet→span map
    (:meth:`~repro.obs.session.Observability.span_for_packet`), so a test
    can point at a captured packet object and get the span ID of the
    ``packet_send`` event the tracer recorded for it.
    """

    def __init__(
        self,
        session: "Optional[Observability]",
        verdict: str,
        vantage: str,
    ) -> None:
        self._session = session
        self.verdict = verdict
        self.vantage = vantage
        self._span: Optional[str] = (
            session.current_test_span_id if session is not None else None
        )
        self._links: list[EvidenceLink] = []
        self._seen: set[str] = set()
        self._notes: list[str] = []

    @property
    def enabled(self) -> bool:
        return self._span is not None

    def packet(self, packet: "Packet", note: str = "") -> bool:
        """Link the ``packet_send`` record of *packet*; True when linked."""
        if self._span is None:
            return False
        assert self._session is not None
        span = self._session.span_for_packet(packet)
        if span is None:
            # Packet events disabled (trace_packets=False): keep the fact
            # as a note so the chain still explains the verdict.
            if note:
                self.note(note)
            return False
        if span not in self._seen:
            self._seen.add(span)
            self._links.append(EvidenceLink(span, "packet_send", note))
        return True

    def link(self, span_id: str, kind: str, note: str = "") -> None:
        if self._span is None or span_id in self._seen:
            return
        self._seen.add(span_id)
        self._links.append(EvidenceLink(span_id, kind, note))

    def note(self, text: str) -> None:
        if self._span is not None:
            self._notes.append(text)

    def chain(self) -> Optional[EvidenceChain]:
        """The finished chain, or None when collection was disabled."""
        if self._span is None:
            return None
        return EvidenceChain(
            verdict=self.verdict,
            vantage=self.vantage,
            test_span_id=self._span,
            links=list(self._links),
            notes=list(self._notes),
        )


# ----------------------------------------------------------------------
# Harness-side default evidence for results that did not record their own
# ----------------------------------------------------------------------
def _incriminating_notes(result: object) -> list[str]:
    """Duck-typed extraction of what a result found suspicious."""
    notes: list[str] = []
    # TLS interception / downgrade observations.
    for obs in getattr(result, "observations", ()):
        if getattr(obs, "matches_ground_truth", None) is False:
            notes.append(
                f"certificate mismatch for {obs.hostname}: "
                f"saw {obs.certificate_fingerprint}"
            )
        if getattr(obs, "downgraded", False):
            notes.append(f"https downgraded for {obs.hostname}")
    # Transparent-proxy header tampering.
    for header in getattr(result, "headers_injected", ()):
        notes.append(f"header injected: {header}")
    for header in getattr(result, "headers_dropped", ()):
        notes.append(f"header dropped: {header}")
    if getattr(result, "headers_modified", False):
        style = getattr(result, "modification_style", "")
        notes.append(
            "headers modified" + (f" ({style})" if style else "")
        )
    # DOM injection.
    for page in getattr(result, "pages", ()):
        for element in getattr(page, "injected_elements", ()):
            notes.append(f"injected into {page.url}: {element}")
    # DNS manipulation.
    for entry in getattr(result, "entries", ()):
        if getattr(entry, "suspicious", False):
            notes.append(
                f"suspicious answers for {entry.hostname}: "
                f"{list(entry.vpn_answers)} vs "
                f"{list(entry.reference_answers)}"
            )
    return notes


def attach_default_evidence(
    session: "Optional[Observability]",
    name: str,
    vantage: str,
    result: object,
) -> None:
    """Give *result* a chain if it supports one and recorded none itself.

    Called by the harness inside the test span.  Leakage tests build
    richer chains (with packet links) themselves; this covers the
    manipulation/interception results, whose incriminating material is
    observational (certificates, headers, DOM diffs) rather than a
    captured packet.
    """
    if getattr(result, "evidence", False) is not None:
        return  # no evidence field, or the test already recorded a chain
    collector = EvidenceCollector(session, verdict=name, vantage=vantage)
    if not collector.enabled:
        return
    for note in _incriminating_notes(result):
        collector.note(note)
    result.evidence = collector.chain()  # type: ignore[attr-defined]


# ----------------------------------------------------------------------
def explain_document(report, trace_records=None) -> dict:
    """Machine-readable evidence view of one provider's audit.

    The single serialization path behind both ``repro report explain
    --json`` and the serve daemon's ``GET /results/{id}/evidence``: the
    verdict booleans, plus the evidence chains exactly as
    :meth:`repro.core.harness.ProviderReport.to_dict` emits them under
    ``"evidence"`` (hostname -> test field -> chain dict).  When
    *trace_records* is given, each chain gains a ``"spans"`` map resolving
    its span IDs to the underlying trace records, so the document is
    self-contained for scripts that never load the trace.
    """
    from repro.runtime.scheduler import VERDICT_FIELDS

    evidence = report.to_dict().get("evidence", {})
    document = {
        "provider": report.provider,
        "verdicts": {
            name: getattr(report, name) for name in VERDICT_FIELDS
        },
        "evidence": evidence,
    }
    if trace_records is not None:
        by_span = {
            record.get("span_id"): record
            for record in trace_records
            if record.get("span_id")
        }
        for chains in evidence.values():
            for chain in chains.values():
                span_ids = [chain["test_span_id"]] + [
                    link["span_id"] for link in chain.get("links", ())
                ]
                chain["spans"] = {
                    span_id: by_span.get(span_id) for span_id in span_ids
                }
    return document
