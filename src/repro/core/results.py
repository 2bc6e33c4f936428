"""Typed result records for every test in the suite.

Each test returns one frozen-ish dataclass; a vantage point's results are
bundled into :class:`VantagePointResults`, serialisable to JSON for the
study archive (the paper logged per-experiment results plus traces).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.codec import from_jsonable, to_jsonable

# Real (not TYPE_CHECKING) import: the codec resolves field annotations at
# runtime via typing.get_type_hints, so EvidenceChain must exist in this
# module's namespace.  The dependency is acyclic — obs.evidence imports
# nothing from repro.core.
from repro.obs.evidence import EvidenceChain


def _evidence_field() -> Any:
    """An attached-evidence slot, excluded from the study archive.

    ``metadata={"archive": False}`` makes the codec skip the field, so
    archived per-vantage-point JSON (and its golden fingerprint) is
    byte-identical whether or not a trace — and therefore evidence — was
    collected.  Evidence instead travels via ``ProviderReport.to_dict``.
    ``compare=False`` keeps result equality about the measurements.
    """
    return field(
        default=None, compare=False, repr=False, metadata={"archive": False}
    )


@dataclass
class DnsComparisonEntry:
    """One hostname's answers from the VPN path vs the reference path."""

    hostname: str
    vpn_answers: tuple[str, ...]
    reference_answers: tuple[str, ...]
    suspicious: bool
    whois_note: str = ""


@dataclass
class DnsManipulationResult:
    """Section 5.3.1, DNS manipulation."""

    entries: list[DnsComparisonEntry] = field(default_factory=list)
    evidence: Optional[EvidenceChain] = _evidence_field()

    @property
    def manipulated(self) -> bool:
        return any(e.suspicious for e in self.entries)

    @property
    def suspicious_hostnames(self) -> list[str]:
        return [e.hostname for e in self.entries if e.suspicious]


@dataclass
class PageObservation:
    """One site's load through the VPN, diffed against ground truth."""

    url: str
    ok: bool
    status: Optional[int]
    redirect_chain: list[str]
    injected_elements: list[str]
    unexpected_resources: list[str]
    error: str = ""


@dataclass
class DomCollectionResult:
    """Section 5.3.1, DOM and request collection."""

    pages: list[PageObservation] = field(default_factory=list)
    evidence: Optional[EvidenceChain] = _evidence_field()

    @property
    def injection_detected(self) -> bool:
        return any(p.injected_elements for p in self.pages)

    @property
    def injected_pages(self) -> list[PageObservation]:
        return [p for p in self.pages if p.injected_elements]

    @property
    def redirected_pages(self) -> list[PageObservation]:
        return [p for p in self.pages if len(p.redirect_chain) > 1]


@dataclass
class TlsObservation:
    """One host's TLS probe + HTTP-upgrade walk."""

    hostname: str
    handshake_ok: bool
    certificate_fingerprint: str
    matches_ground_truth: Optional[bool]
    chain_valid: Optional[bool]
    validation_reason: str
    http_final_url: str = ""
    http_status: Optional[int] = None
    downgraded: bool = False
    blocked_403: bool = False


@dataclass
class TlsInterceptionResult:
    """Section 5.3.1, TLS interception and downgrade detection."""

    observations: list[TlsObservation] = field(default_factory=list)
    evidence: Optional[EvidenceChain] = _evidence_field()

    @property
    def interception_detected(self) -> bool:
        return any(
            o.matches_ground_truth is False for o in self.observations
        )

    @property
    def downgrade_detected(self) -> bool:
        return any(o.downgraded for o in self.observations)

    @property
    def vpn_blocked_hosts(self) -> list[str]:
        return [o.hostname for o in self.observations if o.blocked_403]


@dataclass
class ProxyDetectionResult:
    """Section 6.2.1, header-based transparent-proxy detection."""

    sent_headers: list[tuple[str, str]] = field(default_factory=list)
    observed_headers: list[tuple[str, str]] = field(default_factory=list)
    headers_modified: bool = False
    headers_injected: list[str] = field(default_factory=list)
    headers_dropped: list[str] = field(default_factory=list)
    modification_style: str = ""  # e.g. "parse-and-regenerate"
    evidence: Optional[EvidenceChain] = _evidence_field()

    @property
    def proxy_detected(self) -> bool:
        return self.headers_modified or bool(self.headers_injected)


@dataclass
class DnsOriginResult:
    """Section 5.3.2, recursive DNS origins."""

    tag: str
    probe_hostname: str
    resolver_sources: list[str] = field(default_factory=list)
    resolved: bool = False

    @property
    def egress_resolvers(self) -> list[str]:
        return sorted(set(self.resolver_sources))


@dataclass
class PingMeasurement:
    """RTTs from this vantage point to one reference target."""

    target: str
    target_name: str
    rtt_ms: Optional[float]
    target_location_known: bool = True


@dataclass
class TracerouteMeasurement:
    target: str
    hops: list[tuple[int, Optional[str], Optional[float]]] = field(
        default_factory=list
    )
    reached: bool = False


@dataclass
class PingTracerouteResult:
    """Section 5.3.2, ping and traceroute collection."""

    pings: list[PingMeasurement] = field(default_factory=list)
    traceroutes: list[TracerouteMeasurement] = field(default_factory=list)
    # RTT from the client to the vantage point itself over the physical
    # path (the pinned /32 route). Subtracting it from through-tunnel RTTs
    # isolates the VP->target leg — the paper's '<9 ms to German hosts'
    # style evidence (Section 6.4.2).
    tunnel_base_rtt_ms: Optional[float] = None

    def rtt_vector(self) -> dict[str, float]:
        """target -> RTT for reachable targets (the Figure 9 raw series)."""
        return {
            p.target: p.rtt_ms for p in self.pings if p.rtt_ms is not None
        }


@dataclass
class GeolocationResult:
    """Section 5.3.2, geolocation via the location API (+ free databases)."""

    egress_address: str
    claimed_country: str
    estimates: dict[str, Optional[str]] = field(default_factory=dict)

    def agreement(self, database: str) -> Optional[bool]:
        estimate = self.estimates.get(database)
        if estimate is None:
            return None
        return estimate == self.claimed_country


@dataclass
class DnsLeakageResult:
    """Section 5.3.3, DNS leakage."""

    queries_issued: int = 0
    leaked_queries: list[str] = field(default_factory=list)
    leaked_servers: list[str] = field(default_factory=list)
    evidence: Optional[EvidenceChain] = _evidence_field()

    @property
    def leaked(self) -> bool:
        return bool(self.leaked_queries)


@dataclass
class Ipv6LeakageResult:
    """Section 5.3.3, IPv6 leakage."""

    attempts: int = 0
    leaked_destinations: list[str] = field(default_factory=list)
    evidence: Optional[EvidenceChain] = _evidence_field()

    @property
    def leaked(self) -> bool:
        return bool(self.leaked_destinations)


@dataclass
class WebRtcSummary:
    """Condensed WebRTC audit outcome stored with the vantage point."""

    leaked: bool = False
    exposed_local_addresses: list[str] = field(default_factory=list)
    reflexive_address: str = ""
    reflexive_is_vpn_egress: bool = False
    evidence: Optional[EvidenceChain] = _evidence_field()


@dataclass
class TunnelFailureResult:
    """Section 5.3.3, recovery from tunnel failure."""

    attempts: int = 0
    reachable_during_failure: int = 0
    first_leak_attempt: Optional[int] = None
    evidence: Optional[EvidenceChain] = _evidence_field()

    @property
    def fails_open(self) -> bool:
        return self.reachable_during_failure > 0


@dataclass
class MetadataSnapshot:
    """Section 5.3.4 general configuration collection."""

    interfaces: list[dict[str, Any]] = field(default_factory=list)
    routes: list[str] = field(default_factory=list)
    dns_servers: list[str] = field(default_factory=list)
    firewall: list[str] = field(default_factory=list)
    host_route_pings: dict[str, Optional[float]] = field(default_factory=dict)


@dataclass
class P2pResult:
    """Section 6.6, unexpected-DNS P2P detection."""

    unexpected_plaintext_queries: list[str] = field(default_factory=list)

    @property
    def p2p_suspected(self) -> bool:
        return bool(self.unexpected_plaintext_queries)


@dataclass
class VantagePointResults:
    """Everything the suite measured at one vantage point."""

    provider: str
    hostname: str
    egress_address: str
    claimed_country: str
    connected: bool = True
    dns_manipulation: Optional[DnsManipulationResult] = None
    dom_collection: Optional[DomCollectionResult] = None
    tls: Optional[TlsInterceptionResult] = None
    proxy: Optional[ProxyDetectionResult] = None
    dns_origin: Optional[DnsOriginResult] = None
    ping_traceroute: Optional[PingTracerouteResult] = None
    geolocation: Optional[GeolocationResult] = None
    dns_leakage: Optional[DnsLeakageResult] = None
    ipv6_leakage: Optional[Ipv6LeakageResult] = None
    webrtc: Optional[WebRtcSummary] = None
    tunnel_failure: Optional[TunnelFailureResult] = None
    metadata: Optional[MetadataSnapshot] = None
    p2p: Optional[P2pResult] = None

    def to_json(self) -> str:
        return json.dumps(to_jsonable(self), indent=2, sort_keys=True)

    # ------------------------------------------------------------------
    # Attached evidence (never archived; rides in ProviderReport.to_dict)
    # ------------------------------------------------------------------
    def evidence_chains(self) -> dict[str, EvidenceChain]:
        """test-field name -> the chain attached to that result, if any."""
        chains: dict[str, EvidenceChain] = {}
        for spec in dataclasses.fields(self):
            result = getattr(self, spec.name)
            chain = getattr(result, "evidence", None)
            if chain is not None:
                chains[spec.name] = chain
        return chains

    def attach_evidence(self, chains: dict[str, EvidenceChain]) -> None:
        """Re-attach chains by test-field name (inverse of the above)."""
        for name, chain in chains.items():
            result = getattr(self, name, None)
            if result is not None and hasattr(result, "evidence"):
                result.evidence = chain

    @classmethod
    def from_json(cls, text: str) -> "VantagePointResults":
        """Inverse of :meth:`to_json`.

        Round-trips exactly: hydrating an archived vantage-point file and
        re-serialising it reproduces the original bytes, which is what lets
        study checkpoints and final archives share one format.
        """
        return from_jsonable(cls, json.loads(text))
