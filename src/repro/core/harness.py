"""The test harness.

:class:`TestSuite` orchestrates the paper's methodology (Section 5.2):

- pick ~5 vantage points per provider for the full 45-minute suite,
  maximising geographic diversity (manual testing in the paper);
- run the complete battery at each: metadata, manipulation tests,
  infrastructure tests, leakage tests (leakage only for providers shipping
  their own clients, as in Section 6.5), the P2P scan, and tunnel failure
  last (it intentionally wrecks the tunnel);
- sweep *all* vantage points with the lightweight infrastructure probes
  (ping vectors + geolocation) — the paper's automated collection that let
  it analyse 148 HideMyAss endpoints;
- aggregate everything into a :class:`StudyReport` with the Section 6
  analyses attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.codec import from_jsonable, to_jsonable
from repro.core.analysis.colocation import (
    ColocationAnalysis,
    ColocationReport,
    VantagePointEvidence,
)
from repro.core.analysis.geoip_compare import GeoIpComparison
from repro.core.analysis.redirects import RedirectAnalysis
from repro.core.analysis.shared_infra import SharedInfraAnalysis
from repro.core.archive import study_manifest
from repro.core.infrastructure.dns_origin import DnsOriginTest
from repro.core.infrastructure.geolocation import GeolocationTest
from repro.core.infrastructure.ping_traceroute import PingTracerouteTest
from repro.core.leakage.dns_leakage import PROBE_QUERIES, DnsLeakageTest
from repro.core.leakage.ipv6_leakage import Ipv6LeakageTest
from repro.core.leakage.tunnel_failure import TunnelFailureTest
from repro.core.leakage.webrtc_leakage import WebRtcLeakageTest
from repro.core.manipulation.dns_manipulation import (
    DEFAULT_PROBE_HOSTS,
    DnsManipulationTest,
)
from repro.core.manipulation.dom_collection import DomCollectionTest
from repro.core.manipulation.proxy_detection import ProxyDetectionTest
from repro.core.manipulation.tls_interception import TlsInterceptionTest
from repro.core.metadata import MetadataTest
from repro.core.p2p import P2pDetection
from repro.core.results import VantagePointResults
from repro.obs.evidence import EvidenceChain
from repro.runtime.retry import MAX_ATTEMPTS
from repro.vpn.client import VpnClient
from repro.vpn.provider import ClientType, VantagePoint, VpnProvider
from repro.web.browser import Browser
from repro.web.dom import Document
from repro.world import World

if TYPE_CHECKING:
    from repro.obs.config import ObsConfig
    from repro.obs.evidence import EvidenceCollector
    from repro.runtime.units import AuditUnit, StudyPlan


class TestContext:
    """Everything a single test needs, bound to one connected session."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(
        self,
        world: World,
        provider: VpnProvider,
        vantage_point: VantagePoint,
        vpn_client: Optional[VpnClient],
        suite: "TestSuite",
    ) -> None:
        self.world = world
        self.provider = provider
        self.vantage_point = vantage_point
        self.vpn_client = vpn_client
        self._suite = suite
        self.issued_query_names: set[str] = set(self._expected_query_names())

    @property
    def client(self):
        return self.world.client

    @property
    def provider_slug(self) -> str:
        return self.provider.name.lower().replace(" ", "").replace(".", "")

    @property
    def vantage_point_slug(self) -> str:
        return self.vantage_point.hostname.split(".")[0]

    def browser(self) -> Browser:
        return Browser(
            self.world.client, self.world.trust_store, self.world.chain_registry
        )

    def ground_truth_pages(self) -> dict[str, Document]:
        return self._suite.ground_truth_pages()

    def ground_truth_certificates(self) -> dict[str, str]:
        return self._suite.ground_truth_certificates()

    def world_ipv6_targets(self) -> list[tuple[str, str]]:
        return list(self.world.ipv6_sites)

    def _expected_query_names(self) -> set[str]:
        """Every hostname the suite itself may legitimately resolve."""
        from repro.world import HEADER_ECHO_DOMAIN, PROBE_DOMAIN

        names: set[str] = set(DEFAULT_PROBE_HOSTS)
        names.update(PROBE_QUERIES)
        names.add(HEADER_ECHO_DOMAIN)
        for site in self.world.sites:
            names.add(site.domain)
            names.add(f"www.{site.domain}")
        names.add(PROBE_DOMAIN)
        return names

    def note_query(self, qname: str) -> None:
        self.issued_query_names.add(qname.lower().rstrip("."))

    def evidence(self, verdict: str) -> "EvidenceCollector":
        """An evidence collector for the test currently running.

        Bound to the open test span; inert (``chain()`` returns None) when
        tracing is off or no unit is open, so tests can record evidence
        unconditionally without checking observability state.
        """
        from repro.obs.evidence import EvidenceCollector

        return EvidenceCollector(
            self._suite.obs,
            verdict=verdict,
            vantage=self.vantage_point.hostname,
        )


@dataclass
class ProviderReport:
    """All results for one provider."""

    provider: str
    subscription: str
    client_type: str
    full_results: list[VantagePointResults] = field(default_factory=list)
    sweep_results: list[VantagePointResults] = field(default_factory=list)
    colocation: Optional[ColocationReport] = None
    connect_failures: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Convenience verdicts
    # ------------------------------------------------------------------
    @property
    def injection_detected(self) -> bool:
        return any(
            r.dom_collection is not None and r.dom_collection.injection_detected
            for r in self.full_results
        )

    @property
    def proxy_detected(self) -> bool:
        return any(
            r.proxy is not None and r.proxy.proxy_detected
            for r in self.full_results
        )

    @property
    def tls_interception_detected(self) -> bool:
        return any(
            r.tls is not None and r.tls.interception_detected
            for r in self.full_results
        )

    @property
    def dns_leak_detected(self) -> bool:
        return any(
            r.dns_leakage is not None and r.dns_leakage.leaked
            for r in self.full_results
        )

    @property
    def ipv6_leak_detected(self) -> bool:
        return any(
            r.ipv6_leakage is not None and r.ipv6_leakage.leaked
            for r in self.full_results
        )

    @property
    def webrtc_leak_detected(self) -> bool:
        return any(
            r.webrtc is not None and r.webrtc.leaked
            for r in self.full_results
        )

    @property
    def fails_open(self) -> Optional[bool]:
        applicable = [
            r.tunnel_failure for r in self.full_results
            if r.tunnel_failure is not None
        ]
        if not applicable:
            return None
        return any(t.fails_open for t in applicable)

    @property
    def misrepresents_locations(self) -> bool:
        return bool(self.colocation and self.colocation.misrepresents_locations)

    def summary(self) -> str:
        lines = [
            f"Provider: {self.provider} ({self.subscription}, "
            f"{self.client_type} client)",
            f"  vantage points fully tested : {len(self.full_results)}",
            f"  vantage points swept        : {len(self.sweep_results)}",
            f"  content injection           : "
            f"{'DETECTED' if self.injection_detected else 'none'}",
            f"  transparent proxy           : "
            f"{'DETECTED' if self.proxy_detected else 'none'}",
            f"  TLS interception            : "
            f"{'DETECTED' if self.tls_interception_detected else 'none'}",
            f"  DNS leakage                 : "
            f"{'LEAKED' if self.dns_leak_detected else 'none'}",
            f"  IPv6 leakage                : "
            f"{'LEAKED' if self.ipv6_leak_detected else 'none'}",
            f"  WebRTC address exposure     : "
            f"{'LEAKED' if self.webrtc_leak_detected else 'none'}",
        ]
        if self.fails_open is None:
            lines.append("  tunnel failure              : not applicable")
        else:
            lines.append(
                "  tunnel failure              : "
                + ("FAILS OPEN" if self.fails_open else "fails closed")
            )
        lines.append(
            "  location misrepresentation  : "
            + ("DETECTED" if self.misrepresents_locations else "none")
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Evidence (what makes the verdicts above explainable)
    # ------------------------------------------------------------------
    def evidence_chains(self) -> dict:
        """hostname -> {test-field name -> EvidenceChain}, non-empty only.

        Chains exist when the study ran with tracing enabled; each links a
        verdict to the trace spans of its incriminating packets.  The
        study archive never carries them (fingerprint stability) — this
        accessor and :meth:`to_dict` are how they travel.
        """
        out = {}
        for results in self.full_results + self.sweep_results:
            chains = results.evidence_chains()
            if chains:
                out[results.hostname] = chains
        return out

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The codec's form plus an ``evidence`` side map (when traced):
        hostname -> test field -> chain."""
        out = to_jsonable(self)
        evidence = to_jsonable(self.evidence_chains())
        if evidence:
            out["evidence"] = evidence
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ProviderReport":
        report = from_jsonable(cls, data)
        evidence = from_jsonable(
            dict[str, dict[str, EvidenceChain]], data.get("evidence") or {}
        )
        by_hostname = {
            results.hostname: results
            for results in report.full_results + report.sweep_results
        }
        for hostname, chains in evidence.items():
            results = by_hostname.get(hostname)
            if results is not None:
                results.attach_evidence(chains)
        return report


@dataclass
class StudyReport:
    """The full 62-provider study with cross-provider analyses."""

    providers: dict[str, ProviderReport] = field(default_factory=dict)
    redirects: RedirectAnalysis = field(default_factory=RedirectAnalysis)
    geoip: GeoIpComparison = field(default_factory=GeoIpComparison)
    shared_infra: SharedInfraAnalysis = field(default_factory=SharedInfraAnalysis)

    # The three headline sets are the study manifest's, whose one rule
    # (``core.archive.manifest_from_verdicts``) every archive also uses.
    @property
    def providers_intercepting_or_manipulating(self) -> set[str]:
        return set(study_manifest(self)["intercepting"])

    @property
    def providers_failing_open(self) -> set[str]:
        return set(study_manifest(self)["failing_open"])

    @property
    def providers_misrepresenting_locations(self) -> set[str]:
        return set(study_manifest(self)["misrepresenting"])

    def summary(self) -> str:
        total = len(self.providers)
        lines = [
            f"Study over {total} providers",
            f"  intercept/manipulate traffic : "
            f"{len(self.providers_intercepting_or_manipulating)} "
            f"({sorted(self.providers_intercepting_or_manipulating)})",
            f"  fail open on tunnel failure  : "
            f"{len(self.providers_failing_open)}",
            f"  misrepresent locations       : "
            f"{len(self.providers_misrepresenting_locations)} "
            f"({sorted(self.providers_misrepresenting_locations)})",
        ]
        for row in self.geoip.rows():
            lines.append(
                f"  geo-IP {row.database:18s}: {row.agreements}/{row.estimates}"
                f" agree ({row.agreement_rate:.0%})"
            )
        return "\n".join(lines)


class TestSuite:
    """Runs the measurement battery over a world."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(
        self,
        world: World,
        max_vantage_points: Optional[int] = 5,
        obs_config: Optional["ObsConfig"] = None,
    ) -> None:
        self.world = world
        self.max_vantage_points = max_vantage_points
        # Observability session (or None — the zero-overhead default).
        # Built per suite so each worker records into its own buffers.
        self.obs = (
            obs_config.build(world.seed) if obs_config is not None else None
        )
        if self.obs is not None:
            self.obs.attach(world)
        self._dom_test = DomCollectionTest()
        self._tls_test = TlsInterceptionTest()
        self._dns_manip = DnsManipulationTest()
        self._proxy_test = ProxyDetectionTest()
        self._dns_origin = DnsOriginTest()
        self._ping_test = PingTracerouteTest()
        self._geo_test = GeolocationTest()
        self._dns_leak = DnsLeakageTest()
        self._ipv6_leak = Ipv6LeakageTest()
        self._tunnel_failure = TunnelFailureTest()
        self._webrtc = WebRtcLeakageTest()
        # Flaky-endpoint reconnects performed across the whole run (§5.2).
        self.connect_retries = 0
        self._metadata = MetadataTest()
        self._p2p = P2pDetection()
        self._gt_pages: Optional[dict[str, Document]] = None
        self._gt_certs: Optional[dict[str, str]] = None

    # ------------------------------------------------------------------
    # Ground truth (collected from the university host, Section 5.3.1)
    # ------------------------------------------------------------------
    def ground_truth_pages(self) -> dict[str, Document]:
        if self._gt_pages is None:
            with self._gt_collection():
                browser = Browser(
                    self.world.university,
                    self.world.trust_store,
                    self.world.chain_registry,
                )
                pages: dict[str, Document] = {}
                for site in self.world.sites.dom_test_sites():
                    load = browser.load_page(site.http_url)
                    if load.document is not None:
                        pages[site.domain] = load.document
                self._gt_pages = pages
        return self._gt_pages

    def ground_truth_certificates(self) -> dict[str, str]:
        if self._gt_certs is None:
            with self._gt_collection():
                browser = Browser(
                    self.world.university,
                    self.world.trust_store,
                    self.world.chain_registry,
                )
                certs: dict[str, str] = {}
                for site in self.world.sites.tls_test_sites():
                    probe = browser.tls_probe(site.domain)
                    if probe.ok and probe.handshake is not None:
                        certs[site.domain] = probe.handshake.leaf_fingerprint
                self._gt_certs = certs
        return self._gt_certs

    def _gt_collection(self):
        """Suspend observability around lazy ground-truth collection.

        Ground truth is collected once per suite, inside whichever unit
        first needs it — which worker that is depends on scheduling.  Its
        packets and clock advance must therefore stay out of the obs
        stream, or traces and metrics would differ across worker counts.
        Results are unaffected: they consume only clock deltas.
        """
        from contextlib import nullcontext

        return self.obs.suspended() if self.obs is not None else nullcontext()

    # ------------------------------------------------------------------
    # Vantage-point selection (Section 5.2: ~5, geographically diverse)
    # ------------------------------------------------------------------
    # Countries the paper deliberately probed when a provider claimed them
    # (censored/filtered regions whose claims want validating, §4/§6.1.1).
    SENSITIVE_COUNTRIES = ("TR", "KR", "RU", "NL", "TH", "CN", "IR", "SA", "KP")

    def select_vantage_points(
        self, provider: VpnProvider
    ) -> list[VantagePoint]:
        points = provider.vantage_points
        if self.max_vantage_points is None or len(points) <= self.max_vantage_points:
            return list(points)
        # First claim one endpoint per sensitive country the provider
        # advertises (the paper explicitly validated censored-region
        # claims), then fill the remaining budget with greedy
        # farthest-point selection on claimed locations for diversity.
        chosen: list[VantagePoint] = []
        for country in self.SENSITIVE_COUNTRIES:
            if len(chosen) >= self.max_vantage_points:
                break
            candidate = next(
                (vp for vp in points if vp.claimed_country == country), None
            )
            if candidate is not None and candidate not in chosen:
                chosen.append(candidate)
        remaining = [vp for vp in points if vp not in chosen]
        if not chosen and remaining:
            chosen.append(remaining.pop(0))
        while len(chosen) < self.max_vantage_points and remaining:
            best = max(
                remaining,
                key=lambda vp: min(
                    vp.claimed_location.distance_km(c.claimed_location)
                    for c in chosen
                ),
            )
            chosen.append(best)
            remaining.remove(best)
        return chosen

    # ------------------------------------------------------------------
    # Per-vantage-point execution
    # ------------------------------------------------------------------
    def run_vantage_point(
        self,
        provider: VpnProvider,
        vantage_point: VantagePoint,
        full: bool = True,
    ) -> VantagePointResults:
        """Connect, run the battery, disconnect.

        ``full=False`` runs only the lightweight infrastructure sweep
        (pings + geolocation), mirroring the paper's automated collection.
        """
        client_host = self.world.client
        vpn_client = VpnClient(client_host, provider)
        results = VantagePointResults(
            provider=provider.name,
            hostname=vantage_point.hostname,
            egress_address=str(vantage_point.address),
            claimed_country=vantage_point.claimed_country,
        )
        physical = client_host.primary_interface()
        if physical is not None:
            physical.capture.clear()
        if not self._connect_with_retry(vpn_client, vantage_point):
            results.connected = False
            return results

        context = TestContext(
            world=self.world,
            provider=provider,
            vantage_point=vantage_point,
            vpn_client=vpn_client,
            suite=self,
        )
        observed = self._observed
        vantage = vantage_point.hostname
        try:
            results.ping_traceroute = observed(
                "ping_traceroute", vantage,
                lambda: self._ping_test.run(context))
            results.geolocation = observed(
                "geolocation", vantage, lambda: self._geo_test.run(context))
            if full:
                results.metadata = observed(
                    "metadata", vantage, lambda: self._metadata.run(context))
                results.dns_manipulation = observed(
                    "dns_manipulation", vantage,
                    lambda: self._dns_manip.run(context))
                results.dom_collection = observed(
                    "dom_collection", vantage,
                    lambda: self._dom_test.run(context))
                results.tls = observed(
                    "tls_interception", vantage,
                    lambda: self._tls_test.run(context))
                results.proxy = observed(
                    "proxy_detection", vantage,
                    lambda: self._proxy_test.run(context))
                results.dns_origin = observed(
                    "dns_origin", vantage,
                    lambda: self._dns_origin.run(context))
                context.note_query(results.dns_origin.probe_hostname)
                is_custom = (
                    provider.profile.client_type is ClientType.CUSTOM
                )
                if is_custom:
                    # Leakage tests need the provider's own client software
                    # (Section 6.5: disabled for automated OpenVPN testing).
                    # A flaky endpoint dropping the session mid-battery is
                    # reconnected and the test re-run once, as the initial
                    # connect is.
                    results.dns_leakage = observed(
                        "dns_leakage", vantage,
                        lambda: self._run_leakage_test(
                            context, lambda: self._dns_leak.run(context),
                            name="dns_leakage",
                        ))
                    results.ipv6_leakage = observed(
                        "ipv6_leakage", vantage,
                        lambda: self._run_leakage_test(
                            context, lambda: self._ipv6_leak.run(context),
                            name="ipv6_leakage",
                        ))
                webrtc = observed(
                    "webrtc_leakage", vantage,
                    lambda: self._run_leakage_test(
                        context, lambda: self._webrtc.run(context),
                        name="webrtc_leakage",
                    ))
                from repro.core.results import WebRtcSummary

                results.webrtc = WebRtcSummary(
                    leaked=webrtc.leaked,
                    exposed_local_addresses=webrtc.exposed_local_addresses,
                    reflexive_address=webrtc.reflexive_address,
                    reflexive_is_vpn_egress=webrtc.reflexive_is_vpn_egress,
                    evidence=getattr(webrtc, "evidence", None),
                )
                results.p2p = observed(
                    "p2p_detection", vantage, lambda: self._p2p.run(context))
                if is_custom:
                    # Last: deliberately wrecks the tunnel.
                    results.tunnel_failure = observed(
                        "tunnel_failure", vantage,
                        lambda: self._run_leakage_test(
                            context,
                            lambda: self._tunnel_failure.run(context),
                            name="tunnel_failure",
                        ))
        finally:
            vpn_client.disconnect()
        return results

    def _observed(self, name: str, vantage: str, run: Callable):
        """Run one test, inside a ``test`` span when observability is on.

        While the span is still open, results that support evidence but
        recorded none themselves get a default chain (anchored to the test
        span, carrying the result's incriminating observations as notes) —
        so in a traced study *every* verdict is explainable, not only the
        ones from tests that build packet-level chains.
        """
        obs = self.obs
        if obs is None:
            return run()
        with obs.test_span(name, vantage=vantage):
            result = run()
            from repro.obs.evidence import attach_default_evidence

            attach_default_evidence(obs, name, vantage, result)
            return result

    # ------------------------------------------------------------------
    # Flaky-endpoint handling (§5.2): one retry, on the same client
    # ------------------------------------------------------------------
    def _connect_with_retry(
        self, vpn_client: VpnClient, vantage_point: VantagePoint
    ) -> bool:
        """Connect, retrying once; False when attempts run out."""
        from repro.vpn.client import TunnelConnectionError

        obs = self.obs
        attempt = 0
        while True:
            attempt += 1
            try:
                vpn_client.connect(vantage_point)
                return True
            except TunnelConnectionError:
                if attempt >= MAX_ATTEMPTS:
                    return False
                self.connect_retries += 1
                if obs is not None:
                    obs.retry("connect")
            except Exception:  # pragma: no cover - defensive
                return False

    def _run_leakage_test(
        self, context: TestContext, run: Callable, name: str = "leakage"
    ):
        """Run a leakage test, reconnecting and re-running on a dropped
        session (the §5.2 flaky endpoints are not limited to connect time).
        """
        from repro.vpn.client import ConnectionState, TunnelConnectionError

        obs = self.obs
        attempt = 0
        while True:
            attempt += 1
            try:
                vpn_client = context.vpn_client
                if (
                    vpn_client is not None
                    and vpn_client.state is ConnectionState.DISCONNECTED
                ):
                    vpn_client.connect(context.vantage_point)
                return run()
            except TunnelConnectionError:
                if attempt >= MAX_ATTEMPTS:
                    raise
                self.connect_retries += 1
                if obs is not None:
                    obs.retry(name)

    # ------------------------------------------------------------------
    # Per-unit entry points (what the runtime executor schedules)
    # ------------------------------------------------------------------
    def run_unit(self, unit: "AuditUnit") -> list[VantagePointResults]:
        """Execute one work unit of the study.

        A FULL unit is the complete battery at its single endpoint; a SWEEP
        unit is the lightweight infrastructure pass over the provider's
        remaining endpoints.  Units are independent: results do not depend
        on which other units ran before them, in this world or any other
        built from the same seed — that is what makes parallel execution
        bit-for-bit reproducible.
        """
        from repro.dns.resolver import reset_txids
        from repro.runtime.units import UnitKind

        # RTTs are clock deltas; rebasing the clock per unit keeps the
        # float arithmetic (and thus the archived bytes) independent of
        # how much this particular world instance has already simulated.
        # Txids and ephemeral ports are rebased for the same reason: they
        # end up in packet payloads, which feed the jitter hash — resetting
        # them makes every unit's packet bytes (and the obs trace of them)
        # a pure function of the unit.
        self.world.internet.clock_ms = 0.0
        reset_txids()
        self.world.client.reset_ephemeral_ports()
        if self.obs is not None:
            self.obs.begin_unit(unit)
        provider = self.world.provider(unit.provider)
        full = unit.kind is UnitKind.FULL
        return [
            self.run_vantage_point(
                provider, provider.vantage_point(hostname), full=full
            )
            for hostname in unit.hostnames
        ]

    # ------------------------------------------------------------------
    # Assembly: unit results -> provider/study reports
    # ------------------------------------------------------------------
    def assemble_provider(
        self,
        name: str,
        full_results: list[VantagePointResults],
        sweep_results: list[VantagePointResults],
    ) -> ProviderReport:
        provider = self.world.provider(name)
        report = ProviderReport(
            provider=name,
            subscription=provider.profile.subscription.value,
            client_type=provider.profile.client_type.value,
            full_results=full_results,
            sweep_results=sweep_results,
        )
        report.colocation = self._colocation_for(provider, report)
        return report

    def assemble_study(
        self,
        plan: "StudyPlan",
        unit_results: dict[str, list[VantagePointResults]],
    ) -> StudyReport:
        """Aggregate per-unit results into a :class:`StudyReport`.

        Iterates in plan order, so the report (and its archived bytes) is
        independent of the order in which units actually executed.  Units
        missing from *unit_results* (failed or timed out) are recorded in
        the provider's ``connect_failures``.  The executor's study loop
        assembles the same providers one at a time, each on its shard's
        suite, through :meth:`assemble_provider_from_plan`; this
        whole-plan form stays because ``perfbench/layers.py`` wraps it by
        name.
        """
        study = StudyReport()
        for name in plan.providers:
            report = self.assemble_provider_from_plan(plan, name, unit_results)
            study.providers[name] = report
            self.ingest_provider_aggregates(study, name, report)
        return study

    def assemble_provider_from_plan(
        self,
        plan: "StudyPlan",
        name: str,
        unit_results: dict[str, list[VantagePointResults]],
    ) -> ProviderReport:
        """One provider's report from its unit results, in plan order.

        Units missing from *unit_results* (failed or timed out) become the
        provider's ``connect_failures``.  The provider must exist in this
        suite's world — under sharded execution that means calling this on
        the suite of the provider's shard.
        """
        from repro.runtime.units import UnitKind

        full_results: list[VantagePointResults] = []
        sweep_results: list[VantagePointResults] = []
        for unit in plan.units:
            if unit.provider != name:
                continue
            results = unit_results.get(unit.unit_id)
            if results is None:
                continue
            if unit.kind is UnitKind.FULL:
                full_results.extend(results)
            else:
                sweep_results.extend(results)
        report = self.assemble_provider(name, full_results, sweep_results)
        measured = {r.hostname for r in full_results + sweep_results}
        report.connect_failures.extend(
            hostname
            for unit in plan.units
            if unit.provider == name
            for hostname in unit.hostnames
            if hostname not in measured
        )
        return report

    def ingest_provider_aggregates(
        self, study: StudyReport, name: str, report: ProviderReport
    ) -> None:
        """Fold one provider's results into the study-wide analyses."""
        provider = self.world.provider(name)
        for results in report.full_results:
            if results.dom_collection is not None:
                study.redirects.ingest(
                    name, results.claimed_country, results.dom_collection
                )
        for results in report.full_results + report.sweep_results:
            if results.geolocation is not None:
                study.geoip.ingest(name, results.geolocation)
        for vantage_point in provider.vantage_points:
            study.shared_infra.ingest(
                provider=name,
                address=str(vantage_point.address),
                block=str(vantage_point.block),
                asn=vantage_point.spec.asn,
            )

    def _colocation_for(
        self, provider: VpnProvider, report: ProviderReport
    ) -> ColocationReport:
        anchor_locations = {
            anchor.address: anchor.location for anchor in self.world.anchors
        }
        evidence: list[VantagePointEvidence] = []
        by_hostname = {
            vp.hostname: vp for vp in provider.vantage_points
        }
        for results in report.full_results + report.sweep_results:
            if results.ping_traceroute is None:
                continue
            vantage_point = by_hostname[results.hostname]
            evidence.append(
                VantagePointEvidence(
                    provider=provider.name,
                    hostname=results.hostname,
                    claimed_country=results.claimed_country,
                    claimed_location=vantage_point.claimed_location,
                    rtt_vector=results.ping_traceroute.rtt_vector(),
                    anchor_locations=anchor_locations,
                    tunnel_base_rtt_ms=(
                        results.ping_traceroute.tunnel_base_rtt_ms
                    ),
                )
            )
        return ColocationAnalysis().analyse_provider(evidence)
