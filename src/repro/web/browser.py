"""A headless browser bound to a host.

:class:`Browser` plays the role of the paper's Selenium-driven Chrome: it
resolves hostnames through the host's configured resolvers, issues HTTP
requests with a characteristic header block, follows redirect chains,
captures the final DOM, and enumerates subresource loads.  It also exposes
the direct TLS probe used by the interception test.

Everything goes through ``Host.send``, so tunnel routing, kill switches and
egress behaviours all apply — a page loaded while connected to a VPN sees
whatever the VPN does to traffic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

from repro.dns.resolver import StubResolver
from repro.net.host import Host
from repro.net.packet import Packet, TcpSegment, TlsPayload
from repro.web.dom import Document
from repro.web.http import (
    HeaderSet,
    HttpRequest,
    HttpResponse,
    default_request_headers,
)
from repro.web.tls import ChainRegistry, TlsHandshake, TrustStore
from repro.web.url import Url

MAX_REDIRECTS = 10


@dataclass(frozen=True)
class RedirectHop:
    """One hop in a redirect chain."""

    url: str
    status: int
    location: Optional[str]


@dataclass(frozen=True)
class ResourceLoad:
    """A subresource referenced by a loaded page."""

    url: str
    initiator: str  # the page URL that referenced it


@dataclass
class FetchResult:
    """One HTTP exchange (no redirect following)."""

    request: HttpRequest
    response: Optional[HttpResponse]
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.response is not None


@dataclass
class PageLoad:
    """A full page load: redirect chain, final document, resources.

    The document and its resources are parsed from the final response on
    first read: the TLS-interception test loads most of a study's pages
    and reads only their final URL and status.
    """

    requested_url: str
    hops: list[RedirectHop] = field(default_factory=list)
    final_response: Optional[HttpResponse] = None
    error: str = ""

    @functools.cached_property
    def document(self) -> Optional[Document]:
        """The DOM of a 200 response's body, or None."""
        response = self.final_response
        if response is None or response.status != 200 or not response.body:
            return None
        try:
            return Document.deserialise(response.body)
        except (ValueError, KeyError):
            return None

    @functools.cached_property
    def resources(self) -> list[ResourceLoad]:
        """The subresources the document references."""
        if self.document is None:
            return []
        return [
            ResourceLoad(url=resource, initiator=self.final_url)
            for resource in self.document.resource_urls()
        ]

    @property
    def ok(self) -> bool:
        return self.final_response is not None and self.final_response.status == 200

    @property
    def final_url(self) -> str:
        return self.hops[-1].url if self.hops else self.requested_url

    @property
    def was_redirected(self) -> bool:
        return len(self.hops) > 1


@dataclass
class TlsProbe:
    """Result of directly negotiating TLS with a hostname (Section 5.3.1)."""

    hostname: str
    resolved_address: Optional[str]
    handshake: Optional[TlsHandshake]
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.handshake is not None and self.handshake.completed


class Browser:
    """A headless page loader bound to one host."""

    def __init__(
        self,
        host: Host,
        trust_store: TrustStore,
        chain_registry: ChainRegistry,
    ) -> None:
        self.host = host
        self.trust_store = trust_store
        self.chain_registry = chain_registry
        self.resolver = StubResolver(host)

    def _profiler(self):
        """The active phase profiler, or None (the zero-overhead path)."""
        internet = self.host.internet
        obs = internet.obs if internet is not None else None
        return obs.profile if obs is not None else None

    # ------------------------------------------------------------------
    # Resolution and raw fetching
    # ------------------------------------------------------------------
    def _resolve(self, hostname: str) -> Optional[str]:
        # IP literals bypass DNS.
        parts = hostname.split(".")
        if len(parts) == 4 and all(p.isdigit() for p in parts):
            return hostname
        if ":" in hostname:
            return hostname
        return self.resolver.resolve_address(hostname)

    def fetch(
        self,
        url: str | Url,
        headers: HeaderSet | None = None,
        method: str = "GET",
    ) -> FetchResult:
        """One HTTP(S) exchange without following redirects.

        Profiled as the ``browser`` phase; the DNS resolution and packet
        delivery underneath bill to their own phases (exclusive
        accounting), so this phase is the HTTP/emulation work itself.
        """
        profile = self._profiler()
        if profile is None:
            return self._fetch(url, headers, method)
        profile.enter("browser")
        try:
            return self._fetch(url, headers, method)
        finally:
            profile.leave()

    def _fetch(
        self,
        url: str | Url,
        headers: HeaderSet | None = None,
        method: str = "GET",
    ) -> FetchResult:
        parsed = Url.parse(url) if isinstance(url, str) else url
        header_set = headers.copy() if headers else default_request_headers(parsed.host)
        header_set.set("Host", parsed.host)
        request = HttpRequest(
            method=method, url=str(parsed), headers=header_set.as_tuple()
        )

        address = self._resolve(parsed.host)
        if address is None:
            return FetchResult(request=request, response=None, error="dns-failure")

        socket = self.host.open_socket("tcp")
        try:
            route = self.host.routing.lookup(_parse(address))
            if route is None:
                return FetchResult(request=request, response=None, error="no-route")
            interface = self.host.interfaces.get(route.interface)
            if interface is None or not interface.up:
                return FetchResult(
                    request=request, response=None, error="interface-down"
                )
            src = interface.address_for_version(_parse(address).version)
            if src is None:
                return FetchResult(
                    request=request, response=None, error="no-source-address"
                )
            packet = Packet(
                src=src,
                dst=_parse(address),
                payload=TcpSegment(
                    src_port=socket.port,
                    dst_port=parsed.port,
                    payload=request.to_payload(),
                ),
            )
            outcome = self.host.send(packet)
            if not outcome.ok:
                return FetchResult(
                    request=request, response=None, error=outcome.status
                )
            for reply in outcome.responses:
                payload = reply.payload
                if isinstance(payload, TcpSegment) and getattr(
                    payload.payload, "kind", ""
                ) == "http":
                    return FetchResult(
                        request=request,
                        response=HttpResponse.from_payload(payload.payload),  # type: ignore[arg-type]
                    )
            return FetchResult(request=request, response=None, error="no-response")
        finally:
            socket.close()

    # ------------------------------------------------------------------
    # Page loading with redirects (the DOM-collection primitive)
    # ------------------------------------------------------------------
    def load_page(self, url: str) -> PageLoad:
        profile = self._profiler()
        if profile is None:
            return self._load_page(url)
        profile.enter("browser")
        try:
            return self._load_page(url)
        finally:
            profile.leave()

    def _load_page(self, url: str) -> PageLoad:
        load = PageLoad(requested_url=url)
        current = url
        for _hop in range(MAX_REDIRECTS):
            result = self.fetch(current)
            if not result.ok:
                load.error = result.error
                return load
            response = result.response
            assert response is not None
            load.hops.append(
                RedirectHop(
                    url=current, status=response.status, location=response.location
                )
            )
            if response.is_redirect:
                assert response.location is not None
                current = str(Url.parse(current).join(response.location))
                continue
            load.final_response = response
            break
        else:
            load.error = "too-many-redirects"
        return load

    # ------------------------------------------------------------------
    # Direct TLS negotiation (the TLS-interception primitive)
    # ------------------------------------------------------------------
    def tls_probe(self, hostname: str) -> TlsProbe:
        profile = self._profiler()
        if profile is None:
            return self._tls_probe(hostname)
        profile.enter("tls")
        try:
            return self._tls_probe(hostname)
        finally:
            profile.leave()

    def _tls_probe(self, hostname: str) -> TlsProbe:
        address = self._resolve(hostname)
        if address is None:
            return TlsProbe(
                hostname=hostname,
                resolved_address=None,
                handshake=None,
                error="dns-failure",
            )
        socket = self.host.open_socket("tcp")
        try:
            target = _parse(address)
            route = self.host.routing.lookup(target)
            if route is None:
                return TlsProbe(hostname, address, None, error="no-route")
            interface = self.host.interfaces.get(route.interface)
            if interface is None or not interface.up:
                return TlsProbe(hostname, address, None, error="interface-down")
            src = interface.address_for_version(target.version)
            if src is None:
                return TlsProbe(hostname, address, None, error="no-source-address")
            hello = Packet(
                src=src,
                dst=target,
                payload=TcpSegment(
                    src_port=socket.port,
                    dst_port=443,
                    payload=TlsPayload(sni=hostname, record="client_hello"),
                ),
            )
            outcome = self.host.send(hello)
            if not outcome.ok:
                return TlsProbe(hostname, address, None, error=outcome.status)
            for reply in outcome.responses:
                payload = reply.payload
                if isinstance(payload, TcpSegment) and isinstance(
                    payload.payload, TlsPayload
                ):
                    record = payload.payload
                    if record.record != "server_hello":
                        continue
                    chain = self.chain_registry.lookup(
                        record.certificate_fingerprint
                    )
                    if chain is None:
                        handshake = TlsHandshake(
                            hostname=hostname,
                            presented_chain=None,
                            validation=None,
                            completed=False,
                        )
                    else:
                        handshake = TlsHandshake(
                            hostname=hostname,
                            presented_chain=chain,
                            validation=self.trust_store.validate(chain, hostname),
                            completed=True,
                        )
                    return TlsProbe(hostname, address, handshake)
            return TlsProbe(hostname, address, None, error="no-server-hello")
        finally:
            socket.close()


def _parse(address: str):
    from repro.net.addresses import parse_address

    return parse_address(address)
