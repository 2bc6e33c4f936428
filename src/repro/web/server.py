"""Web servers.

Three services, installed on simulated hosts:

- :class:`OriginWebServer` — serves one catalogue site on HTTP/HTTPS,
  including the HTTPS upgrade redirect and the 403 that VPN-range-blocking
  services return (paper Section 6.1.2);
- :class:`HeaderEchoServer` — returns the request headers it received as the
  response body; the transparent-proxy detection test (Section 6.2.1)
  compares them with what the client sent;
- :class:`BlockPageServer` — the country-censorship destinations of Table 4.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

from repro.net.host import Host
from repro.net.packet import Packet, TcpSegment, TlsPayload
from repro.web.dom import Document
from repro.web.http import HttpRequest, HttpResponse
from repro.web.sites import Site, generate_document
from repro.web.tls import CertificateChain, CertificateStore
from repro.web.url import Url

# Predicate the world provides: is this source address a known VPN egress?
VpnRangePredicate = Callable[[str], bool]


def _never_vpn(_addr: str) -> bool:
    """Default predicate when no world-level blacklist is wired in.

    A module-level function (not a lambda) so that worlds embedding a
    server remain picklable — snapshot cloning depends on it.
    """
    return False


def _http_reply(
    packet: Packet, segment: TcpSegment, response: HttpResponse
) -> list[Packet]:
    return [
        Packet(
            src=packet.dst,
            dst=packet.src,
            payload=TcpSegment(
                src_port=segment.dst_port,
                dst_port=segment.src_port,
                flags="PA",
                payload=response.to_payload(),
            ),
        )
    ]


def _tls_reply(
    packet: Packet, segment: TcpSegment, chain: CertificateChain, sni: str
) -> list[Packet]:
    return [
        Packet(
            src=packet.dst,
            dst=packet.src,
            payload=TcpSegment(
                src_port=segment.dst_port,
                dst_port=segment.src_port,
                flags="PA",
                payload=TlsPayload(
                    sni=sni,
                    record="server_hello",
                    certificate_fingerprint=chain.leaf.fingerprint,
                    size=1420,
                ),
            ),
        )
    ]


class OriginWebServer:
    """Serves one site's ground-truth content on ports 80 and 443."""

    def __init__(
        self,
        site: Site,
        cert_store: CertificateStore,
        is_vpn_address: VpnRangePredicate | None = None,
    ) -> None:
        self.site = site
        self.cert_store = cert_store
        self.is_vpn_address = is_vpn_address or _never_vpn
        self.document: Document = generate_document(site)

    # ------------------------------------------------------------------
    def handle_http(self, packet: Packet, host: Host) -> Optional[list[Packet]]:
        segment = packet.payload
        if not isinstance(segment, TcpSegment):
            return None
        payload = segment.payload
        if not hasattr(payload, "status") or payload.kind != "http":
            return None
        request = HttpRequest.from_payload(payload)  # type: ignore[arg-type]
        response = self.respond(request, source_address=str(packet.src))
        return _http_reply(packet, segment, response)

    def handle_https(self, packet: Packet, host: Host) -> Optional[list[Packet]]:
        segment = packet.payload
        if not isinstance(segment, TcpSegment):
            return None
        payload = segment.payload
        if isinstance(payload, TlsPayload) and payload.record == "client_hello":
            chain = self.cert_store.chain_for(self.site.domain)
            return _tls_reply(packet, segment, chain, payload.sni)
        if getattr(payload, "kind", "") == "http":
            request = HttpRequest.from_payload(payload)  # type: ignore[arg-type]
            response = self.respond(
                request, source_address=str(packet.src), https=True
            )
            return _http_reply(packet, segment, response)
        return None

    # ------------------------------------------------------------------
    def respond(
        self, request: HttpRequest, source_address: str, https: bool = False
    ) -> HttpResponse:
        url = Url.parse(request.url)
        if url.host != self.site.domain:
            return HttpResponse.not_found(request.url)
        if self.site.blocks_vpn_ranges and self.is_vpn_address(source_address):
            # Active VPN discrimination: 403 on the initial page load.
            return HttpResponse.forbidden(
                request.url, body="Access from VPN/proxy ranges is not permitted."
            )
        if self.site.upgrades_https and not https:
            return HttpResponse.redirect(
                request.url, str(url.with_scheme("https")), status=301
            )
        document = self.document
        serialised = document.serialise()
        return HttpResponse(
            status=200,
            url=request.url,
            headers=(
                ("Content-Type", "text/html"),
                ("Server", "origin/1.0"),
            ),
            body=serialised,
            body_label=f"page:{self.site.domain}",
        )


class HeaderEchoServer:
    """Echoes received request headers back as a JSON body.

    The proxy-detection test sends a request with a characteristic header
    block and compares what came back — any in-path device that parsed and
    regenerated the request (even without injecting) shows up as reordered
    or re-cased headers.
    """

    def __init__(self, domain: str = "header-echo-probe.net") -> None:
        self.domain = domain

    def handle_http(self, packet: Packet, host: Host) -> Optional[list[Packet]]:
        segment = packet.payload
        if not isinstance(segment, TcpSegment):
            return None
        payload = segment.payload
        if getattr(payload, "kind", "") != "http" or payload.status != 0:
            return None
        request = HttpRequest.from_payload(payload)  # type: ignore[arg-type]
        body = json.dumps(
            {
                "observed_headers": [list(h) for h in request.headers],
                "source": str(packet.src),
                "method": request.method,
            },
            separators=(",", ":"),
        )
        response = HttpResponse(
            status=200,
            url=request.url,
            headers=(("Content-Type", "application/json"),),
            body=body,
            body_label="header-echo",
        )
        return _http_reply(packet, segment, response)


# Table 4's redirect destinations, keyed by a short block-page id.
BLOCK_PAGES: dict[str, tuple[str, str]] = {
    # id -> (destination URL, country)
    "tr-telecom": ("http://195.175.254.2", "TR"),
    "kr-warning": ("http://www.warning.or.kr", "KR"),
    "ru-ttk": ("http://fz139.ttk.ru", "RU"),
    "ru-zapret": ("http://zapret.hoztnode.net", "RU"),
    "ru-rt": ("http://warning.rt.ru", "RU"),
    "ru-mts": ("http://blocked.mts.ru", "RU"),
    "ru-dtln": ("http://block.dtln.ru", "RU"),
    "ru-beeline": ("http://blackhole.beeline.ru", "RU"),
    "nl-ziggo": ("https://www.ziggo.nl", "NL"),
    "nl-ip": ("http://213.46.185.10", "NL"),
    "th-ip": ("http://103.77.116.101", "TH"),
}


class BlockPageServer:
    """Serves a national block page (the destination of Table 4 redirects)."""

    def __init__(self, block_page_id: str) -> None:
        if block_page_id not in BLOCK_PAGES:
            raise ValueError(f"unknown block page {block_page_id!r}")
        self.block_page_id = block_page_id
        self.url, self.country = BLOCK_PAGES[block_page_id]

    def handle_http(self, packet: Packet, host: Host) -> Optional[list[Packet]]:
        segment = packet.payload
        if not isinstance(segment, TcpSegment):
            return None
        payload = segment.payload
        if getattr(payload, "kind", "") != "http" or payload.status != 0:
            return None
        body = (
            f"Access to the requested resource has been restricted by order "
            f"of the competent authority. ({self.block_page_id})"
        )
        response = HttpResponse(
            status=200,
            url=payload.url,
            headers=(("Content-Type", "text/html"),),
            body=body,
            body_label=f"blockpage:{self.block_page_id}",
        )
        return _http_reply(packet, segment, response)

    # HTTPS block pages (ziggo) present their own certificate.
    def handle_https(
        self, cert_store: CertificateStore
    ) -> Callable[[Packet, Host], Optional[list[Packet]]]:
        # A picklable callable object, not a nested closure: the handler
        # ends up bound inside hosts that world snapshotting pickles.
        return _BlockPageHttpsHandler(server=self, cert_store=cert_store)


class _BlockPageHttpsHandler:
    """TLS-aware service handler for a :class:`BlockPageServer`."""

    def __init__(
        self, server: BlockPageServer, cert_store: CertificateStore
    ) -> None:
        self.server = server
        self.cert_store = cert_store

    def __call__(self, packet: Packet, host: Host) -> Optional[list[Packet]]:
        segment = packet.payload
        if not isinstance(segment, TcpSegment):
            return None
        payload = segment.payload
        if isinstance(payload, TlsPayload) and payload.record == "client_hello":
            destination_host = Url.parse(self.server.url).host
            chain = self.cert_store.chain_for(destination_host)
            return _tls_reply(packet, segment, chain, payload.sni)
        return self.server.handle_http(packet, host)


def install_web_service(
    host: Host,
    http_handler: Callable[[Packet, Host], Optional[list[Packet]]],
    https_handler: Callable[[Packet, Host], Optional[list[Packet]]] | None = None,
) -> None:
    """Bind HTTP (and optionally HTTPS) services on a host."""
    host.bind("tcp", 80, http_handler)
    if https_handler is not None:
        host.bind("tcp", 443, https_handler)
