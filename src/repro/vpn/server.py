"""The vantage-point server.

A :class:`VantagePointServer` runs on a host placed at the endpoint's
*physical* location.  It terminates tunnels: decapsulates inner packets,
answers in-tunnel DNS at the provider resolver address, NATs the client's
tunnel address to the vantage point's egress address, walks the egress
behaviour chain, forwards to the destination, walks the chain again for the
response, and re-encapsulates back to the client.

Because the vantage-point host is attached to the simulated internet at its
physical location, every RTT measured *through* the tunnel reflects where
the machine really is — which is precisely what defeats location spoofing in
the paper's Section 6.4.2 analysis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.dns.server import RecursiveResolverServer
from repro.net.addresses import Address, parse_address
from repro.net.packet import (
    DnsPayload,
    Packet,
    TunnelPayload,
    UdpDatagram,
)
from repro.vpn.behaviors import EgressBehavior, EgressContext

if TYPE_CHECKING:
    from repro.net.host import Host


class VantagePointServer:
    """Tunnel terminator + egress pipeline for one vantage point."""

    def __init__(
        self,
        host: "Host",
        egress_address: Address,
        provider_name: str,
        claimed_country: str,
        resolver: RecursiveResolverServer,
        resolver_address: str = "10.8.0.1",
        behaviors: list[EgressBehavior] | None = None,
        egress_address_v6: Address | None = None,
    ) -> None:
        self.host = host
        self.egress_address = egress_address
        self.egress_address_v6 = egress_address_v6
        self.provider_name = provider_name
        self.claimed_country = claimed_country
        self.resolver = resolver
        self.resolver_address = parse_address(resolver_address)
        self.behaviors = behaviors or []
        self.sessions_served = 0
        host.bind("tunnel", 0, self.handle_tunnel)

    # ------------------------------------------------------------------
    def handle_tunnel(self, packet: Packet, host: "Host") -> Optional[list[Packet]]:
        payload = packet.payload
        if not isinstance(payload, TunnelPayload):
            return None
        inner = payload.inner
        self.sessions_served += 1

        # In-tunnel DNS service at the provider resolver address.
        if inner.dst == self.resolver_address:
            return self._answer_dns(packet, payload, inner)

        responses = self._egress(inner)
        return [
            self._encapsulate_back(packet, payload, inner, response)
            for response in responses
        ]

    # ------------------------------------------------------------------
    def _answer_dns(
        self, outer: Packet, tunnel: TunnelPayload, inner: Packet
    ) -> Optional[list[Packet]]:
        datagram = inner.payload
        if not isinstance(datagram, UdpDatagram) or datagram.dst_port != 53:
            return None
        dns = datagram.payload
        if not isinstance(dns, DnsPayload) or dns.is_response:
            return None
        from repro.dns.message import DnsQuestion

        response = self.resolver.answer(
            DnsQuestion(qname=dns.qname, qtype=dns.qtype),
            source=str(self.egress_address),
        )
        reply_inner = Packet(
            src=inner.dst,
            dst=inner.src,
            payload=UdpDatagram(
                src_port=53,
                dst_port=datagram.src_port,
                payload=DnsPayload(
                    qname=dns.qname,
                    qtype=dns.qtype,
                    is_response=True,
                    rcode=response.rcode.value,
                    answers=response.addresses,
                    txid=dns.txid,
                ),
            ),
        )
        return [self._encapsulate_back(outer, tunnel, inner, reply_inner)]

    # ------------------------------------------------------------------
    def _egress(self, inner: Packet) -> list[Packet]:
        """NAT, run behaviours, forward, un-NAT."""
        client_tunnel_address = inner.src
        if inner.dst.version == 6:
            if self.egress_address_v6 is None:
                return []  # v4-only vantage point cannot carry IPv6
            outbound = inner.with_src(self.egress_address_v6)
        else:
            outbound = inner.with_src(self.egress_address)

        context = EgressContext(
            provider_name=self.provider_name,
            vantage_country=self.claimed_country,
            outbound=outbound,
        )
        for behavior in self.behaviors:
            behavior.on_request(context)
            if context.synthetic_response is not None:
                synthetic = context.synthetic_response.with_dst(
                    client_tunnel_address
                )
                return [synthetic]
        outbound = context.outbound

        outcome = self.host.send(outbound)
        responses = outcome.responses if outcome.ok else []

        processed: list[Packet] = []
        for response in responses:
            for behavior in self.behaviors:
                response = behavior.on_response(context, response)
            processed.append(response.with_dst(client_tunnel_address))
        return processed

    # ------------------------------------------------------------------
    def _encapsulate_back(
        self,
        outer: Packet,
        tunnel: TunnelPayload,
        inner_request: Packet,
        inner_response: Packet,
    ) -> Packet:
        return Packet(
            src=outer.dst,
            dst=outer.src,
            payload=TunnelPayload(
                protocol=tunnel.protocol,
                inner=inner_response,
                cipher=tunnel.cipher,
            ),
        )
