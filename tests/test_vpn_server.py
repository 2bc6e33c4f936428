"""Unit tests for the vantage-point server's tunnel/NAT/egress pipeline."""

import pytest

from repro.net.addresses import parse_address
from repro.net.packet import (
    DnsPayload,
    Packet,
    TcpSegment,
    TunnelPayload,
    UdpDatagram,
)
from repro.vpn.client import VpnClient


@pytest.fixture()
def world():
    from repro.world import World

    return World.build(provider_names=["Mullvad"])


def tunnel_packet(world, vantage_point, inner):
    client_physical = world.client.primary_interface()
    return Packet(
        src=client_physical.ipv4,
        dst=vantage_point.address,
        payload=TunnelPayload(protocol="OpenVPN", inner=inner),
    )


def http_requests(packets):
    """The HTTP requests among packets a host's ``packet_tap`` saw."""
    return [
        packet for packet in packets
        if isinstance(packet.payload, TcpSegment)
        and getattr(packet.payload.payload, "kind", "") == "http"
    ]


class TestDecapsulationAndNat:
    def test_in_tunnel_dns_answered_at_resolver_address(self, world):
        provider = world.provider("Mullvad")
        vp = provider.vantage_points[0]
        inner = Packet(
            src=parse_address("10.8.0.2"),
            dst=parse_address("10.8.0.1"),
            payload=UdpDatagram(
                40000, 53,
                DnsPayload(qname=world.sites.dom_test_sites()[0].domain),
            ),
        )
        responses = vp.server.handle_tunnel(
            tunnel_packet(world, vp, inner), vp.host
        )
        assert len(responses) == 1
        reply = responses[0].payload
        assert isinstance(reply, TunnelPayload)
        dns = reply.inner.payload.payload
        assert dns.is_response
        assert dns.answers

    def test_egress_rewrites_source_to_vantage_point(self, world):
        provider = world.provider("Mullvad")
        vp = provider.vantage_points[0]
        site = world.sites.dom_test_sites()[0]
        origin = world.internet.host_named(f"site:{site.domain}")
        arrived = []
        origin.packet_tap = arrived.append
        from repro.net.packet import HttpPayload

        inner = Packet(
            src=parse_address("10.8.0.2"),
            dst=origin.interfaces["eth0"].ipv4,
            payload=TcpSegment(
                40001, 80,
                payload=HttpPayload(method="GET", url=site.http_url),
            ),
        )
        responses = vp.server.handle_tunnel(
            tunnel_packet(world, vp, inner), vp.host
        )
        (request,) = http_requests(arrived)
        # The origin saw the *vantage point* as the source, which is what
        # the DNS-origin and geolocation tests rely on, and its reply came
        # back into the client's session.
        assert request.src == vp.server.egress_address
        assert [str(r.payload.inner.dst) for r in responses] == ["10.8.0.2"]

    def test_responses_re_addressed_to_client_tunnel_ip(self, world):
        provider = world.provider("Mullvad")
        vp = provider.vantage_points[0]
        anchor = world.anchors[0]
        from repro.net.packet import IcmpPayload

        inner = Packet(
            src=parse_address("10.8.0.2"),
            dst=parse_address(anchor.address),
            payload=IcmpPayload(icmp_type="echo_request"),
        )
        responses = vp.server.handle_tunnel(
            tunnel_packet(world, vp, inner), vp.host
        )
        assert responses
        for response in responses:
            tunnel = response.payload
            assert isinstance(tunnel, TunnelPayload)
            assert str(tunnel.inner.dst) == "10.8.0.2"

    def test_non_tunnel_payload_ignored(self, world):
        provider = world.provider("Mullvad")
        vp = provider.vantage_points[0]
        bogus = Packet(
            src=world.client.primary_interface().ipv4,
            dst=vp.address,
            payload=UdpDatagram(1, 2),
        )
        assert vp.server.handle_tunnel(bogus, vp.host) is None

    def test_sessions_counted(self, world):
        provider = world.provider("Mullvad")
        vp = provider.vantage_points[0]
        before = vp.server.sessions_served
        client = VpnClient(world.client, provider)
        client.connect(vp)
        world.internet.ping(world.client, world.anchors[0].address)
        client.disconnect()
        assert vp.server.sessions_served > before


class TestCensorshipShortCircuit:
    def test_synthetic_response_skips_origin(self):
        from repro.world import World

        world = World.build(provider_names=["NordVPN"])
        provider = world.provider("NordVPN")
        ru_vp = next(
            vp for vp in provider.vantage_points
            if vp.claimed_country == "RU"
        )
        censored = world.sites.censored_domains_for_country("RU")[0]
        origin = world.internet.host_named(f"site:{censored}")
        arrived = []
        origin.packet_tap = arrived.append

        from repro.net.packet import HttpPayload

        inner = Packet(
            src=parse_address("10.8.0.2"),
            dst=origin.interfaces["eth0"].ipv4,
            payload=TcpSegment(
                40002, 80,
                payload=HttpPayload(method="GET", url=f"http://{censored}/"),
            ),
        )
        responses = ru_vp.server.handle_tunnel(
            tunnel_packet(world, ru_vp, inner), ru_vp.host
        )
        assert responses
        http = responses[0].payload.inner.payload.payload
        assert http.status == 302
        # The censor answered before the request ever reached the origin.
        assert http_requests(arrived) == []

        # The tap does see this origin's traffic: the same request through
        # a vantage point that does not censor the domain arrives.
        open_vp = next(
            vp for vp in provider.vantage_points
            if not any(
                censored in getattr(behavior, "censored_domains", ())
                for behavior in vp.server.behaviors
            )
        )
        open_vp.server.handle_tunnel(
            tunnel_packet(world, open_vp, inner), open_vp.host
        )
        assert len(http_requests(arrived)) == 1
