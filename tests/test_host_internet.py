"""Integration tests for hosts and the internet fabric."""

import gc
import weakref

import pytest

from repro.net.addresses import parse_address
from repro.net.geo import city_location
from repro.net.host import Host
from repro.net.interface import Interface
from repro.net.internet import Internet
from repro.net.packet import (
    IcmpPayload,
    Packet,
    RawPayload,
    UdpDatagram,
)


class TestAttachment:
    def test_duplicate_address_rejected(self, mini_internet):
        internet, london, _ = mini_internet
        other = Host("dup", city_location("Paris"))
        iface = Interface(name="eth0")
        iface.assign_ipv4("10.0.0.1")
        other.add_interface(iface)
        with pytest.raises(ValueError):
            internet.attach(other)

    def test_duplicate_name_rejected(self, mini_internet):
        internet, london, _ = mini_internet
        other = Host("london", city_location("Paris"))
        with pytest.raises(ValueError):
            internet.attach(other)

    def test_host_lookup(self, mini_internet):
        internet, london, new_york = mini_internet
        assert internet.host_for("10.0.0.1") is london
        assert internet.host_named("new-york") is new_york
        assert internet.host_for("99.99.99.99") is None


class TestPing:
    def test_ping_reachable(self, mini_internet):
        internet, london, new_york = mini_internet
        results = internet.ping(london, "10.0.1.1", count=3)
        assert len(results) == 3
        assert all(r.reachable for r in results)
        # Transatlantic latency.
        assert all(55 < r.rtt_ms < 130 for r in results)

    def test_ping_unreachable_address(self, mini_internet):
        internet, london, _ = mini_internet
        results = internet.ping(london, "10.9.9.9")
        assert not results[0].reachable

    def test_ping_advances_clock(self, mini_internet):
        internet, london, _ = mini_internet
        before = internet.clock_ms
        internet.ping(london, "10.0.1.1")
        assert internet.clock_ms > before


class TestTraceroute:
    def test_reaches_target_with_intermediate_hops(self, mini_internet):
        internet, london, new_york = mini_internet
        hops = internet.traceroute(london, "10.0.1.1")
        assert len(hops) > 3  # transatlantic path has routers
        assert str(hops[-1].address) == "10.0.1.1"
        # Intermediate hops live in the reserved transit space.
        assert str(hops[0].address).startswith("100.")

    def test_hop_rtts_increase_roughly(self, mini_internet):
        internet, london, _ = mini_internet
        hops = internet.traceroute(london, "10.0.1.1")
        rtts = [h.rtt_ms for h in hops if h.rtt_ms is not None]
        assert rtts[0] < rtts[-1]

    def test_unroutable_target(self, mini_internet):
        internet, london, _ = mini_internet
        london.routing.remove_where(interface="eth0")
        try:
            assert internet.traceroute(london, "10.0.1.1") == []
        finally:
            london.routing.add_prefix("0.0.0.0/0", "eth0")


class TestServices:
    def test_udp_service_round_trip(self, mini_internet):
        internet, london, new_york = mini_internet

        def echo(packet, host):
            datagram = packet.payload
            return [
                Packet(
                    src=packet.dst,
                    dst=packet.src,
                    payload=UdpDatagram(
                        datagram.dst_port, datagram.src_port,
                        RawPayload(label="echo", size=1),
                    ),
                )
            ]

        new_york.bind("udp", 7777, echo)
        probe = Packet(
            src=parse_address("10.0.0.1"),
            dst=parse_address("10.0.1.1"),
            payload=UdpDatagram(5555, 7777, RawPayload(label="ping", size=1)),
        )
        outcome = london.send(probe)
        assert outcome.ok
        assert len(outcome.responses) == 1
        assert outcome.responses[0].payload.payload.label == "echo"

    def test_closed_port_unreachable(self, mini_internet):
        internet, london, new_york = mini_internet
        probe = Packet(
            src=parse_address("10.0.0.1"),
            dst=parse_address("10.0.1.1"),
            payload=UdpDatagram(5555, 9999),
        )
        outcome = london.send(probe)
        assert outcome.ok
        icmp = outcome.responses[0].payload
        assert isinstance(icmp, IcmpPayload)
        assert icmp.icmp_type == "port_unreachable"

    def test_double_bind_rejected(self, mini_internet):
        _, _, new_york = mini_internet
        handler = lambda p, h: None
        new_york.bind("udp", 1111, handler)
        with pytest.raises(ValueError):
            new_york.bind("udp", 1111, handler)
        new_york.unbind("udp", 1111)


class TestFirewallIntegration:
    def test_egress_firewall_blocks(self, mini_internet):
        internet, london, _ = mini_internet
        london.firewall.drop(dst="10.0.1.1/32", direction="out")
        try:
            results = internet.ping(london, "10.0.1.1")
            assert not results[0].reachable
        finally:
            london.firewall.clear()

    def test_path_blackhole(self, mini_internet):
        internet, london, _ = mini_internet
        internet.block_path(london, "10.0.1.1")
        try:
            assert not internet.ping(london, "10.0.1.1")[0].reachable
        finally:
            internet.unblock_path(london, "10.0.1.1")
        assert internet.ping(london, "10.0.1.1")[0].reachable


class TestCaptureIntegration:
    def test_send_and_receive_recorded(self, mini_internet):
        internet, london, new_york = mini_internet
        london.interfaces["eth0"].capture.clear()
        internet.ping(london, "10.0.1.1")
        capture = london.interfaces["eth0"].capture
        directions = [e.direction for e in capture]
        assert "tx" in directions and "rx" in directions


class TestSockets:
    def test_ephemeral_ports_unique(self, mini_internet):
        _, london, _ = mini_internet
        s1 = london.open_socket("tcp")
        s2 = london.open_socket("tcp")
        assert s1.port != s2.port
        s1.close()
        s2.close()

    def test_snapshot_contains_configuration(self, mini_internet):
        _, london, _ = mini_internet
        london.set_dns_servers(["8.8.8.8"])
        snap = london.snapshot()
        assert snap["dns_servers"] == ["8.8.8.8"]
        assert snap["interfaces"][0]["name"] == "eth0"
        assert any("0.0.0.0/0" in r for r in snap["routes"])


# ----------------------------------------------------------------------
# Configuration changes on a live world
# ----------------------------------------------------------------------
@pytest.fixture()
def world():
    from repro.world import World

    return World.build(provider_names=["Mullvad"])


def _rtt(world, target):
    (result,) = world.internet.ping(world.client, target, count=1)
    return result.rtt_ms


class TestLiveReconfiguration:
    def test_firewall_change_honoured_on_next_ping(self, world):
        anchor = world.anchors[0]
        assert _rtt(world, anchor.address) is not None
        world.client.firewall.drop(
            dst=f"{anchor.address}/32", comment="test-block"
        )
        assert _rtt(world, anchor.address) is None
        world.client.firewall.remove_by_comment("test-block")
        assert _rtt(world, anchor.address) is not None

    def test_route_change_honoured_on_next_ping(self, world):
        anchor = world.anchors[0]
        assert _rtt(world, anchor.address) is not None
        world.client.routing.add_prefix(
            f"{anchor.address}/32", "nonexistent0", metric=0
        )
        assert _rtt(world, anchor.address) is None
        world.client.routing.remove_where(interface="nonexistent0")
        assert _rtt(world, anchor.address) is not None

    def test_reconnect_same_vantage_point_reproduces_rtt(self, world):
        from repro.vpn.client import ConnectionState, VpnClient

        provider = world.provider("Mullvad")
        vantage_point = provider.vantage_points[0]
        client = VpnClient(world.client, provider)
        anchor = world.anchors[0].address

        client.connect(vantage_point)
        try:
            tunnelled = _rtt(world, anchor)
            assert tunnelled is not None
            client.disconnect()
            client.connect(vantage_point)
            assert _rtt(world, anchor) == tunnelled
        finally:
            if client.state is ConnectionState.CONNECTED:
                client.disconnect()

    def test_disconnected_tunnel_capture_is_released(self, world):
        """Nothing the delivery path keeps may pin a removed interface.

        After a disconnect the host drops its ``utun`` interface; once
        the caller lets go of it too, its capture (and every packet it
        logged) must be collectable.
        """
        from repro.vpn.client import VpnClient

        provider = world.provider("Mullvad")
        client = VpnClient(world.client, provider)
        client.connect(provider.vantage_points[0])
        assert _rtt(world, world.anchors[0].address) is not None
        utun = world.client.interfaces[client.tunnel_interface_name]
        assert len(utun.capture) > 0
        capture = weakref.ref(utun.capture)
        client.disconnect()
        del utun
        gc.collect()
        assert capture() is None
