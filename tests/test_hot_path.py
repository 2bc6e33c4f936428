"""Tests for the hot-path machinery: snapshot reuse, indexed routing,
identity-keyed memos, and pickle hygiene.

Every cache on the delivery path must be invisible — same values, same
bytes, only recomputation skipped.  These tests pin the invalidation and
isolation properties the caches rely on; the archive bytes themselves are
pinned end-to-end by the golden fingerprint in ``test_determinism.py``.
"""

import pickle

import pytest


class TestWorldFactory:
    def test_clone_equals_fresh_build(self):
        from repro.world import World
        from repro.world_factory import WorldFactory

        clone = WorldFactory.clone(seed=7, provider_names=["Mullvad"])
        fresh = World.build(seed=7, provider_names=["Mullvad"])
        assert sorted(clone.providers) == sorted(fresh.providers)
        assert [h.name for h in clone.internet.hosts()] == [
            h.name for h in fresh.internet.hosts()
        ]

    def test_clones_are_isolated(self):
        from repro.vpn.client import VpnClient
        from repro.world_factory import WorldFactory

        first = WorldFactory.clone(seed=7, provider_names=["Mullvad"])
        second = WorldFactory.clone(seed=7, provider_names=["Mullvad"])

        provider = first.provider("Mullvad")
        client = VpnClient(first.client, provider)
        client.connect(provider.vantage_points[0])
        try:
            assert first.client.tunnel_interfaces()
            # The sibling clone and a later clone observe nothing.
            assert not second.client.tunnel_interfaces()
            assert not WorldFactory.clone(
                seed=7, provider_names=["Mullvad"]
            ).client.tunnel_interfaces()
        finally:
            client.disconnect()

    def test_unpicklable_world_falls_back_to_fresh_build(self):
        from repro.world_factory import WorldFactory

        key = WorldFactory._key(7, ["Mullvad"])
        WorldFactory._unpicklable.add(key)
        try:
            world = WorldFactory.clone(seed=7, provider_names=["Mullvad"])
            assert "Mullvad" in world.providers
        finally:
            WorldFactory._unpicklable.discard(key)


class TestRoutingIndexInvalidation:
    def _table(self):
        from repro.net.routing import RoutingTable

        table = RoutingTable()
        table.add_prefix("0.0.0.0/0", "en0", metric=10)
        table.add_prefix("10.0.0.0/8", "en1")
        return table

    def test_add_after_lookup_is_visible(self):
        table = self._table()
        assert table.lookup("10.1.2.3").interface == "en1"
        table.add_prefix("10.1.0.0/16", "utun0", source="vpn")
        assert table.lookup("10.1.2.3").interface == "utun0"

    def test_remove_after_lookup_is_visible(self):
        table = self._table()
        table.add_prefix("10.1.0.0/16", "utun0", source="vpn")
        assert table.lookup("10.1.2.3").interface == "utun0"
        table.remove_where(source="vpn")
        assert table.lookup("10.1.2.3").interface == "en1"

    def test_equal_but_distinct_destinations_agree(self):
        from repro.net.addresses import IPv4Address

        table = self._table()
        first = IPv4Address.parse("10.9.9.9")
        second = IPv4Address(first.value)
        assert first is not second
        assert table.lookup(first) == table.lookup(second)

    def test_pickle_drops_derived_index(self):
        table = self._table()
        table.lookup("10.1.2.3")  # populate index + memo
        restored = pickle.loads(pickle.dumps(table))
        assert restored._lookup_cache == {}
        assert [r.describe() for r in restored.routes()] == [
            r.describe() for r in table.routes()
        ]
        assert restored.lookup("10.1.2.3").interface == "en1"


class TestPickleHygiene:
    """Derived memos must never cross a pickle boundary.

    ``hash()`` of strings is salted per process, so a cached hash baked
    into a snapshot would poison dict placement in another process; and
    memo graphs (echo replies, TTL copies) would bloat every snapshot.
    """

    def test_packet_pickle_strips_memos(self):
        from repro.net.addresses import parse_address
        from repro.net.packet import IcmpPayload, Packet

        packet = Packet(
            src=parse_address("192.0.2.1"),
            dst=parse_address("192.0.2.2"),
            payload=IcmpPayload(icmp_type="echo_request"),
        )
        hash(packet)
        repr(packet)
        packet.decrement_ttl()
        assert any(k.startswith("_") for k in packet.__dict__)
        restored = pickle.loads(pickle.dumps(packet))
        assert not any(k.startswith("_") for k in restored.__dict__)
        assert restored == packet

    def test_geopoint_pickle_strips_cached_hash(self):
        from repro.net.geo import GeoPoint

        point = GeoPoint(lat=52.52, lon=13.405, country="DE", city="Berlin")
        hash(point)
        assert "_hash" in point.__dict__
        restored = pickle.loads(pickle.dumps(point))
        assert "_hash" not in restored.__dict__
        assert restored == point
        assert hash(restored) == hash(point)

    def test_latency_model_pickle_resets_caches(self):
        from repro.net.geo import GeoPoint
        from repro.net.latency import LatencyModel

        model = LatencyModel()
        a = GeoPoint(lat=0.0, lon=0.0, country="XX")
        b = GeoPoint(lat=10.0, lon=10.0, country="YY")
        before = model.rtt_ms(a, b, sample=3)
        assert len(model._legs) == 1
        restored = pickle.loads(pickle.dumps(model))
        assert restored._legs == {}
        assert restored.rtt_ms(a, b, sample=3) == before


class TestBoundedDeliveryState:
    """Study traffic almost never repeats a packet, so delivery keeps
    nothing per packet: what it derives is per host pair."""

    MEMOS = ("_dec", "_with_src", "_with_dst", "_jitter_sample")

    def test_tunnelled_packets_leave_no_state_behind(self, monkeypatch):
        from repro.net.packet import HttpPayload, Packet, TcpSegment
        from repro.vpn.client import VpnClient
        from repro.world import World

        world = World.build(provider_names=["Mullvad"])
        internet = world.internet
        site = world.sites.dom_test_sites()[0]
        origin = internet.host_named(f"site:{site.domain}")
        arrived = []
        origin.packet_tap = arrived.append
        delivered = []
        deliver = internet.deliver

        def recording_deliver(packet, source):
            delivered.append(packet)
            return deliver(packet, source)

        monkeypatch.setattr(internet, "deliver", recording_deliver)

        provider = world.provider("Mullvad")
        client = VpnClient(world.client, provider)
        client.connect(provider.vantage_points[0])
        try:
            target = origin.interfaces["eth0"].ipv4
            route = world.client.routing.lookup(target)
            source = world.client.interfaces[route.interface].ipv4
            assert world.client.interfaces[route.interface].is_tunnel

            def send(port):
                request = HttpPayload(method="GET", url=site.http_url)
                packet = Packet(
                    src=source,
                    dst=target,
                    payload=TcpSegment(port, 80, payload=request),
                )
                assert world.client.send(packet).ok
                return packet

            def model_state():
                return sum(
                    len(value) for value in vars(internet.latency).values()
                    if isinstance(value, dict)
                )

            sent = [send(40000)]
            state = model_state()
            sent += [send(40000 + i) for i in range(1, 1000)]
            assert model_state() == state
        finally:
            client.disconnect()

        assert len(arrived) == 1000
        assert len({packet.payload.src_port for packet in arrived}) == 1000
        assert len(delivered) >= 2000  # outer and NAT'd inner per request
        for packet in sent + delivered + arrived:
            assert not [m for m in self.MEMOS if m in packet.__dict__]


class TestLatencyInlineConsistency:
    def test_rtt_is_sum_of_one_way_legs(self):
        from repro.net.geo import GeoPoint
        from repro.net.latency import LatencyModel

        model = LatencyModel()
        a = GeoPoint(lat=48.85, lon=2.35, country="FR", city="Paris")
        b = GeoPoint(lat=40.71, lon=-74.0, country="US", city="New York")
        for sample in (0, 1, 17, 2**63):
            assert model.rtt_ms(a, b, sample) == model.one_way_ms(
                a, b, sample
            ) + model.one_way_ms(b, a, sample + 1)

    def test_equal_but_distinct_points_agree(self):
        from repro.net.geo import GeoPoint
        from repro.net.latency import LatencyModel

        model = LatencyModel()
        a1 = GeoPoint(lat=1.5, lon=2.5, country="AA")
        a2 = GeoPoint(lat=1.5, lon=2.5, country="AA")
        b = GeoPoint(lat=30.0, lon=40.0, country="BB")
        assert model.rtt_ms(a1, b, 5) == model.rtt_ms(a2, b, 5)
        assert model.hops_between(a1, b) == model.hops_between(a2, b)


class TestHostInterfaceMemo:
    def _host(self):
        from repro.net.geo import GeoPoint
        from repro.net.host import Host
        from repro.net.interface import Interface

        host = Host("box", GeoPoint(lat=0.0, lon=0.0, country="XX"))
        interface = Interface(name="en0")
        interface.assign_ipv4("198.51.100.5", "198.51.100.0/24")
        host.add_interface(interface)
        return host, interface

    def test_memo_survives_repeated_lookups(self):
        from repro.net.addresses import parse_address

        host, interface = self._host()
        address = parse_address("198.51.100.5")
        assert host.interface_for_address(address) is interface
        assert host.interface_for_address(address) is interface

    def test_reassignment_invalidates(self):
        from repro.net.addresses import parse_address

        host, interface = self._host()
        old = parse_address("198.51.100.5")
        assert host.interface_for_address(old) is interface
        interface.assign_ipv4("198.51.100.6")
        assert host.interface_for_address(old) is None
        assert (
            host.interface_for_address(parse_address("198.51.100.6"))
            is interface
        )

    def test_removal_invalidates(self):
        from repro.net.addresses import parse_address

        host, interface = self._host()
        address = parse_address("198.51.100.5")
        assert host.interface_for_address(address) is interface
        host.remove_interface("en0")
        assert host.interface_for_address(address) is None


class TestInternetDestinationMemo:
    def test_release_and_reregister_are_visible(self):
        from repro.net.addresses import parse_address
        from repro.net.geo import GeoPoint
        from repro.net.host import Host
        from repro.net.interface import Interface
        from repro.net.internet import Internet

        internet = Internet()
        location = GeoPoint(lat=0.0, lon=0.0, country="XX")

        first = Host("first", location)
        iface = Interface(name="en0")
        iface.assign_ipv4("203.0.113.7")
        first.add_interface(iface)
        internet.attach(first)

        address = parse_address("203.0.113.7")
        probe = internet._probe(address, address, 1, 0)
        internet.deliver(probe, first)  # warms the destination memo
        assert internet.host_for(address) is first

        internet.release_address(address)
        assert internet.host_for(address) is None
        second = Host("second", location)
        internet._hosts_by_name["second"] = second
        internet.register_address(address, second)
        assert internet.host_for(address) is second
        outcome = internet.deliver(probe, first)
        assert outcome.ok  # delivered to the *new* owner, not a stale memo
