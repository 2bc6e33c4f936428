"""Unit tests for the DNS substrate: messages, zones, servers, resolvers."""

import pytest

from repro.dns.message import (
    DnsQuestion,
    DnsRecord,
    DnsResponse,
    RCode,
    normalise_name,
    parent_domains,
)
from repro.dns.resolver import StubResolver, resolve_via_server
from repro.dns.server import (
    AuthoritativeServer,
    LoggingNameserver,
    RecursiveResolverServer,
    install_dns_service,
)
from repro.dns.zone import Zone, ZoneRegistry
from repro.net.geo import city_location
from repro.net.host import Host
from repro.net.interface import Interface
from repro.net.internet import Internet
from repro.net.packet import DnsPayload, UdpDatagram


class TestMessages:
    def test_question_normalises(self):
        q = DnsQuestion(qname="WWW.Example.COM.")
        assert q.qname == "www.example.com"

    def test_unsupported_qtype(self):
        with pytest.raises(ValueError):
            DnsQuestion(qname="x", qtype="MX")

    def test_response_addresses(self):
        response = DnsResponse(
            question=DnsQuestion(qname="x.y"),
            records=(
                DnsRecord(name="x.y", rtype="A", value="1.2.3.4"),
                DnsRecord(name="x.y", rtype="TXT", value="hello"),
                DnsRecord(name="x.y", rtype="AAAA", value="::1"),
            ),
        )
        assert response.addresses == ("1.2.3.4", "::1")
        assert response.ok

    def test_parent_domains(self):
        assert parent_domains("a.b.example.com") == [
            "a.b.example.com", "b.example.com", "example.com", "com",
        ]
        assert parent_domains("") == []

    def test_normalise_name(self):
        assert normalise_name("  FOO.Bar. ") == "foo.bar"


class TestZone:
    def test_add_and_lookup(self):
        zone = Zone("example.com")
        zone.add("www.example.com", "A", "1.2.3.4")
        records = zone.lookup(DnsQuestion(qname="www.example.com"))
        assert records[0].value == "1.2.3.4"

    def test_rejects_out_of_zone_names(self):
        zone = Zone("example.com")
        with pytest.raises(ValueError):
            zone.add("www.other.org", "A", "1.2.3.4")

    def test_cname_chasing(self):
        zone = Zone("example.com")
        zone.add("alias.example.com", "CNAME", "real.example.com")
        zone.add("real.example.com", "A", "5.6.7.8")
        records = zone.lookup(DnsQuestion(qname="alias.example.com"))
        values = [r.value for r in records]
        assert "real.example.com" in values and "5.6.7.8" in values

    def test_missing_name(self):
        zone = Zone("example.com")
        assert zone.lookup(DnsQuestion(qname="nope.example.com")) is None


class TestZoneRegistry:
    def test_register_and_resolve(self):
        registry = ZoneRegistry()
        registry.register_host_record("www.site.com", "9.9.9.1")
        response = registry.resolve(DnsQuestion(qname="www.site.com"))
        assert response.addresses == ("9.9.9.1",)
        assert response.authoritative

    def test_aaaa_detection(self):
        registry = ZoneRegistry()
        record = registry.register_host_record("v6.site.com", "2001:db8::1")
        assert record.rtype == "AAAA"

    def test_nxdomain_for_unknown_zone(self):
        registry = ZoneRegistry()
        response = registry.resolve(DnsQuestion(qname="no.such.zone"))
        assert response.rcode is RCode.NXDOMAIN

    def test_noerror_empty_for_wrong_type(self):
        registry = ZoneRegistry()
        registry.register_host_record("www.site.com", "9.9.9.1")
        response = registry.resolve(
            DnsQuestion(qname="www.site.com", qtype="AAAA")
        )
        assert response.rcode is RCode.NOERROR
        assert response.addresses == ()

    def test_most_specific_zone_wins(self):
        registry = ZoneRegistry()
        registry.zone("site.com").add("www.site.com", "A", "1.1.1.1")
        registry.zone("sub.site.com").add("www.sub.site.com", "A", "2.2.2.2")
        zone = registry.find_zone("x.sub.site.com")
        assert zone.apex == "sub.site.com"


def _wired_pair():
    """A client plus a DNS server host on a tiny internet."""
    internet = Internet()
    client = Host("client", city_location("Chicago"))
    ci = Interface(name="en0")
    ci.assign_ipv4("10.1.0.1")
    client.add_interface(ci)
    client.routing.add_prefix("0.0.0.0/0", "en0")
    internet.attach(client)

    server = Host("dns", city_location("Ashburn"))
    si = Interface(name="eth0")
    si.assign_ipv4("10.2.0.1")
    server.add_interface(si)
    server.routing.add_prefix("0.0.0.0/0", "eth0")
    internet.attach(server)
    return internet, client, server


class TestServersOverNetwork:
    def test_recursive_resolution(self):
        internet, client, server = _wired_pair()
        registry = ZoneRegistry()
        registry.register_host_record("www.example.com", "3.3.3.3")
        resolver = RecursiveResolverServer(registry, name="test-resolver")
        install_dns_service(server, resolver)
        arrived = []
        server.packet_tap = arrived.append
        response = resolve_via_server(client, "10.2.0.1", "www.example.com")
        assert response.addresses == ("3.3.3.3",)
        queries = [
            packet for packet in arrived
            if isinstance(packet.payload, UdpDatagram)
            and isinstance(packet.payload.payload, DnsPayload)
        ]
        assert len(queries) == 1
        assert queries[0].payload.payload.qname == "www.example.com"
        assert str(queries[0].src) == "10.1.0.1"

    def test_manipulating_resolver(self):
        internet, client, server = _wired_pair()
        registry = ZoneRegistry()
        registry.register_host_record("www.example.com", "3.3.3.3")

        def rewrite(response):
            return DnsResponse(
                question=response.question,
                records=(
                    DnsRecord(
                        name=response.question.qname, rtype="A",
                        value="6.6.6.6",
                    ),
                ),
                resolver="evil",
            )

        resolver = RecursiveResolverServer(
            registry, name="evil", manipulation=rewrite
        )
        install_dns_service(server, resolver)
        response = resolve_via_server(client, "10.2.0.1", "www.example.com")
        assert response.addresses == ("6.6.6.6",)

    def test_authoritative_refuses_foreign_zone(self):
        internet, client, server = _wired_pair()
        zone = Zone("probe.net")
        install_dns_service(server, AuthoritativeServer(zone))
        response = resolve_via_server(client, "10.2.0.1", "www.other.org")
        assert response.rcode is RCode.REFUSED

    def test_logging_nameserver_records_sources(self):
        internet, client, server = _wired_pair()
        zone = Zone("probe.net")
        logger = LoggingNameserver(zone)
        install_dns_service(server, logger)
        response = resolve_via_server(client, "10.2.0.1", "tag123.probe.net")
        assert response.ok
        assert logger.sources_for_tag("tag123") == ["10.1.0.1"]
        assert logger.sources_for_tag("other") == []

    def test_stub_resolver_uses_configured_servers(self):
        internet, client, server = _wired_pair()
        registry = ZoneRegistry()
        registry.register_host_record("www.example.com", "3.3.3.3")
        install_dns_service(server, RecursiveResolverServer(registry, "r"))
        client.set_dns_servers(["10.2.0.1"])
        stub = StubResolver(client)
        assert stub.resolve_address("www.example.com") == "3.3.3.3"

    def test_stub_resolver_servfail_without_servers(self):
        _, client, _ = _wired_pair()
        client.set_dns_servers([])
        stub = StubResolver(client)
        response = stub.resolve("anything.example.com")
        assert response.rcode is RCode.SERVFAIL

    def test_stub_resolver_falls_through_dead_server(self):
        internet, client, server = _wired_pair()
        registry = ZoneRegistry()
        registry.register_host_record("www.example.com", "3.3.3.3")
        install_dns_service(server, RecursiveResolverServer(registry, "r"))
        client.set_dns_servers(["10.9.9.9", "10.2.0.1"])
        stub = StubResolver(client)
        assert stub.resolve_address("www.example.com") == "3.3.3.3"
