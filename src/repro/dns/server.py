"""DNS servers.

Three server types, all installed as UDP/53 services on a simulated host via
:func:`install_dns_service`:

- :class:`AuthoritativeServer` answers from one zone;
- :class:`RecursiveResolverServer` answers from the global
  :class:`~repro.dns.zone.ZoneRegistry` (optionally through a manipulation
  hook — this is how a misbehaving VPN's resolver rewrites answers);
- :class:`LoggingNameserver` is the paper's tagged-hostname trick (Section
  5.3.2, "Recursive DNS Origins"): it records the source address of every
  query it sees, so a test that resolves a unique name through a VPN learns
  which resolver (and thus which network) actually performed the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.dns.message import DnsQuestion, DnsRecord, DnsResponse, RCode
from repro.dns.zone import Zone, ZoneRegistry
from repro.net.host import Host
from repro.net.packet import DnsPayload, Packet, UdpDatagram

# Rewrites a finished response; returning None keeps the original.
ManipulationHook = Callable[[DnsResponse], Optional[DnsResponse]]


@dataclass
class QueryLogEntry:
    """One query observed by a logging nameserver."""

    qname: str
    qtype: str
    source_address: str


class _DnsServiceBase:
    """Shared packet plumbing for DNS services."""

    name = "dns"

    def answer(self, question: DnsQuestion, source: str) -> DnsResponse:
        raise NotImplementedError

    def handle(self, packet: Packet, host: Host) -> Optional[list[Packet]]:
        payload = packet.payload
        if not isinstance(payload, UdpDatagram):
            return None
        dns = payload.payload
        if not isinstance(dns, DnsPayload) or dns.is_response:
            return None
        try:
            question = DnsQuestion(qname=dns.qname, qtype=dns.qtype)
        except ValueError:
            response = DnsResponse(
                question=DnsQuestion(qname=dns.qname),
                rcode=RCode.SERVFAIL,
                resolver=self.name,
            )
        else:
            response = self.answer(question, source=str(packet.src))
        reply = Packet(
            src=packet.dst,
            dst=packet.src,
            payload=UdpDatagram(
                src_port=payload.dst_port,
                dst_port=payload.src_port,
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
        return [reply]


class AuthoritativeServer(_DnsServiceBase):
    """Authoritative-only server for a single zone."""

    def __init__(self, zone: Zone, name: str = "") -> None:
        self.zone = zone
        self.name = name or f"auth:{zone.apex}"

    def answer(self, question: DnsQuestion, source: str) -> DnsResponse:
        if not self.zone.contains_name(question.qname):
            return DnsResponse(
                question=question, rcode=RCode.REFUSED, resolver=self.name
            )
        records = self.zone.lookup(question)
        if records is None:
            return DnsResponse(
                question=question, rcode=RCode.NXDOMAIN, resolver=self.name
            )
        return DnsResponse(
            question=question,
            records=tuple(records),
            resolver=self.name,
            authoritative=True,
        )


class RecursiveResolverServer(_DnsServiceBase):
    """A recursive resolver answering from the global zone registry.

    ``manipulation`` lets a VPN provider's resolver rewrite answers — the
    behaviour the DNS-manipulation test (Section 5.3.1) is designed to catch.
    """

    def __init__(
        self,
        registry: ZoneRegistry,
        name: str,
        manipulation: ManipulationHook | None = None,
        identity: str = "",
    ) -> None:
        self.registry = registry
        self.name = name
        self.manipulation = manipulation
        # The address recursion appears to come from when this resolver
        # walks to an authoritative server. Empty means "use the query's
        # own source" — right for VPN resolvers, whose recursion egresses
        # at the vantage point that relayed the query.
        self.identity = identity

    def answer(self, question: DnsQuestion, source: str) -> DnsResponse:
        delegated = self.registry.delegation_for(question.qname)
        if delegated is not None:
            recursor = self.identity or source
            response = delegated.answer(question, source=recursor)  # type: ignore[attr-defined]
        else:
            response = self.registry.resolve(question)
        response = DnsResponse(
            question=response.question,
            rcode=response.rcode,
            records=response.records,
            resolver=self.name,
            authoritative=False,
        )
        if self.manipulation is not None:
            rewritten = self.manipulation(response)
            if rewritten is not None:
                return rewritten
        return response


class LoggingNameserver(AuthoritativeServer):
    """Authoritative server that logs the source of every query.

    The measurement suite resolves ``<tag>.<probe domain>`` through the VPN;
    the entry recorded here reveals which resolver IP performed the lookup.
    Wildcard answers are synthesised so every tagged name resolves.
    """

    def __init__(self, zone: Zone, answer_address: str = "192.0.2.53") -> None:
        super().__init__(zone, name=f"probe:{zone.apex}")
        self.answer_address = answer_address
        self.query_log: list[QueryLogEntry] = []

    def answer(self, question: DnsQuestion, source: str) -> DnsResponse:
        if not self.zone.contains_name(question.qname):
            return DnsResponse(
                question=question, rcode=RCode.REFUSED, resolver=self.name
            )
        self.query_log.append(
            QueryLogEntry(
                qname=question.qname, qtype=question.qtype, source_address=source
            )
        )
        if question.qtype != "A":
            return DnsResponse(
                question=question, records=(), resolver=self.name,
                authoritative=True,
            )
        record = DnsRecord(
            name=question.qname, rtype="A", value=self.answer_address
        )
        return DnsResponse(
            question=question,
            records=(record,),
            resolver=self.name,
            authoritative=True,
        )

    def sources_for_tag(self, tag: str) -> list[str]:
        """All source addresses that queried a name containing *tag*."""
        return [
            entry.source_address
            for entry in self.query_log
            if tag.lower() in entry.qname
        ]


def install_dns_service(host: Host, service: _DnsServiceBase) -> None:
    """Bind a DNS service to UDP/53 on *host*."""
    host.bind("udp", 53, service.handle)
