"""Hosts.

A :class:`Host` models one machine: interfaces, a routing table, a firewall,
resolver configuration, and bound services.  Sending a packet performs a
route lookup, consults the firewall, records the packet on the egress
interface's capture, and hands it to the :class:`~repro.net.internet.Internet`
for delivery.  Incoming packets traverse the firewall and capture, then are
dispatched to the service bound to their protocol/port.

The VPN client (``repro.vpn.client``) manipulates a host exactly like real
client software manipulates an OS: it adds a tunnel interface, rewrites the
routing table and resolver configuration, and optionally installs kill-switch
firewall rules.  Every test in the measurement suite runs *on* a host.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.net.addresses import Address, parse_address
from repro.net.capture import CaptureEntry
from repro.net.firewall import Firewall, FirewallAction
from repro.net.geo import GeoPoint
from repro.net.interface import Interface
from repro.net.packet import (
    IcmpPayload,
    Packet,
    TcpSegment,
    TunnelPayload,
    UdpDatagram,
)
from repro.net.routing import RoutingTable

if TYPE_CHECKING:
    from repro.net.internet import DeliveryResult, Internet

# handler(incoming_packet, host) -> response packets (or None)
ServiceHandler = Callable[[Packet, "Host"], Optional[list[Packet]]]


@dataclass
class Socket:
    """A bound local port; mostly a source-port allocator for clients."""

    host: "Host"
    protocol: str
    port: int

    def close(self) -> None:
        self.host.release_port(self.protocol, self.port)


class Host:
    """A simulated machine attached to the internet."""

    def __init__(
        self,
        name: str,
        location: GeoPoint,
        internet: "Internet | None" = None,
    ) -> None:
        self.name = name
        self.location = location
        self.internet = internet
        self.interfaces: dict[str, Interface] = {}
        self.routing = RoutingTable()
        self.firewall = Firewall()
        self.dns_servers: list[Address] = []
        self._services: dict[tuple[str, int], ServiceHandler] = {}
        # address -> owning interface memo for `interface_for_address`.
        # Positive entries are validated against the interface on every hit
        # (addresses can be reassigned), so the memo can never serve a stale
        # mapping; it only skips the linear scan.
        self._iface_by_addr: dict[Address, Interface] = {}
        self._ports_in_use: set[tuple[str, int]] = set()
        self._ephemeral = itertools.count(49152)
        # Hook invoked on every packet successfully delivered to this host,
        # before service dispatch. VPN servers use it for egress behaviours.
        self.packet_tap: Optional[Callable[[Packet], None]] = None

    # ------------------------------------------------------------------
    # Interfaces
    # ------------------------------------------------------------------
    def add_interface(self, interface: Interface) -> Interface:
        if interface.name in self.interfaces:
            raise ValueError(f"duplicate interface {interface.name!r}")
        self.interfaces[interface.name] = interface
        return interface

    def remove_interface(self, name: str) -> None:
        self.interfaces.pop(name, None)
        # Drop the whole memo: a detached interface may still carry the
        # address, so hit-validation alone would not notice the removal.
        self._iface_by_addr.clear()
        self.routing.remove_where(interface=name)

    def interface_for_address(self, address: Address) -> Optional[Interface]:
        cached = self._iface_by_addr.get(address)
        if cached is not None and (
            address is cached.ipv4 or address is cached.ipv6
            or address == cached.ipv4 or address == cached.ipv6
        ):
            return cached
        for interface in self.interfaces.values():
            if interface.has_address(address):
                self._iface_by_addr[address] = interface
                return interface
        return None

    def addresses(self) -> list[Address]:
        out: list[Address] = []
        for interface in self.interfaces.values():
            if interface.ipv4 is not None:
                out.append(interface.ipv4)
            if interface.ipv6 is not None:
                out.append(interface.ipv6)
        return out

    def primary_interface(self) -> Optional[Interface]:
        """The first non-tunnel interface (the 'hardware' NIC)."""
        for interface in self.interfaces.values():
            if not interface.is_tunnel:
                return interface
        return None

    def tunnel_interfaces(self) -> list[Interface]:
        return [i for i in self.interfaces.values() if i.is_tunnel]

    # ------------------------------------------------------------------
    # Services and ports
    # ------------------------------------------------------------------
    def bind(self, protocol: str, port: int, handler: ServiceHandler) -> None:
        key = (protocol, port)
        if key in self._services:
            raise ValueError(f"{protocol}/{port} already bound on {self.name}")
        self._services[key] = handler
        self._ports_in_use.add(key)

    def unbind(self, protocol: str, port: int) -> None:
        self._services.pop((protocol, port), None)
        self._ports_in_use.discard((protocol, port))

    def open_socket(self, protocol: str) -> Socket:
        while True:
            port = next(self._ephemeral)
            if port > 65535:
                self._ephemeral = itertools.count(49152)
                continue
            if (protocol, port) not in self._ports_in_use:
                self._ports_in_use.add((protocol, port))
                return Socket(host=self, protocol=protocol, port=port)

    def release_port(self, protocol: str, port: int) -> None:
        self._ports_in_use.discard((protocol, port))

    def reset_ephemeral_ports(self) -> None:
        """Restart ephemeral port allocation at the base of the range.

        Source ports end up inside packet payloads, which feed the latency
        model's jitter hash — so the harness resets this counter at unit
        boundaries to keep every unit's packet bytes (and thus any
        observability trace of them) independent of what the host sent
        during earlier units.  Ports still bound are skipped as usual.
        """
        self._ephemeral = itertools.count(49152)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> "DeliveryResult":
        """Route, filter, capture, and deliver one packet.

        Returns the :class:`DeliveryResult`, which carries the fate of the
        packet, the RTT, and any response packets the remote service issued.
        """
        from repro.net.internet import DeliveryResult  # circular at import time

        internet = self.internet
        if internet is None:
            raise RuntimeError(f"host {self.name} is not attached to an internet")

        obs = internet.obs
        profile = stages = None
        if obs is not None:
            profile = obs.profile
            stages = obs.stages
            if profile is not None:
                # The delivery frame, which is also the `send` stage: at
                # send depth 0 the profiler decides here whether this
                # (whole, nested) send tree times its stage frames.
                profile.begin_send()
        try:
            # Packets that die before reaching the wire are invisible to
            # `Internet.deliver`; record their fate here.
            if stages is not None:
                stages.enter_stage("route")
            route = self.routing.lookup(packet.dst)
            if stages is not None:
                stages.leave_stage()
            if route is None:
                if obs is not None:
                    obs.packet_event(self.name, packet, "no_route")
                return DeliveryResult.no_route(packet)
            interface = self.interfaces.get(route.interface)
            if interface is None or not interface.up:
                if obs is not None:
                    obs.packet_event(
                        self.name, packet, "interface_down", route.interface
                    )
                return DeliveryResult.interface_down(packet, route.interface)

            # An empty allow-all firewall (the overwhelmingly common case)
            # is decided inline without the `permits` call.
            firewall = self.firewall
            firewall_active = (
                firewall._rules or firewall.default is not FirewallAction.ALLOW
            )
            if firewall_active:
                if stages is not None:
                    stages.enter_stage("firewall")
                permitted = firewall.permits(packet, "out", interface.name)
                if stages is not None:
                    stages.leave_stage()
                if not permitted:
                    if obs is not None:
                        obs.packet_event(
                            self.name, packet, "filtered", "egress firewall"
                        )
                    return DeliveryResult.filtered(packet, "egress firewall")

            capture = interface.capture
            if capture.enabled:
                if stages is not None:
                    stages.enter_stage("capture")
                capture.entries.append(
                    CaptureEntry(
                        internet.clock_ms, "tx", capture.interface, packet
                    )
                )
                if stages is not None:
                    stages.leave_stage()
            if interface.is_tunnel and interface.endpoint is not None:
                # VPN tunnel: the endpoint encapsulates and re-sends via the
                # physical interface (and may fail open/closed on tunnel
                # loss).
                result = interface.endpoint.transmit(packet)  # type: ignore[attr-defined]
            else:
                result = internet.deliver(packet, self)
            responses = result.responses
            if responses:
                clock_ms = internet.clock_ms
                record_rx = capture.enabled
                for response in responses:
                    if firewall_active:
                        if stages is not None:
                            stages.enter_stage("firewall")
                        permitted = firewall.permits(
                            response, "in", interface.name
                        )
                        if stages is not None:
                            stages.leave_stage()
                        if not permitted:
                            continue
                    if record_rx:
                        if stages is not None:
                            stages.enter_stage("capture")
                        capture.entries.append(
                            CaptureEntry(
                                clock_ms, "rx", capture.interface, response
                            )
                        )
                        if stages is not None:
                            stages.leave_stage()
            return result
        finally:
            if profile is not None:
                profile.end_send()

    # ------------------------------------------------------------------
    # Receiving (called by the Internet)
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> Optional[list[Packet]]:
        """Handle a delivered packet; returns response packets if any."""
        interface = self.interface_for_address(packet.dst)
        obs = self.internet.obs if self.internet is not None else None
        stages = obs.stages if obs is not None else None
        firewall = self.firewall
        if firewall._rules or firewall.default is not FirewallAction.ALLOW:
            iface_name = interface.name if interface else "?"
            if stages is not None:
                stages.enter_stage("firewall")
            permitted = firewall.permits(packet, "in", iface_name)
            if stages is not None:
                stages.leave_stage()
            if not permitted:
                return None
        if interface is not None:
            capture = interface.capture
            if capture.enabled:
                if stages is not None:
                    stages.enter_stage("capture")
                capture.entries.append(
                    CaptureEntry(
                        self.internet.clock_ms, "rx", capture.interface, packet
                    )
                )
                if stages is not None:
                    stages.leave_stage()
        if self.packet_tap is not None:
            self.packet_tap(packet)

        payload = packet.payload
        if isinstance(payload, IcmpPayload):
            if payload.icmp_type == "echo_request":
                # The reply is a pure function of the (frozen) request, so
                # it is memoised on the request object; capture recording
                # still happens per delivery.
                reply = packet.__dict__.get("_echo_reply")
                if reply is None:
                    reply = Packet(
                        src=packet.dst,
                        dst=packet.src,
                        payload=IcmpPayload(
                            icmp_type="echo_reply",
                            identifier=payload.identifier,
                            sequence=payload.sequence,
                        ),
                    )
                    object.__setattr__(packet, "_echo_reply", reply)
                self._record_tx(interface, reply, stages)
                return [reply]
            return None

        if isinstance(payload, (UdpDatagram, TcpSegment)):
            handler = self._services.get((payload.kind, payload.dst_port))
            if handler is None:
                # Port closed: a real stack answers TCP with RST and UDP with
                # ICMP port-unreachable; we model both as an ICMP unreachable.
                reply = Packet(
                    src=packet.dst,
                    dst=packet.src,
                    payload=IcmpPayload(icmp_type="port_unreachable"),
                )
                self._record_tx(interface, reply, stages)
                return [reply]
            responses = handler(packet, self) or []
            for response in responses:
                # Responses almost always leave from the address the request
                # arrived on (the very same object) — skip the scan then.
                src = response.src
                self._record_tx(
                    interface
                    if src is packet.dst
                    else self.interface_for_address(src),
                    response,
                    stages,
                )
            return responses

        if isinstance(payload, TunnelPayload):
            handler = self._services.get(("tunnel", 0))
            if handler is None:
                return None
            responses = handler(packet, self) or []
            for response in responses:
                src = response.src
                self._record_tx(
                    interface
                    if src is packet.dst
                    else self.interface_for_address(src),
                    response,
                    stages,
                )
            return responses

        return None

    def _record_tx(
        self,
        interface: Optional[Interface],
        packet: Packet,
        stages=None,
    ) -> None:
        if interface is not None and self.internet is not None:
            capture = interface.capture
            if capture.enabled:
                if stages is not None:
                    stages.enter_stage("capture")
                capture.entries.append(
                    CaptureEntry(
                        self.internet.clock_ms, "tx", capture.interface, packet
                    )
                )
                if stages is not None:
                    stages.leave_stage()

    # ------------------------------------------------------------------
    # Configuration snapshots (metadata test, Section 5.3.4)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        return {
            "name": self.name,
            "interfaces": [i.snapshot() for i in self.interfaces.values()],
            "routes": self.routing.snapshot(),
            "dns_servers": [str(s) for s in self.dns_servers],
            "firewall": self.firewall.snapshot(),
        }

    def set_dns_servers(self, servers: list[str | Address]) -> None:
        self.dns_servers = [
            parse_address(s) if isinstance(s, str) else s for s in servers
        ]

    def __repr__(self) -> str:
        return f"Host({self.name!r} @ {self.location.city or self.location.country})"
