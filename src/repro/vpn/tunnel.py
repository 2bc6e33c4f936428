"""The client side of a VPN tunnel.

A :class:`TunnelEndpoint` sits behind the client's ``utunN`` interface.
Packets routed onto that interface are encapsulated (protocol + ciphertext
semantics via :class:`~repro.net.packet.TunnelPayload`) and re-sent through
the physical interface to the vantage-point server, which decapsulates,
applies egress behaviours, forwards, and returns encapsulated responses.

The endpoint also implements the client-visible part of *tunnel failure*
(paper Section 6.5): when the outer path stops working (e.g. the
tunnel-failure test firewalls the VPN server), the endpoint enters a failure
state.  What happens next is policy — set by the VPN client from its
kill-switch configuration:

- ``fail_closed=True``: traffic onto the tunnel is dropped forever (safe);
- ``fail_closed=False``: after ``failure_detection_attempts`` failed sends,
  the endpoint *fails open* and forwards inner packets in plaintext via the
  physical interface — the leak the paper observed in 25 of 43 services.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.net.addresses import Address
from repro.net.capture import CaptureEntry
from repro.net.firewall import FirewallAction
from repro.net.internet import DeliveryResult
from repro.net.packet import Packet, TunnelPayload

if TYPE_CHECKING:
    from repro.net.host import Host
    from repro.vpn.protocols import TunnelProtocol


class TunnelState(enum.Enum):
    CONNECTED = "connected"
    FAILED = "failed"          # outer path broken, not yet given up
    FAILED_OPEN = "failed-open"  # leaking via the physical interface
    CLOSED = "closed"


@dataclass
class TunnelEndpoint:
    """Client-side encapsulation endpoint for one VPN connection."""

    host: "Host"
    physical_interface: str
    server_address: Address
    client_tunnel_address: Address
    protocol: "TunnelProtocol"
    fail_closed: bool
    failure_detection_attempts: int = 3
    # Set when the provider tunnels IPv6 (dual-stack tunnel): v6 inner
    # packets carry this as their session source.
    client_tunnel_address_v6: Optional[Address] = None

    state: TunnelState = TunnelState.CONNECTED
    consecutive_failures: int = 0
    leaked_packets: int = 0
    carried_packets: int = 0

    def transmit(self, inner: Packet) -> DeliveryResult:
        """Carry one inner packet across the tunnel (or fail per policy)."""
        if self.state is TunnelState.CLOSED:
            return DeliveryResult(packet=inner, status="interface_down",
                                  detail="tunnel closed")

        if self.state is TunnelState.FAILED_OPEN:
            return self._leak(inner)

        host = self.host
        internet = host.internet
        obs = internet.obs if internet is not None else None
        stages = obs.stages if obs is not None else None
        if stages is not None:
            stages.enter_stage("encap")
        outer = self._encapsulate(inner)
        if stages is not None:
            stages.leave_stage()
        physical = host.interfaces.get(self.physical_interface)
        if physical is None or not physical.up:
            return DeliveryResult(packet=inner, status="interface_down",
                                  detail=self.physical_interface)

        firewall = host.firewall
        if firewall._rules or firewall.default is not FirewallAction.ALLOW:
            if stages is not None:
                stages.enter_stage("firewall")
            permitted = firewall.permits(outer, "out", physical.name)
            if stages is not None:
                stages.leave_stage()
            if not permitted:
                return self._handle_outer_failure(inner, "egress firewall")

        assert internet is not None
        capture = physical.capture
        if capture.enabled:
            if stages is not None:
                stages.enter_stage("capture")
            capture.entries.append(
                CaptureEntry(internet.clock_ms, "tx", capture.interface, outer)
            )
            if stages is not None:
                stages.leave_stage()
        outcome = internet.deliver(outer, host)
        if not outcome.ok:
            return self._handle_outer_failure(inner, outcome.status)

        # Outer path healthy again.
        self.consecutive_failures = 0
        if self.state is TunnelState.FAILED:
            self.state = TunnelState.CONNECTED
        self.carried_packets += 1
        obs = internet.obs
        if obs is not None:
            obs.tunnel_carried()

        inner_responses: list[Packet] = []
        record_rx = capture.enabled
        clock_ms = internet.clock_ms
        for response in outcome.responses:
            if record_rx:
                if stages is not None:
                    stages.enter_stage("capture")
                capture.entries.append(
                    CaptureEntry(clock_ms, "rx", capture.interface, response)
                )
                if stages is not None:
                    stages.leave_stage()
            payload = response.payload
            if isinstance(payload, TunnelPayload):
                inner_responses.append(payload.inner)
        return DeliveryResult(
            packet=inner,
            status="delivered",
            rtt_ms=outcome.rtt_ms,
            responses=inner_responses,
        )

    def close(self) -> None:
        self.state = TunnelState.CLOSED

    # ------------------------------------------------------------------
    def _encapsulate(self, inner: Packet) -> Packet:
        # Memoised per inner-packet content for this endpoint: repeated
        # probes re-encapsulate identically, and reusing the outer object
        # lets the delivery layer's per-object memos (hash, jitter sample,
        # TTL copy) hit.  Physical/tunnel addressing is fixed for the
        # lifetime of the endpoint, so the cached outer cannot go stale.
        cache = getattr(self, "_encap_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_encap_cache", cache)
        outer = cache.get(inner)
        if outer is not None:
            return outer
        physical = self.host.interfaces[self.physical_interface]
        src = physical.address_for_version(self.server_address.version)
        if src is None:
            raise RuntimeError("physical interface has no address for tunnel")
        # Inner packets carry the client's tunnel address as source so the
        # vantage point can route replies back into the right session.
        session_source = self.client_tunnel_address
        if inner.dst.version == 6 and self.client_tunnel_address_v6 is not None:
            session_source = self.client_tunnel_address_v6
        rewritten = inner.with_src(session_source)
        outer = Packet(
            src=src,
            dst=self.server_address,
            payload=TunnelPayload(protocol=self.protocol.name, inner=rewritten),
        )
        if len(cache) >= 16384:
            cache.clear()
        cache[inner] = outer
        return outer

    def _handle_outer_failure(self, inner: Packet, detail: str) -> DeliveryResult:
        self.consecutive_failures += 1
        self.state = TunnelState.FAILED
        if self.fail_closed:
            return DeliveryResult(
                packet=inner, status="filtered",
                detail=f"tunnel down, kill switch active ({detail})",
            )
        if self.consecutive_failures >= self.failure_detection_attempts:
            # The client software notices the outage and — lacking a kill
            # switch — quietly reverts to the physical default route.
            self.state = TunnelState.FAILED_OPEN
            return self._leak(inner)
        return DeliveryResult(
            packet=inner, status="unreachable",
            detail=f"tunnel outage ({detail})",
        )

    def _leak(self, inner: Packet) -> DeliveryResult:
        """Forward an inner packet in plaintext via the physical interface."""
        physical = self.host.interfaces.get(self.physical_interface)
        if physical is None or not physical.up:
            return DeliveryResult(packet=inner, status="interface_down",
                                  detail=self.physical_interface)
        src = physical.address_for_version(inner.dst.version)
        if src is None:
            return DeliveryResult(packet=inner, status="no_route",
                                  detail="no plaintext source address")
        plaintext = inner.with_src(src)
        if not self.host.firewall.permits(plaintext, "out", physical.name):
            return DeliveryResult.filtered(plaintext, "egress firewall")
        assert self.host.internet is not None
        physical.capture.record(self.host.internet.clock_ms, "tx", plaintext)
        outcome = self.host.internet.deliver(plaintext, self.host)
        if outcome.ok:
            self.leaked_packets += 1
            obs = self.host.internet.obs
            if obs is not None:
                obs.tunnel_leaked()
            for response in outcome.responses:
                physical.capture.record(
                    self.host.internet.clock_ms, "rx", response
                )
        return outcome
