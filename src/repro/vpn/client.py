"""The VPN client.

:class:`VpnClient` manipulates a host the way real client software
manipulates an operating system:

- creates a ``utunN`` interface carrying the session's tunnel address;
- pins a host route to the vantage point through the physical interface,
  then claims the default route through the tunnel;
- repoints the system resolver at the provider's in-tunnel DNS — *unless*
  the provider's client is one of the sloppy ones (Table 6's DNS leakers);
- blocks IPv6 on the physical interface when the tunnel can't carry it —
  *unless* the client is one of the twelve IPv6 leakers;
- arms a kill switch per the provider's failure mode (Section 6.5).

Disconnecting restores every mutation.  All state changes are visible in
``host.snapshot()``, which is what the metadata test collects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.net.addresses import Address, parse_address, parse_network
from repro.net.firewall import FirewallAction, FirewallRule
from repro.net.host import Host
from repro.net.interface import Interface
from repro.vpn.protocols import PROTOCOLS, TunnelProtocol
from repro.vpn.provider import FailureMode, VantagePoint, VpnProvider
from repro.vpn.tunnel import TunnelEndpoint, TunnelState

_KILL_SWITCH_COMMENT = "vpn-kill-switch"
_IPV6_BLOCK_COMMENT = "vpn-ipv6-block"

CLIENT_TUNNEL_ADDRESS = "10.8.0.2"
TUNNEL_NETWORK = "10.8.0.0/24"
CLIENT_TUNNEL_ADDRESS_V6 = "fd00:8::2"
TUNNEL_NETWORK_V6 = "fd00:8::/64"


class ConnectionState(enum.Enum):
    DISCONNECTED = "disconnected"
    CONNECTED = "connected"


class TunnelConnectionError(RuntimeError):
    """Raised when a vantage point refuses/drops the connection attempt.

    Mirrors the paper's Section 5.2 experience: endpoints outside North
    America and Europe frequently failed and required re-collection.
    """


@dataclass
class _SavedConfig:
    """Host state to restore on disconnect."""

    dns_servers: list[Address] = field(default_factory=list)


class VpnClient:
    """Client software for one provider, operating on one host."""

    def __init__(
        self,
        host: Host,
        provider: VpnProvider,
        protocol: str | None = None,
        tunnel_interface: str = "utun0",
    ) -> None:
        self.host = host
        self.provider = provider
        protocol_name = protocol or provider.profile.protocols[0]
        self.protocol: TunnelProtocol = PROTOCOLS[protocol_name]
        self.tunnel_interface_name = tunnel_interface
        self.state = ConnectionState.DISCONNECTED
        self.endpoint: Optional[TunnelEndpoint] = None
        self.current_vantage_point: Optional[VantagePoint] = None
        self._saved = _SavedConfig()
        # Connection attempts per endpoint hostname.  Each client counts
        # its own, so a connect in one world never decides whether a
        # connect to the same endpoint in another world fails; the
        # harness retries on the client whose attempt failed.
        self._attempts: dict[str, int] = {}

    # ------------------------------------------------------------------
    @property
    def leaks(self):
        return self.provider.profile.leaks

    @property
    def fail_closed(self) -> bool:
        return self.leaks.failure_mode is FailureMode.FAIL_CLOSED

    # ------------------------------------------------------------------
    def connect(self, vantage_point: VantagePoint | str) -> ConnectionState:
        """Establish the tunnel to a vantage point (by object or hostname).

        Raises :class:`TunnelConnectionError` on this client's first
        attempt to a flaky endpoint (Section 5.2's unreliable regions); a
        retry succeeds, mirroring the paper's partial re-collection.
        """
        if self.state is ConnectionState.CONNECTED:
            raise RuntimeError("already connected; disconnect first")
        if isinstance(vantage_point, str):
            vantage_point = self.provider.vantage_point(vantage_point)

        physical = self.host.primary_interface()
        if physical is None:
            raise RuntimeError("host has no physical interface")

        hostname = vantage_point.hostname
        attempt = self._attempts.get(hostname, 0) + 1
        self._attempts[hostname] = attempt
        if vantage_point.spec.flaky and attempt % 2 == 1:
            raise TunnelConnectionError(
                f"{vantage_point.hostname} dropped the connection "
                f"(attempt {attempt}); retry required"
            )

        # 1. Tunnel interface with the session address.
        tunnel = Interface(
            name=self.tunnel_interface_name,
            is_tunnel=True,
            mtu=1400,
        )
        tunnel.assign_ipv4(CLIENT_TUNNEL_ADDRESS, TUNNEL_NETWORK)
        dual_stack = _tunnels_ipv6(self) and physical.ipv6 is not None
        if dual_stack:
            tunnel.assign_ipv6(CLIENT_TUNNEL_ADDRESS_V6, TUNNEL_NETWORK_V6)
        self.host.add_interface(tunnel)

        # 2. Endpoint behind the interface.
        self.endpoint = TunnelEndpoint(
            host=self.host,
            physical_interface=physical.name,
            server_address=vantage_point.address,
            client_tunnel_address=parse_address(CLIENT_TUNNEL_ADDRESS),
            protocol=self.protocol,
            fail_closed=self.fail_closed,
            client_tunnel_address_v6=(
                parse_address(CLIENT_TUNNEL_ADDRESS_V6) if dual_stack else None
            ),
        )
        tunnel.endpoint = self.endpoint

        # 3. Routes: pin the VP through the physical path, then take the
        #    default route onto the tunnel (metric 0 beats the physical
        #    default installed at world build time).
        self.host.routing.add_prefix(
            f"{vantage_point.address}/32",
            physical.name,
            metric=0,
            source="vpn",
        )
        self.host.routing.add_prefix(
            "0.0.0.0/0", tunnel.name, metric=0, source="vpn"
        )
        if _tunnels_ipv6(self) and physical.ipv6 is not None:
            self.host.routing.add_prefix(
                "::/0", tunnel.name, metric=0, source="vpn"
            )

        # 4. Resolver configuration.
        self._saved.dns_servers = list(self.host.dns_servers)
        if not self.leaks.dns_leak:
            self.host.set_dns_servers([self.provider.dns_resolver_address])
        # else: sloppy client leaves the system resolver untouched — queries
        # to the on-link LAN resolver bypass the tunnel (Table 6, DNS).

        # 5. IPv6 handling: when the tunnel cannot carry IPv6, a careful
        #    client blackholes it; a sloppy one leaves the physical v6
        #    default route live (Table 6, IPv6).
        if not self.protocol.supports_ipv6 or not _tunnels_ipv6(self):
            if not self.leaks.ipv6_leak:
                self.host.firewall.insert(
                    0,
                    FirewallRule(
                        action=FirewallAction.DROP,
                        direction="out",
                        dst=parse_network("::/0"),
                        interface=physical.name,
                        comment=_IPV6_BLOCK_COMMENT,
                    ),
                )

        # 6. Kill switch: block all physical egress except the tunnel path.
        if self.fail_closed:
            self.host.firewall.insert(
                0,
                FirewallRule(
                    action=FirewallAction.ALLOW,
                    direction="out",
                    dst=parse_network(f"{vantage_point.address}/32"),
                    comment=_KILL_SWITCH_COMMENT,
                ),
            )
            self.host.firewall.insert(
                1,
                FirewallRule(
                    action=FirewallAction.DROP,
                    direction="out",
                    protocol="udp",
                    interface=physical.name,
                    comment=_KILL_SWITCH_COMMENT,
                ),
            )
            self.host.firewall.insert(
                2,
                FirewallRule(
                    action=FirewallAction.DROP,
                    direction="out",
                    protocol="tcp",
                    interface=physical.name,
                    comment=_KILL_SWITCH_COMMENT,
                ),
            )

        # 7. Hola-style relay exit (Section 6.6's future-work variant):
        #    the client also terminates tunnels, routing *other customers'*
        #    traffic out through this machine in plaintext.
        if self.provider.profile.capabilities.p2p_relay:
            self._install_relay_exit(physical.name)

        self.current_vantage_point = vantage_point
        self.state = ConnectionState.CONNECTED
        return self.state

    # ------------------------------------------------------------------
    def _install_relay_exit(self, physical_name: str) -> None:
        from repro.net.packet import TunnelPayload

        def relay_exit(packet, host):
            payload = packet.payload
            if not isinstance(payload, TunnelPayload):
                return None
            inner = payload.inner
            physical = host.interfaces.get(physical_name)
            if physical is None or not physical.up:
                return None
            source = physical.address_for_version(inner.dst.version)
            if source is None:
                return None
            # The foreign request egresses with OUR address in plaintext,
            # directly via the hardware interface (a raw-socket exit that
            # bypasses the tunnel's default route) — the exact signal the
            # P2P detection scans for on the capture.
            outbound = inner.with_src(source)
            assert host.internet is not None
            physical.capture.record(
                host.internet.clock_ms, "tx", outbound
            )
            outcome = host.internet.deliver(outbound, host)
            responses = outcome.responses if outcome.ok else []
            for response in responses:
                physical.capture.record(
                    host.internet.clock_ms, "rx", response
                )
            return [
                packet.__class__(
                    src=packet.dst,
                    dst=packet.src,
                    payload=TunnelPayload(
                        protocol=payload.protocol,
                        inner=response.with_dst(inner.src),
                    ),
                )
                for response in responses
            ]

        self.host.bind("tunnel", 0, relay_exit)
        self._relay_installed = True

    # ------------------------------------------------------------------
    def disconnect(self) -> ConnectionState:
        if self.state is ConnectionState.DISCONNECTED:
            return self.state
        if getattr(self, "_relay_installed", False):
            self.host.unbind("tunnel", 0)
            self._relay_installed = False
        if self.endpoint is not None:
            self.endpoint.close()
        self.host.routing.remove_where(source="vpn")
        self.host.remove_interface(self.tunnel_interface_name)
        self.host.firewall.remove_by_comment(_KILL_SWITCH_COMMENT)
        self.host.firewall.remove_by_comment(_IPV6_BLOCK_COMMENT)
        self.host.dns_servers = list(self._saved.dns_servers)
        self.endpoint = None
        self.current_vantage_point = None
        self.state = ConnectionState.DISCONNECTED
        return self.state

    # ------------------------------------------------------------------
    @property
    def tunnel_state(self) -> TunnelState:
        if self.endpoint is None:
            return TunnelState.CLOSED
        return self.endpoint.state

    def describe(self) -> str:
        vp = self.current_vantage_point
        where = vp.describe() if vp else "not connected"
        return f"{self.provider.name} via {self.protocol.name}: {where}"


def _tunnels_ipv6(client: VpnClient) -> bool:
    """Whether this provider actually carries IPv6 inside the tunnel.

    Per the paper, "most VPN services provide only IPv4 support"; no
    catalogue provider tunnels IPv6, but the capability exists for
    forward-looking providers (the study's natural extension): the client
    then claims the v6 default route through the tunnel instead of
    blocking v6 on the physical interface.
    """
    return client.provider.profile.capabilities.tunnels_ipv6
