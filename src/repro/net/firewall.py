"""A simple rule-based packet filter.

Two users in the reproduction:

- the **tunnel-failure test** (paper Section 5.3.3) installs a firewall on the
  client host that blocks all egress to the VPN server (simulating an ISP or
  government severing the tunnel) while allowing a fixed set of probe hosts,
  then watches whether the VPN client fails open;
- **kill-switch** implementations in VPN clients install a firewall that
  blocks all traffic not destined for the tunnel.

Rules are evaluated first-match; the default action when nothing matches is
``ALLOW``.

When stage frames are on (``ObsConfig(stage_profile=True)``), the
delivery hot paths attribute ``permits`` checks to the profiler's
``firewall`` stage (see ``repro.obs.profile``); inactive firewalls are
skipped before the stage bracket, so the stage counts only real rule
evaluations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.net.addresses import Network, parse_network
from repro.net.packet import Packet, TcpSegment, UdpDatagram


class FirewallAction(enum.Enum):
    ALLOW = "allow"
    DROP = "drop"
    REJECT = "reject"  # drop + signal to the sender (TCP RST semantics)


@dataclass(frozen=True)
class FirewallRule:
    """A first-match firewall rule.

    ``None`` fields are wildcards.  ``direction`` is "out", "in" or "any".
    """

    action: FirewallAction
    direction: str = "any"
    src: Optional[Network] = None
    dst: Optional[Network] = None
    protocol: Optional[str] = None  # udp | tcp | icmp | tunnel
    dst_port: Optional[int] = None
    interface: Optional[str] = None
    comment: str = ""

    def matches(self, packet: Packet, direction: str, interface: str) -> bool:
        if self.direction not in ("any", direction):
            return False
        if self.interface is not None and self.interface != interface:
            return False
        if self.src is not None and (
            self.src.version != packet.src.version or packet.src not in self.src
        ):
            return False
        if self.dst is not None and (
            self.dst.version != packet.dst.version or packet.dst not in self.dst
        ):
            return False
        if self.protocol is not None and packet.payload.kind != self.protocol:
            return False
        if self.dst_port is not None:
            if not isinstance(packet.payload, (UdpDatagram, TcpSegment)):
                return False
            if packet.payload.dst_port != self.dst_port:
                return False
        return True

    def describe(self) -> str:
        parts = [self.action.value.upper(), self.direction]
        if self.src is not None:
            parts.append(f"src={self.src}")
        if self.dst is not None:
            parts.append(f"dst={self.dst}")
        if self.protocol is not None:
            parts.append(f"proto={self.protocol}")
        if self.dst_port is not None:
            parts.append(f"dport={self.dst_port}")
        if self.interface is not None:
            parts.append(f"dev={self.interface}")
        if self.comment:
            parts.append(f"# {self.comment}")
        return " ".join(parts)


class Firewall:
    """An ordered rule list with first-match evaluation."""

    def __init__(self, default: FirewallAction = FirewallAction.ALLOW) -> None:
        self.default = default
        self._rules: list[FirewallRule] = []

    def add(self, rule: FirewallRule) -> None:
        self._rules.append(rule)

    def insert(self, index: int, rule: FirewallRule) -> None:
        self._rules.insert(index, rule)

    def allow(self, *, dst: str | Network | None = None, **kwargs: object) -> FirewallRule:
        return self._add_shorthand(FirewallAction.ALLOW, dst, **kwargs)

    def drop(self, *, dst: str | Network | None = None, **kwargs: object) -> FirewallRule:
        return self._add_shorthand(FirewallAction.DROP, dst, **kwargs)

    def _add_shorthand(
        self,
        action: FirewallAction,
        dst: str | Network | None,
        **kwargs: object,
    ) -> FirewallRule:
        if isinstance(dst, str):
            dst = parse_network(dst)
        rule = FirewallRule(action=action, dst=dst, **kwargs)  # type: ignore[arg-type]
        self.add(rule)
        return rule

    def remove_by_comment(self, comment: str) -> int:
        before = len(self._rules)
        self._rules = [r for r in self._rules if r.comment != comment]
        return before - len(self._rules)

    def clear(self) -> None:
        self._rules.clear()

    def rules(self) -> list[FirewallRule]:
        return list(self._rules)

    def evaluate(
        self, packet: Packet, direction: str, interface: str
    ) -> FirewallAction:
        for rule in self._rules:
            if rule.matches(packet, direction, interface):
                return rule.action
        return self.default

    def permits(self, packet: Packet, direction: str, interface: str) -> bool:
        # Most hosts never install a rule; skip evaluation entirely then.
        if not self._rules:
            return self.default is FirewallAction.ALLOW
        return self.evaluate(packet, direction, interface) is FirewallAction.ALLOW

    def snapshot(self) -> list[str]:
        lines = [rule.describe() for rule in self._rules]
        lines.append(f"DEFAULT {self.default.value.upper()}")
        return lines
