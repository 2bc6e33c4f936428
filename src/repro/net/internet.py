"""The simulated internet.

The :class:`Internet` is the global topology: a registry of hosts keyed by IP
address, a simulation clock, and the latency model.  Delivery is synchronous:
``deliver`` carries a packet from its source host to the host owning the
destination address, advances the clock by the one-way latency, dispatches to
the destination, and carries any responses back.

TTL semantics are modelled so that traceroute works: the path between two
hosts is populated with synthetic routers placed along the great-circle path,
each with a deterministic IP drawn from a reserved prefix.  A packet whose
TTL expires at hop *k* yields an ICMP time-exceeded from router *k*, with an
RTT proportional to the distance covered — exactly the observable the paper's
infrastructure-inference tests consume.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.net.addresses import Address, IPv4Address, parse_address
from repro.net.geo import GeoPoint
from repro.net.host import Host
from repro.net.latency import DEFAULT_LATENCY_MODEL, LatencyModel
from repro.net.packet import DEFAULT_TTL, IcmpPayload, Packet

# Synthetic transit routers live in this (reserved, never host-assigned)
# space: 100.64.0.0/10 is carrier-grade NAT space in the real world.
_ROUTER_PREFIX = 100 << 24 | 64 << 16


@dataclass(frozen=True)
class TracerouteHop:
    """One hop of a traceroute: address (or None on timeout) and RTT."""

    ttl: int
    address: Optional[Address]
    rtt_ms: Optional[float]
    location: Optional[GeoPoint] = None

    def describe(self) -> str:
        if self.address is None:
            return f"{self.ttl:2d}  *"
        return f"{self.ttl:2d}  {self.address}  {self.rtt_ms:.3f} ms"


@dataclass(frozen=True)
class PingResult:
    """Outcome of one echo probe."""

    target: Address
    rtt_ms: Optional[float]

    @property
    def reachable(self) -> bool:
        return self.rtt_ms is not None


@dataclass(slots=True)
class DeliveryResult:
    """The fate of a sent packet."""

    packet: Packet
    status: str  # delivered | no_route | unreachable | filtered | ttl_exceeded | interface_down
    rtt_ms: Optional[float] = None
    responses: list[Packet] = field(default_factory=list)
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "delivered"

    @classmethod
    def no_route(cls, packet: Packet) -> "DeliveryResult":
        return cls(packet=packet, status="no_route")

    @classmethod
    def filtered(cls, packet: Packet, detail: str) -> "DeliveryResult":
        return cls(packet=packet, status="filtered", detail=detail)

    @classmethod
    def interface_down(cls, packet: Packet, interface: str) -> "DeliveryResult":
        return cls(packet=packet, status="interface_down", detail=interface)


class Internet:
    """The global simulated topology."""

    def __init__(self, latency_model: LatencyModel | None = None) -> None:
        self.latency = latency_model or DEFAULT_LATENCY_MODEL
        self.clock_ms: float = 0.0
        # Observability session (repro.obs) or None.  None is the contract
        # for "off": every event site pays one attribute load and one
        # `is not None` check, nothing else.  Never pickled with the world.
        self.obs = None
        self._hosts_by_address: dict[Address, Host] = {}
        self._hosts_by_name: dict[str, Host] = {}
        # Upstream path blackholes: (source host name, destination address)
        # pairs an in-path censor/ISP silently drops. Used by the
        # tunnel-failure test to sever a VPN outside the client's control.
        self._blackholes: set[tuple[str, Address]] = set()
        # Synthetic-router memo: (src loc, dst loc, hop, total) -> result.
        # Purely derived (SHA of the key), so caching cannot alter output.
        self._router_cache: dict[
            tuple[GeoPoint, GeoPoint, int, int], tuple[Address, GeoPoint]
        ] = {}
        # id(dst address) -> (dst address, Host) delivery memo.  Identity
        # keys hash at C speed; the address reference in the entry pins the
        # id.  Cleared whenever the address registry mutates, so it can
        # never serve a stale owner.
        self._dst_memo: dict[int, tuple[Address, Host]] = {}
        # Interned probe packets: ping/traceroute re-issue byte-identical
        # probes throughout a study, and reusing the same frozen object
        # lets every per-object memo (hash, jitter sample, decremented
        # copy, echo reply) hit instead of being rebuilt per probe.
        self._probe_cache: dict[
            tuple[Address, Address, int, int], Packet
        ] = {}

    # Drop the derived memos from pickled worlds; they are rebuilt on
    # demand and only bloat the snapshot blob.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_router_cache", None)
        state.pop("_probe_cache", None)
        state.pop("_dst_memo", None)
        state.pop("obs", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._router_cache = {}
        self._probe_cache = {}
        self._dst_memo = {}
        self.obs = None

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def attach(self, host: Host) -> Host:
        """Attach a host; indexes all its current interface addresses."""
        host.internet = self
        if host.name in self._hosts_by_name:
            raise ValueError(f"duplicate host name {host.name!r}")
        self._hosts_by_name[host.name] = host
        for address in host.addresses():
            self.register_address(address, host)
        return host

    def register_address(self, address: Address, host: Host) -> None:
        existing = self._hosts_by_address.get(address)
        if existing is not None and existing is not host:
            raise ValueError(
                f"address {address} already owned by {existing.name}"
            )
        self._hosts_by_address[address] = host
        self._dst_memo.clear()

    def release_address(self, address: Address) -> None:
        self._hosts_by_address.pop(address, None)
        self._dst_memo.clear()

    def host_for(self, address: str | Address) -> Optional[Host]:
        if isinstance(address, str):
            address = parse_address(address)
        return self._hosts_by_address.get(address)

    def host_named(self, name: str) -> Optional[Host]:
        return self._hosts_by_name.get(name)

    def hosts(self) -> list[Host]:
        return list(self._hosts_by_name.values())

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def block_path(self, source: Host, destination: str | Address) -> None:
        """Silently drop all traffic from *source* to *destination*."""
        if isinstance(destination, str):
            destination = parse_address(destination)
        self._blackholes.add((source.name, destination))

    def unblock_path(self, source: Host, destination: str | Address) -> None:
        if isinstance(destination, str):
            destination = parse_address(destination)
        self._blackholes.discard((source.name, destination))

    def _jitter_sample(self, packet: Packet) -> int:
        """Jitter realisation for a packet, from its content alone.

        Deriving the sample from the packet (rather than a running probe
        counter) keeps every RTT a pure function of the probe itself, so
        results are identical regardless of what else the world delivered
        first — the property the parallel runtime's byte-identical
        archives rest on.  Distinct probes (ping sequence numbers, query
        names) still draw distinct jitter.

        The sample is memoised on the (frozen) packet: a packet's fields
        never change after construction, so hashing it twice — once for a
        TTL check, once for final delivery — is pure rework.  The key
        string and digest are byte-for-byte those of the original
        implementation; only recomputation is skipped.
        """
        sample = packet.__dict__.get("_jitter_sample")
        if sample is None:
            # The payload repr dominates the key build (it recurses
            # through tunnel encapsulation); payloads are frozen, so
            # memoise the rendering on the payload object itself.
            payload = packet.payload
            payload_repr = payload.__dict__.get("_repr")
            if payload_repr is None:
                payload_repr = repr(payload)
                object.__setattr__(payload, "_repr", payload_repr)
            key = f"{packet.src}|{packet.dst}|{packet.ttl}|{payload_repr}"
            digest = hashlib.sha256(key.encode("utf-8", "replace")).digest()
            sample = int.from_bytes(digest[:8], "big")
            object.__setattr__(packet, "_jitter_sample", sample)
        return sample

    def deliver(self, packet: Packet, source: Host) -> DeliveryResult:
        """Deliver a packet from *source* to the owner of ``packet.dst``."""
        dst = packet.dst
        obs = self.obs
        stages = obs.stages if obs is not None else None
        if self._blackholes and (source.name, dst) in self._blackholes:
            self.clock_ms += 2.0
            if obs is not None:
                obs.packet_event(
                    source.name, packet, "unreachable", "path blackholed"
                )
            return DeliveryResult(
                packet=packet, status="unreachable", detail="path blackholed"
            )
        entry = self._dst_memo.get(id(dst))
        if entry is not None:
            destination = entry[1]
        else:
            destination = self._hosts_by_address.get(dst)
            if destination is None:
                # No such host: the packet dies in transit after a
                # plausible delay.  (Misses are not memoised — the address
                # may be registered later.)
                self.clock_ms += 3.0
                if obs is not None:
                    obs.packet_event(source.name, packet, "unreachable")
                return DeliveryResult(packet=packet, status="unreachable")
            if len(self._dst_memo) >= 8192:
                self._dst_memo.clear()
            self._dst_memo[id(dst)] = (dst, destination)

        latency = self.latency
        src_loc = source.location
        dst_loc = destination.location
        hops = latency._pair_stats(src_loc, dst_loc)[1]
        if packet.ttl <= hops:
            # Expired at an intermediate router.
            hop_index = packet.ttl
            router_addr, router_loc = self._router_at(
                source, destination, hop_index, hops
            )
            fraction = hop_index / max(1, hops)
            if stages is not None:
                stages.enter_stage("latency")
            rtt = (
                latency.rtt_ms(src_loc, dst_loc, self._jitter_sample(packet))
                * fraction
            )
            self.clock_ms += rtt
            if stages is not None:
                stages.leave_stage()
            reply = Packet(
                src=router_addr,
                dst=packet.src,
                payload=IcmpPayload(
                    icmp_type="time_exceeded", original_dst=str(packet.dst)
                ),
            )
            if obs is not None:
                obs.packet_event(
                    source.name, packet, "ttl_exceeded", str(router_addr)
                )
            return DeliveryResult(
                packet=packet,
                status="ttl_exceeded",
                rtt_ms=rtt,
                responses=[reply],
                detail=str(router_addr),
            )

        # Stage attribution: jitter/RTT derivation and both clock
        # half-advances bill to `latency`; the receive side nests inside
        # as `dispatch` and is subtracted by exclusive accounting.
        if stages is not None:
            stages.enter_stage("latency")
        sample = packet.__dict__.get("_jitter_sample")
        if sample is None:
            sample = self._jitter_sample(packet)
        rtt = latency.rtt_ms(src_loc, dst_loc, sample)
        self.clock_ms += rtt / 2.0
        # Inline `decrement_ttl` memo fast path (hot: once per delivery).
        delivered = packet.__dict__.get("_dec")
        if delivered is None:
            delivered = packet.decrement_ttl()
        if stages is not None:
            stages.enter_stage("dispatch")
        responses = destination.receive(delivered) or []
        if stages is not None:
            stages.leave_stage()
        self.clock_ms += rtt / 2.0
        if stages is not None:
            stages.leave_stage()
        if obs is not None:
            obs.packet_event(source.name, packet, "delivered")
        return DeliveryResult(
            packet=packet, status="delivered", rtt_ms=rtt, responses=responses
        )

    # ------------------------------------------------------------------
    # Probing primitives used by the measurement suite
    # ------------------------------------------------------------------
    def ping(
        self, source: Host, target: str | Address, count: int = 1
    ) -> list[PingResult]:
        """Send *count* echo requests from *source* to *target*."""
        if isinstance(target, str):
            target = parse_address(target)
        results: list[PingResult] = []
        src_addr = _source_address_for(source, target)
        if src_addr is None:
            return [PingResult(target=target, rtt_ms=None)] * count
        for sequence in range(count):
            probe = self._probe(src_addr, target, 1, sequence)
            # RTT is measured on the simulation clock so that multi-leg
            # paths (e.g. through a VPN tunnel) accumulate correctly.  The
            # delta is rounded to nanoseconds: subtraction near a large
            # accumulated clock value leaves ~1e-9 ms of float noise that
            # would otherwise vary with how much the world ran beforehand.
            started = self.clock_ms
            outcome = source.send(probe)
            elapsed = round(self.clock_ms - started, 6)
            got_reply = outcome.ok and any(
                isinstance(r.payload, IcmpPayload)
                and r.payload.icmp_type == "echo_reply"
                for r in outcome.responses
            )
            results.append(
                PingResult(target=target, rtt_ms=elapsed if got_reply else None)
            )
        return results

    def traceroute(
        self, source: Host, target: str | Address, max_ttl: int = 30
    ) -> list[TracerouteHop]:
        """Standard increasing-TTL traceroute from *source* to *target*."""
        if isinstance(target, str):
            target = parse_address(target)
        src_addr = _source_address_for(source, target)
        if src_addr is None:
            return []
        hops: list[TracerouteHop] = []
        for ttl in range(1, max_ttl + 1):
            probe = self._probe(src_addr, target, 2, ttl, ttl=ttl)
            started = self.clock_ms
            outcome = source.send(probe)
            elapsed = round(self.clock_ms - started, 6)
            if outcome.status == "ttl_exceeded":
                router = outcome.responses[0].src if outcome.responses else None
                hops.append(
                    TracerouteHop(ttl=ttl, address=router, rtt_ms=elapsed)
                )
                continue
            if outcome.ok:
                # Through a tunnel the expiry happens on the inner path and
                # comes back as an encapsulated time-exceeded response.
                exceeded = [
                    r
                    for r in outcome.responses
                    if isinstance(r.payload, IcmpPayload)
                    and r.payload.icmp_type == "time_exceeded"
                ]
                if exceeded:
                    hops.append(
                        TracerouteHop(
                            ttl=ttl, address=exceeded[0].src, rtt_ms=elapsed
                        )
                    )
                    continue
                reached = any(
                    isinstance(r.payload, IcmpPayload)
                    and r.payload.icmp_type == "echo_reply"
                    for r in outcome.responses
                )
                if reached:
                    hops.append(
                        TracerouteHop(ttl=ttl, address=target, rtt_ms=elapsed)
                    )
                    break
                hops.append(TracerouteHop(ttl=ttl, address=None, rtt_ms=None))
                continue
            hops.append(TracerouteHop(ttl=ttl, address=None, rtt_ms=None))
            if outcome.status in ("no_route", "filtered", "interface_down"):
                break
        return hops

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _probe(
        self,
        src: Address,
        dst: Address,
        identifier: int,
        sequence: int,
        ttl: int = DEFAULT_TTL,
    ) -> Packet:
        """An interned echo-request probe (content-identical to a fresh one)."""
        cache_key = (src, dst, identifier, sequence)
        probe = self._probe_cache.get(cache_key)
        if probe is None:
            probe = Packet(
                src=src,
                dst=dst,
                ttl=ttl,
                payload=IcmpPayload(
                    icmp_type="echo_request",
                    identifier=identifier,
                    sequence=sequence,
                ),
            )
            if len(self._probe_cache) >= 65536:
                self._probe_cache.clear()
            self._probe_cache[cache_key] = probe
        return probe

    def _router_at(
        self, source: Host, destination: Host, hop: int, total_hops: int
    ) -> tuple[Address, GeoPoint]:
        """Deterministic synthetic router for hop *hop* on a path."""
        src_loc = source.location
        dst_loc = destination.location
        cache_key = (src_loc, dst_loc, hop, total_hops)
        cached = self._router_cache.get(cache_key)
        if cached is not None:
            return cached
        key = f"{src_loc.lat},{src_loc.lon}->" \
              f"{dst_loc.lat},{dst_loc.lon}#{hop}"
        digest = hashlib.sha256(key.encode("ascii")).digest()
        suffix = int.from_bytes(digest[:3], "big") & 0x3FFFFF
        address = IPv4Address(_ROUTER_PREFIX | suffix)
        fraction = hop / max(1, total_hops)
        location = GeoPoint(
            lat=src_loc.lat + (dst_loc.lat - src_loc.lat) * fraction,
            lon=src_loc.lon + (dst_loc.lon - src_loc.lon) * fraction,
            country="",
        )
        if len(self._router_cache) >= 4096:
            self._router_cache.clear()
        result = self._router_cache[cache_key] = (address, location)
        return result


def _source_address_for(source: Host, target: Address) -> Optional[Address]:
    """Pick the source address matching the route's egress interface."""
    route = source.routing.lookup(target)
    if route is None:
        return None
    interface = source.interfaces.get(route.interface)
    if interface is None:
        return None
    return interface.address_for_version(target.version)
