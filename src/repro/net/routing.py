"""Routing tables with longest-prefix matching.

A :class:`RoutingTable` maps destination prefixes to either a named interface
(for directly-connected networks and tunnel devices) or a gateway address.
The VPN client reroutes traffic by installing/removing routes exactly the way
real clients manipulate the OS routing table, so the metadata test (paper
Section 5.3.4) can snapshot it, and the leakage tests observe its effects.

When the stage profiler is on (``ObsConfig(stage_profile=True)``),
``Host.send`` attributes lookup time to the ``route`` stage (see
``repro.obs.stages``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.addresses import (
    Address,
    IPv4Network,
    IPv6Network,
    Network,
    parse_address,
    parse_network,
)

DEFAULT_V4 = IPv4Network.parse("0.0.0.0/0")
DEFAULT_V6 = IPv6Network.parse("::/0")


@dataclass(frozen=True)
class Route:
    """A single routing-table entry.

    ``interface`` names the egress device.  ``gateway`` is informational in
    the simulator (delivery is topological), but it is recorded because the
    metadata snapshot includes it and tests assert on it.  Lower ``metric``
    wins among equal-length prefixes.
    """

    prefix: Network
    interface: str
    gateway: Optional[Address] = None
    metric: int = 0
    source: str = "static"  # static | dhcp | vpn

    def describe(self) -> str:
        gw = str(self.gateway) if self.gateway else "link"
        return (
            f"{self.prefix} via {gw} dev {self.interface} "
            f"metric {self.metric} ({self.source})"
        )


_MISS = object()  # lookup-cache sentinel (None is a valid cached result)


class RoutingTable:
    """An ordered collection of routes with longest-prefix-match lookup.

    Lookup is indexed: routes are bucketed by (IP version, prefix length,
    network value), and a longest-prefix match walks the populated prefix
    lengths in descending order instead of linearly scanning every route.
    A generation counter tracks mutations; the index and the per-destination
    lookup memo are rebuilt lazily whenever the table has changed, so
    correctness never depends on call order.  Semantics are unchanged from
    the linear implementation: longest prefix wins, ties break by lowest
    metric, then by most recently added.
    """

    def __init__(self) -> None:
        self._routes: list[Route] = []
        # Mutation generation; bumped by add/remove, compared lazily.
        self._generation = 0
        # version -> prefix_len -> network value -> [(insertion idx, Route)]
        self._buckets: dict[int, dict[int, dict[int, list[tuple[int, Route]]]]]
        self._buckets = {}
        # version -> populated prefix lengths, descending (index walk order).
        self._plens: dict[int, list[int]] = {}
        self._index_generation = -1
        # id(destination) -> (destination, Optional[Route]) memo, valid for
        # one generation.  Identity keys hash at C speed (value keys would
        # pay a Python-level dataclass ``__hash__`` frame per probe on the
        # packet hot path); the destination reference held in the entry pins
        # the id against recycling.  Equal-but-distinct destinations merely
        # recompute the same route.
        self._lookup_cache: dict[int, tuple[Address, Optional[Route]]] = {}
        self._cache_generation = -1
        # Observability memo stats (repro.obs.metrics.RouteLookupStats) or
        # None; attached by an Observability session, one check per lookup.
        self.stats = None

    # Derived state (index + memo) is rebuilt on demand; keep pickled
    # worlds lean by persisting only the canonical route list.
    def __getstate__(self) -> dict:
        return {"_routes": self._routes}

    def __setstate__(self, state: dict) -> None:
        self.__init__()  # type: ignore[misc]
        self._routes = state["_routes"]

    def add(self, route: Route) -> None:
        self._routes.append(route)
        self._generation += 1

    def add_prefix(
        self,
        prefix: str | Network,
        interface: str,
        gateway: str | Address | None = None,
        metric: int = 0,
        source: str = "static",
    ) -> Route:
        if isinstance(prefix, str):
            prefix = parse_network(prefix)
        if isinstance(gateway, str):
            gateway = parse_address(gateway)
        route = Route(
            prefix=prefix,
            interface=interface,
            gateway=gateway,
            metric=metric,
            source=source,
        )
        self.add(route)
        return route

    def remove_where(self, **attrs: object) -> int:
        """Remove all routes whose attributes match; returns count removed."""
        def matches(route: Route) -> bool:
            return all(getattr(route, k) == v for k, v in attrs.items())

        before = len(self._routes)
        self._routes = [r for r in self._routes if not matches(r)]
        self._generation += 1
        return before - len(self._routes)

    def routes(self) -> list[Route]:
        return list(self._routes)

    def _rebuild_index(self) -> None:
        buckets: dict[int, dict[int, dict[int, list[tuple[int, Route]]]]] = {}
        for index, route in enumerate(self._routes):
            prefix = route.prefix
            by_plen = buckets.setdefault(prefix.version, {})
            by_value = by_plen.setdefault(prefix.prefix_len, {})
            by_value.setdefault(prefix.network.value, []).append((index, route))
        self._buckets = buckets
        self._plens = {
            version: sorted(by_plen, reverse=True)
            for version, by_plen in buckets.items()
        }
        self._index_generation = self._generation

    def lookup(self, destination: str | Address) -> Optional[Route]:
        """Longest-prefix match; ties broken by lowest metric, then recency."""
        if isinstance(destination, str):
            destination = parse_address(destination)
        if self._cache_generation != self._generation:
            self._lookup_cache.clear()
            self._cache_generation = self._generation
        stats = self.stats
        cached = self._lookup_cache.get(id(destination))
        if cached is not None:
            if stats is not None:
                stats.hits += 1
            return cached[1]
        if stats is not None:
            stats.misses += 1
        if self._index_generation != self._generation:
            self._rebuild_index()
        best: Optional[Route] = None
        by_plen = self._buckets.get(destination.version)
        if by_plen:
            value = destination.value
            masks = (
                IPv4Network._masks
                if destination.version == 4
                else IPv6Network._masks
            )
            for prefix_len in self._plens[destination.version]:
                candidates = by_plen[prefix_len].get(value & masks[prefix_len])
                if candidates:
                    best = min(
                        candidates, key=lambda pair: (pair[1].metric, -pair[0])
                    )[1]
                    break
        if len(self._lookup_cache) >= 4096:
            self._lookup_cache.clear()
        self._lookup_cache[id(destination)] = (destination, best)
        return best

    def default_route(self, version: int = 4) -> Optional[Route]:
        """The current default route for the given IP version, if any."""
        default = DEFAULT_V4 if version == 4 else DEFAULT_V6
        candidates = [r for r in self._routes if r.prefix == default]
        if not candidates:
            return None
        return min(
            enumerate(candidates), key=lambda pair: (pair[1].metric, -pair[0])
        )[1]

    def host_routes(self) -> list[Route]:
        """All /32 (v4) and /128 (v6) routes — pinned-host routes.

        VPN clients typically pin the VPN server's address through the
        physical interface before moving the default route onto the tunnel;
        the metadata test pings every such route (Section 5.3.4).
        """
        return [
            r
            for r in self._routes
            if (r.prefix.version == 4 and r.prefix.prefix_len == 32)
            or (r.prefix.version == 6 and r.prefix.prefix_len == 128)
        ]

    def snapshot(self) -> list[str]:
        """Human-readable dump, used in metadata collection."""
        return [route.describe() for route in self._routes]

    def __len__(self) -> int:
        return len(self._routes)
