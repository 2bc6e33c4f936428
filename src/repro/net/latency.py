"""The RTT model.

One-way latency between two points is modelled as::

    latency_ms = base + distance_km / (0.66 * c_km_per_ms) * path_stretch
                 + per_hop * hops + jitter

i.e. propagation at two-thirds of the speed of light in fibre, inflated by a
path-stretch factor (real routes are not great circles), plus fixed per-hop
forwarding cost and a small deterministic jitter.  The constants are chosen so
that typical intra-European pings land under 10 ms and transatlantic pings in
the 70–120 ms band, matching the ranges the paper relies on for its
co-location inference (e.g. Avira's 'US' endpoint pinging Germany in <9 ms
while real US hosts answer in 113–173 ms).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import NamedTuple

from repro.net.geo import GeoPoint

# Speed of light in vacuum is ~299.79 km/ms; in fibre ~0.66 c.
_FIBRE_KM_PER_MS = 299.79 * 0.66


class Leg(NamedTuple):
    """What the model derives once for an ordered pair of points (a, b).

    ``base_ms`` is the jitter-free one-way latency a -> b (propagation
    plus per-hop cost) and ``prefix`` the a -> b jitter hash key before
    its sample; ``back_base_ms`` and ``back_prefix`` are the same for
    b -> a, so one record prices a round trip.  ``a`` and ``b`` pin the
    points, so their ids cannot be recycled while the record is kept.
    """

    base_ms: float
    prefix: bytes
    back_base_ms: float
    back_prefix: bytes
    hops: int
    a: GeoPoint
    b: GeoPoint


@dataclass(frozen=True)
class LatencyModel:
    """Deterministic geographic latency model.

    Parameters
    ----------
    base_ms:
        Fixed one-way overhead (serialisation, last mile).
    path_stretch:
        Multiplier on great-circle distance to account for indirect routing.
    per_hop_ms:
        Forwarding delay added per router hop.
    jitter_ms:
        Peak-to-peak deterministic jitter; the actual offset for a pair of
        endpoints is a stable hash of their coordinates so repeated pings
        between the same endpoints vary reproducibly.

    A world has a few hundred host locations, so the model keeps one
    :class:`Leg` per ordered pair it has priced, keyed by the points'
    identities.  Jitter samples come from packet contents, which almost
    never repeat, so jitter and RTT are derived per call and not kept.
    """

    base_ms: float = 0.35
    path_stretch: float = 1.35
    per_hop_ms: float = 0.12
    jitter_ms: float = 0.25

    _LEG_LIMIT = 1 << 16

    def __post_init__(self) -> None:
        # Keyed by (id(a), id(b)): int tuples hash at C speed, where value
        # keys would pay a Python-level ``GeoPoint.__hash__`` frame per
        # delivery.  A leg is a pure function of the two points' values, so
        # an equal-valued but distinct point merely derives it again.
        object.__setattr__(self, "_legs", {})

    # The legs are derived state; keep pickled worlds lean.
    def __getstate__(self) -> dict:
        return {
            "base_ms": self.base_ms,
            "path_stretch": self.path_stretch,
            "per_hop_ms": self.per_hop_ms,
            "jitter_ms": self.jitter_ms,
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    def leg(self, a: GeoPoint, b: GeoPoint) -> Leg:
        """The leg record for a -> b, derived on first use."""
        legs: dict = self._legs  # type: ignore[attr-defined]
        leg = legs.get((id(a), id(b)))
        if leg is None:
            base_ab, hops = self._base(a, b)
            base_ba = self._base(b, a)[0]
            if len(legs) >= self._LEG_LIMIT:
                legs.clear()
            leg = legs[(id(a), id(b))] = Leg(
                base_ab, _prefix(a, b), base_ba, _prefix(b, a), hops, a, b
            )
        return leg

    def _base(self, a: GeoPoint, b: GeoPoint) -> tuple[float, int]:
        """(propagation + hops * per-hop cost, hops) from a to b."""
        distance = a.distance_km(b)
        propagation = (
            self.base_ms + (distance * self.path_stretch) / _FIBRE_KM_PER_MS
        )
        if distance < 50.0:
            hops = 3
        else:
            # ~1 hop per 600 km after the first few.
            hops = 4 + int(distance // 600.0)
        return propagation + hops * self.per_hop_ms, hops

    def hops_between(self, a: GeoPoint, b: GeoPoint) -> int:
        """Plausible router hop count, growing with distance."""
        return self.leg(a, b).hops

    def one_way_ms(self, a: GeoPoint, b: GeoPoint, sample: int = 0) -> float:
        """One-way latency including per-hop cost and deterministic jitter.

        ``sample`` selects among jitter realisations so that repeated probes
        between the same endpoints are not byte-identical.
        """
        leg = self.leg(a, b)
        return leg.base_ms + self._jitter(leg.prefix, sample)

    def rtt_ms(self, a: GeoPoint, b: GeoPoint, sample: int = 0) -> float:
        """Round-trip time between two points."""
        return self.leg_rtt_ms(self.leg(a, b), sample)

    def leg_rtt_ms(self, leg: Leg, sample: int) -> float:
        """Round-trip time over *leg*; ``Internet.deliver`` calls it once
        per delivery.

        Inlines ``one_way_ms(a, b, sample) + one_way_ms(b, a, sample + 1)``
        in the same expression shape, so every float rounds identically.
        """
        forward = hashlib.sha256(
            leg.prefix + str(sample).encode("ascii")
        ).digest()
        back = hashlib.sha256(
            leg.back_prefix + str(sample + 1).encode("ascii")
        ).digest()
        jitter_ms = self.jitter_ms
        return (
            leg.base_ms
            + (int.from_bytes(forward[:4], "big") / 0xFFFFFFFF) * jitter_ms
        ) + (
            leg.back_base_ms
            + (int.from_bytes(back[:4], "big") / 0xFFFFFFFF) * jitter_ms
        )

    def _jitter(self, prefix: bytes, sample: int) -> float:
        # Appending the encoded sample to the ASCII prefix hashes the same
        # bytes as encoding the whole key string at once.
        digest = hashlib.sha256(prefix + str(sample).encode("ascii")).digest()
        return (int.from_bytes(digest[:4], "big") / 0xFFFFFFFF) * self.jitter_ms


def _prefix(a: GeoPoint, b: GeoPoint) -> bytes:
    """The a -> b jitter hash key, up to its sample."""
    return f"{a.lat:.4f},{a.lon:.4f}|{b.lat:.4f},{b.lon:.4f}|".encode("ascii")


DEFAULT_LATENCY_MODEL = LatencyModel()
