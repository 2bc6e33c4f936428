"""Packet capture.

Every :class:`~repro.net.interface.Interface` owns a :class:`Capture` that
records the packets it transmits and receives, timestamped on the simulation
clock.  The leakage tests (paper Section 5.3.3) and the P2P analysis (Section
6.6) work purely by scanning these captures, just as the real suite scanned
tcpdump output on the hardware interface.

When stage frames are on (``ObsConfig(stage_profile=True)``), time spent
appending capture entries on the delivery hot paths is attributed to the
profiler's ``capture`` stage (see ``repro.obs.profile``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.net.packet import (
    DnsPayload,
    Packet,
    innermost_payload,
)


@dataclass(slots=True)
class CaptureEntry:
    """A single captured packet with capture metadata.

    A plain slots dataclass (not frozen): entries are created once per
    delivered packet on the hot path, and the frozen-dataclass ``__init__``
    (one ``object.__setattr__`` per field) costs several times a plain
    slotted store.  Nothing mutates or hashes entries.
    """

    timestamp_ms: float
    direction: str  # "tx" | "rx"
    interface: str
    packet: Packet

    def describe(self) -> str:
        return (
            f"[{self.timestamp_ms:10.3f}ms {self.interface} "
            f"{self.direction}] {self.packet.describe()}"
        )


@dataclass
class Capture:
    """An append-only packet log for one interface."""

    interface: str
    entries: list[CaptureEntry] = field(default_factory=list)
    enabled: bool = True

    def record(
        self, timestamp_ms: float, direction: str, packet: Packet
    ) -> None:
        if not self.enabled:
            return
        self.entries.append(
            CaptureEntry(
                timestamp_ms=timestamp_ms,
                direction=direction,
                interface=self.interface,
                packet=packet,
            )
        )

    def clear(self) -> None:
        self.entries.clear()

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[CaptureEntry]:
        return iter(self.entries)

    # ------------------------------------------------------------------
    # Query helpers used by the leakage analyses.
    # ------------------------------------------------------------------
    def filter(
        self, predicate: Callable[[CaptureEntry], bool]
    ) -> list[CaptureEntry]:
        return [entry for entry in self.entries if predicate(entry)]

    def transmitted(self) -> list[CaptureEntry]:
        return self.filter(lambda e: e.direction == "tx")

    def received(self) -> list[CaptureEntry]:
        return self.filter(lambda e: e.direction == "rx")

    def non_tunnel(self) -> list[CaptureEntry]:
        """Packets that are NOT encapsulated in a VPN tunnel.

        These are exactly the packets an in-path observer can read — the raw
        material of every leakage detection.
        """
        return self.filter(lambda e: e.packet.payload.kind != "tunnel")

    def dns_queries(self, plaintext_only: bool = True) -> list[CaptureEntry]:
        """Captured DNS queries; by default only un-tunnelled (leaked) ones."""
        source = self.non_tunnel() if plaintext_only else self.entries
        result = []
        for entry in source:
            payload = innermost_payload(entry.packet)
            if isinstance(payload, DnsPayload) and not payload.is_response:
                result.append(entry)
        return result

    def ipv6_packets(self, plaintext_only: bool = True) -> list[CaptureEntry]:
        """Captured IPv6 packets; by default only un-tunnelled (leaked) ones."""
        source = self.non_tunnel() if plaintext_only else self.entries
        return [e for e in source if e.packet.version == 6]

    def to_bytes(self) -> bytes:
        """Serialise the capture (one encoded packet per line)."""
        lines = []
        for entry in self.entries:
            prefix = f"{entry.timestamp_ms:.3f}\t{entry.direction}\t".encode()
            lines.append(prefix + entry.packet.encode())
        return b"\n".join(lines)

    @classmethod
    def from_bytes(cls, interface: str, data: bytes) -> "Capture":
        capture = cls(interface=interface)
        if not data:
            return capture
        for line in data.split(b"\n"):
            ts_raw, direction_raw, packet_raw = line.split(b"\t", 2)
            capture.entries.append(
                CaptureEntry(
                    timestamp_ms=float(ts_raw),
                    direction=direction_raw.decode(),
                    interface=interface,
                    packet=Packet.decode(packet_raw),
                )
            )
        return capture


def merge_captures(captures: list[Capture]) -> list[CaptureEntry]:
    """Merge several captures into one timeline, ordered by timestamp."""
    merged: list[CaptureEntry] = []
    for capture in captures:
        merged.extend(capture.entries)
    merged.sort(key=lambda e: e.timestamp_ms)
    return merged
