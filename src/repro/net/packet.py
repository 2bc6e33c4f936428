"""Layered packet model.

Packets are plain dataclasses: an IP header (:class:`Packet`) carrying one of
several transport payloads (:class:`UdpDatagram`, :class:`TcpSegment`,
:class:`IcmpPayload`), which in turn carry an application payload
(:class:`DnsPayload`, :class:`HttpPayload`, :class:`TlsPayload`,
:class:`TunnelPayload`, :class:`RawPayload`).

The model keeps the observables the measurement suite needs — addresses,
ports, protocol, TTL, payload identity — without pretending to be a byte
serialiser.  A compact binary encoding is still provided (``encode`` /
``decode``) because packet captures are persisted and property-tested for
round-trip fidelity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.net.addresses import Address, parse_address

DEFAULT_TTL = 64

# Packet and payload reprs feed the delivery layer's deterministic jitter
# keys, so the same frozen object is rendered over and over as it crosses
# encapsulation layers.  Each class below therefore defines a memoised
# ``__repr__`` producing the exact string the dataclass-generated repr
# would (same field order, same ``name=value!r`` rendering): the bytes
# hashed for jitter cannot change, only the rework is skipped.


@dataclass(frozen=True)
class RawPayload:
    """Opaque application bytes (identified by a label for analysis)."""

    label: str = ""
    size: int = 0

    kind = "raw"

    def __repr__(self) -> str:
        r = self.__dict__.get("_repr")
        if r is None:
            r = (
                f"{self.__class__.__qualname__}(label={self.label!r}, "
                f"size={self.size!r})"
            )
            object.__setattr__(self, "_repr", r)
        return r

    def describe(self) -> str:
        return f"raw({self.label},{self.size}B)"


@dataclass(frozen=True)
class DnsPayload:
    """A DNS query or answer travelling in a datagram."""

    qname: str
    qtype: str = "A"
    is_response: bool = False
    rcode: str = "NOERROR"
    answers: tuple[str, ...] = ()
    txid: int = 0

    kind = "dns"

    def __repr__(self) -> str:
        r = self.__dict__.get("_repr")
        if r is None:
            r = (
                f"{self.__class__.__qualname__}(qname={self.qname!r}, "
                f"qtype={self.qtype!r}, is_response={self.is_response!r}, "
                f"rcode={self.rcode!r}, answers={self.answers!r}, "
                f"txid={self.txid!r})"
            )
            object.__setattr__(self, "_repr", r)
        return r

    def describe(self) -> str:
        direction = "resp" if self.is_response else "query"
        return f"dns-{direction}({self.qname} {self.qtype})"


@dataclass(frozen=True)
class HttpPayload:
    """An HTTP request or response (status == 0 means request).

    ``body`` carries the actual page content (serialised DOM / text) so that
    content-comparison tests can diff what the client received against ground
    truth; ``body_label`` is a short content identity used in captures.
    """

    method: str = "GET"
    url: str = ""
    status: int = 0
    headers: tuple[tuple[str, str], ...] = ()
    body_label: str = ""
    body_size: int = 0
    body: str = ""

    kind = "http"

    def __repr__(self) -> str:
        r = self.__dict__.get("_repr")
        if r is None:
            r = (
                f"{self.__class__.__qualname__}(method={self.method!r}, "
                f"url={self.url!r}, status={self.status!r}, "
                f"headers={self.headers!r}, body_label={self.body_label!r}, "
                f"body_size={self.body_size!r}, body={self.body!r})"
            )
            object.__setattr__(self, "_repr", r)
        return r

    @property
    def is_response(self) -> bool:
        return self.status != 0

    def describe(self) -> str:
        if self.is_response:
            return f"http-resp({self.status} {self.url})"
        return f"http-req({self.method} {self.url})"


@dataclass(frozen=True)
class TlsPayload:
    """A TLS record: handshake metadata only (no real crypto bytes)."""

    sni: str = ""
    record: str = "client_hello"  # client_hello | server_hello | app_data
    certificate_fingerprint: str = ""
    size: int = 0

    kind = "tls"

    def __repr__(self) -> str:
        r = self.__dict__.get("_repr")
        if r is None:
            r = (
                f"{self.__class__.__qualname__}(sni={self.sni!r}, "
                f"record={self.record!r}, "
                f"certificate_fingerprint={self.certificate_fingerprint!r}, "
                f"size={self.size!r})"
            )
            object.__setattr__(self, "_repr", r)
        return r

    def describe(self) -> str:
        return f"tls({self.record} sni={self.sni})"


@dataclass(frozen=True)
class IcmpPayload:
    """ICMP echo / time-exceeded / unreachable."""

    icmp_type: str = "echo_request"
    identifier: int = 0
    sequence: int = 0
    original_dst: str = ""  # for time_exceeded: where the probe was headed

    kind = "icmp"

    def __repr__(self) -> str:
        r = self.__dict__.get("_repr")
        if r is None:
            r = (
                f"{self.__class__.__qualname__}(icmp_type={self.icmp_type!r}, "
                f"identifier={self.identifier!r}, "
                f"sequence={self.sequence!r}, "
                f"original_dst={self.original_dst!r})"
            )
            object.__setattr__(self, "_repr", r)
        return r

    def describe(self) -> str:
        return f"icmp({self.icmp_type} seq={self.sequence})"


@dataclass(frozen=True)
class UdpDatagram:
    src_port: int
    dst_port: int
    payload: "AppPayload" = field(default_factory=RawPayload)

    kind = "udp"

    def __repr__(self) -> str:
        r = self.__dict__.get("_repr")
        if r is None:
            r = (
                f"{self.__class__.__qualname__}(src_port={self.src_port!r}, "
                f"dst_port={self.dst_port!r}, payload={self.payload!r})"
            )
            object.__setattr__(self, "_repr", r)
        return r

    def describe(self) -> str:
        return f"udp:{self.src_port}->{self.dst_port} {self.payload.describe()}"


@dataclass(frozen=True)
class TcpSegment:
    src_port: int
    dst_port: int
    flags: str = "PA"  # S, SA, A, PA, F, R ...
    seq: int = 0
    payload: "AppPayload" = field(default_factory=RawPayload)

    kind = "tcp"

    def __repr__(self) -> str:
        r = self.__dict__.get("_repr")
        if r is None:
            r = (
                f"{self.__class__.__qualname__}(src_port={self.src_port!r}, "
                f"dst_port={self.dst_port!r}, flags={self.flags!r}, "
                f"seq={self.seq!r}, payload={self.payload!r})"
            )
            object.__setattr__(self, "_repr", r)
        return r

    def describe(self) -> str:
        return (
            f"tcp:{self.src_port}->{self.dst_port}[{self.flags}] "
            f"{self.payload.describe()}"
        )


@dataclass(frozen=True)
class TunnelPayload:
    """An encapsulated (encrypted) inner packet inside a VPN tunnel.

    ``protocol`` names the tunnelling protocol; ``inner`` is the plaintext
    packet visible only to the two tunnel endpoints.  An on-path observer of
    the outer packet sees only the protocol and ciphertext size — mirroring
    what an ISP sees of real VPN traffic.
    """

    protocol: str
    inner: "Packet"
    cipher: str = "AES-256-GCM"

    kind = "tunnel"

    def __repr__(self) -> str:
        r = self.__dict__.get("_repr")
        if r is None:
            r = (
                f"{self.__class__.__qualname__}(protocol={self.protocol!r}, "
                f"inner={self.inner!r}, cipher={self.cipher!r})"
            )
            object.__setattr__(self, "_repr", r)
        return r

    @property
    def size(self) -> int:
        return self.inner.size + 57  # encapsulation overhead

    def describe(self) -> str:
        return f"tunnel({self.protocol}, {self.size}B ciphertext)"


AppPayload = Union[RawPayload, DnsPayload, HttpPayload, TlsPayload, IcmpPayload]
TransportPayload = Union[UdpDatagram, TcpSegment, IcmpPayload, TunnelPayload]


@dataclass(frozen=True)
class Packet:
    """An IP packet."""

    src: Address
    dst: Address
    payload: TransportPayload
    ttl: int = DEFAULT_TTL

    @property
    def version(self) -> int:
        return self.src.version

    @property
    def size(self) -> int:
        header = 20 if self.version == 4 else 40
        inner = getattr(self.payload, "payload", None)
        inner_size = getattr(inner, "size", None)
        if inner_size is None:
            inner_size = getattr(inner, "body_size", 0) if inner else 0
        payload_size = getattr(self.payload, "size", None)
        if payload_size is not None and self.payload.kind == "tunnel":
            return header + payload_size
        return header + 8 + (inner_size or 0)

    def __repr__(self) -> str:
        r = self.__dict__.get("_repr")
        if r is None:
            r = (
                f"{self.__class__.__qualname__}(src={self.src!r}, "
                f"dst={self.dst!r}, payload={self.payload!r}, "
                f"ttl={self.ttl!r})"
            )
            object.__setattr__(self, "_repr", r)
        return r

    # The copies below are built per call and not memoised: study
    # traffic almost never repeats a packet, so a memo on the packet
    # would only hold the copy alive after its delivery.
    def decrement_ttl(self) -> "Packet":
        # Direct construction: dataclasses.replace re-derives the field
        # list on every call and is ~4x slower on this per-hop path.
        return Packet(
            src=self.src, dst=self.dst, payload=self.payload, ttl=self.ttl - 1
        )

    def with_src(self, src: Address) -> "Packet":
        """A copy with a rewritten source (tunnel session rewrites)."""
        return Packet(src=src, dst=self.dst, payload=self.payload, ttl=self.ttl)

    def with_dst(self, dst: Address) -> "Packet":
        """A copy with a rewritten destination (tunnel reply routing)."""
        return Packet(src=self.src, dst=dst, payload=self.payload, ttl=self.ttl)

    def describe(self) -> str:
        return f"{self.src} -> {self.dst} ttl={self.ttl} {self.payload.describe()}"

    # Keep the derived repr memo (leading underscore) out of pickled
    # captures and world snapshots.
    def __getstate__(self) -> dict:
        return {
            k: v for k, v in self.__dict__.items() if not k.startswith("_")
        }

    # ------------------------------------------------------------------
    # Serialisation: a stable JSON encoding used by persisted captures.
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        return json.dumps(_to_jsonable(self), separators=(",", ":")).encode()

    @classmethod
    def decode(cls, data: bytes) -> "Packet":
        return _packet_from_jsonable(json.loads(data.decode()))


def _to_jsonable(obj: object) -> object:
    if isinstance(obj, Packet):
        return {
            "_": "packet",
            "src": str(obj.src),
            "dst": str(obj.dst),
            "ttl": obj.ttl,
            "payload": _to_jsonable(obj.payload),
        }
    if isinstance(obj, UdpDatagram):
        return {
            "_": "udp",
            "sp": obj.src_port,
            "dp": obj.dst_port,
            "payload": _to_jsonable(obj.payload),
        }
    if isinstance(obj, TcpSegment):
        return {
            "_": "tcp",
            "sp": obj.src_port,
            "dp": obj.dst_port,
            "flags": obj.flags,
            "seq": obj.seq,
            "payload": _to_jsonable(obj.payload),
        }
    if isinstance(obj, TunnelPayload):
        return {
            "_": "tunnel",
            "protocol": obj.protocol,
            "cipher": obj.cipher,
            "inner": _to_jsonable(obj.inner),
        }
    if isinstance(obj, IcmpPayload):
        return {
            "_": "icmp",
            "type": obj.icmp_type,
            "id": obj.identifier,
            "seq": obj.sequence,
            "odst": obj.original_dst,
        }
    if isinstance(obj, DnsPayload):
        return {
            "_": "dns",
            "qname": obj.qname,
            "qtype": obj.qtype,
            "resp": obj.is_response,
            "rcode": obj.rcode,
            "answers": list(obj.answers),
            "txid": obj.txid,
        }
    if isinstance(obj, HttpPayload):
        return {
            "_": "http",
            "method": obj.method,
            "url": obj.url,
            "status": obj.status,
            "headers": [list(h) for h in obj.headers],
            "body_label": obj.body_label,
            "body_size": obj.body_size,
            "body": obj.body,
        }
    if isinstance(obj, TlsPayload):
        return {
            "_": "tls",
            "sni": obj.sni,
            "record": obj.record,
            "fp": obj.certificate_fingerprint,
            "size": obj.size,
        }
    if isinstance(obj, RawPayload):
        return {"_": "raw", "label": obj.label, "size": obj.size}
    raise TypeError(f"cannot encode {obj!r}")


def _payload_from_jsonable(data: dict) -> object:
    tag = data["_"]
    if tag == "udp":
        return UdpDatagram(
            src_port=data["sp"],
            dst_port=data["dp"],
            payload=_payload_from_jsonable(data["payload"]),
        )
    if tag == "tcp":
        return TcpSegment(
            src_port=data["sp"],
            dst_port=data["dp"],
            flags=data["flags"],
            seq=data["seq"],
            payload=_payload_from_jsonable(data["payload"]),
        )
    if tag == "tunnel":
        return TunnelPayload(
            protocol=data["protocol"],
            cipher=data["cipher"],
            inner=_packet_from_jsonable(data["inner"]),
        )
    if tag == "icmp":
        return IcmpPayload(
            icmp_type=data["type"],
            identifier=data["id"],
            sequence=data["seq"],
            original_dst=data["odst"],
        )
    if tag == "dns":
        return DnsPayload(
            qname=data["qname"],
            qtype=data["qtype"],
            is_response=data["resp"],
            rcode=data["rcode"],
            answers=tuple(data["answers"]),
            txid=data["txid"],
        )
    if tag == "http":
        return HttpPayload(
            method=data["method"],
            url=data["url"],
            status=data["status"],
            headers=tuple((k, v) for k, v in data["headers"]),
            body_label=data["body_label"],
            body_size=data["body_size"],
            body=data.get("body", ""),
        )
    if tag == "tls":
        return TlsPayload(
            sni=data["sni"],
            record=data["record"],
            certificate_fingerprint=data["fp"],
            size=data["size"],
        )
    if tag == "raw":
        return RawPayload(label=data["label"], size=data["size"])
    raise ValueError(f"unknown payload tag {tag!r}")


def _packet_from_jsonable(data: dict) -> Packet:
    if data.get("_") != "packet":
        raise ValueError("not a packet encoding")
    return Packet(
        src=parse_address(data["src"]),
        dst=parse_address(data["dst"]),
        ttl=data["ttl"],
        payload=_payload_from_jsonable(data["payload"]),
    )


def innermost_payload(packet: Packet) -> Optional[AppPayload]:
    """Walk through tunnel/transport layers to the application payload."""
    payload: object = packet.payload
    while True:
        if isinstance(payload, TunnelPayload):
            payload = payload.inner.payload
        elif isinstance(payload, (UdpDatagram, TcpSegment)):
            return payload.payload
        elif isinstance(payload, IcmpPayload):
            return payload
        else:
            return payload if payload is not None else None
