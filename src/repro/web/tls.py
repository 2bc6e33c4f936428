"""Certificates and the TLS handshake model.

Real crypto is out of scope (DESIGN.md §7); what the TLS-interception test
needs is the *trust structure*: certificates with subjects, SANs, issuers and
stable fingerprints; chains up to a root; validation against a trust store;
and a handshake that returns the chain the *network path* presented — which
an interception middlebox can substitute.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Certificate:
    """An X.509-style certificate, identity only."""

    subject: str
    issuer: str
    san: tuple[str, ...] = ()
    serial: int = 1
    is_ca: bool = False

    @property
    def fingerprint(self) -> str:
        material = "|".join(
            [self.subject, self.issuer, ",".join(self.san), str(self.serial),
             str(self.is_ca)]
        )
        return hashlib.sha256(material.encode("ascii")).hexdigest()[:32]

    def matches_hostname(self, hostname: str) -> bool:
        """SAN match with single-label wildcard support."""
        hostname = hostname.lower().rstrip(".")
        names = self.san or (self.subject,)
        for name in names:
            name = name.lower().rstrip(".")
            if name == hostname:
                return True
            if name.startswith("*."):
                suffix = name[2:]
                head, dot, tail = hostname.partition(".")
                if dot and tail == suffix and head:
                    return True
        return False


@dataclass(frozen=True)
class CertificateChain:
    """Leaf-first chain of certificates."""

    certificates: tuple[Certificate, ...]

    @property
    def leaf(self) -> Certificate:
        return self.certificates[0]

    @property
    def root(self) -> Certificate:
        return self.certificates[-1]

    def __len__(self) -> int:
        return len(self.certificates)


class CertificateAuthority:
    """Issues certificates chained to its root."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.root = Certificate(
            subject=f"CN={name} Root",
            issuer=f"CN={name} Root",
            is_ca=True,
            serial=0,
        )
        self._serial = 0

    def issue(self, subject_host: str, san: tuple[str, ...] = ()) -> CertificateChain:
        self._serial += 1
        leaf = Certificate(
            subject=f"CN={subject_host}",
            issuer=self.root.subject,
            san=san or (subject_host, f"*.{subject_host}"),
            serial=self._serial,
        )
        return CertificateChain(certificates=(leaf, self.root))


class TrustStore:
    """The client's set of trusted root certificates."""

    # Profiler hook (the ``tls`` phase), wired by Observability.attach (the store has no
    # path back to the internet's `obs` slot); None costs one check.
    profile = None

    def __init__(self, roots: list[Certificate] | None = None) -> None:
        self._roots: dict[str, Certificate] = {}
        for root in roots or []:
            self.add_root(root)

    def add_root(self, root: Certificate) -> None:
        if not root.is_ca:
            raise ValueError("only CA certificates can be trust anchors")
        self._roots[root.fingerprint] = root

    def trusts(self, root: Certificate) -> bool:
        return root.fingerprint in self._roots

    def validate(
        self, chain: CertificateChain, hostname: str
    ) -> "ValidationResult":
        """Validate chain structure, trust anchor, and hostname."""
        profile = self.profile
        if profile is None:
            return self._validate(chain, hostname)
        profile.enter("tls")
        try:
            return self._validate(chain, hostname)
        finally:
            profile.leave()

    def _validate(
        self, chain: CertificateChain, hostname: str
    ) -> "ValidationResult":
        if len(chain) == 0:
            return ValidationResult(valid=False, reason="empty chain")
        for cert, issuer in zip(chain.certificates, chain.certificates[1:]):
            if cert.issuer != issuer.subject:
                return ValidationResult(
                    valid=False, reason=f"broken chain at {cert.subject}"
                )
            if not issuer.is_ca:
                return ValidationResult(
                    valid=False, reason=f"issuer {issuer.subject} is not a CA"
                )
        if not self.trusts(chain.root):
            return ValidationResult(valid=False, reason="untrusted root")
        if not chain.leaf.matches_hostname(hostname):
            return ValidationResult(
                valid=False,
                reason=f"hostname {hostname} not in SAN {chain.leaf.san}",
            )
        return ValidationResult(valid=True, reason="")


@dataclass(frozen=True)
class ValidationResult:
    valid: bool
    reason: str


class ChainRegistry:
    """Maps leaf fingerprints back to full chains.

    In a real handshake the server sends its certificate bytes; in the
    simulation only the leaf fingerprint travels in the
    :class:`~repro.net.packet.TlsPayload`, and the client recovers the full
    chain from this registry — including chains registered by interception
    middleboxes, so a MITM's substituted certificate is fully inspectable.
    """

    def __init__(self) -> None:
        self._by_fingerprint: dict[str, CertificateChain] = {}

    def register(self, chain: CertificateChain) -> CertificateChain:
        self._by_fingerprint[chain.leaf.fingerprint] = chain
        return chain

    def lookup(self, fingerprint: str) -> Optional[CertificateChain]:
        return self._by_fingerprint.get(fingerprint)


class CertificateStore:
    """The ground-truth mapping domain -> legitimate certificate chain.

    Built once when the world is constructed; the measurement suite's
    periodically collected 'groundtruth from a university IP' is a read of
    this store.  Issued chains are auto-registered in the chain registry.
    """

    def __init__(
        self, ca: CertificateAuthority, registry: ChainRegistry | None = None
    ) -> None:
        self.ca = ca
        self.registry = registry or ChainRegistry()
        self._chains: dict[str, CertificateChain] = {}

    def chain_for(self, host: str) -> CertificateChain:
        host = host.lower()
        if host not in self._chains:
            self._chains[host] = self.registry.register(self.ca.issue(host))
        return self._chains[host]

    def known_hosts(self) -> list[str]:
        return sorted(self._chains)


@dataclass(frozen=True)
class TlsHandshake:
    """The result of negotiating TLS with (whatever answered for) a host."""

    hostname: str
    presented_chain: Optional[CertificateChain]
    validation: Optional[ValidationResult]
    completed: bool

    @property
    def leaf_fingerprint(self) -> str:
        if self.presented_chain is None:
            return ""
        return self.presented_chain.leaf.fingerprint
