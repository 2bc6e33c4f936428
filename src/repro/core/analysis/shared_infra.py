"""Shared server infrastructure analysis (Section 6.3, Table 5).

From the set of (provider, endpoint address) pairs the study observed:

- exact addresses served to more than one provider (Boxpn/Anonine's four
  shared machines);
- /24 blocks containing endpoints of multiple providers, and the Table 5
  view of blocks shared by three or more;
- per-provider ASN counts and the distinct-IP / distinct-CIDR totals the
  paper reports (767 analysed → 748 IPs in 529 CIDRs).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.net.addresses import IPv4Address, IPv4Network, parse_address


@dataclass(frozen=True)
class EndpointRecord:
    provider: str
    address: str
    block: str    # enclosing /24 (or allocation block)
    asn: int


@dataclass
class SharedBlockRow:
    """One Table 5 row."""

    block: str
    asn: int
    providers: tuple[str, ...]

    @property
    def provider_count(self) -> int:
        return len(self.providers)


@dataclass
class SharedInfraAnalysis:
    """Cross-provider address-space overlap."""

    _records: list[EndpointRecord] = field(
        default_factory=list, metadata={"key": "records"}
    )

    def ingest(self, provider: str, address: str, block: str, asn: int) -> None:
        self._records.append(
            EndpointRecord(provider=provider, address=address, block=block,
                           asn=asn)
        )

    # ------------------------------------------------------------------
    # Totals (Section 6.3 headline numbers)
    # ------------------------------------------------------------------
    @property
    def vantage_points_analysed(self) -> int:
        return len(self._records)

    @property
    def distinct_addresses(self) -> int:
        return len({r.address for r in self._records})

    @property
    def distinct_blocks(self) -> int:
        return len({r.block for r in self._records})

    def asn_count_by_provider(self) -> dict[str, int]:
        asns: dict[str, set[int]] = defaultdict(set)
        for record in self._records:
            asns[record.provider].add(record.asn)
        return {provider: len(values) for provider, values in asns.items()}

    # ------------------------------------------------------------------
    # Sharing
    # ------------------------------------------------------------------
    def shared_exact_addresses(self) -> dict[str, set[str]]:
        """address -> providers, for addresses used by >1 provider."""
        owners: dict[str, set[str]] = defaultdict(set)
        for record in self._records:
            owners[record.address].add(record.provider)
        return {
            address: providers
            for address, providers in owners.items()
            if len(providers) > 1
        }

    def shared_blocks(self, min_providers: int = 2) -> list[SharedBlockRow]:
        """Blocks with endpoints from >= min_providers providers."""
        owners: dict[str, set[str]] = defaultdict(set)
        asn_of: dict[str, int] = {}
        for record in self._records:
            owners[record.block].add(record.provider)
            asn_of[record.block] = record.asn
        rows = [
            SharedBlockRow(
                block=block,
                asn=asn_of[block],
                providers=tuple(sorted(providers)),
            )
            for block, providers in owners.items()
            if len(providers) >= min_providers
        ]
        return sorted(rows, key=lambda r: (-r.provider_count, r.block))

    def table5(self) -> list[SharedBlockRow]:
        """Blocks shared by at least three providers (the paper's Table 5)."""
        return self.shared_blocks(min_providers=3)

    def providers_sharing_blocks(self) -> set[str]:
        """Providers with at least one endpoint in a multi-provider block.

        The paper counts 40 such services.
        """
        shared = set()
        for row in self.shared_blocks(min_providers=2):
            shared.update(row.providers)
        return shared

    def shared_blocks_between(
        self, provider_a: str, provider_b: str
    ) -> list[str]:
        blocks_a = {r.block for r in self._records if r.provider == provider_a}
        blocks_b = {r.block for r in self._records if r.provider == provider_b}
        return sorted(blocks_a & blocks_b)

    def membership_in(self, prefixes: list[str]) -> dict[str, set[str]]:
        """prefix -> providers with an endpoint inside it.

        Used to check the specific Table 5 prefixes, which are wider than
        the /24 allocation granularity.
        """
        parsed = {prefix: IPv4Network.parse(prefix) for prefix in prefixes}
        result: dict[str, set[str]] = {prefix: set() for prefix in prefixes}
        for record in self._records:
            address = parse_address(record.address)
            if not isinstance(address, IPv4Address):
                continue
            for prefix, network in parsed.items():
                if address in network:
                    result[prefix].add(record.provider)
        return result
