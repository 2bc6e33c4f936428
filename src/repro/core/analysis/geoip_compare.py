"""Geo-IP database comparison (Section 6.4.1).

Aggregates the per-vantage-point :class:`GeolocationResult` records into the
paper's headline numbers: per database, how many endpoints it had an
estimate for, how often the estimate agreed with the provider's claimed
country, and how the disagreements distribute (about one third of mismatches
resolve to the US in the paper's data).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.codec import from_jsonable, to_jsonable
from repro.core.results import GeolocationResult


@dataclass
class GeoIpComparisonRow:
    """One database's aggregate agreement numbers."""

    database: str
    compared: int = 0            # vantage points fed to the database
    estimates: int = 0           # how many it had an answer for
    agreements: int = 0
    mismatch_countries: Counter = field(default_factory=Counter)

    @property
    def agreement_rate(self) -> float:
        return self.agreements / self.estimates if self.estimates else 0.0

    @property
    def mismatches(self) -> int:
        return self.estimates - self.agreements

    @property
    def us_mismatch_fraction(self) -> float:
        total = sum(self.mismatch_countries.values())
        return self.mismatch_countries.get("US", 0) / total if total else 0.0


@dataclass
class GeoIpComparison:
    """Aggregate geolocation results across the study."""

    _rows: dict[str, GeoIpComparisonRow] = field(
        default_factory=dict, metadata={"key": "rows"}
    )
    providers_affected: set[str] = field(default_factory=set)
    _providers_seen: set[str] = field(
        default_factory=set, metadata={"key": "providers_seen"}
    )

    def ingest(self, provider: str, result: GeolocationResult) -> None:
        self._providers_seen.add(provider)
        for database, estimate in result.estimates.items():
            row = self._rows.setdefault(
                database, GeoIpComparisonRow(database=database)
            )
            row.compared += 1
            if estimate is None:
                # A database with no estimate for a claimed endpoint is
                # itself an inconsistency between sources (the paper:
                # "All VPNs were affected with some form of inconsistency").
                self.providers_affected.add(provider)
                continue
            row.estimates += 1
            if estimate == result.claimed_country:
                row.agreements += 1
            else:
                row.mismatch_countries[estimate] += 1
                self.providers_affected.add(provider)

    def rows(self) -> list[GeoIpComparisonRow]:
        return sorted(self._rows.values(), key=lambda r: r.database)

    def row(self, database: str) -> GeoIpComparisonRow:
        return self._rows[database]

    @property
    def all_providers_affected(self) -> bool:
        """Paper: 'All VPNs were affected with some form of inconsistency.'"""
        return self._providers_seen == self.providers_affected and bool(
            self._providers_seen
        )

    # ------------------------------------------------------------------
    # Serialisation: the rows travel as one list sorted by database
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {**to_jsonable(self), "rows": to_jsonable(self.rows())}

    @classmethod
    def from_dict(cls, data: dict) -> "GeoIpComparison":
        comparison = from_jsonable(cls, {**data, "rows": {}})
        for row in from_jsonable(
            list[GeoIpComparisonRow], data.get("rows", [])
        ):
            comparison._rows[row.database] = row
        return comparison
