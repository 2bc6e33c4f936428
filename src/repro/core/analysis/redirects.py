"""URL-redirection classification (Section 6.1.1, Table 4).

A page load is a *suspicious redirect* when one or more HTTP redirects lead
to a host unrelated to the requested one (different registered domain, after
allowing same-label cross-suffix pairs).  Grouping the suspicious redirects
by destination reproduces Table 4: every destination in the paper's data is
a national block page, reached only from endpoints in the censoring country.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.core.results import DomCollectionResult
from repro.web.url import Url, urls_related


@dataclass(frozen=True)
class SuspiciousRedirect:
    """One cross-domain redirect observation."""

    provider: str
    vantage_country: str
    requested_url: str
    destination_origin: str


@dataclass
class RedirectRow:
    """One Table 4 row: a destination and the VPNs that hit it."""

    destination: str
    providers: set[str] = field(default_factory=set)
    countries: set[str] = field(default_factory=set)

    @property
    def vpn_count(self) -> int:
        return len(self.providers)


@dataclass
class RedirectAnalysis:
    """Aggregate suspicious redirects across the whole study."""

    observations: list[SuspiciousRedirect] = field(default_factory=list)

    def ingest(
        self,
        provider: str,
        vantage_country: str,
        dom_result: DomCollectionResult,
    ) -> None:
        for page in dom_result.pages:
            if len(page.redirect_chain) < 2:
                continue
            requested = page.redirect_chain[0]
            final = page.redirect_chain[-1]
            try:
                related = urls_related(requested, final)
            except ValueError:
                continue
            if related:
                continue
            self.observations.append(
                SuspiciousRedirect(
                    provider=provider,
                    vantage_country=vantage_country,
                    requested_url=requested,
                    destination_origin=Url.parse(final).origin,
                )
            )

    def table(self) -> list[RedirectRow]:
        """Table 4: destinations with provider counts, most-hit first."""
        rows: dict[str, RedirectRow] = {}
        for obs in self.observations:
            row = rows.setdefault(
                obs.destination_origin, RedirectRow(destination=obs.destination_origin)
            )
            row.providers.add(obs.provider)
            row.countries.add(obs.vantage_country)
        return sorted(
            rows.values(), key=lambda r: (-r.vpn_count, r.destination)
        )

    def providers_with_redirects(self) -> set[str]:
        return {obs.provider for obs in self.observations}
