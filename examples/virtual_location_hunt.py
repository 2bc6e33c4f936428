#!/usr/bin/env python3
"""Virtual-location hunt: reproduce the Section 6.4.2 analysis.

Sweeps every vantage point of the providers known (or suspected) to run
'virtual' locations, collects their RTT vectors to the 50 anchor hosts,
and prints both kinds of evidence the paper uses:

- light-speed violations: the VP answers some anchor faster than physics
  allows from its *claimed* location (after subtracting the client->VP
  tunnel leg);
- RTT-vector clustering: endpoints claiming different countries whose
  per-anchor RTTs differ by a near-constant offset are the same machine
  room (Figure 9).

Run:
    python examples/virtual_location_hunt.py [provider ...]
"""

import sys

from repro import StudyConfig, run_full_study

DEFAULT_TARGETS = ["MyIP.io", "Avira", "Le VPN", "VPNUK", "Mullvad"]


def main() -> None:
    targets = sys.argv[1:] or DEFAULT_TARGETS
    study = run_full_study(StudyConfig(providers=targets))

    for name in targets:
        report = study.providers[name]
        colocation = report.colocation
        verdict = (
            "MISREPRESENTS LOCATIONS"
            if report.misrepresents_locations
            else "locations check out"
        )
        print(f"\n=== {name}: {verdict} ===")

        if colocation.violations:
            print("  light-speed violations (worst per endpoint):")
            worst: dict[str, tuple[float, float]] = {}
            for violation in colocation.violations:
                current = worst.get(violation.hostname)
                margin = violation.physical_floor_ms - violation.observed_rtt_ms
                if current is None or margin > current[0]:
                    worst[violation.hostname] = (
                        margin,
                        violation.observed_rtt_ms,
                    )
            for hostname, (margin, observed) in sorted(worst.items()):
                print(f"    {hostname:28s} answers {observed:6.1f} ms — "
                      f"{margin:6.1f} ms faster than physically possible "
                      f"from its claimed location")

        for cluster in colocation.cross_country_clusters:
            countries = sorted(
                {colocation.claimed_country_of[h] for h in cluster}
            )
            print(f"  co-located cluster claiming {countries}: {cluster}")


if __name__ == "__main__":
    main()
