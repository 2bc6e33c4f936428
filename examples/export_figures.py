#!/usr/bin/env python3
"""Export figure data as CSV files.

Regenerates the series behind the paper's figures and writes them as CSVs
to an output directory, for plotting with any external tool:

- fig1_business_locations.csv  (country, providers)
- fig2_server_count_cdf.csv    (servers, cumulative_fraction)
- fig4_payment_methods.csv     (method, providers)
- fig5_protocols.csv           (protocol, providers)
- fig9_<provider>.csv          (one ordered RTT series per vantage point)

Run:
    python examples/export_figures.py [output-dir]
"""

import csv
import pathlib
import sys

from repro import StudyConfig, run_full_study
from repro.ecosystem import EcosystemAnalysis, generate_ecosystem

FIG9_PROVIDERS = ["MyIP.io", "Le VPN"]


def export_ecosystem_figures(out: pathlib.Path) -> None:
    analysis = EcosystemAnalysis(generate_ecosystem())

    with (out / "fig1_business_locations.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["country", "providers"])
        for country, count in sorted(
            analysis.business_location_distribution().items()
        ):
            writer.writerow([country, count])

    with (out / "fig2_server_count_cdf.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["servers", "cumulative_fraction"])
        for servers, fraction in analysis.server_count_cdf():
            writer.writerow([servers, f"{fraction:.4f}"])

    with (out / "fig4_payment_methods.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "providers"])
        for method, count in analysis.payment_method_counts().most_common():
            writer.writerow([method, count])

    with (out / "fig5_protocols.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["protocol", "providers"])
        for protocol, count in analysis.protocol_counts().most_common():
            writer.writerow([protocol, count])


def export_fig9(out: pathlib.Path) -> None:
    study = run_full_study(StudyConfig(providers=FIG9_PROVIDERS))
    for name in FIG9_PROVIDERS:
        report = study.providers[name]
        slug = name.lower().replace(" ", "").replace(".", "")
        path = out / f"fig9_{slug}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["vantage_point", "rank", "rtt_ms"])
            for results in report.full_results + report.sweep_results:
                if results.ping_traceroute is None:
                    continue
                series = sorted(
                    results.ping_traceroute.rtt_vector().values()
                )
                for rank, rtt in enumerate(series):
                    writer.writerow([results.hostname, rank, f"{rtt:.3f}"])
        print(f"  wrote {path}")


def main() -> None:
    out = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "figure-data")
    out.mkdir(parents=True, exist_ok=True)
    print(f"Exporting figure data to {out}/")
    export_ecosystem_figures(out)
    for name in ("fig1_business_locations", "fig2_server_count_cdf",
                 "fig4_payment_methods", "fig5_protocols"):
        print(f"  wrote {out / (name + '.csv')}")
    export_fig9(out)


if __name__ == "__main__":
    main()
