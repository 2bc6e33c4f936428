"""Ablation — co-location detector thresholds.

The virtual-location analysis has two tunables: the cluster spread (how
constant the RTT-vector offset must be to call two endpoints co-located)
and the light-speed margin. This bench sweeps both against the catalogue's
ground truth (virtual vs honest endpoints) and reports precision/recall,
demonstrating that the defaults sit on a plateau rather than a cliff.
"""

import pytest

from repro.core.analysis.colocation import ColocationAnalysis


@pytest.fixture(scope="module")
def evidence_by_provider():
    """Ping evidence + ground truth for a mixed provider set."""
    from repro.api import build_study, run_full_study
    from repro.config import StudyConfig

    names = ["MyIP.io", "Avira", "Le VPN", "VPNUK", "Mullvad", "NordVPN",
             "Freedom IP"]
    world = build_study(providers=names)
    study = run_full_study(StudyConfig(providers=names))
    bundle = {}
    for name, provider in world.providers.items():
        report = study.providers[name]
        anchor_locations = {
            a.address: a.location for a in world.anchors
        }
        from repro.core.analysis.colocation import VantagePointEvidence

        evidence = []
        truth = {}
        by_hostname = {vp.hostname: vp for vp in provider.vantage_points}
        for results in report.full_results + report.sweep_results:
            if results.ping_traceroute is None:
                continue
            vp = by_hostname[results.hostname]
            evidence.append(
                VantagePointEvidence(
                    provider=name,
                    hostname=results.hostname,
                    claimed_country=results.claimed_country,
                    claimed_location=vp.claimed_location,
                    rtt_vector=results.ping_traceroute.rtt_vector(),
                    anchor_locations=anchor_locations,
                    tunnel_base_rtt_ms=(
                        results.ping_traceroute.tunnel_base_rtt_ms
                    ),
                )
            )
            truth[results.hostname] = vp.is_virtual
        bundle[name] = (evidence, truth)
    return bundle


def sweep_margins(bundle, margins):
    """precision/recall of the light-speed detector per margin."""
    outcomes = {}
    for margin in margins:
        analysis = ColocationAnalysis(violation_margin_ms=margin)
        tp = fp = fn = 0
        for name, (evidence, truth) in bundle.items():
            report = analysis.analyse_provider(evidence)
            flagged = report.suspect_hostnames
            for hostname, is_virtual in truth.items():
                if hostname in flagged and is_virtual:
                    tp += 1
                elif hostname in flagged and not is_virtual:
                    fp += 1
                elif hostname not in flagged and is_virtual:
                    fn += 1
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        outcomes[margin] = (precision, recall)
    return outcomes


def test_light_speed_margin_plateau(benchmark, evidence_by_provider):
    margins = [0.1, 0.5, 2.0, 5.0]
    outcomes = benchmark(sweep_margins, evidence_by_provider, margins)
    print("\nmargin(ms)  precision  recall")
    for margin, (precision, recall) in outcomes.items():
        print(f"  {margin:6.1f}    {precision:9.2f}  {recall:6.2f}")
    # Perfect precision at every margin (honest endpoints are never
    # flagged), and high recall across the plateau; recall may only
    # degrade as the margin grows.
    for margin, (precision, recall) in outcomes.items():
        assert precision == 1.0, margin
    assert outcomes[0.5][1] >= 0.85
    recalls = [outcomes[m][1] for m in margins]
    assert all(a >= b for a, b in zip(recalls, recalls[1:]))


def sweep_spread(bundle, spreads):
    """Cross-country cluster counts per spread threshold."""
    outcomes = {}
    for spread in spreads:
        analysis = ColocationAnalysis(cluster_spread_ms=spread)
        false_merges = 0
        detected = 0
        for name, (evidence, truth) in bundle.items():
            report = analysis.analyse_provider(evidence)
            for cluster in report.cross_country_clusters:
                virtual_members = [h for h in cluster if truth.get(h)]
                if virtual_members:
                    detected += 1
                else:
                    false_merges += 1
        outcomes[spread] = (detected, false_merges)
    return outcomes


def test_cluster_spread_sensitivity(benchmark, evidence_by_provider):
    spreads = [0.5, 1.5, 4.0, 10.0]
    outcomes = benchmark(sweep_spread, evidence_by_provider, spreads)
    print("\nspread(ms)  true-clusters  false-merges")
    for spread, (detected, false_merges) in outcomes.items():
        print(f"  {spread:6.1f}    {detected:12d}  {false_merges:12d}")
    # The default (1.5 ms, the paper's figure) finds the true clusters
    # without false cross-country merges.
    detected_default, false_default = outcomes[1.5]
    assert detected_default >= 4
    assert false_default == 0
    # An absurdly loose threshold starts merging distinct cities.
    assert outcomes[10.0][1] >= outcomes[1.5][1]
