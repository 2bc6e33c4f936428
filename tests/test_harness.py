"""Tests for the test-suite harness and reports."""

import pytest

from repro.core.harness import TestSuite


class TestGroundTruth:
    def test_pages_cached(self, small_world, small_suite):
        first = small_suite.ground_truth_pages()
        second = small_suite.ground_truth_pages()
        assert first is second
        assert len(first) == 55

    def test_certificates_cover_tls_set(self, small_world, small_suite):
        certs = small_suite.ground_truth_certificates()
        assert len(certs) == len(small_world.sites.tls_test_sites())


class TestSelection:
    def test_caps_at_budget(self, small_world, small_suite):
        provider = small_world.provider("Freedome VPN")
        selected = small_suite.select_vantage_points(provider)
        assert len(selected) == 5

    def test_small_provider_fully_selected(self, small_world, small_suite):
        provider = small_world.provider("MyIP.io")
        selected = small_suite.select_vantage_points(provider)
        assert len(selected) == len(provider.vantage_points)

    def test_selection_geographically_diverse(self, small_world, small_suite):
        provider = small_world.provider("Freedome VPN")
        selected = small_suite.select_vantage_points(provider)
        countries = {vp.claimed_country for vp in selected}
        assert len(countries) >= 4

    def test_sensitive_countries_prioritised(self):
        from repro.world import World

        world = World.build(provider_names=["PureVPN"])
        suite = TestSuite(world)
        selected = suite.select_vantage_points(world.provider("PureVPN"))
        countries = {vp.claimed_country for vp in selected}
        assert "TR" in countries
        assert "RU" in countries

    def test_unlimited_budget(self, small_world):
        suite = TestSuite(small_world, max_vantage_points=None)
        provider = small_world.provider("Freedome VPN")
        assert len(suite.select_vantage_points(provider)) == len(
            provider.vantage_points
        )


@pytest.fixture(scope="module")
def reports(small_world):
    """Provider name -> report, from one study of the small world's mix."""
    from repro.api import run_full_study
    from repro.config import StudyConfig

    study = run_full_study(StudyConfig(providers=list(small_world.providers)))
    return study.providers


class TestProviderReports:
    def test_seed4me_report_verdicts(self, reports):
        report = reports["Seed4.me"]
        assert report.injection_detected
        assert report.ipv6_leak_detected
        assert not report.dns_leak_detected
        assert report.fails_open
        assert not report.misrepresents_locations
        assert not report.proxy_detected
        assert not report.tls_interception_detected

    def test_mullvad_clean(self, reports):
        report = reports["Mullvad"]
        assert not report.injection_detected
        assert not report.ipv6_leak_detected
        assert not report.dns_leak_detected
        assert report.fails_open is False
        assert not report.misrepresents_locations

    def test_acevpn_openvpn_client_skips_leak_tests(self, reports):
        report = reports["AceVPN"]
        # OpenVPN-config services get no client leak tests (Section 6.5).
        assert report.fails_open is None
        for results in report.full_results:
            assert results.dns_leakage is None
            assert results.ipv6_leakage is None
            assert results.tunnel_failure is None
        # But the proxy detection still runs — and fires for AceVPN.
        assert report.proxy_detected

    def test_myip_misrepresentation(self, reports):
        report = reports["MyIP.io"]
        assert report.misrepresents_locations
        clusters = report.colocation.cross_country_clusters
        flattened = {h for cluster in clusters for h in cluster}
        assert flattened == {
            "us.myip.io", "fr.myip.io", "be.myip.io", "de.myip.io",
            "fi.myip.io",
        }

    def test_summary_text_readable(self, reports):
        report = reports["Seed4.me"]
        text = report.summary()
        assert "Seed4.me" in text
        assert "DETECTED" in text

    def test_sweep_covers_remaining_vantage_points(self, reports, small_world):
        report = reports["Freedome VPN"]
        provider = small_world.provider("Freedome VPN")
        assert (
            len(report.full_results) + len(report.sweep_results)
            == len(provider.vantage_points)
        )
        # Sweep results carry only the lightweight probes.
        for results in report.sweep_results:
            assert results.ping_traceroute is not None
            assert results.geolocation is not None
            assert results.dom_collection is None

    def test_results_serialise_to_json(self, reports):
        import json

        report = reports["MyIP.io"]
        payload = report.full_results[0].to_json()
        decoded = json.loads(payload)
        assert decoded["provider"] == "MyIP.io"
        assert "ping_traceroute" in decoded
