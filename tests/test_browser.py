"""Integration tests for the headless browser against the built world."""

import pytest

from repro.web.browser import Browser
from repro.web.sites import HONEYSITE_STATIC


@pytest.fixture()
def browser(small_world):
    return Browser(
        small_world.university,
        small_world.trust_store,
        small_world.chain_registry,
    )


class TestPageLoads:
    def test_plain_http_page(self, browser):
        load = browser.load_page(f"http://{HONEYSITE_STATIC}/")
        assert load.ok
        assert load.document is not None
        assert not load.was_redirected

    def test_https_upgrade_followed(self, small_world, browser):
        upgrading = next(
            s for s in small_world.sites if s.upgrades_https
        )
        load = browser.load_page(upgrading.http_url)
        assert load.ok
        assert load.was_redirected
        assert load.final_url.startswith("https://")

    def test_unknown_host_dns_failure(self, browser):
        load = browser.load_page("http://no-such-host.invalid/")
        assert not load.ok
        assert load.error == "dns-failure"

    def test_document_parsed_on_first_read(self, browser):
        from repro.web.dom import Document

        load = browser.load_page(f"http://{HONEYSITE_STATIC}/")
        assert load.ok and load.final_url
        assert "document" not in vars(load)  # status and URL parse nothing
        assert load.resources
        assert load.document is vars(load)["document"]
        assert load.document == Document.deserialise(load.final_response.body)

    def test_resources_enumerated(self, browser):
        load = browser.load_page(f"http://{HONEYSITE_STATIC}/")
        assert load.resources
        assert all(r.initiator == load.final_url for r in load.resources)

    def test_fetch_does_not_follow_redirects(self, small_world, browser):
        upgrading = next(s for s in small_world.sites if s.upgrades_https)
        result = browser.fetch(upgrading.http_url)
        assert result.ok
        assert result.response.status == 301


class TestTlsProbes:
    def test_valid_handshake(self, small_world, browser):
        domain = small_world.sites.tls_test_sites()[0].domain
        probe = browser.tls_probe(domain)
        assert probe.ok
        assert probe.handshake.validation.valid

    def test_fingerprint_matches_ground_truth(self, small_world, browser):
        domain = small_world.sites.tls_test_sites()[0].domain
        probe = browser.tls_probe(domain)
        expected = small_world.cert_store.chain_for(domain).leaf.fingerprint
        assert probe.handshake.leaf_fingerprint == expected

    def test_unknown_host(self, browser):
        probe = browser.tls_probe("no-such-host.invalid")
        assert not probe.ok
        assert probe.error == "dns-failure"

    def test_ip_literal_resolution_bypasses_dns(self, browser):
        # Block pages with IP-literal URLs must be loadable.
        load = browser.load_page("http://195.175.254.2/")
        assert load.ok
