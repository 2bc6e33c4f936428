"""Tests for vantage-point reliability (§5.2) and the top-level API."""

import pytest

from repro.runtime.executor import StudyExecutor
from repro.vpn.client import TunnelConnectionError, VpnClient


@pytest.fixture()
def world():
    from repro.world import World

    # PureVPN claims Middle East endpoints — the flaky region set.
    return World.build(provider_names=["PureVPN", "Mullvad"])


class TestFlakyEndpoints:
    def test_flaky_regions_match_paper(self):
        from repro.vpn.catalog import build_catalog

        catalog = build_catalog()
        pure = catalog["PureVPN"]
        flaky = {s.claimed_country for s in pure.vantage_points if s.flaky}
        reliable = {
            s.claimed_country for s in pure.vantage_points if not s.flaky
        }
        assert flaky & {"AE", "IL", "SA", "TR", "BR", "AR"}
        assert {"US", "GB", "DE"} <= reliable

    def test_first_connect_to_flaky_endpoint_fails(self, world):
        provider = world.provider("PureVPN")
        flaky_vp = next(
            vp for vp in provider.vantage_points if vp.spec.flaky
        )
        client = VpnClient(world.client, provider)
        with pytest.raises(TunnelConnectionError):
            client.connect(flaky_vp)
        # The retry succeeds (partial re-collection).
        client.connect(flaky_vp)
        assert client.current_vantage_point is flaky_vp
        client.disconnect()

    def test_each_client_counts_its_own_attempts(self):
        """Two worlds' connects to one flaky endpoint, interleaved.

        Each world's first attempt fails and its retry connects, whatever
        the other world did in between (A1, B1, A2, B2).
        """
        from repro.world import World

        clients, endpoints = [], []
        for _ in range(2):
            world = World.build(provider_names=["PureVPN"])
            provider = world.provider("PureVPN")
            endpoints.append(
                next(vp for vp in provider.vantage_points if vp.spec.flaky)
            )
            clients.append(VpnClient(world.client, provider))
        assert endpoints[0].hostname == endpoints[1].hostname
        for client, endpoint in zip(clients, endpoints):
            with pytest.raises(TunnelConnectionError):
                client.connect(endpoint)
        for client, endpoint in zip(clients, endpoints):
            client.connect(endpoint)
            assert client.current_vantage_point is endpoint
            client.disconnect()

    def test_reliable_endpoint_connects_first_time(self, world):
        provider = world.provider("Mullvad")
        vp = next(vp for vp in provider.vantage_points if not vp.spec.flaky)
        client = VpnClient(world.client, provider)
        client.connect(vp)  # must not raise
        client.disconnect()

    def test_harness_retries_transparently(self, world):
        executor = StudyExecutor(seed=2018, providers=["PureVPN"])
        report = executor.run().providers["PureVPN"]
        # Every vantage point ends up measured despite flaky endpoints...
        total = len(report.full_results) + len(report.sweep_results)
        assert total == len(world.provider("PureVPN").vantage_points)
        assert all(
            r.connected for r in report.full_results + report.sweep_results
        )
        # ...at the cost of recorded reconnects.
        assert executor.stats.connect_retries > 0


class TestTopLevelApi:
    def test_build_study_subset(self):
        from repro.api import build_study

        world = build_study(providers=["Mullvad"])
        assert list(world.providers) == ["Mullvad"]

    def test_audit_provider_roundtrip(self):
        from repro import audit_provider

        report = audit_provider("MyIP.io")
        assert report.provider == "MyIP.io"
        assert report.misrepresents_locations

    def test_audit_provider_carries_the_study_metrics(self):
        from repro import ObsConfig, StudyConfig, audit_provider, run_full_study

        def deterministic(snapshot):
            # Wall-time histograms vary run to run; their counts do not.
            counts = {
                name: histogram["count"]
                for name, histogram in snapshot["histograms"].items()
            }
            return snapshot["counters"], counts

        config = StudyConfig(max_vantage_points=1, obs=ObsConfig(metrics=True))
        report = audit_provider("Seed4.me", config=config)
        study = run_full_study(config.replace(providers=["Seed4.me"]))
        assert deterministic(report.obs_metrics) == deterministic(
            study.obs_metrics
        )

    def test_version_exported(self):
        import repro

        assert repro.__version__
        assert repro.audit_provider is not None
        assert repro.run_full_study is not None
