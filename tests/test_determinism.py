"""Determinism tests: the reproduction's headline property.

Two independently built worlds must produce byte-identical audit verdicts,
and the stochastic components must be stable functions of their seeds —
this is what makes the EXPERIMENTS.md numbers re-derivable.
"""

import pytest

# SHA-256 over the golden study archive (seed=2018, providers below,
# max_vantage_points=2), as computed by
# :func:`repro.core.archive.archive_fingerprint`: for every *.json under
# the archive root in sorted order, the relative path bytes, a NUL, the
# file bytes, a NUL.  This value
# was recorded before the hot-path optimisation work and pins the archive
# bit-for-bit: any cache or fast path that changes a single emitted byte —
# an RTT, a capture entry, a verdict — fails this test.  It must only ever
# be updated for an intentional, reviewed output change.
GOLDEN_STUDY_FINGERPRINT = (
    "089be0e16eadd949c1d0e5a81d691eb9381b69e195cc8f4a13df111c83c08a86"
)
GOLDEN_STUDY_PROVIDERS = ["Seed4.me", "PureVPN", "MyIP.io"]


class TestWorldDeterminism:
    def test_identical_audits_across_builds(self):
        from repro.api import build_study
        from repro.core.harness import TestSuite

        def verdict(world):
            suite = TestSuite(world)
            report = suite.audit_provider("Seed4.me")
            return (
                report.injection_detected,
                report.ipv6_leak_detected,
                report.fails_open,
                report.misrepresents_locations,
                [r.hostname for r in report.full_results],
                [
                    sorted(r.ping_traceroute.rtt_vector().items())
                    for r in report.full_results
                ],
            )

        first = verdict(build_study(providers=["Seed4.me"]))
        second = verdict(build_study(providers=["Seed4.me"]))
        assert first == second

    def test_vantage_addresses_stable(self):
        from repro.vpn.catalog import provider_profiles

        a = {
            (p.name, s.hostname): s.address
            for p in provider_profiles()
            for s in p.vantage_points
        }
        b = {
            (p.name, s.hostname): s.address
            for p in provider_profiles()
            for s in p.vantage_points
        }
        assert a == b

    def test_geoip_results_stable(self):
        from repro.geoip import standard_databases

        for database in standard_databases():
            assert database.locate("1.2.3.4", "DE") == database.locate(
                "1.2.3.4", "DE"
            )

    def test_site_documents_stable(self):
        from repro.web.sites import default_catalog, generate_document

        catalog = default_catalog()
        site = catalog.dom_test_sites()[0]
        assert (
            generate_document(site).content_hash()
            == generate_document(site).content_hash()
        )

    def test_parallel_study_is_byte_identical(self, tmp_path):
        """workers=4 must archive byte-identical JSON to workers=1.

        The provider mix deliberately includes PureVPN, whose flaky
        endpoints exercise the connect-retry path, and MyIP.io, whose
        all-virtual vantage points exercise the RTT/geolocation analyses —
        the two places where hidden execution-order state would show up.
        """
        from repro.core.archive import write_study_archive
        from repro.runtime.executor import StudyExecutor

        providers = ["Seed4.me", "PureVPN", "MyIP.io"]

        def archive_bytes(workers: int, label: str) -> dict:
            report = StudyExecutor(
                seed=2018,
                providers=providers,
                max_vantage_points=2,
                workers=workers,
                backend="thread",
            ).run()
            root = tmp_path / label
            write_study_archive(report, root)
            return {
                path.relative_to(root): path.read_bytes()
                for path in sorted(root.rglob("*.json"))
            }

        sequential = archive_bytes(1, "sequential")
        parallel = archive_bytes(4, "parallel")
        assert sequential.keys() == parallel.keys()
        assert sequential == parallel

    @pytest.mark.parametrize(
        "workers,backend",
        [(1, "thread"), (4, "thread"), (4, "process")],
        ids=["sequential", "thread-pool", "process-pool"],
    )
    def test_study_archive_matches_golden_fingerprint(
        self, tmp_path, workers, backend
    ):
        """Every execution backend must reproduce the committed archive.

        The sequential case pins the simulation itself against the
        pre-optimisation output; the pooled cases additionally pin the
        world-snapshot reuse in the executor (each worker audits on a
        pickle-restored clone) and, for processes, that no salted hash or
        derived memo leaks through pickling into the emitted bytes.
        """
        from repro.core.archive import (
            archive_fingerprint,
            write_study_archive,
        )
        from repro.runtime.executor import StudyExecutor

        report = StudyExecutor(
            seed=2018,
            providers=GOLDEN_STUDY_PROVIDERS,
            max_vantage_points=2,
            workers=workers,
            backend=backend,
        ).run()
        root = tmp_path / "archive"
        write_study_archive(report, root)
        assert archive_fingerprint(root) == GOLDEN_STUDY_FINGERPRINT

    def test_study_archive_fingerprint_unchanged_by_observability(
        self, tmp_path
    ):
        """Turning the full obs stack on must not move a single archive byte.

        Tracing, metrics, and the flight recorder read the simulation; the
        golden fingerprint proves they never write to it (no clock skew, no
        extra packets, no perturbed retry schedule).
        """
        from repro.core.archive import (
            archive_fingerprint,
            write_study_archive,
        )
        from repro.obs.config import ObsConfig
        from repro.runtime.executor import StudyExecutor

        report = StudyExecutor(
            seed=2018,
            providers=GOLDEN_STUDY_PROVIDERS,
            max_vantage_points=2,
            obs=ObsConfig(trace=True, metrics=True, flight_recorder=64),
        ).run()
        root = tmp_path / "archive"
        write_study_archive(report, root)
        assert archive_fingerprint(root) == GOLDEN_STUDY_FINGERPRINT

    @pytest.mark.parametrize(
        "workers,backend",
        [(1, "thread"), (4, "thread"), (4, "process")],
        ids=["sequential", "thread-pool", "process-pool"],
    )
    def test_study_archive_fingerprint_unchanged_by_profiler(
        self, tmp_path, workers, backend
    ):
        """The phase profiler must be read-only on every backend.

        Profiling wraps the browser/DNS/TLS/delivery/analysis entry
        points with wall-clock accounting; the golden fingerprint proves
        those wrappers change no behaviour, and the phase *call* counts
        (wall-clock aside) are themselves deterministic across backends.
        Every ``Host.send`` opens a delivery frame, including the nested
        sends a vantage-point server makes when it forwards tunnelled
        traffic.
        """
        from repro.core.archive import (
            archive_fingerprint,
            write_study_archive,
        )
        from repro.obs.config import ObsConfig
        from repro.runtime.executor import StudyExecutor

        executor = StudyExecutor(
            seed=2018,
            providers=GOLDEN_STUDY_PROVIDERS,
            max_vantage_points=2,
            workers=workers,
            backend=backend,
            obs=ObsConfig(profile=True, trace=True, flight_recorder=64),
        )
        report = executor.run()
        root = tmp_path / "archive"
        write_study_archive(report, root)
        assert archive_fingerprint(root) == GOLDEN_STUDY_FINGERPRINT

        snapshot = executor.metrics.snapshot()
        calls = {
            name: value
            for name, value in snapshot["counters"].items()
            if name.startswith("phase.calls.")
        }
        assert calls == {
            "phase.calls.analysis": 1,
            "phase.calls.browser": 4208,
            "phase.calls.delivery": 23082,
            "phase.calls.dns": 4001,
            "phase.calls.tls": 2568,
        }

    def test_stage_profiler_golden_and_counts_across_backends(
        self, tmp_path
    ):
        """Stage profiling must be read-only and count-deterministic.

        Runs the golden study with the per-packet stage profiler on
        across all three backends: every archive must still match the
        golden fingerprint (the stage brackets change no behaviour), and
        the exact stage call counts *and* the deterministically sampled
        frame counts must be byte-identical no matter how units were
        scheduled — the stage-level analogue of the pinned
        ``phase.calls.*`` counters.
        """
        from repro.core.archive import (
            archive_fingerprint,
            write_study_archive,
        )
        from repro.obs.config import ObsConfig
        from repro.obs.stages import STANDARD_STAGES
        from repro.runtime.executor import StudyExecutor

        def stage_counters(workers, backend, label):
            executor = StudyExecutor(
                seed=2018,
                providers=GOLDEN_STUDY_PROVIDERS,
                max_vantage_points=2,
                workers=workers,
                backend=backend,
                obs=ObsConfig(stage_profile=True),
            )
            report = executor.run()
            root = tmp_path / label
            write_study_archive(report, root)
            assert archive_fingerprint(root) == GOLDEN_STUDY_FINGERPRINT
            counters = executor.metrics.snapshot()["counters"]
            return {
                name: value
                for name, value in counters.items()
                if name.startswith(("stage.calls.", "stage.sampled."))
            }

        sequential = stage_counters(1, "thread", "sequential")
        threaded = stage_counters(4, "thread", "threaded")
        processed = stage_counters(4, "process", "processed")
        assert sequential == threaded == processed
        stages = {
            name[len("stage.calls."):]
            for name in sequential
            if name.startswith("stage.calls.")
        }
        assert stages and stages <= set(STANDARD_STAGES)

    @pytest.mark.parametrize(
        "workers,backend,shards",
        [(1, "thread", 3), (4, "thread", 2), (4, "process", 3)],
        ids=["sequential-3shard", "thread-2shard", "process-3shard"],
    )
    def test_sharded_study_matches_golden_fingerprint(
        self, tmp_path, workers, backend, shards
    ):
        """Sharded world construction must reproduce the committed archive.

        Each shard builds a world containing only its provider slice, so
        this pins that audit results are independent of which *other*
        providers exist in the world — the property that makes
        ecosystem-scale sharding sound.
        """
        from repro.core.archive import (
            archive_fingerprint,
            write_study_archive,
        )
        from repro.runtime.executor import StudyExecutor

        report = StudyExecutor(
            seed=2018,
            providers=GOLDEN_STUDY_PROVIDERS,
            max_vantage_points=2,
            workers=workers,
            backend=backend,
            shards=shards,
        ).run()
        root = tmp_path / "archive"
        write_study_archive(report, root)
        assert archive_fingerprint(root) == GOLDEN_STUDY_FINGERPRINT

    def test_generated_study_sharded_equals_unsharded(self, tmp_path):
        """A generated-source study must not depend on shard count.

        Runs the same 8-provider generated ecosystem monolithically and
        split across 3 shards; the archives must be byte-identical.
        """
        from repro.core.archive import (
            archive_fingerprint,
            write_study_archive,
        )
        from repro.runtime.executor import StudyExecutor
        from repro.source import StudySource

        source = StudySource.generated(8, generator_seed=7)

        def fingerprint(shards: int, label: str) -> str:
            report = StudyExecutor(
                seed=2018,
                source=source,
                max_vantage_points=2,
                shards=shards,
            ).run()
            root = tmp_path / label
            write_study_archive(report, root)
            return archive_fingerprint(root)

        assert fingerprint(1, "mono") == fingerprint(3, "sharded")

    def test_ecosystem_seed_sensitivity(self):
        from repro.ecosystem.generate import generate_ecosystem

        default = generate_ecosystem(seed=2018)
        other = generate_ecosystem(seed=99)
        # Calibrated marginals hold for any seed...
        from repro.ecosystem.analysis import EcosystemAnalysis

        for eco in (default, other):
            analysis = EcosystemAnalysis(eco)
            rows = {r.period: r for r in analysis.subscription_table()}
            assert rows["Monthly"].provider_count == 161
            assert analysis.marketing_stats()["affiliate_programs"] == 88
        # ...while per-provider attributes differ.
        assert [p.claimed_server_count for p in default] != [
            p.claimed_server_count for p in other
        ]
