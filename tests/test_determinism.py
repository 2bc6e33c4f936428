"""Determinism tests: the reproduction's headline property.

Two independently built worlds must produce byte-identical audit verdicts,
and the stochastic components must be stable functions of their seeds —
this is what makes the EXPERIMENTS.md numbers re-derivable.
"""

import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

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
# Profiler call counts of that golden study: pure functions of the study,
# identical on every backend.  Stage sampling uses the default
# ``stage_sample=8``.
GOLDEN_PHASE_CALLS = {
    "phase.calls.analysis": 1,
    "phase.calls.browser": 4208,
    "phase.calls.delivery": 23082,
    "phase.calls.dns": 4001,
    "phase.calls.tls": 2568,
}
GOLDEN_STAGE_COUNTS = {
    "stage.calls.capture": 49514,
    "stage.calls.dispatch": 20782,
    "stage.calls.encap": 13396,
    "stage.calls.firewall": 27516,
    "stage.calls.latency": 23038,
    "stage.calls.route": 23082,
    "stage.calls.send": 23082,
    "stage.sampled.capture": 6195,
    "stage.sampled.dispatch": 2739,
    "stage.sampled.encap": 1670,
    "stage.sampled.firewall": 3442,
    "stage.sampled.latency": 3012,
    "stage.sampled.route": 3020,
    "stage.sampled.send": 3020,
}
# The golden study's cost: the calls its units make into repro's own
# code, run inline (``workers=1``, ``obs=ObsConfig()``).  Wall time on a
# shared machine measures the host; this count is exact under every hash
# seed, so work added to or removed from a unit moves it by exactly that
# work.  It differs between CPython minor versions (3.12 inlines
# comprehensions), so the base count has one pin per minor version.  A
# change that moves a count updates its pin here, and CHANGES.md records
# the old and new values and why they moved.
GOLDEN_UNIT_CALLS = {
    (3, 10): 1_582_369,
    (3, 11): 1_582_369,
    (3, 12): 1_559_884,
    (3, 13): 1_556_137,
}
# The calls each profiler adds to that count, the same on every version.
GOLDEN_PROFILER_CALLS = {"profile": 199_027, "stage_profile": 536_781}

# Runs in a fresh interpreter (``python -c``), because lazy imports and
# process-wide caches warmed by earlier tests would change the count.  A
# profile hook armed around ``TestSuite.run_unit`` counts ``call`` events
# in code under the ``repro`` package or in ``<string>``: the methods
# ``dataclasses`` generates for repro's records, and the functions
# defined here.  Standard-library frames are left out, because their
# number differs between interpreters.  ``wrap_deliver`` routes every
# ``Internet.deliver`` through one more ``<string>`` function, and counts
# the deliveries made while the hook is armed.
_COUNT_UNIT_CALLS = r"""
import json, os, sys

import repro
from repro.core.harness import TestSuite
from repro.net.internet import Internet
from repro.obs.config import ObsConfig
from repro.runtime.executor import StudyExecutor

spec = json.loads(sys.argv[1])
package = os.path.dirname(repro.__file__) + os.sep
own = {}
calls = deliveries = 0


def hook(frame, event, arg):
    global calls
    if event == "call":
        filename = frame.f_code.co_filename
        mine = own.get(filename)
        if mine is None:
            mine = own[filename] = (
                filename == "<string>" or filename.startswith(package)
            )
        calls += mine


run_unit = TestSuite.run_unit


def counted_run_unit(suite, unit):
    sys.setprofile(hook)
    try:
        return run_unit(suite, unit)
    finally:
        sys.setprofile(None)


TestSuite.run_unit = counted_run_unit
if spec["wrap_deliver"]:
    deliver = Internet.deliver

    def wrapped_deliver(self, packet, source):
        global deliveries
        deliveries += sys.getprofile() is not None
        return deliver(self, packet, source)

    Internet.deliver = wrapped_deliver
StudyExecutor(
    seed=2018,
    providers=spec["providers"],
    max_vantage_points=spec["max_vps"],
    workers=1,
    obs=ObsConfig(**spec["obs"]),
).run()
print(json.dumps({"calls": calls, "deliveries": deliveries}))
"""


@functools.lru_cache(maxsize=None)
def _unit_calls(
    obs: str = "",
    providers: tuple = tuple(GOLDEN_STUDY_PROVIDERS),
    max_vps: int = 2,
    wrap_deliver: bool = False,
) -> dict:
    """``{"calls", "deliveries"}`` of one inline study in a fresh process;
    *obs* names the one ``ObsConfig`` flag to set, if any."""
    spec = {
        "providers": list(providers),
        "max_vps": max_vps,
        "obs": {obs: True} if obs else {},
        "wrap_deliver": wrap_deliver,
    }
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    child = subprocess.run(
        [sys.executable, "-c", _COUNT_UNIT_CALLS, json.dumps(spec)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def _moved(what: str, measured: int, pin: int) -> str:
    return (
        f"{what}: measured {measured:,} calls, pinned {pin:,} "
        f"({measured - pin:+,}); a change that moves the count updates "
        f"its pin and records both values in CHANGES.md"
    )


class TestWorldDeterminism:
    def test_identical_audits_across_builds(self):
        from repro.api import audit_provider

        def verdict(report):
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

        first = verdict(audit_provider("Seed4.me"))
        second = verdict(audit_provider("Seed4.me"))
        assert first == second

    def test_audit_provider_writes_the_study_bytes(self, tmp_path):
        """A one-provider audit is that provider's study, byte for byte.

        NordVPN's archived sweep RTTs depend on ``run_unit`` resetting the
        clock, DNS txids and ephemeral ports before every unit.
        """
        from repro.api import audit_provider, run_full_study
        from repro.config import StudyConfig
        from repro.core.archive import (
            archive_fingerprint,
            write_provider_archive,
        )

        audited = write_provider_archive(
            audit_provider("NordVPN"), tmp_path / "audit"
        )
        study = run_full_study(StudyConfig(providers=["NordVPN"]))
        studied = write_provider_archive(
            study.providers["NordVPN"], tmp_path / "study"
        )
        assert archive_fingerprint(audited) == archive_fingerprint(studied)

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

        Tracing and metrics read the simulation; the golden fingerprint
        proves they never write to it (no clock skew, no extra packets, no
        perturbed retry schedule).
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
            obs=ObsConfig(trace=True, metrics=True),
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
            obs=ObsConfig(profile=True, trace=True),
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
        assert calls == GOLDEN_PHASE_CALLS

    def test_stage_profiler_golden_and_counts_across_backends(
        self, tmp_path
    ):
        """Stage profiling must be read-only and count-deterministic.

        Runs the golden study with stage frames on across all three
        backends: every archive must still match the golden fingerprint
        (the stage brackets change no behaviour), and the exact stage
        call counts *and* the deterministically sampled frame counts
        must equal the golden pins no matter how units were scheduled.
        Stage profiling implies phase frames, so the ``phase.calls.*``
        pins hold here too.
        """
        from repro.core.archive import (
            archive_fingerprint,
            write_study_archive,
        )
        from repro.obs.config import ObsConfig
        from repro.runtime.executor import StudyExecutor

        for workers, backend in [(1, "thread"), (4, "thread"), (4, "process")]:
            executor = StudyExecutor(
                seed=2018,
                providers=GOLDEN_STUDY_PROVIDERS,
                max_vantage_points=2,
                workers=workers,
                backend=backend,
                obs=ObsConfig(stage_profile=True),
            )
            report = executor.run()
            root = tmp_path / f"{backend}-{workers}"
            write_study_archive(report, root)
            assert archive_fingerprint(root) == GOLDEN_STUDY_FINGERPRINT
            counters = executor.metrics.snapshot()["counters"]
            assert {
                name: value
                for name, value in counters.items()
                if name.startswith(("stage.calls.", "stage.sampled."))
            } == GOLDEN_STAGE_COUNTS, (workers, backend)
            assert {
                name: value
                for name, value in counters.items()
                if name.startswith("phase.calls.")
            } == GOLDEN_PHASE_CALLS, (workers, backend)

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


class TestUnitCallCount:
    """The golden study's cost, gated as an exact number of calls."""

    def test_golden_units_make_the_pinned_number_of_calls(self):
        measured = _unit_calls()["calls"]
        version = sys.version_info[:2]
        if version not in GOLDEN_UNIT_CALLS:
            pytest.skip(
                f"no pin for Python {version[0]}.{version[1]}: "
                f"measured {measured:,} calls"
            )
        pin = GOLDEN_UNIT_CALLS[version]
        assert measured == pin, _moved("golden units", measured, pin)

    @pytest.mark.parametrize("obs", sorted(GOLDEN_PROFILER_CALLS))
    def test_profiler_adds_the_pinned_number_of_calls(self, obs):
        added = _unit_calls(obs)["calls"] - _unit_calls()["calls"]
        pin = GOLDEN_PROFILER_CALLS[obs]
        assert added == pin, _moved(f"ObsConfig({obs}=True)", added, pin)

    def test_one_more_call_per_delivery_moves_the_count(self):
        """The gate can fail: one added call per delivery adds exactly
        that many calls to the count."""
        small = {"providers": ("Seed4.me",), "max_vps": 1}
        plain = _unit_calls(**small)
        wrapped = _unit_calls(**small, wrap_deliver=True)
        assert wrapped["deliveries"] > 0
        assert wrapped["calls"] - plain["calls"] == wrapped["deliveries"]
