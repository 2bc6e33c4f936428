"""Ecosystem scale-out tests: StudySource, sharding, streaming archives.

The scale-out machinery (parametric provider generation, per-shard world
construction, append-only archives) must be invisible in the output: any
combination of source/shards/stream has to produce the same bytes as the
classic monolithic in-memory path.  These tests pin that, plus the API
redesign around it (StudySource round-trips, config-only entry points,
the protocol edge).
"""

import json
import pathlib
import threading

import pytest

from tests.test_runtime_stop import _stop_after

PROVIDERS = ["Seed4.me", "PureVPN", "MyIP.io"]


def _mono_fingerprint(tmp_path, **kwargs):
    """Archive fingerprint of the classic in-memory path."""
    from repro.core.archive import archive_fingerprint, write_study_archive
    from repro.runtime.executor import StudyExecutor

    report = StudyExecutor(max_vantage_points=2, **kwargs).run()
    root = tmp_path / "mono"
    write_study_archive(report, root)
    return archive_fingerprint(root)


def _sink_outcome(tmp_path, sink, resumed):
    """(fingerprint, bus event type names, phase.calls.*) of one study.

    *sink* picks the storage: ``memory`` is ``run()`` then
    ``write_study_archive``, ``streamed`` one ``run_streamed`` archive,
    ``per-shard`` per-shard archives at ``shards=2`` merged.  *resumed*
    first stops the study through its stop event once 4 of the 9 units
    have committed, and reports the run that resumes from that
    checkpoint: the memory sink's ``checkpoint_dir``, or the archive
    sinks' own archive, re-run into.
    """
    from repro.core.archive import (
        archive_fingerprint,
        merge_archives,
        write_study_archive,
    )
    from repro.obs.config import ObsConfig
    from repro.runtime.events import EventBus
    from repro.runtime.executor import StudyExecutor, StudyInterrupted

    archive = tmp_path / "archive"

    def execute(stop_after=None):
        bus = EventBus()
        events = []
        bus.subscribe(lambda event: events.append(type(event).__name__))
        stop = threading.Event()
        if stop_after is not None:
            _stop_after(bus, stop, units=stop_after)
        executor = StudyExecutor(
            providers=PROVIDERS,
            max_vantage_points=2,
            shards=2 if sink == "per-shard" else 1,
            checkpoint_dir=(
                str(tmp_path / "ckpt") if resumed and sink == "memory"
                else None
            ),
            obs=ObsConfig(profile=True),
            bus=bus,
            stop_event=stop,
        )
        if sink == "memory":
            write_study_archive(executor.run(), archive)
        elif sink == "streamed":
            executor.run_streamed(archive)
        else:
            shards = executor.run_streamed(tmp_path / "shards", per_shard=True)
            merge_archives(shards.shard_dirs, archive)
        counters = executor.metrics.snapshot()["counters"]
        calls = {
            name: value
            for name, value in counters.items()
            if name.startswith("phase.calls.")
        }
        return events, calls

    if resumed:
        with pytest.raises(StudyInterrupted):
            execute(stop_after=4)
    events, calls = execute()
    return archive_fingerprint(archive), events, calls


# ----------------------------------------------------------------------
# StudySource: the redesigned study-input value
# ----------------------------------------------------------------------
class TestStudySource:
    def test_parse_forms(self, tmp_path):
        from repro.source import StudySource

        assert StudySource.parse("catalog") == StudySource.catalog()
        assert StudySource.parse("generated:100") == StudySource.generated(100)
        assert StudySource.parse("generated:100:7:3") == StudySource.generated(
            100, generator_seed=7, vantage_points=3
        )
        assert StudySource.parse("Seed4.me, PureVPN") == StudySource.explicit(
            ["Seed4.me", "PureVPN"]
        )
        spec = StudySource.generated(20, generator_seed=5).write_spec(
            tmp_path / "spec.json"
        )
        assert StudySource.parse(str(spec)) == StudySource.generated(
            20, generator_seed=5
        )

    def test_parse_rejects_garbage(self):
        from repro.source import StudySource

        with pytest.raises(ValueError):
            StudySource.parse("generated:not-a-number")
        with pytest.raises(ValueError):
            StudySource.parse("generated:1:2:3:4")

    def test_validation(self):
        from repro.source import StudySource

        with pytest.raises(ValueError):
            StudySource(kind="nope")
        with pytest.raises(ValueError):
            StudySource.explicit([])
        with pytest.raises(ValueError):
            StudySource.generated(0)
        with pytest.raises(ValueError):
            StudySource.generated(10, vantage_points=0)

    def test_dict_round_trip(self):
        from repro.codec import from_jsonable, to_jsonable
        from repro.source import StudySource

        for source in (
            StudySource.catalog(),
            StudySource.explicit(PROVIDERS),
            StudySource.generated(500, generator_seed=9, vantage_points=6),
        ):
            assert from_jsonable(StudySource, to_jsonable(source)) == source

    def test_spec_round_trip_and_version_gate(self, tmp_path):
        from repro.source import StudySource

        source = StudySource.generated(64, generator_seed=3)
        path = source.write_spec(tmp_path / "eco.json")
        assert StudySource.from_spec(path) == source
        raw = json.loads(path.read_text())
        raw["spec_version"] = 99
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="spec version"):
            StudySource.from_spec(path)

    def test_cache_and_plan_keys(self):
        from repro.source import StudySource

        assert StudySource.catalog().plan_key() is None
        assert StudySource.explicit(["Seed4.me"]).plan_key() is None
        generated = StudySource.generated(10, generator_seed=4)
        assert generated.plan_key() == generated.cache_key()
        # Different parameters -> different identity.
        assert (
            StudySource.generated(10, vantage_points=5).cache_key()
            != generated.cache_key()
        )

    def test_config_round_trip(self):
        from repro.codec import from_jsonable, to_jsonable
        from repro.config import StudyConfig
        from repro.source import StudySource

        config = StudyConfig(
            source=StudySource.generated(300, generator_seed=1),
            shards=4,
        )
        back = from_jsonable(StudyConfig, to_jsonable(config))
        assert back == config
        assert back.source.count == 300
        with pytest.raises(ValueError):
            StudyConfig(providers=["Seed4.me"], source=StudySource.catalog())
        with pytest.raises(ValueError):
            StudyConfig(stream=True)  # stream needs archive_dir


# ----------------------------------------------------------------------
# Parametric provider generation
# ----------------------------------------------------------------------
class TestGeneratedProviders:
    def test_deterministic_and_disjoint(self):
        from repro.ecosystem.generate import GeneratedProviderSource

        a = GeneratedProviderSource(count=40, seed=7)
        b = GeneratedProviderSource(count=40, seed=7)
        assert a.names() == b.names()
        assert len(set(a.names())) == 40
        profiles = a.profiles(a.names()[:5])
        again = b.profiles(b.names()[:5])
        assert [p.name for p in profiles] == [p.name for p in again]
        assert [
            [vp.address for vp in p.vantage_points] for p in profiles
        ] == [[vp.address for vp in p.vantage_points] for p in again]

    def test_shard_names_partition(self):
        from repro.ecosystem.generate import GeneratedProviderSource

        source = GeneratedProviderSource(count=23, seed=2018)
        shards = source.shard_names(4)
        assert len(shards) == 4
        flat = [name for shard in shards for name in shard]
        assert flat == list(source.names())  # contiguous, order-preserving
        sizes = sorted(len(shard) for shard in shards)
        assert sizes[-1] - sizes[0] <= 1  # balanced

    def test_profiles_reject_foreign_names(self):
        from repro.ecosystem.generate import GeneratedProviderSource

        source = GeneratedProviderSource(count=5, seed=7)
        with pytest.raises(KeyError):
            source.profiles(["NotGenerated-9999"])

    def test_generated_world_is_auditable(self):
        from repro.runtime.executor import StudyExecutor
        from repro.source import StudySource
        from repro.world_factory import ShardedWorldFactory

        source = StudySource.generated(6, generator_seed=7)
        names = ShardedWorldFactory.shard_names(source, 2018, 0, 2)
        study = StudyExecutor(
            seed=2018, source=source, shards=2, max_vantage_points=2
        ).run()
        report = study.providers[names[0]]
        assert report.full_results  # the audit actually measured something


# ----------------------------------------------------------------------
# Sharded world factory
# ----------------------------------------------------------------------
class TestShardedWorldFactory:
    def test_shard_worlds_cover_source(self):
        from repro.source import StudySource
        from repro.world_factory import ShardedWorldFactory

        source = StudySource.explicit(PROVIDERS)
        seen = []
        for shard in range(2):
            world = ShardedWorldFactory.clone(2018, source, shard, 2)
            names = ShardedWorldFactory.shard_names(source, 2018, shard, 2)
            for name in names:
                assert name in world.providers
            seen.extend(names)
        # Shards partition the source (catalogue order, not input order).
        assert sorted(seen) == sorted(PROVIDERS)
        assert len(seen) == len(set(seen))

    def test_invalid_shard_rejected(self):
        from repro.source import StudySource
        from repro.world_factory import ShardedWorldFactory

        with pytest.raises(ValueError):
            ShardedWorldFactory.clone(2018, StudySource.catalog(), 2, 2)

    def test_clones_are_isolated(self):
        from repro.source import StudySource
        from repro.world_factory import ShardedWorldFactory

        source = StudySource.generated(4, generator_seed=1)
        first = ShardedWorldFactory.clone(2018, source, 0, 1)
        second = ShardedWorldFactory.clone(2018, source, 0, 1)
        assert first is not second
        assert set(first.providers) == set(second.providers)


# ----------------------------------------------------------------------
# Streaming archives
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def memory_outcome(tmp_path_factory):
    """The memory sink's :func:`_sink_outcome`, once per mode."""
    cache = {}

    def outcome(resumed):
        if resumed not in cache:
            cache[resumed] = _sink_outcome(
                tmp_path_factory.mktemp("memory"), "memory", resumed
            )
        return cache[resumed]

    return outcome


class TestStreamingArchives:
    @pytest.mark.parametrize(
        "resumed", [False, True], ids=["fresh", "resumed"]
    )
    @pytest.mark.parametrize("sink", ["memory", "streamed", "per-shard"])
    def test_streamed_equals_monolithic(
        self, tmp_path, memory_outcome, sink, resumed
    ):
        """The memory and archive sinks differ only in storage.

        Fresh or resumed, every sink gives the in-memory run's archive
        bytes, ordered bus event types and profiled phase calls.
        """
        outcome = (
            memory_outcome(resumed)
            if sink == "memory"
            else _sink_outcome(tmp_path, sink, resumed)
        )
        assert outcome == memory_outcome(resumed)
        assert outcome[0] == memory_outcome(False)[0]
        events = outcome[1]
        assert events[0] == "StudyStarted" and events[-1] == "StudyFinished"
        assert events.count("UnitSkipped") == (4 if resumed else 0)
        assert outcome[2]["phase.calls.analysis"] == 1

    def test_per_shard_merge_is_order_independent(self, tmp_path):
        from repro.core.archive import archive_fingerprint, merge_archives
        from repro.runtime.executor import StudyExecutor
        from repro.source import StudySource

        source = StudySource.explicit(PROVIDERS)
        mono = _mono_fingerprint(tmp_path, providers=PROVIDERS)
        streamed = StudyExecutor(
            source=source, max_vantage_points=2, shards=3
        ).run_streamed(tmp_path / "shards", per_shard=True)
        shard_dirs = [pathlib.Path(d) for d in streamed.shard_dirs]
        assert len(shard_dirs) == 3
        assert sorted(streamed.providers) == sorted(PROVIDERS)
        assert sorted(streamed.verdicts) == sorted(PROVIDERS)

        forward = tmp_path / "merge-forward"
        merge_archives(shard_dirs, forward)
        backward = tmp_path / "merge-backward"
        merge_archives(list(reversed(shard_dirs)), backward)
        assert archive_fingerprint(forward) == mono
        assert archive_fingerprint(backward) == mono
        # The in-memory merged manifest is the one the merge writes.
        assert streamed.manifest == json.loads(
            (forward / "manifest.json").read_text()
        )

    def test_crash_leaves_readable_prefix_and_resumes(self, tmp_path):
        """Kill a streamed study mid-way; the archive prefix must parse and
        a checkpoint resume must complete to the monolithic bytes."""
        from repro.core.archive import (
            archive_fingerprint,
            iter_archive_results,
        )
        from repro.runtime.executor import StudyExecutor, StudyInterrupted

        mono = _mono_fingerprint(tmp_path, providers=PROVIDERS)
        archive = tmp_path / "streamed"

        stop = threading.Event()
        partial = StudyExecutor(
            providers=PROVIDERS,
            max_vantage_points=2,
            stop_event=stop,
        )
        _stop_after(partial.bus, stop, units=2)
        with pytest.raises(StudyInterrupted):
            partial.run_streamed(archive)
        # A stopped run finishes no archive: no manifest, other bytes.
        assert not (archive / "manifest.json").exists()
        assert archive_fingerprint(archive) != mono

        # Every file the interrupted run wrote is complete, parseable JSON
        # (results are written whole; the journal append is the commit).
        prefix = list(iter_archive_results(archive, strict=True))
        assert prefix

        # Simulate a torn write: truncate the journal's final line, as if
        # the process died between the archive file and the checkpoint
        # commit.  The unit re-runs on resume and re-writes the same bytes.
        journal = archive / "units.jsonl"
        text = journal.read_text()
        journal.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])

        resumed = StudyExecutor(
            providers=PROVIDERS,
            max_vantage_points=2,
        ).run_streamed(archive)
        assert archive_fingerprint(archive) == mono
        assert resumed.fingerprint() == mono

    def test_iter_archive_skips_corrupt_tail(self, tmp_path):
        from repro.core.archive import StreamingArchiveWriter
        from repro.core.archive import iter_archive_results
        from repro.runtime.executor import StudyExecutor

        executor = StudyExecutor(providers=PROVIDERS, max_vantage_points=2)
        executor.run_streamed(tmp_path / "a")
        files = sorted((tmp_path / "a").rglob("*.json"))
        assert files
        # Truncate one result file to simulate a torn write.
        victim = next(p for p in files if p.name != "manifest.json")
        victim.write_bytes(victim.read_bytes()[: 10])
        lenient = list(iter_archive_results(tmp_path / "a"))
        assert lenient  # the rest still parses
        with pytest.raises(ValueError):
            list(iter_archive_results(tmp_path / "a", strict=True))
        assert isinstance(
            StreamingArchiveWriter(tmp_path / "b"), StreamingArchiveWriter
        )

    def test_unreadable_committed_unit_is_a_typed_error(self, tmp_path):
        """A committed unit torn under a streamed run fails loudly.

        The tear lands on the 2nd ``UnitFinished``, after the unit's file
        was written and journalled; assembly must name the file and the
        unit instead of turning the unit into connect failures.
        """
        from repro.core.archive import ArchiveReadError
        from repro.runtime import events as ev
        from repro.runtime.executor import StudyExecutor

        archive = tmp_path / "archive"
        victim = archive / "seed4_me" / "nl03_seed4me_net.json"
        finished = []

        def tear(event):
            if isinstance(event, ev.UnitFinished):
                finished.append(event.unit_id)
                if len(finished) == 2:
                    victim.write_bytes(victim.read_bytes()[:10])

        bus = ev.EventBus()
        bus.subscribe(tear, replay=False)
        executor = StudyExecutor(
            providers=["Seed4.me"], max_vantage_points=2, bus=bus
        )
        with pytest.raises(ArchiveReadError) as raised:
            executor.run_streamed(archive)
        assert bus.first_handler_error is None
        assert raised.value.path == victim
        assert raised.value.unit_id == finished[1]
        assert str(victim) in str(raised.value)
        assert finished[1] in str(raised.value)

    def test_generated_process_sharded_streamed(self, tmp_path):
        """The acceptance shape in miniature: generated source, process
        backend, per-shard archives, merged == monolithic."""
        from repro.core.archive import archive_fingerprint, merge_archives
        from repro.runtime.executor import StudyExecutor
        from repro.source import StudySource

        source = StudySource.generated(6, generator_seed=7)
        mono = _mono_fingerprint(tmp_path, source=source)
        streamed = StudyExecutor(
            source=source,
            max_vantage_points=2,
            shards=2,
            workers=2,
            backend="process",
        ).run_streamed(tmp_path / "shards", per_shard=True)
        merged = tmp_path / "merged"
        merge_archives(
            [pathlib.Path(d) for d in streamed.shard_dirs], merged
        )
        assert archive_fingerprint(merged) == mono


# ----------------------------------------------------------------------
# API surface: config routing, config-only entry points, protocol edge
# ----------------------------------------------------------------------
class TestStudyInputApi:
    def test_run_full_study_streams_via_config(self, tmp_path):
        import repro
        from repro.config import StudyConfig

        mono = _mono_fingerprint(tmp_path, providers=PROVIDERS)
        study = repro.run_full_study(
            config=StudyConfig(
                providers=PROVIDERS,
                max_vantage_points=2,
                archive_dir=str(tmp_path / "via-api"),
                stream=True,
            )
        )
        assert type(study).__name__ == "StreamedStudy"
        assert study.fingerprint() == mono
        assert "Streamed study" in study.summary()

    def test_streamed_run_full_study_carries_obs_metrics(self, tmp_path):
        import repro
        from repro.config import StudyConfig
        from repro.obs.config import ObsConfig

        def phase_calls(**stream):
            study = repro.run_full_study(
                config=StudyConfig(
                    providers=["Seed4.me", "PureVPN"],
                    max_vantage_points=1,
                    obs=ObsConfig(profile=True),
                    **stream,
                )
            )
            return {
                name: value
                for name, value in study.obs_metrics["counters"].items()
                if name.startswith("phase.calls.")
            }

        in_memory = phase_calls()
        assert in_memory["phase.calls.analysis"] == 1
        streamed = phase_calls(
            archive_dir=str(tmp_path / "streamed"), stream=True
        )
        assert streamed == in_memory

    def test_explicit_source_equals_providers_kwarg(self, tmp_path):
        from repro.source import StudySource

        assert _mono_fingerprint(
            tmp_path / "a", providers=PROVIDERS
        ) == _mono_fingerprint(
            tmp_path / "b", source=StudySource.explicit(PROVIDERS)
        )

    def test_legacy_keywords_are_a_type_error(self):
        """The entry points take a StudyConfig; the old keywords are gone."""
        from repro import api

        with pytest.raises(TypeError):
            api.run_full_study(seed=7)
        with pytest.raises(TypeError):
            api.audit_provider("Seed4.me", seed=7)
        with pytest.raises(TypeError):
            api.run_longitudinal_study(seed=7)

    def test_streamed_jobs_rejected_at_protocol_edge(self, tmp_path):
        from repro.config import StudyConfig
        from repro.serve.protocol import JobKind, JobRequest, ProtocolError

        config = StudyConfig(
            providers=PROVIDERS,
            archive_dir=str(tmp_path),
            stream=True,
        )
        with pytest.raises(ProtocolError, match="stream"):
            JobRequest(kind=JobKind.STUDY, config=config)

    def test_source_survives_job_round_trip(self):
        from repro.config import StudyConfig
        from repro.serve.protocol import JobRequest, JobKind
        from repro.source import StudySource

        request = JobRequest(
            kind=JobKind.STUDY,
            config=StudyConfig(
                source=StudySource.generated(30, generator_seed=2), shards=3
            ),
        )
        back = JobRequest.from_dict(request.to_dict())
        assert back == request
        assert back.fingerprint() == request.fingerprint()


# ----------------------------------------------------------------------
# CLI: streamed studies report like in-memory ones
# ----------------------------------------------------------------------
class TestStreamedStudyCli:
    ARGS = [
        "study", "--providers", "Seed4.me", "PureVPN", "--max-vps", "1",
        "--stream",
    ]

    def test_stream_profile_prints_phase_table(self, tmp_path, capsys):
        from repro.cli import main

        archive = tmp_path / "archive"
        args = [*self.ARGS, "--archive", str(archive), "--profile"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "phase wall-clock attribution" in out
        assert f"streamed archive at {archive}" in out

    def test_archive_of_another_study_is_one_error_line(
        self, tmp_path, capsys
    ):
        """A streamed archive is its study's checkpoint: another study
        streamed into it, or a second checkpoint beside it, is refused."""
        from repro.cli import main
        from repro.core.archive import archive_fingerprint

        archive = tmp_path / "archive"
        assert main([*self.ARGS, "--archive", str(archive)]) == 0
        before = archive_fingerprint(archive)
        capsys.readouterr()
        for args in (
            ["study", "--providers", "MyIP.io", "--max-vps", "1",
             "--stream", "--archive", str(archive)],
            [*self.ARGS, "--archive", str(archive),
             "--resume", str(tmp_path / "elsewhere")],
        ):
            assert main(args) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            (line,) = [line for line in err.splitlines() if line.strip()]
            assert line.startswith("error: ")
        assert archive_fingerprint(archive) == before
        assert not (tmp_path / "elsewhere").exists()

    def test_interrupt_says_to_rerun_into_the_archive(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.api
        from repro.cli import main
        from repro.runtime.executor import StudyInterrupted

        def interrupted(*args, **kwargs):
            raise StudyInterrupted(completed=1, remaining=2)

        monkeypatch.setattr(repro.api, "run_full_study", interrupted)
        archive = tmp_path / "archive"
        assert main([*self.ARGS, "--archive", str(archive)]) == 128
        err = capsys.readouterr().err
        assert f"re-running with --archive {archive}" in err
        assert "not saved" not in err

    def test_unreadable_unit_is_one_error_line(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.core.archive as archive_module
        from repro.cli import main

        def torn(path):
            raise ValueError("truncated JSON")

        monkeypatch.setattr(
            archive_module, "read_vantage_point_results", torn
        )
        assert main([*self.ARGS, "--archive", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines() if line.strip()]
        assert line.startswith("error: cannot read back unit ")
        assert "truncated JSON" in line
