"""StudyConfig API tests: the frozen config object every entry point
takes, its wire round trip, and the report types the entry points return.
"""

import json

import pytest


class TestStudyConfig:
    def test_frozen_and_hashable(self):
        from repro.config import StudyConfig

        config = StudyConfig(providers=["Seed4.me"])
        with pytest.raises(AttributeError):
            config.seed = 1
        assert config == StudyConfig(providers=("Seed4.me",))
        assert hash(config) == hash(StudyConfig(providers=("Seed4.me",)))

    def test_validation(self):
        from repro.config import StudyConfig

        with pytest.raises(ValueError):
            StudyConfig(workers=0)
        with pytest.raises(ValueError):
            StudyConfig(backend="fibers")
        with pytest.raises(ValueError):
            StudyConfig(snapshots=0)
        with pytest.raises(ValueError):
            StudyConfig(max_vantage_points=0)
        with pytest.raises(TypeError):
            StudyConfig(obs={"metrics": True})

    def test_replace_returns_new_config(self):
        from repro.config import StudyConfig

        base = StudyConfig()
        other = base.replace(workers=4, backend="process")
        assert base.workers == 1
        assert (other.workers, other.backend) == (4, "process")

    def test_dict_round_trip_is_stable_and_jsonable(self):
        from repro.codec import from_jsonable, to_jsonable
        from repro.config import StudyConfig
        from repro.obs.config import ObsConfig

        config = StudyConfig(
            seed=7,
            providers=["Seed4.me", "MyIP.io"],
            workers=2,
            checkpoint_dir="out/ck",
            obs=ObsConfig(trace=True, metrics=True, flight_recorder=8),
        )
        data = to_jsonable(config)
        json.dumps(data)  # must be JSON-serialisable as-is
        rebuilt = from_jsonable(StudyConfig, data)
        assert rebuilt == config
        assert to_jsonable(rebuilt) == data
        # Unknown keys (forward compatibility) are ignored.
        data["added_in_future_version"] = True
        assert from_jsonable(StudyConfig, data) == config


class TestStudyReportRoundTrip:
    @pytest.fixture(scope="class")
    def study(self):
        from repro.config import StudyConfig
        from repro.runtime.executor import StudyExecutor

        return StudyExecutor.from_config(
            StudyConfig(providers=["Seed4.me", "MyIP.io"],
                        max_vantage_points=2)
        ).run()

    def test_to_dict_from_dict_round_trip(self, study):
        from repro.codec import from_jsonable, to_jsonable
        from repro.core.harness import StudyReport

        data = to_jsonable(study)
        json.dumps(data)  # stable, JSON-serialisable shape
        rebuilt = from_jsonable(StudyReport, data)
        assert to_jsonable(rebuilt) == data
        assert sorted(rebuilt.providers) == sorted(study.providers)
        for name, report in study.providers.items():
            clone = rebuilt.providers[name]
            assert clone.summary() == report.summary()
            assert clone.to_dict() == report.to_dict()

    def test_all_entry_points_return_same_report_type(self, study):
        from repro.codec import to_jsonable
        from repro.config import StudyConfig
        from repro.core.harness import StudyReport
        from repro.api import run_full_study

        assert isinstance(study, StudyReport)
        via_api = run_full_study(
            StudyConfig(providers=["Seed4.me", "MyIP.io"],
                        max_vantage_points=2)
        )
        assert isinstance(via_api, StudyReport)
        assert to_jsonable(via_api) == to_jsonable(study)


class TestPublicSurface:
    def test_package_reexports(self):
        import repro

        for name in (
            "StudyConfig",
            "StudyReport",
            "run_full_study",
            "run_longitudinal_study",
            "audit_provider",
            "build_study",
            "Tracer",
            "MetricsRegistry",
            "ObsConfig",
            "FlightRecorder",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.does_not_exist
