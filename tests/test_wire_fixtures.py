"""Wire-format pins: every dataclass wire form decodes and re-encodes equal.

``tests/fixtures/wire/`` holds one JSON document per wire form, written
by the hand-written encoders that preceded :mod:`repro.codec` (see the
README there).  Each one must decode through today's code and re-encode
to an equal document, so served reports, durable ``job.json`` records,
ecosystem specs and event streams written before the codec still load.
``plan.json`` is held to more: its re-encoded text must be byte-equal
and its fingerprint unchanged, so older checkpoints still resume.
"""

import json
import pathlib

import pytest

from repro.codec import CodecError, from_jsonable, to_jsonable

WIRE = pathlib.Path(__file__).parent / "fixtures" / "wire"


def _load(name):
    return json.loads((WIRE / name).read_text())


def _codec_pair(cls):
    return (lambda data: from_jsonable(cls, data)), to_jsonable


def _method_pair(cls):
    return cls.from_dict, (lambda obj: obj.to_dict())


def _cases():
    from repro.config import ServeConfig, StudyConfig
    from repro.core.harness import StudyReport
    from repro.runtime.scheduler import LongitudinalReport
    from repro.serve import protocol

    return {
        "study_config.json": _codec_pair(StudyConfig),
        "serve_config.json": _codec_pair(ServeConfig),
        "study_report.json": _codec_pair(StudyReport),
        "longitudinal_report.json": (
            lambda data: from_jsonable(LongitudinalReport, data),
            lambda report: report.to_dict(),
        ),
        "job_request.json": _method_pair(protocol.JobRequest),
        "job.json": _method_pair(protocol.JobRecord),
        "job_record_failed.json": _method_pair(protocol.JobRecord),
        "submit_reply.json": _method_pair(protocol.SubmitReply),
        "job_status_reply.json": _method_pair(protocol.JobStatusReply),
        "error_reply.json": _method_pair(protocol.ErrorReply),
        "events_reply.json": _method_pair(protocol.EventsReply),
        "trace_query_reply.json": _method_pair(protocol.TraceQueryReply),
    }


@pytest.mark.parametrize(
    "name",
    [
        "study_config.json",
        "serve_config.json",
        "study_report.json",
        "longitudinal_report.json",
        "job_request.json",
        "job.json",
        "job_record_failed.json",
        "submit_reply.json",
        "job_status_reply.json",
        "error_reply.json",
        "events_reply.json",
        "trace_query_reply.json",
    ],
)
def test_wire_fixture_round_trips(name):
    decode, encode = _cases()[name]
    data = _load(name)
    assert encode(decode(data)) == data


def test_study_report_fixture_keeps_evidence_and_verdicts():
    from repro.core.harness import StudyReport

    data = _load("study_report.json")
    study = from_jsonable(StudyReport, data)
    (report,) = study.providers.values()
    assert report.evidence_chains()  # the traced run's chains came back
    assert data["providers"][report.provider]["evidence"]
    assert study.summary()  # every verdict property evaluates


def test_job_request_fixture_keeps_its_dedup_fingerprint():
    from repro.serve.protocol import JobRecord

    record = JobRecord.from_dict(_load("job.json"))
    # The job id was minted from the request fingerprint when written.
    assert record.job_id.endswith(record.request.fingerprint()[:8])


def test_event_fixtures_round_trip():
    from repro.runtime.events import event_from_dict, event_to_dict

    for data in _load("events.json"):
        event = event_from_dict(data)
        assert event is not None, data["event"]
        assert event_to_dict(event) == data


def test_ecosystem_spec_fixture_reads_and_rewrites_bytes(tmp_path):
    from repro.source import StudySource

    source = StudySource.from_spec(WIRE / "ecosystem_spec.json")
    written = source.write_spec(tmp_path / "spec.json")
    assert written.read_bytes() == (WIRE / "ecosystem_spec.json").read_bytes()


def test_golden_plan_is_byte_equal_and_keeps_its_fingerprint(tmp_path):
    from repro.runtime.checkpoint import CheckpointStore
    from repro.runtime.units import StudyPlan
    from tests.test_determinism import GOLDEN_STUDY_PROVIDERS

    text = (WIRE / "plan.json").read_text()
    plan = StudyPlan.from_json(text)
    assert plan.to_json() == text
    assert plan.fingerprint() == (
        "seed=2018|max_vps=2|providers="
        + ",".join(sorted(GOLDEN_STUDY_PROVIDERS))
    )
    # A checkpoint written before the codec still opens for the study.
    store = CheckpointStore(tmp_path)
    (tmp_path / "plan.pin").write_text(text)
    assert store.open(plan) == {}
    assert (tmp_path / "plan.pin").read_text() == text


def test_golden_plan_matches_a_fresh_plan():
    from repro.runtime.executor import StudyExecutor
    from tests.test_determinism import GOLDEN_STUDY_PROVIDERS

    executor = StudyExecutor(
        seed=2018, providers=GOLDEN_STUDY_PROVIDERS, max_vantage_points=2
    )
    (spec,) = executor._specs  # a one-shot study is one snapshot
    plan = executor._plan(spec)
    assert plan.to_json() == (WIRE / "plan.json").read_text()


class TestCodecRules:
    def test_check_never_convert(self):
        from repro.config import StudyConfig

        with pytest.raises(CodecError, match=r"^workers: expected int"):
            from_jsonable(StudyConfig, {"workers": 2.5})
        with pytest.raises(CodecError, match=r"^workers: expected int"):
            from_jsonable(StudyConfig, {"workers": True})
        with pytest.raises(CodecError, match=r"providers: expected a list"):
            from_jsonable(StudyConfig, {"providers": "Seed4.me"})

    def test_float_field_keeps_an_int(self):
        from repro.runtime.events import UnitSkipped

        event = from_jsonable(UnitSkipped, {"unit_id": "u", "wall_ms": 12})
        assert type(event.wall_ms) is int
        assert to_jsonable(event) == {"unit_id": "u", "wall_ms": 12}

    def test_error_names_the_dotted_path(self):
        from repro.core.harness import StudyReport

        data = _load("study_report.json")
        (name,) = data["providers"]
        data["providers"][name]["full_results"][0]["tls"]["observations"][
            0
        ]["handshake_ok"] = "yes"
        with pytest.raises(CodecError) as err:
            from_jsonable(StudyReport, data)
        assert str(err.value) == (
            f"providers[{name!r}].full_results[0].tls.observations[0]"
            ".handshake_ok: expected bool, got str"
        )

    def test_missing_keys_take_defaults_unknown_keys_ignored(self):
        from repro.config import StudyConfig

        assert from_jsonable(StudyConfig, {"future": 1}) == StudyConfig()

    def test_missing_required_field_is_named(self):
        from repro.runtime.events import UnitFailed

        with pytest.raises(CodecError, match="^error: required field"):
            from_jsonable(UnitFailed, {"unit_id": "u", "attempts": 1})
