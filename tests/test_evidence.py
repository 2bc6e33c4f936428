"""Evidence-chain tests: every verdict in a traced study is explainable.

The contract (DESIGN.md § Explainability): when a study runs with tracing
enabled, each leakage/interception verdict carries an
:class:`~repro.obs.evidence.EvidenceChain` whose span IDs resolve against
the emitted trace; the chains travel through ``ProviderReport.to_dict``
but never into the archived per-vantage-point JSON (whose bytes are
pinned by the golden fingerprint in test_determinism.py).
"""

import json

import pytest

#: verdict-bearing test field -> predicate that says "this VP was flagged".
FLAG_PREDICATES = {
    "dns_leakage": lambda r: r.leaked,
    "ipv6_leakage": lambda r: r.leaked,
    "webrtc": lambda r: r.leaked,
    "tunnel_failure": lambda r: r.fails_open,
    "tls": lambda r: r.interception_detected or r.downgrade_detected,
    "proxy": lambda r: r.proxy_detected,
    "dns_manipulation": lambda r: r.manipulated,
    "dom_collection": lambda r: r.injection_detected,
}


@pytest.fixture(scope="module")
def traced_study():
    from repro.obs.config import ObsConfig
    from repro.runtime.executor import StudyExecutor

    executor = StudyExecutor(
        seed=2018,
        providers=["Seed4.me"],
        max_vantage_points=2,
        workers=1,
        backend="thread",
        obs=ObsConfig(trace=True),
    )
    report = executor.run()
    return report.providers["Seed4.me"], executor.trace_records


class TestEvidenceChains:
    def test_every_flagged_verdict_carries_a_nonempty_chain(
        self, traced_study
    ):
        report, _ = traced_study
        flagged = 0
        for results in report.full_results:
            chains = results.evidence_chains()
            for name, predicate in FLAG_PREDICATES.items():
                result = getattr(results, name)
                if result is None or not predicate(result):
                    continue
                flagged += 1
                chain = chains.get(name)
                assert chain is not None, (
                    f"{results.hostname}/{name} flagged without evidence"
                )
                assert chain.links or chain.notes
                assert chain.verdict == name or chain.verdict
                assert chain.vantage == results.hostname
        # Seed4.me is one of the misbehaving catalogue providers; the
        # study must actually have flagged something for this test to
        # mean anything.
        assert flagged > 0

    def test_all_span_ids_resolve_in_the_trace(self, traced_study):
        report, trace_records = traced_study
        span_ids = {r.get("span_id") for r in trace_records}
        checked = 0
        for chains in report.evidence_chains().values():
            for chain in chains.values():
                for span in chain.span_ids:
                    checked += 1
                    assert span in span_ids
                resolved = chain.resolve(trace_records)
                assert all(
                    record is not None for record in resolved.values()
                )
        assert checked > 0

    def test_test_span_anchors_match_test_records(self, traced_study):
        report, trace_records = traced_study
        by_span = {r.get("span_id"): r for r in trace_records}
        for chains in report.evidence_chains().values():
            for name, chain in chains.items():
                anchor = by_span[chain.test_span_id]
                assert anchor["kind"] == "test"

    def test_report_dict_round_trip_preserves_evidence(self, traced_study):
        from repro.core.harness import ProviderReport

        report, _ = traced_study
        data = report.to_dict()
        assert data.get("evidence")
        rebuilt = ProviderReport.from_dict(
            json.loads(json.dumps(data, sort_keys=True))
        )
        from repro.codec import to_jsonable

        original = {
            host: {name: to_jsonable(chain) for name, chain in chains.items()}
            for host, chains in report.evidence_chains().items()
        }
        restored = {
            host: {name: to_jsonable(chain) for name, chain in chains.items()}
            for host, chains in rebuilt.evidence_chains().items()
        }
        assert restored == original

    def test_archived_vp_json_never_contains_evidence(self, traced_study):
        report, _ = traced_study
        for results in report.full_results:
            assert results.evidence_chains()  # chains are attached...
            blob = results.to_json()  # ...but the archive bytes skip them
            assert '"evidence"' not in blob
            # And hydrating archive bytes round-trips exactly.
            from repro.core.results import VantagePointResults

            rebuilt = VantagePointResults.from_json(blob)
            assert rebuilt.to_json() == blob

    def test_render_names_packets_and_resolves_hosts(self, traced_study):
        report, trace_records = traced_study
        rendered = []
        for chains in report.evidence_chains().values():
            for chain in chains.values():
                if chain.links:
                    rendered.append(chain.render(trace_records))
        assert rendered
        # A chain with links renders one line per link with its span ID.
        sample = next(
            chain
            for chains in report.evidence_chains().values()
            for chain in chains.values()
            if chain.links
        )
        text = sample.render(trace_records)
        for link in sample.links:
            assert link.span_id in text


class TestEvidenceWithoutTracing:
    def test_plain_audit_attaches_no_chains(self):
        from repro.api import audit_provider

        report = audit_provider("Seed4.me")
        for results in report.full_results:
            assert results.evidence_chains() == {}
        assert report.to_dict().get("evidence") is None

    def test_collector_is_inert_outside_test_spans(self):
        from repro.obs.evidence import EvidenceCollector

        class _NoSpanSession:
            current_test_span_id = None

            def span_for_packet(self, packet):  # pragma: no cover
                raise AssertionError("inert collector must not look up spans")

        collector = EvidenceCollector(_NoSpanSession(), "dns_leakage", "vp")
        collector.packet(object(), note="ignored")
        collector.note("ignored")
        assert collector.chain() is None


class TestEvidenceChainUnit:
    def test_dict_round_trip(self):
        from repro.obs.evidence import EvidenceChain, EvidenceLink

        chain = EvidenceChain(
            verdict="dns_leakage",
            vantage="vp0.example.net",
            test_span_id="cccccccccccccccc",
            links=[
                EvidenceLink(
                    span_id="dddd000000000006",
                    kind="packet_send",
                    note="plaintext query escaped",
                )
            ],
            notes=["one API-level note"],
        )
        from repro.codec import from_jsonable, to_jsonable

        rebuilt = from_jsonable(
            EvidenceChain, json.loads(json.dumps(to_jsonable(chain)))
        )
        assert to_jsonable(rebuilt) == to_jsonable(chain)
        assert rebuilt.span_ids == [
            "cccccccccccccccc",
            "dddd000000000006",
        ]

    def test_render_against_fixture_trace(self):
        from pathlib import Path

        from repro.obs.evidence import EvidenceChain, EvidenceLink
        from repro.obs.trace import read_trace

        records = read_trace(
            str(Path(__file__).parent / "fixtures" / "mini_trace.jsonl")
        )
        chain = EvidenceChain(
            verdict="tunnel_failure",
            vantage="demo.example.net",
            test_span_id="eeeeeeeeeeeeeeee",
            links=[
                EvidenceLink(
                    span_id="dddd000000000006",
                    kind="packet",
                    note="probe reached 198.51.100.7 during outage",
                )
            ],
        )
        text = chain.render(records)
        assert "dddd000000000006" in text
        assert "198.51.100.7" in text
