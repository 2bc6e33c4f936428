"""Observability subsystem tests (repro.obs).

The contract under test: enabling tracing/metrics/flight-recording never
perturbs the simulation (asserted against the golden fingerprint in
test_determinism.py), and the obs outputs themselves are deterministic —
the same StudyConfig yields byte-identical JSONL traces on the sequential,
thread-pool and process-pool backends, and identical merged metrics for
every deterministic series.
"""

import json

import pytest

OBS_PROVIDERS = ["Seed4.me", "MyIP.io"]


def _serialize(records):
    return "\n".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records
    )


def _run_study(workers, backend, providers=OBS_PROVIDERS, **obs_kwargs):
    from repro.obs.config import ObsConfig
    from repro.runtime.executor import StudyExecutor

    executor = StudyExecutor(
        seed=2018,
        providers=providers,
        max_vantage_points=2,
        workers=workers,
        backend=backend,
        obs=ObsConfig(
            trace=True, metrics=True, flight_recorder=32, **obs_kwargs
        ),
    )
    executor.run()
    return executor


# ----------------------------------------------------------------------
# Trace determinism and span-tree shape
# ----------------------------------------------------------------------
class TestTraceDeterminism:
    @pytest.fixture(scope="class")
    def runs(self):
        return {
            label: _run_study(workers, backend)
            for label, (workers, backend) in {
                "sequential": (1, "thread"),
                "threads": (4, "thread"),
                "processes": (4, "process"),
            }.items()
        }

    def test_traces_byte_identical_across_backends(self, runs):
        blobs = {
            label: _serialize(ex.trace_records) for label, ex in runs.items()
        }
        assert blobs["sequential"] == blobs["threads"] == blobs["processes"]

    def test_trace_stable_across_repeat_runs(self, runs):
        again = _run_study(4, "thread")
        assert _serialize(again.trace_records) == _serialize(
            runs["threads"].trace_records
        )

    def test_span_tree_shape(self, runs):
        records = runs["sequential"].trace_records
        by_kind = {}
        for record in records:
            by_kind.setdefault(record["kind"], []).append(record)

        # Exactly one root, with no parent and the seeded ID.
        from repro.obs.trace import study_span_id

        (study,) = by_kind["study"]
        assert study["parent_id"] is None
        assert study["span_id"] == study_span_id(2018)
        # The study record is scheduling-free by design.
        assert "workers" not in study and "backend" not in study

        # Every unit span hangs off the study span; one per plan unit.
        units = by_kind["unit"]
        plan = runs["sequential"].plan
        assert [u["name"] for u in units] == [
            unit.unit_id for unit in plan.units
        ]
        assert all(u["parent_id"] == study["span_id"] for u in units)

        # Test spans hang off unit spans; leaf events hang off spans that
        # exist; span IDs never collide.
        ids = [r["span_id"] for r in records]
        assert len(ids) == len(set(ids))
        unit_ids = {u["span_id"] for u in units}
        assert by_kind["test"], "expected test spans"
        assert all(t["parent_id"] in unit_ids for t in by_kind["test"])
        known = set(ids)
        for kind in ("dns_query", "packet_send"):
            assert by_kind.get(kind), f"expected {kind} events"
            assert all(r["parent_id"] in known for r in by_kind[kind])

        # Timestamps are the simulation clock, rebased per unit.
        for unit in units:
            assert unit["t0_ms"] == 0.0
            assert unit["t1_ms"] >= 0.0

    def test_trace_path_written_as_canonical_jsonl(self, tmp_path):
        from repro.obs.trace import read_trace

        path = tmp_path / "trace.jsonl"
        executor = _run_study(1, "thread", trace_path=str(path))
        on_disk = read_trace(path)
        assert on_disk == executor.trace_records
        # Canonical encoding: re-serialising reproduces the file bytes.
        assert path.read_text() == _serialize(on_disk) + "\n"

    def test_metrics_deterministic_series_match(self, runs):
        def deterministic(ex):
            snap = ex.metrics.snapshot()
            counters = {
                k: v
                for k, v in snap["counters"].items()
                # Memo hit rates depend on per-worker cache warming.
                if not k.startswith("routing.")
            }
            histogram_counts = {
                k: v["count"] for k, v in snap["histograms"].items()
            }
            return counters, histogram_counts

        seq = deterministic(runs["sequential"])
        assert seq == deterministic(runs["threads"])
        assert seq == deterministic(runs["processes"])
        counters = seq[0]
        assert counters["packets.total"] > 0
        assert counters["dns.queries"] > 0
        assert (
            counters["packets.total"]
            >= counters["packets.delivered"] > 0
        )

    def test_summarize_trace_renders(self, runs):
        from repro.obs.trace import summarize_trace

        text = summarize_trace(runs["sequential"].trace_records)
        assert "trace records" in text
        assert "packets:" in text
        assert "ping_traceroute" in text


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_buffer_keeps_last_n_per_host(self):
        from repro.obs.flight import FlightRecorder

        recorder = FlightRecorder(capacity=3)
        for i in range(5):
            recorder.record("alpha", float(i), "delivered", "udp", "10.0.0.1")
        recorder.record("beta", 9.0, "unreachable", "dns", "10.0.0.2")
        events = recorder.snapshot()
        alphas = [e for e in events if e["host"] == "alpha"]
        assert [e["t_ms"] for e in alphas] == [2.0, 3.0, 4.0]
        assert len([e for e in events if e["host"] == "beta"]) == 1

    def test_invalid_capacity_rejected(self):
        from repro.obs.flight import FlightRecorder

        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_dump_on_connect_retry_exhaustion(self):
        """A flaky endpoint under a no-retry policy must dump the buffer."""
        from repro.obs.config import ObsConfig
        from repro.runtime.executor import StudyExecutor
        from repro.runtime.retry import RetryPolicy
        from repro.vpn.client import VpnClient

        executor = StudyExecutor(
            seed=2018,
            providers=["Seed4.me", "PureVPN", "MyIP.io"],
            max_vantage_points=2,
            retry=RetryPolicy.no_retries(),
            obs=ObsConfig(trace=True, metrics=True, flight_recorder=16),
        )
        # Giving up after the first connect attempt leaves the shared
        # flaky-endpoint parity counters mid-cycle; restore them so later
        # tests still see "first attempt fails, retry succeeds".
        saved_attempts = dict(VpnClient._attempts)
        try:
            executor.run()
        finally:
            VpnClient._attempts.clear()
            VpnClient._attempts.update(saved_attempts)
        dumps = executor.flight_dumps
        assert dumps, "expected at least one flight dump"
        assert all(d["reason"] == "connect_exhausted" for d in dumps)
        assert any(d["events"] for d in dumps)
        # The dump also lands in the trace as an event.
        dump_records = [
            r
            for r in executor.trace_records
            if r["kind"] == "flight_dump"
        ]
        assert len(dump_records) == len(dumps)
        snapshot = executor.metrics.snapshot()
        assert snapshot["counters"]["flight.dumps"] == len(dumps)


# ----------------------------------------------------------------------
# Metrics registry unit behaviour
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_merge_is_commutative_and_lossless(self):
        from repro.obs.metrics import MetricsRegistry

        a = MetricsRegistry()
        a.inc("packets.total", 5)
        a.observe("wall", 2.0)
        a.observe("wall", 8.0)
        b = MetricsRegistry()
        b.inc("packets.total", 3)
        b.inc("dns.queries")
        b.observe("wall", 1.0)

        ab, ba = MetricsRegistry(), MetricsRegistry()
        for target, order in ((ab, (a, b)), (ba, (b, a))):
            for source in order:
                target.merge(source.snapshot())
        assert ab.snapshot() == ba.snapshot()
        merged = ab.snapshot()
        assert merged["counters"]["packets.total"] == 8
        wall = merged["histograms"]["wall"]
        assert wall["count"] == 3
        assert wall["total"] == 11.0
        assert wall["min"] == 1.0
        assert wall["max"] == 8.0
        assert sum(wall["buckets"].values()) == 3
        # Percentiles survive the merge and are order-independent.
        direct = MetricsRegistry()
        for value in (2.0, 8.0, 1.0):
            direct.observe("wall", value)
        assert wall == direct.snapshot()["histograms"]["wall"]

    def test_histogram_percentiles_deterministic_across_split(self):
        import json

        from repro.obs.metrics import Histogram, MetricsRegistry

        values = [0.002 * i for i in range(1, 101)]
        whole = Histogram()
        for value in values:
            whole.observe(value)
        # Split the same series across two registries and merge the
        # snapshots through a JSON round-trip (as the process backend
        # and --metrics-out files do): quantiles must not change.
        left, right, merged = (
            MetricsRegistry(),
            MetricsRegistry(),
            MetricsRegistry(),
        )
        for value in values[::2]:
            left.observe("wall", value)
        for value in values[1::2]:
            right.observe("wall", value)
        for part in (left, right):
            merged.merge(json.loads(json.dumps(part.snapshot())))
        rebuilt = merged.histograms["wall"]
        for p in (50, 95, 99):
            assert rebuilt.percentile(p) == whole.percentile(p)
        assert whole.min is not None and whole.max is not None
        for p in (1, 50, 99):
            estimate = whole.percentile(p)
            assert estimate is not None
            assert whole.min <= estimate <= whole.max
        assert Histogram().percentile(50) is None
        assert "p50=" in merged.render() and "p99=" in merged.render()

    def test_drain_resets(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.inc("x")
        first = registry.drain()
        assert first["counters"] == {"x": 1}
        assert registry.drain()["counters"] == {}

    def test_gauge_merge_keeps_incoming(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.set_gauge("depth", 4)
        registry.merge({"gauges": {"depth": 7}})
        assert registry.snapshot()["gauges"]["depth"] == 7


# ----------------------------------------------------------------------
# Tracer unit behaviour
# ----------------------------------------------------------------------
class TestTracer:
    def test_ids_are_seeded_and_reproducible(self):
        from repro.obs.trace import Tracer

        def run():
            tracer = Tracer(seed=7)
            tracer.begin_unit("unit-a", 1234)
            with tracer.span("test", "ping", vantage="vp1"):
                tracer.event("packet_send", "packet_send", status="delivered")
            return tracer.drain()

        assert run() == run()

    def test_begin_unit_resets_child_counters(self):
        from repro.obs.trace import Tracer

        tracer = Tracer(seed=7)
        tracer.begin_unit("unit-a", 1234)
        tracer.event("dns_query", "dns_query", qname="x.test")
        first = tracer.drain()

        tracer.begin_unit("unit-b", 99)
        tracer.event("dns_query", "dns_query", qname="x.test")
        tracer.begin_unit("unit-a", 1234)
        tracer.event("dns_query", "dns_query", qname="x.test")
        assert tracer.drain() == first


# ----------------------------------------------------------------------
# ObsConfig and the no-op fast path
# ----------------------------------------------------------------------
class TestObsConfig:
    def test_disabled_config_builds_nothing(self):
        from repro.obs.config import ObsConfig

        assert ObsConfig().build(seed=1) is None
        assert not ObsConfig().enabled

    def test_enabled_config_builds_selected_components(self):
        from repro.obs.config import ObsConfig

        session = ObsConfig(metrics=True).build(seed=1)
        assert session is not None
        assert session.metrics is not None
        assert session.tracer is None and session.flight is None

    def test_disabled_suite_has_no_obs_attached(self):
        from repro.api import build_study
        from repro.core.harness import TestSuite

        world = build_study(providers=["Seed4.me"])
        suite = TestSuite(world)
        assert suite.obs is None
        assert world.internet.obs is None


# ----------------------------------------------------------------------
# EventBus replay and metrics events
# ----------------------------------------------------------------------
class TestEventBusReplay:
    def test_late_subscriber_sees_missed_events(self):
        from repro.runtime import events as ev

        bus = ev.EventBus()
        bus.publish("early-1")
        bus.publish("early-2")
        seen = []
        bus.subscribe(seen.append)
        bus.publish("late")
        assert seen == ["early-1", "early-2", "late"]

    def test_replay_false_sees_only_live_events(self):
        from repro.runtime import events as ev

        bus = ev.EventBus()
        bus.publish("early")
        seen = []
        bus.subscribe(seen.append, replay=False)
        bus.publish("late")
        assert seen == ["late"]

    def test_unit_metrics_flow_through_bus(self):
        from repro.obs.config import ObsConfig
        from repro.runtime import events as ev
        from repro.runtime.dashboard import DashboardState
        from repro.runtime.executor import StudyExecutor

        bus = ev.EventBus()
        executor = StudyExecutor(
            seed=2018,
            providers=["Seed4.me"],
            max_vantage_points=1,
            bus=bus,
            obs=ObsConfig(metrics=True),
        )
        executor.run()
        # A late aggregator converges on the same totals via replay.
        late = DashboardState()
        bus.subscribe(late)
        assert late.registry.snapshot() == executor.metrics.snapshot()
        # And a StudyMetrics event carrying the merged snapshot was
        # published at study end.
        study_metrics = [
            e for e in bus._history if isinstance(e, ev.StudyMetrics)
        ]
        assert len(study_metrics) == 1
        assert study_metrics[0].snapshot == executor.metrics.snapshot()


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
class TestPrometheusExport:
    def test_render_and_parse_round_trip(self):
        from repro.obs.export import parse_exposition, render_prometheus
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.inc("net.packets_sent", 42)
        registry.set_gauge("serve.queue.depth", 3)
        registry.observe("unit.wall_ms", 12.5)
        registry.observe("unit.wall_ms", 250.0)
        text = render_prometheus(registry.snapshot())
        families = parse_exposition(text)
        assert families["repro_net_packets_sent_total"][0][1] == 42
        assert families["repro_serve_queue_depth"][0][1] == 3
        assert families["repro_unit_wall_ms_count"][0][1] == 2
        assert families["repro_unit_wall_ms_sum"][0][1] == 262.5
        buckets = families["repro_unit_wall_ms_bucket"]
        assert [labels["le"] for labels, _ in buckets][-1] == "+Inf"
        values = [value for _, value in buckets]
        assert values == sorted(values) and values[-1] == 2

    def test_name_sanitization(self):
        from repro.obs.export import sanitize_metric_name

        assert sanitize_metric_name("a.b-c d") == "a_b_c_d"
        assert sanitize_metric_name("9lives") == "_9lives"
        assert sanitize_metric_name("x", "repro") == "repro_x"

    def test_parser_rejects_malformed_lines(self):
        from repro.obs.export import parse_exposition

        for bad in [
            "metric_no_value",
            'metric{le="0.1" 3',
            "bad-name 1",
            "metric not_a_number",
        ]:
            with pytest.raises(ValueError):
                parse_exposition(bad)

    def test_empty_snapshot_renders_empty_exposition(self):
        from repro.obs.export import parse_exposition, render_prometheus

        assert parse_exposition(render_prometheus({})) == {}
