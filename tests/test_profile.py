"""The one profiler: phase and stage frames, sampling, folding, rendering.

Unit tests drive :class:`repro.obs.profile.Profiler` directly, with a
fake clock where exact self-times matter; the integration tests run
small real studies and the ``repro study`` CLI.
"""

import pytest

from repro.obs.profile import (
    STANDARD_STAGES,
    Profiler,
    fold_profile,
    phase_breakdown,
    render_profile_table,
    stage_breakdown,
)


class FakeClock:
    """A perf_counter stand-in advancing a fixed step per call."""

    def __init__(self, step_s: float = 0.001) -> None:
        self.now = 0.0
        self.step_s = step_s

    def __call__(self) -> float:
        self.now += self.step_s
        return self.now


@pytest.fixture
def clock(monkeypatch):
    """Every perf_counter call inside the profiler advances 1 ms."""
    fake = FakeClock()
    monkeypatch.setattr("repro.obs.profile.perf_counter", fake)
    return fake


def _send(profiler, *stages):
    """One top-level send whose body runs *stages* one after another."""
    profiler.begin_send()
    for stage in stages:
        profiler.enter_stage(stage)
        profiler.leave_stage()
    profiler.end_send()


class TestPhaseFrames:
    def test_exclusive_accounting_subtracts_children(self, clock):
        profiler = Profiler()
        profiler.enter("browser")
        profiler.enter("dns")
        profiler.leave()
        profiler.leave()
        phases, stages = profiler.drain()
        # dns spans one tick; browser spans three, minus dns's one.
        assert phases == {
            "browser": (1, pytest.approx(2.0)),
            "dns": (1, pytest.approx(1.0)),
        }
        assert stages == {}

    def test_recursive_same_phase_not_double_counted(self, clock):
        profiler = Profiler()
        profiler.enter("delivery")          # e.g. Host.send
        profiler.enter("delivery")          # tunnel re-entry
        profiler.leave()
        profiler.leave()
        calls, wall_ms = profiler.drain()[0]["delivery"]
        assert calls == 2
        # The real elapsed span (3 ticks), not outer + inner (4).
        assert wall_ms == pytest.approx(3.0)

    def test_drain_resets_and_discards_open_frames(self):
        profiler = Profiler()
        with profiler.phase("tls"):
            pass
        profiler.enter("dns")  # left open (aborted unit)
        phases, _ = profiler.drain()
        assert set(phases) == {"tls"}
        assert profiler.drain() == ({}, {})

    def test_phase_only_profiler_opens_no_stage_frames(self, clock):
        profiler = Profiler(stages=False)
        profiler.begin_send()
        profiler.end_send()
        phases, stages = profiler.drain()
        assert phases == {"delivery": (1, pytest.approx(1.0))}
        assert stages == {}


class TestStageFrames:
    def test_counts_are_exact_even_when_unsampled(self):
        profiler = Profiler(stages=True, seed=0, sample_every=1000)
        for _ in range(7):
            _send(profiler, "route")
        _, stages = profiler.drain()
        assert stages["send"][0] == 7
        assert stages["route"][0] == 7
        # seed=0 → send ordinal 0 is sampled; the other six are not.
        assert stages["send"][1] == 1

    def test_sampling_decision_is_seeded_and_periodic(self):
        profiler = Profiler(stages=True, seed=2018, sample_every=4)
        # offset = 2018 % 4 = 2 → ordinals 2, 6 of 8 sends are timed.
        for _ in range(8):
            _send(profiler)
        phases, stages = profiler.drain()
        assert stages["send"][:2] == (8, 2)
        # The delivery phase itself is timed on every send.
        assert phases["delivery"][0] == 8

    def test_two_profilers_fed_identically_drain_identically(self):
        def run():
            profiler = Profiler(stages=True, seed=7, sample_every=3)
            for index in range(9):
                _send(profiler, "route", *(["capture"] if index % 2 else []))
            return {
                name: (calls, sampled)
                for name, (calls, sampled, _) in profiler.drain()[1].items()
            }

        assert run() == run()

    def test_nested_sends_stay_inside_parent_sample(self):
        profiler = Profiler(stages=True, seed=0, sample_every=2)
        # One top-level send (ordinal 0, sampled) re-entering send twice:
        # only the *top-level* ordinal advances, so the nested frames are
        # timed with the parent and the next top-level send is unsampled.
        profiler.begin_send()
        _send(profiler)
        _send(profiler)
        profiler.end_send()
        _send(profiler)
        _, stages = profiler.drain()
        assert stages["send"][:2] == (4, 3)  # the sampled tree, not the 4th

    def test_exclusive_attribution_with_fake_clock(self, clock):
        profiler = Profiler(stages=True, seed=0, sample_every=1)
        _send(profiler, "route")
        _, stages = profiler.drain()
        # route's frame spans one tick (1 ms); send's frame spans three
        # ticks with route's 1 ms subtracted as child time.
        assert stages["route"][2] == pytest.approx(1.0)
        assert stages["send"][2] == pytest.approx(2.0)

    def test_stage_time_counts_once(self, clock):
        """A stage frame's time lands in its own row and in delivery's
        phase total, but not in the ``send`` row."""
        profiler = Profiler(stages=True, seed=0, sample_every=1)
        _send(profiler, "latency")
        phases, stages = profiler.drain()
        assert stages["latency"][2] == pytest.approx(1.0)
        assert stages["send"][2] == pytest.approx(2.0)
        assert phases["delivery"][1] == pytest.approx(3.0)
        assert phases["delivery"][1] == pytest.approx(
            stages["latency"][2] + stages["send"][2]
        )

    def test_stage_self_time_excludes_nested_phase(self, clock):
        """A phase opened under a stage (a resolver a service handler
        runs) bills to that phase, not to the stage or to delivery."""
        profiler = Profiler(stages=True, seed=0, sample_every=1)
        profiler.begin_send()           # t1
        profiler.enter_stage("dispatch")  # t2
        profiler.enter("dns")           # t3
        profiler.leave()                # t4
        profiler.leave_stage()          # t5
        profiler.end_send()             # t6
        phases, stages = profiler.drain()
        assert phases["dns"][1] == pytest.approx(1.0)
        assert stages["dispatch"][2] == pytest.approx(2.0)
        assert stages["send"][2] == pytest.approx(2.0)
        assert phases["delivery"][1] == pytest.approx(4.0)

    def test_reset_restarts_the_sampling_pattern(self):
        profiler = Profiler(stages=True, seed=0, sample_every=4)
        for _ in range(3):
            _send(profiler)
        first = profiler.drain()[1]
        for _ in range(3):
            _send(profiler)
        second = profiler.drain()[1]
        assert first["send"][:2] == second["send"][:2] == (3, 1)

    def test_abandoned_frames_discarded_on_drain(self):
        profiler = Profiler(stages=True, seed=0, sample_every=1)
        profiler.begin_send()
        profiler.enter_stage("route")  # unit aborts here
        phases, stages = profiler.drain()
        # Stages count on entry; the open frames' times are dropped.
        assert stages["route"] == (1, 0, 0.0)
        assert phases == {}
        assert profiler.drain() == ({}, {})


class TestFoldAndBreakdown:
    def _snapshot(self, profiler):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        fold_profile(profiler, registry)
        return registry.snapshot()

    def test_fold_phases_counters_and_histograms(self, clock):
        profiler = Profiler()
        for _ in range(3):
            with profiler.phase("dns"):
                pass
        snapshot = self._snapshot(profiler)
        assert snapshot["counters"]["phase.calls.dns"] == 3
        # One histogram observation per phase per fold (the unit total).
        assert snapshot["histograms"]["phase.wall_ms.dns"]["count"] == 1
        # A phase-only profiler folds no stage series.
        assert not any(name.startswith("stage.") for name in snapshot["counters"])
        assert not any(name.startswith("stage.") for name in snapshot["histograms"])

    def test_fold_lands_counters_and_histograms(self, clock):
        profiler = Profiler(stages=True, seed=0, sample_every=1)
        for _ in range(3):
            with profiler.phase("dns"):
                _send(profiler, "route")
        snapshot = self._snapshot(profiler)
        counters = snapshot["counters"]
        histograms = snapshot["histograms"]
        assert counters["phase.calls.dns"] == 3
        assert counters["phase.calls.delivery"] == 3
        assert counters["stage.calls.route"] == 3
        assert counters["stage.sampled.route"] == 3
        # One histogram observation per name per fold (the unit total).
        for name in ("phase.wall_ms.dns", "phase.wall_ms.delivery",
                     "stage.wall_ms.route", "stage.wall_ms.send"):
            assert histograms[name]["count"] == 1

    def test_fold_skips_wall_series_for_unsampled_stages(self):
        profiler = Profiler(stages=True, seed=1, sample_every=2)
        _send(profiler, "route")  # ordinal 0, offset 1 → unsampled
        snapshot = self._snapshot(profiler)
        assert snapshot["counters"]["stage.calls.route"] == 1
        assert "stage.sampled.route" not in snapshot["counters"]
        assert "stage.wall_ms.route" not in snapshot["histograms"]
        # The delivery phase is still timed.
        assert snapshot["histograms"]["phase.wall_ms.delivery"]["count"] == 1

    def test_phase_breakdown_shares_sum_to_one(self):
        snapshot = {
            "counters": {
                "phase.calls.dns": 10,
                "phase.calls.browser": 5,
                "other.counter": 99,
            },
            "histograms": {
                "phase.wall_ms.dns": {"count": 2, "total": 30.0},
                "phase.wall_ms.browser": {"count": 2, "total": 70.0},
            },
        }
        rows = phase_breakdown(snapshot)
        assert [row["phase"] for row in rows] == ["browser", "dns"]
        assert sum(row["share"] for row in rows) == pytest.approx(1.0)

    def test_breakdown_scales_sampled_time_to_population(self):
        snapshot = {
            "counters": {
                "stage.calls.route": 100,
                "stage.sampled.route": 10,
                "stage.calls.capture": 100,
                "stage.sampled.capture": 10,
            },
            "histograms": {
                "stage.wall_ms.route": {"total": 5.0},
                "stage.wall_ms.capture": {"total": 15.0},
            },
        }
        rows = stage_breakdown(snapshot)
        assert [row["stage"] for row in rows] == ["capture", "route"]
        by_name = {row["stage"]: row for row in rows}
        assert by_name["route"]["est_ms"] == pytest.approx(50.0)
        assert by_name["capture"]["est_ms"] == pytest.approx(150.0)
        assert by_name["capture"]["share"] == pytest.approx(0.75)

    def test_render_handles_empty_and_reports_coverage(self):
        assert "no frames recorded" in render_profile_table({})
        snapshot = {
            "counters": {
                "phase.calls.delivery": 10,
                "phase.calls.browser": 4,
                "stage.calls.send": 10,
                "stage.sampled.send": 10,
            },
            "histograms": {
                "phase.wall_ms.delivery": {"total": 100.0, "p50": 50.0},
                "phase.wall_ms.browser": {"total": 70.0, "p50": 35.0},
                "stage.wall_ms.send": {"total": 90.0},
            },
        }
        lines = render_profile_table(snapshot).splitlines()
        # The stage row nests under delivery, ahead of the next phase.
        assert lines[2].startswith("  delivery ")
        assert lines[3].startswith("    send ")
        assert lines[4].startswith("  browser ") and "70.0" in lines[4]
        assert lines[-1] == (
            "  stages cover 90.0% of the delivery phase (100.0 ms)"
        )

    def test_render_without_stages_has_no_footer(self):
        snapshot = {
            "counters": {"phase.calls.delivery": 1},
            "histograms": {"phase.wall_ms.delivery": {"total": 1.0}},
        }
        lines = render_profile_table(snapshot).splitlines()
        assert lines[0] == "phase wall-clock attribution (exclusive ms):"
        assert [line.split()[0] for line in lines[2:]] == ["delivery"]


class TestProfileConfig:
    def test_profile_config_implies_metrics(self):
        from repro.obs.config import ObsConfig

        config = ObsConfig(profile=True)
        assert config.metrics_enabled
        assert config.enabled

    def test_stage_profile_implies_profile(self):
        from repro.obs.config import ObsConfig

        phases_only = ObsConfig(profile=True).build(seed=3)
        assert phases_only.profile is not None
        assert phases_only.stages is None
        both = ObsConfig(stage_profile=True, stage_sample=4).build(seed=3)
        assert both.profile is both.stages
        assert both.profile.sample_every == 4


def _profiled_study(workers, backend, providers, **obs_kwargs):
    from repro.obs.config import ObsConfig
    from repro.runtime.executor import StudyExecutor

    executor = StudyExecutor(
        seed=2018,
        providers=providers,
        max_vantage_points=2,
        workers=workers,
        backend=backend,
        obs=ObsConfig(**obs_kwargs),
    )
    executor.run()
    return executor.metrics.snapshot()


class TestProfilerIntegration:
    def test_phase_counts_deterministic_across_backends(self):
        counts = {}
        for label, (workers, backend) in {
            "sequential": (1, "thread"),
            "threads": (4, "thread"),
        }.items():
            snapshot = _profiled_study(
                workers, backend, ["Seed4.me", "MyIP.io"],
                trace=True, metrics=True, profile=True,
            )
            counts[label] = {
                name: value
                for name, value in snapshot["counters"].items()
                if name.startswith("phase.calls.")
            }
        assert counts["sequential"] == counts["threads"]
        assert counts["sequential"]["phase.calls.analysis"] == 1

    def test_stages_sum_to_delivery_phase(self):
        """At ``stage_sample=1`` every send is timed, so the stage rows
        are exactly the delivery phase split by frame."""
        snapshot = _profiled_study(
            1, "thread", ["Seed4.me", "PureVPN"],
            stage_profile=True, stage_sample=1,
        )
        stages = {row["stage"]: row for row in stage_breakdown(snapshot)}
        assert stages and set(stages) <= set(STANDARD_STAGES)
        assert all(row["sampled"] == row["calls"] for row in stages.values())
        delivery_ms = snapshot["histograms"]["phase.wall_ms.delivery"][
            "total"
        ]
        assert delivery_ms > 0
        assert sum(row["est_ms"] for row in stages.values()) == (
            pytest.approx(delivery_ms)
        )
        assert "stages cover 100.0% of the delivery phase" in (
            render_profile_table(snapshot)
        )

    def test_cli_prints_one_profile_table(self, capsys):
        from repro.cli import main

        assert main([
            "study", "--providers", "Seed4.me", "MyIP.io", "--max-vps", "1",
            "--profile-stages",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("phase wall-clock attribution") == 1
        table = out[out.index("phase wall-clock attribution"):].splitlines()
        rows, footer = table[2:-1], table[-1]
        names = [row.split()[0] for row in rows]
        nested = [row.startswith("    ") for row in rows]
        phases = {name for name, sub in zip(names, nested) if not sub}
        stages = [name for name, sub in zip(names, nested) if sub]
        assert phases == {"dns", "browser", "tls", "delivery", "analysis"}
        assert sorted(stages) == sorted(STANDARD_STAGES)
        # The seven stage rows sit directly under the delivery row.
        below = names.index("delivery") + 1
        assert nested[below:below + 7] == [True] * 7
        assert footer.startswith("  stages cover ")
