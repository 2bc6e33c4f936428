"""Metric names, units and the folding of study-call records into them.

``END_TO_END`` are what a user of ``repro study`` sees; ``PER_LAYER`` come
from the traced run.  ``end_to_end_samples`` and ``fold_layers`` turn the
per-call records ``study.py`` prints into values per metric.
"""

from __future__ import annotations

import statistics
from statistics import median

from layers import TESTS

#: (name, unit, better, bound); the bound is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
END_TO_END = (
    ("study_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("vp_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
)

STAGES = ("send", "route", "firewall", "capture", "latency", "dispatch",
          "encap")

#: (name, unit) in table order.
PER_LAYER = (
    [
        ("world_factory.builds", "count"),
        ("world_factory.build_s", "s"),
        ("world_factory.clones", "count"),
        ("world_factory.clone_s", "s"),
        ("ecosystem.profiles_s", "s"),
        ("runtime.units.plan_s", "s"),
        ("runtime.executor.unit_p50_ms", "ms"),
        ("runtime.executor.unit_p90_ms", "ms"),
        ("runtime.executor.worker_busy_ratio", "ratio"),
        ("runtime.executor.suite_hit_ratio", "ratio"),
        ("runtime.executor.retries", "count"),
        ("runtime.executor.coordinator_tail_s", "s"),
        ("core.harness.run_unit_s", "s"),
        ("core.harness.ground_truth_s", "s"),
        ("core.harness.ground_truth_calls", "count"),
        ("core.harness.assemble_s", "s"),
    ]
    + [(f"core.test.{name}_s", "s") for name, _, _ in TESTS]
    + [
        ("net.delivery_s", "s"),
        ("web.browser_s", "s"),
        ("web.tls_s", "s"),
        ("dns.resolve_s", "s"),
    ]
    + [(f"net.stage.{stage}_s", "s") for stage in STAGES]
    + [(f"net.stage.{stage}.calls", "count") for stage in STAGES]
    + [
        ("core.archive.append_s", "s"),
        ("core.archive.appends", "count"),
        ("core.archive.bytes", "bytes"),
        ("core.archive.read_s", "s"),
        ("core.archive.reads", "count"),
        ("core.archive.finalize_s", "s"),
        ("core.results.to_json_s", "s"),
        ("core.results.from_json_s", "s"),
        ("runtime.checkpoint.open_s", "s"),
        ("runtime.checkpoint.record_s", "s"),
        ("runtime.checkpoint.records", "count"),
        ("runtime.checkpoint.load_s", "s"),
        ("runtime.checkpoint.loads", "count"),
        ("trace.overhead_pct", "%"),
        ("trace.coverage", "ratio"),
        ("trace.count_drift", "count"),
    ]
)

#: Counts that must repeat exactly across traced calls at one seed.
EXACT_COUNTS = tuple(
    name for name, unit in PER_LAYER
    if unit in ("count", "bytes") and name not in (
        "world_factory.clones",  # per-worker LRU: scheduling decides
        "trace.count_drift",
    )
)


def quartiles(values: list[float]) -> tuple[float, float]:
    """(q1, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end_samples(calls: list[dict]) -> dict[str, list[float]]:
    """Each end-to-end metric's value in every untraced call of a run."""
    return {
        "study_s": [c["study_s"] for c in calls],
        "cpu_s": [c["cpu_s"] for c in calls],
        "vp_per_s": [c["vantage_points_executed"] / c["study_s"]
                     for c in calls],
        "peak_rss_mb": [c["peak_rss_mb"] for c in calls],
        "setup_s": [c["setup_s"] for c in calls],
    }


def layer_values(call: dict) -> dict[str, float]:
    """Per-layer metrics of one traced call."""
    layers = call["layers"]
    own = layers["self_s"]
    calls = layers["calls"]
    phases = call["profilers"]["phases"]
    stages = call["profilers"]["stages"]
    events = call["events"]

    def s(*spans: str) -> float:
        return sum(own.get(span, 0.0) for span in spans)

    def n(span: str) -> int:
        return calls.get(span, 0)

    values: dict[str, float] = {
        "world_factory.builds": n("world.build"),
        "world_factory.build_s": s("world.build"),
        "world_factory.clones": n("world_factory.clone"),
        "world_factory.clone_s": s(
            "world_factory.clone", "world_factory.template"
        ),
        "ecosystem.profiles_s": s("ecosystem.profiles"),
        "runtime.units.plan_s": s("runtime.units.plan"),
        "runtime.executor.worker_busy_ratio": events["worker_busy_ratio"],
        "runtime.executor.suite_hit_ratio": events["suite_hit_ratio"],
        "runtime.executor.retries": events["retries"],
        "runtime.executor.coordinator_tail_s": events["coordinator_tail_s"],
        "core.harness.run_unit_s": s("core.harness.run_unit"),
        "core.harness.ground_truth_s": s("core.harness.ground_truth"),
        "core.harness.ground_truth_calls": n("core.harness.ground_truth"),
        "core.harness.assemble_s": s("core.harness.assemble"),
        "net.delivery_s": phases.get("delivery", 0.0),
        "web.browser_s": phases.get("browser", 0.0),
        "web.tls_s": phases.get("tls", 0.0),
        "dns.resolve_s": phases.get("dns", 0.0),
        "core.archive.append_s": s("core.archive.append"),
        "core.archive.appends": n("core.archive.append"),
        "core.archive.bytes": layers["archive_bytes"],
        "core.archive.read_s": s("core.archive.read"),
        "core.archive.reads": n("core.archive.read"),
        "core.archive.finalize_s": s(
            "core.archive.verdicts", "core.archive.finalize"
        ),
        "core.results.to_json_s": s("core.results.to_json"),
        "core.results.from_json_s": s("core.results.from_json"),
        "runtime.checkpoint.open_s": s("runtime.checkpoint.open"),
        "runtime.checkpoint.record_s": s("runtime.checkpoint.record"),
        "runtime.checkpoint.records": n("runtime.checkpoint.record"),
        "runtime.checkpoint.load_s": s("runtime.checkpoint.load"),
        "runtime.checkpoint.loads": n("runtime.checkpoint.load"),
        # Span self times are CPU seconds of the coordinator and of every
        # worker, so coverage is their share of the call's CPU time (equal
        # to its wall time, within a few percent, when it runs inline).
        "trace.coverage": sum(own.values()) / call["cpu_s"],
    }
    for name, _, _ in TESTS:
        values[f"core.test.{name}_s"] = s(f"core.test.{name}")
    for stage in STAGES:
        est_s, stage_calls = stages.get(stage, (0.0, 0))
        values[f"net.stage.{stage}_s"] = est_s
        values[f"net.stage.{stage}.calls"] = stage_calls
    return values


def fold_layers(traced: list[dict], untraced: list[dict]) -> tuple[dict, list]:
    """Per-layer metrics over the traced calls, and any count drift.

    Times are medians over traced calls, unit percentiles pool every
    traced unit, counts come from the first traced call and every other
    traced call must repeat them exactly; each difference is returned as
    ``(metric, first value, other value)``.
    """
    per_call = [layer_values(call) for call in traced]
    out: dict[str, float] = {}
    for name, unit in PER_LAYER:
        if name in per_call[0]:
            if unit in ("count", "bytes"):
                out[name] = per_call[0][name]
            else:
                out[name] = median([v[name] for v in per_call])
    unit_ms = sorted(ms for call in traced for ms in call["events"]["unit_ms"])
    if len(unit_ms) >= 2:
        deciles = statistics.quantiles(unit_ms, n=10)
        out["runtime.executor.unit_p50_ms"] = statistics.median(unit_ms)
        out["runtime.executor.unit_p90_ms"] = deciles[8]
    else:
        out["runtime.executor.unit_p50_ms"] = unit_ms[0] if unit_ms else 0.0
        out["runtime.executor.unit_p90_ms"] = out[
            "runtime.executor.unit_p50_ms"
        ]
    traced_s = median([c["study_s"] for c in traced])
    untraced_s = median([c["study_s"] for c in untraced])
    out["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
    drift = [
        (name, per_call[0][name], values[name])
        for values in per_call[1:]
        for name in EXACT_COUNTS
        if values[name] != per_call[0][name]
    ]
    out["trace.count_drift"] = len(drift)
    return out, drift
