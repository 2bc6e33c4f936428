"""repro.obs — tracing, metrics and the packet flight recorder.

The observability subsystem.  :class:`ObsConfig` picks features;
``ObsConfig.build()`` returns an :class:`Observability` session (or ``None``
when everything is off — the zero-overhead contract).  See DESIGN.md
§ Observability.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "ObsConfig": ("repro.obs.config", "ObsConfig"),
    "Observability": ("repro.obs.session", "Observability"),
    "Tracer": ("repro.obs.trace", "Tracer"),
    "SpanSink": ("repro.obs.trace", "SpanSink"),
    "JsonlSpanSink": ("repro.obs.trace", "JsonlSpanSink"),
    "MemorySpanSink": ("repro.obs.trace", "MemorySpanSink"),
    "study_span_id": ("repro.obs.trace", "study_span_id"),
    "read_trace": ("repro.obs.trace", "read_trace"),
    "write_trace": ("repro.obs.trace", "write_trace"),
    "summarize_trace": ("repro.obs.trace", "summarize_trace"),
    "EvidenceChain": ("repro.obs.evidence", "EvidenceChain"),
    "EvidenceLink": ("repro.obs.evidence", "EvidenceLink"),
    "EvidenceCollector": ("repro.obs.evidence", "EvidenceCollector"),
    "reconstruct_flows": ("repro.obs.analyze", "reconstruct_flows"),
    "render_flows": ("repro.obs.analyze", "render_flows"),
    "TestFlows": ("repro.obs.analyze", "TestFlows"),
    "parse_query": ("repro.obs.analyze", "parse_query"),
    "query_trace": ("repro.obs.analyze", "query_trace"),
    "diff_traces": ("repro.obs.analyze", "diff_traces"),
    "render_diff": ("repro.obs.analyze", "render_diff"),
    "TraceDiff": ("repro.obs.analyze", "TraceDiff"),
    "MetricsRegistry": ("repro.obs.metrics", "MetricsRegistry"),
    "Counter": ("repro.obs.metrics", "Counter"),
    "Gauge": ("repro.obs.metrics", "Gauge"),
    "Histogram": ("repro.obs.metrics", "Histogram"),
    "RouteLookupStats": ("repro.obs.metrics", "RouteLookupStats"),
    "FlightRecorder": ("repro.obs.flight", "FlightRecorder"),
    "Profiler": ("repro.obs.profile", "Profiler"),
    "phase_breakdown": ("repro.obs.profile", "phase_breakdown"),
    "stage_breakdown": ("repro.obs.profile", "stage_breakdown"),
    "render_profile_table": ("repro.obs.profile", "render_profile_table"),
    "ResourceSampler": ("repro.obs.sample", "ResourceSampler"),
    "render_prometheus": ("repro.obs.export", "render_prometheus"),
    "parse_exposition": ("repro.obs.export", "parse_exposition"),
}

__all__ = list(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.obs.analyze import (
        TestFlows,
        TraceDiff,
        diff_traces,
        parse_query,
        query_trace,
        reconstruct_flows,
        render_diff,
        render_flows,
    )
    from repro.obs.config import ObsConfig
    from repro.obs.export import parse_exposition, render_prometheus
    from repro.obs.profile import (
        Profiler,
        phase_breakdown,
        render_profile_table,
        stage_breakdown,
    )
    from repro.obs.sample import ResourceSampler
    from repro.obs.evidence import (
        EvidenceChain,
        EvidenceCollector,
        EvidenceLink,
    )
    from repro.obs.flight import FlightRecorder
    from repro.obs.metrics import (
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
        RouteLookupStats,
    )
    from repro.obs.session import Observability
    from repro.obs.trace import (
        JsonlSpanSink,
        MemorySpanSink,
        SpanSink,
        Tracer,
        read_trace,
        study_span_id,
        summarize_trace,
        write_trace,
    )


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))
