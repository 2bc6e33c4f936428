"""Per-layer attribution for the traced run.

Everything here lives outside the program: the tracer wraps public
functions of :mod:`repro` from the benchmark's own files, subscribes to
the public :class:`~repro.runtime.events.EventBus`, and reads the phase
and stage profilers that ``ObsConfig(profile=True, stage_profile=True)``
arms.  Nothing is installed unless a traced study child asks for it.

Spans nest on one stack per process.  A span's *self time* is the CPU
time of its thread while it is open, minus that of the spans it
encloses, so the self times of all spans never count one interval
twice, and busy processes sharing fewer cores do not inflate them.  A
call is counted only when it does not re-enter its own span
(``ShardedWorldFactory.clone`` delegating to ``WorldFactory.clone`` is
one clone).

Process workers are forked from the traced coordinator, so they inherit
the wrappers; an at-fork hook resets their totals, and each worker
rewrites ``worker-<pid>.json`` in the trace directory whenever one of its
top-level spans closes.  The coordinator folds those files in after the
study call returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pathlib
import sys
from collections import defaultdict
from time import perf_counter, thread_time
from typing import Callable, Optional

#: The thirteen measurement tests, as ``(metric name, module, class)``.
TESTS = (
    ("ping_traceroute", "repro.core.infrastructure.ping_traceroute",
     "PingTracerouteTest"),
    ("geolocation", "repro.core.infrastructure.geolocation",
     "GeolocationTest"),
    ("metadata", "repro.core.metadata", "MetadataTest"),
    ("dns_manipulation", "repro.core.manipulation.dns_manipulation",
     "DnsManipulationTest"),
    ("dom_collection", "repro.core.manipulation.dom_collection",
     "DomCollectionTest"),
    ("tls_interception", "repro.core.manipulation.tls_interception",
     "TlsInterceptionTest"),
    ("proxy_detection", "repro.core.manipulation.proxy_detection",
     "ProxyDetectionTest"),
    ("dns_origin", "repro.core.infrastructure.dns_origin", "DnsOriginTest"),
    ("dns_leakage", "repro.core.leakage.dns_leakage", "DnsLeakageTest"),
    ("ipv6_leakage", "repro.core.leakage.ipv6_leakage", "Ipv6LeakageTest"),
    ("webrtc_leakage", "repro.core.leakage.webrtc_leakage",
     "WebRtcLeakageTest"),
    ("p2p_detection", "repro.core.p2p", "P2pDetection"),
    ("tunnel_failure", "repro.core.leakage.tunnel_failure",
     "TunnelFailureTest"),
)

#: Span name -> the public callables it wraps (``module:Owner.attr``, or
#: ``module:function`` for a module-level function).
SPANS: dict[str, tuple[str, ...]] = {
    "world.build": ("repro.world:World.build",),
    "world_factory.template": (
        "repro.world_factory:WorldFactory.template_blob",
    ),
    "world_factory.clone": (
        "repro.world_factory:WorldFactory.clone",
        "repro.world_factory:ShardedWorldFactory.clone",
    ),
    "ecosystem.profiles": ("repro.source:StudySource.profiles_for",),
    "runtime.units.plan": ("repro.runtime.units:decompose_study",),
    "core.harness.run_unit": ("repro.core.harness:TestSuite.run_unit",),
    "core.harness.ground_truth": (
        "repro.core.harness:TestSuite.ground_truth_pages",
        "repro.core.harness:TestSuite.ground_truth_certificates",
    ),
    "core.harness.assemble": (
        "repro.core.harness:TestSuite.assemble_study",
        "repro.core.harness:TestSuite.assemble_provider_from_plan",
        "repro.core.harness:TestSuite.ingest_provider_aggregates",
    ),
    "core.archive.append": (
        "repro.core.archive:StreamingArchiveWriter.append_result",
    ),
    "core.archive.verdicts": (
        "repro.core.archive:StreamingArchiveWriter.write_verdicts",
    ),
    "core.archive.finalize": (
        "repro.core.archive:StreamingArchiveWriter.finalize",
    ),
    "core.archive.read": ("repro.core.archive:read_vantage_point_results",),
    "core.results.to_json": (
        "repro.core.results:VantagePointResults.to_json",
    ),
    "core.results.from_json": (
        "repro.core.results:VantagePointResults.from_json",
    ),
    "runtime.checkpoint.open": (
        "repro.runtime.checkpoint:CheckpointStore.open",
    ),
    "runtime.checkpoint.record": (
        "repro.runtime.checkpoint:CheckpointStore.record",
    ),
    "runtime.checkpoint.load": (
        "repro.runtime.checkpoint:CheckpointStore.load_unit_results",
    ),
}
for _name, _module, _cls in TESTS:
    SPANS[f"core.test.{_name}"] = (f"{_module}:{_cls}.run",)


class LayerTracer:
    """Self time and call counts per span, for one process."""

    def __init__(self) -> None:
        self.active = False
        self.trace_dir: Optional[pathlib.Path] = None
        self._worker = False
        self.reset()

    def reset(self) -> None:
        # Each frame: [span name, seconds spent in enclosed spans].
        self._stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.archive_bytes = 0

    # ------------------------------------------------------------------
    def wrap(self, span: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            reentry = bool(stack) and stack[-1][0] == span
            frame = [span, 0.0]
            stack.append(frame)
            started = thread_time()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                elapsed = thread_time() - started
                stack.pop()
                tracer.self_s[span] += elapsed - frame[1]
                if not reentry:
                    tracer.calls[span] += 1
                if stack:
                    stack[-1][1] += elapsed
                elif tracer._worker:
                    tracer.dump_worker()

        return traced

    def _count_bytes(self, path) -> None:
        self.archive_bytes += pathlib.Path(path).stat().st_size

    def install(self, trace_dir: pathlib.Path) -> None:
        """Wrap every span's targets and arm the at-fork hook."""
        self.trace_dir = trace_dir
        # Import every target module first, so a function imported by
        # name elsewhere is rebound in all of its importers.
        for targets in SPANS.values():
            for target in targets:
                importlib.import_module(target.partition(":")[0])
        for span, targets in SPANS.items():
            after = (
                self._count_bytes if span == "core.archive.append" else None
            )
            for target in targets:
                _patch(target, lambda fn, s=span, a=after: self.wrap(s, fn, a))
        os.register_at_fork(after_in_child=self._forked)

    # ------------------------------------------------------------------
    # Process workers
    # ------------------------------------------------------------------
    def _forked(self) -> None:
        self.reset()
        self._worker = True

    def dump_worker(self) -> None:
        path = self.trace_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.totals()))
        tmp.replace(path)

    def totals(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "archive_bytes": self.archive_bytes,
        }

    def collect(self) -> dict:
        """This process's totals plus every worker's, then reset."""
        merged = self.totals()
        for path in sorted(self.trace_dir.glob("worker-*.json")):
            data = json.loads(path.read_text())
            for key in ("self_s", "calls"):
                for span, value in data[key].items():
                    merged[key][span] = merged[key].get(span, 0) + value
            merged["archive_bytes"] += data["archive_bytes"]
            path.unlink()
        self.reset()
        return merged


def _patch(target: str, make: Callable[[Callable], Callable]) -> None:
    """Replace one public callable with ``make(original)``.

    Module-level functions are also rebound in every loaded module that
    imported them by name, so ``from x import f`` call sites see the
    wrapper too.
    """
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if not owner_name:
        original = getattr(module, attr)
        wrapped = make(original)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, attr, None) is original:
                setattr(loaded, attr, wrapped)
        return
    owner = getattr(module, owner_name)
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


class BusProbe:
    """EventBus subscriber: unit times, retries, suite-cache hits."""

    def __init__(self) -> None:
        self.unit_ms: list[float] = []
        self.retries = 0
        self.first_start: Optional[float] = None
        self.last_finish: Optional[float] = None
        self.suite: dict[str, tuple[int, int]] = {}

    def __call__(self, event) -> None:
        from repro.runtime import events as ev

        now = perf_counter()
        if isinstance(event, ev.UnitStarted):
            if self.first_start is None:
                self.first_start = now
        elif isinstance(event, ev.UnitFinished):
            self.unit_ms.append(event.wall_ms)
            self.last_finish = now
        elif isinstance(event, ev.UnitRetried):
            self.retries += 1
        elif isinstance(event, ev.WorkerSample):
            # Counters are cumulative per worker: keep the latest.
            self.suite[event.worker] = (event.suite_hits, event.suite_misses)

    def summary(self, workers: int, returned_at: float) -> dict:
        busy_window = (
            (self.last_finish - self.first_start) * workers
            if self.first_start is not None and self.last_finish is not None
            else 0.0
        )
        hits = sum(h for h, _ in self.suite.values())
        lookups = hits + sum(m for _, m in self.suite.values())
        return {
            "unit_ms": self.unit_ms,
            "retries": self.retries,
            "worker_busy_ratio": (
                sum(self.unit_ms) / 1e3 / busy_window if busy_window else 0.0
            ),
            "suite_hit_ratio": hits / lookups if lookups else 0.0,
            "coordinator_tail_s": (
                returned_at - self.last_finish
                if self.last_finish is not None else 0.0
            ),
        }


def profiler_rows(snapshot: dict) -> dict:
    """Phase and stage totals from the study's merged metrics snapshot."""
    from repro.obs.profile import phase_breakdown
    from repro.obs.stages import stage_breakdown

    phases = {
        row["phase"]: row["wall_ms"] / 1e3
        for row in phase_breakdown(snapshot)
    }
    stages = {
        row["stage"]: (row["est_ms"] / 1e3, row["calls"])
        for row in stage_breakdown(snapshot)
    }
    return {"phases": phases, "stages": stages}
