"""The per-worker observability session.

One :class:`Observability` object lives in each worker's suite (built by
``ObsConfig.build`` in ``TestSuite.__init__``) and owns whichever
components the config enables: the :class:`~repro.obs.trace.Tracer`, the
:class:`~repro.obs.metrics.MetricsRegistry`, the
:class:`~repro.obs.profile.Profiler` and the routing-memo stats.  It is
the single object the instrumented hot paths talk to: the simulated
:class:`~repro.net.internet.Internet` carries an ``obs`` attribute that is
either this session or ``None``, so the disabled cost at every event site
is one attribute load and one ``is not None`` check.

Determinism contract: all trace timestamps come from the simulation clock
(rebased to zero per unit by the harness), span IDs are seeded hashes, and
per-unit state is reset in :meth:`begin_unit` — so the obs payload drained
after a unit is a pure function of the unit, regardless of which worker
ran it or what ran before.  Wall-clock only ever enters *metrics
histograms* (per-test durations), whose counts stay deterministic even
though their sums cannot.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING, ContextManager, Iterator, Optional

from repro.obs.config import ObsConfig
from repro.obs.metrics import MetricsRegistry, RouteLookupStats
from repro.obs.profile import Profiler, fold_profile
from repro.obs.trace import Tracer

if TYPE_CHECKING:
    from repro.net.internet import Internet
    from repro.net.packet import Packet
    from repro.runtime.units import AuditUnit
    from repro.web.tls import TrustStore
    from repro.world.factory import World


class Observability:
    """Everything the enabled observability features need, in one object."""

    def __init__(self, config: ObsConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed
        self._internet: "Optional[Internet]" = None
        self.tracer: Optional[Tracer] = (
            Tracer(seed, clock=self._clock) if config.trace_enabled else None
        )
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if config.metrics_enabled else None
        )
        self.route_stats: Optional[RouteLookupStats] = (
            RouteLookupStats() if config.metrics_enabled else None
        )
        # The one profiler.  Phase hook sites reach it through
        # `internet.obs.profile`; stage hook sites through
        # `internet.obs.stages`, the same object or None when stage frames
        # are off, so a phase-only session pays nothing new at stage sites.
        # Both go dark with `internet.obs` under suspended().
        self.profile: Optional[Profiler] = (
            Profiler(
                stages=config.stage_profile,
                seed=seed,
                sample_every=config.stage_sample,
            )
            if config.profile_enabled
            else None
        )
        self.stages: Optional[Profiler] = (
            self.profile if config.stage_profile else None
        )
        self._trust_store: "Optional[TrustStore]" = None
        self._unit_open = False
        # Per-unit side table: id(packet) -> span ID of its packet_send
        # record.  Lets evidence collectors resolve a captured packet
        # object back to the trace record that proves its fate, without
        # adding a single byte to the emitted records.  Safe against id()
        # reuse for the packets evidence cares about: PacketCapture holds
        # strong references to every tx/rx packet for the unit's lifetime.
        self._packet_spans: dict[int, str] = {}
        self._test_span_id: Optional[str] = None

    # ------------------------------------------------------------------
    def _clock(self) -> float:
        internet = self._internet
        return internet.clock_ms if internet is not None else 0.0

    def attach(self, world: "World") -> None:
        """Wire this session into *world*'s hot paths."""
        internet = world.internet
        self._internet = internet
        internet.obs = self
        if self.route_stats is not None:
            for host in internet.hosts():
                host.routing.stats = self.route_stats
        if self.profile is not None:
            # The trust store has no path back to the internet, so the
            # TLS-validation hook site is wired directly (and unwired in
            # suspended()/detach, mirroring `internet.obs`).
            self._trust_store = world.trust_store
            self._trust_store.profile = self.profile

    def detach(self) -> None:
        internet = self._internet
        if internet is None:
            return
        internet.obs = None
        for host in internet.hosts():
            host.routing.stats = None
        if self._trust_store is not None:
            self._trust_store.profile = None
            self._trust_store = None
        self._internet = None

    # ------------------------------------------------------------------
    # Hot-path hooks.  Callers have already paid the `obs is not None`
    # check; everything here is the enabled path.
    # ------------------------------------------------------------------
    def packet_event(
        self, host_name: str, packet: "Packet", status: str, detail: str = ""
    ) -> None:
        """One packet reached a terminal fate (delivered or otherwise)."""
        metrics = self.metrics
        if metrics is not None:
            metrics.inc("packets.total")
            metrics.inc(f"packets.{status}")
        tracer = self.tracer
        if tracer is not None and self._unit_open:
            attrs = {
                "host": host_name,
                "status": status,
                "protocol": packet.payload.kind,
                "dst": str(packet.dst),
            }
            if detail:
                attrs["detail"] = detail
            span = tracer.event("packet_send", "packet_send", **attrs)
            self._packet_spans[id(packet)] = span

    def dns_query(
        self, host_name: str, qname: str, qtype: str, resolver: str, rcode: str
    ) -> None:
        """One stub-resolver query completed (any rcode)."""
        metrics = self.metrics
        if metrics is not None:
            metrics.inc("dns.queries")
            if rcode != "NOERROR":
                metrics.inc("dns.failures")
        tracer = self.tracer
        if tracer is not None and self._unit_open:
            tracer.event(
                "dns_query",
                "dns_query",
                host=host_name,
                qname=qname,
                qtype=qtype,
                resolver=resolver,
                rcode=rcode,
            )

    def retry(self, key: str) -> None:
        if self.metrics is not None:
            self.metrics.inc("retries.total")
            self.metrics.inc(f"retries.{key}")

    def tunnel_carried(self) -> None:
        if self.metrics is not None:
            self.metrics.inc("tunnel.carried")

    def tunnel_leaked(self) -> None:
        if self.metrics is not None:
            self.metrics.inc("tunnel.leaked")

    # ------------------------------------------------------------------
    # Harness-level hooks
    # ------------------------------------------------------------------
    @property
    def current_test_span_id(self) -> Optional[str]:
        """Span ID of the test currently executing, if any.

        This is what anchors an :class:`~repro.obs.evidence.EvidenceChain`
        to the trace; ``None`` outside a traced test span (tracing off, or
        the plain ``repro audit`` path that never opens a unit), which
        disables evidence collection entirely.
        """
        return self._test_span_id

    def span_for_packet(self, packet: "Packet") -> Optional[str]:
        """Span ID of *packet*'s ``packet_send`` record in this unit."""
        return self._packet_spans.get(id(packet))

    def test_span(
        self, name: str, **attrs: object
    ) -> ContextManager[Optional[str]]:
        """A span around one measurement test (plus a wall-clock histogram)."""
        tracer = self.tracer
        span: ContextManager[Optional[str]]
        if tracer is not None and self._unit_open:
            span = self._tracked_test_span(tracer.span("test", name, **attrs))
        else:
            span = nullcontext()
        if self.metrics is None:
            return span
        return self._timed_span(name, span)

    @contextmanager
    def _tracked_test_span(
        self, span: ContextManager[str]
    ) -> Iterator[str]:
        with span as span_id:
            self._test_span_id = span_id
            try:
                yield span_id
            finally:
                self._test_span_id = None

    @contextmanager
    def _timed_span(
        self, name: str, span: ContextManager[Optional[str]]
    ) -> Iterator[Optional[str]]:
        import time

        started = time.perf_counter()
        with span as span_id:
            yield span_id
        assert self.metrics is not None
        self.metrics.observe(
            f"test.wall_ms.{name}", (time.perf_counter() - started) * 1e3
        )

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Temporarily blind the session (ground-truth collection).

        Ground-truth pages/certificates are collected lazily, once per
        worker suite, inside whichever unit happens to run first there —
        so their packets and clock advance must stay invisible or traces
        and metrics would depend on scheduling.  Results are unaffected
        by the clock restore because they only consume clock *deltas*.
        """
        from repro.dns.resolver import reset_txids, txid_state

        internet = self._internet
        if internet is None:
            yield
            return
        saved_clock = internet.clock_ms
        saved_txid = txid_state()
        internet.obs = None
        trust_store = self._trust_store
        if trust_store is not None:
            # Phase hooks that route through `internet.obs` go dark with
            # it; the directly wired TLS-validation hook must too, or
            # ground-truth probes would bill scheduling-dependent "tls"
            # calls to whichever unit triggered the collection.
            trust_store.profile = None
        try:
            yield
        finally:
            internet.obs = self
            internet.clock_ms = saved_clock
            reset_txids(saved_txid)
            if trust_store is not None:
                trust_store.profile = self.profile

    # ------------------------------------------------------------------
    # Unit lifecycle (driven by the harness/executor)
    # ------------------------------------------------------------------
    def begin_unit(self, unit: "AuditUnit") -> None:
        if self.tracer is not None:
            self.tracer.begin_unit(unit.unit_id, unit.seed)
        if self.profile is not None:
            self.profile.reset()
        self._packet_spans = {}
        self._test_span_id = None
        self._unit_open = True

    def drain_unit(self) -> Optional[dict]:
        """Collect this unit's obs payload (rides home in the UnitOutcome)."""
        if not self._unit_open:
            return None
        self._unit_open = False
        self._packet_spans = {}
        self._test_span_id = None
        payload: dict = {}
        if self.route_stats is not None and self.metrics is not None:
            hits, misses = self.route_stats.drain()
            if hits:
                self.metrics.inc("routing.memo_hits", hits)
            if misses:
                self.metrics.inc("routing.memo_misses", misses)
        if self.profile is not None:
            # Profiling implies metrics, so the registry exists; phase
            # and stage totals ride the unit's ordinary metrics snapshot.
            fold_profile(self.profile, self.metrics)
        if self.tracer is not None:
            payload["trace"] = self.tracer.drain()
        if self.metrics is not None:
            payload["metrics"] = self.metrics.drain()
        return payload or None

    def drain_profile(self) -> Optional[dict]:
        """Metrics snapshot of profiler frames recorded *outside* any unit.

        The coordinator's suite runs study assembly after every unit is
        done; its ``analysis`` phase (and any delivery under it)
        therefore never reaches :meth:`drain_unit`.  The executor calls
        this afterwards and publishes the result as one extra
        :class:`~repro.runtime.events.UnitMetrics` delta.
        """
        if self.profile is None:
            return None
        fold_profile(self.profile, self.metrics)
        return self.metrics.drain()
