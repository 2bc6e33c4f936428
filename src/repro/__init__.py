"""repro — reproduction of *An Empirical Analysis of the Commercial VPN
Ecosystem* (IMC 2018).

The package implements, in pure Python:

- ``repro.net`` — a deterministic simulated internet (hosts, routing, latency,
  packet captures, traceroute semantics);
- ``repro.dns`` / ``repro.web`` — DNS, HTTP and TLS substrates;
- ``repro.vpn`` — tunnel protocols, VPN clients/servers and a catalogue of the
  62 providers evaluated in the paper, with ground-truth behaviours;
- ``repro.geoip`` — models of the three geo-IP databases the paper compares;
- ``repro.ecosystem`` — the 200-provider ecosystem metadata study (Section 4);
- ``repro.core`` — the paper's contribution: the active-measurement test suite
  (Section 5) and its analyses (Section 6);
- ``repro.reporting`` — table and figure regeneration for every experiment;
- ``repro.runtime`` — parallel, checkpointable study execution: work-unit
  decomposition, worker pools, one-retry rule, resumable checkpoints,
  progress events and longitudinal (multi-snapshot) scheduling;
- ``repro.obs`` — opt-in observability: deterministic span traces, merged
  execution metrics and the phase/stage profiler;
- ``repro.serve`` — audit-as-a-service: a persistent daemon with a job
  queue, one shared worker pool, a durable result store, and an HTTP/JSON
  API (``repro serve`` / ``repro client``).

Quickstart::

    from repro import StudyConfig, audit_provider, run_full_study
    report = audit_provider("Seed4.me")
    print(report.summary())
    study = run_full_study(StudyConfig(providers=["Seed4.me"], workers=4))

Exports resolve lazily (PEP 562): importing :mod:`repro` stays cheap, and
each name pulls in its implementing module only on first attribute access.
"""

from typing import TYPE_CHECKING

__version__ = "1.3.0"

#: name -> (module, attribute) for lazy resolution.
_EXPORTS = {
    "audit_provider": ("repro.api", "audit_provider"),
    "build_study": ("repro.api", "build_study"),
    "run_full_study": ("repro.api", "run_full_study"),
    "run_longitudinal_study": ("repro.api", "run_longitudinal_study"),
    "StudyConfig": ("repro.config", "StudyConfig"),
    "StudyReport": ("repro.core.harness", "StudyReport"),
    "ProviderReport": ("repro.core.harness", "ProviderReport"),
    "TestSuite": ("repro.core.harness", "TestSuite"),
    "StudyExecutor": ("repro.runtime.executor", "StudyExecutor"),
    "StudyInterrupted": ("repro.runtime.executor", "StudyInterrupted"),
    "StreamedStudy": ("repro.runtime.executor", "StreamedStudy"),
    "StudySource": ("repro.source", "StudySource"),
    "ProviderSource": ("repro.ecosystem.generate", "ProviderSource"),
    "CatalogProviderSource": (
        "repro.ecosystem.generate", "CatalogProviderSource"
    ),
    "GeneratedProviderSource": (
        "repro.ecosystem.generate", "GeneratedProviderSource"
    ),
    "ServeConfig": ("repro.config", "ServeConfig"),
    "AuditDaemon": ("repro.serve.daemon", "AuditDaemon"),
    "ServeClient": ("repro.serve.client", "ServeClient"),
    "ObsConfig": ("repro.obs.config", "ObsConfig"),
    "Observability": ("repro.obs.session", "Observability"),
    "Tracer": ("repro.obs.trace", "Tracer"),
    "MetricsRegistry": ("repro.obs.metrics", "MetricsRegistry"),
}

__all__ = sorted(_EXPORTS) + ["__version__"]

if TYPE_CHECKING:  # static importers see the real names
    from repro.api import (  # noqa: F401
        audit_provider,
        build_study,
        run_full_study,
        run_longitudinal_study,
    )
    from repro.config import ServeConfig, StudyConfig  # noqa: F401
    from repro.core.harness import (  # noqa: F401
        ProviderReport,
        StudyReport,
        TestSuite,
    )
    from repro.ecosystem.generate import (  # noqa: F401
        CatalogProviderSource,
        GeneratedProviderSource,
        ProviderSource,
    )
    from repro.obs.config import ObsConfig  # noqa: F401
    from repro.obs.metrics import MetricsRegistry  # noqa: F401
    from repro.obs.session import Observability  # noqa: F401
    from repro.obs.trace import Tracer  # noqa: F401
    from repro.runtime.executor import (  # noqa: F401
        StreamedStudy,
        StudyExecutor,
        StudyInterrupted,
    )
    from repro.serve.client import ServeClient  # noqa: F401
    from repro.serve.daemon import AuditDaemon  # noqa: F401
    from repro.source import StudySource  # noqa: F401


def __getattr__(name: str):
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
