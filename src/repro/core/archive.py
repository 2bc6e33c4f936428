"""Study archival.

The paper's suite "logs results for each experiment as well as traffic
traces for passive analysis"; this module persists a study the same way:
one JSON file per vantage point under ``<root>/<provider>/``, a per-provider
verdict summary, and a study-level manifest.  Archives round-trip enough
structure to re-derive every aggregate table without re-running tests.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

if TYPE_CHECKING:
    from repro.core.harness import ProviderReport, StudyReport
    from repro.core.results import VantagePointResults

_MANIFEST = "manifest.json"
_VERDICTS = "verdicts.json"

#: Manifest keys in the exact order :func:`write_study_archive` emits them.
#: Merging preserves this order so a merged manifest is byte-identical to
#: one written monolithically.
_MANIFEST_KEYS = (
    "providers",
    "intercepting",
    "failing_open",
    "misrepresenting",
    "geoip",
    "redirects",
)


def _slug(name: str) -> str:
    return "".join(
        ch if ch.isalnum() or ch in "-_" else "_" for ch in name.lower()
    )


def manifest_from_verdicts(
    verdicts: Iterable[dict], study: "StudyReport"
) -> dict:
    """The study manifest, keys in canonical order.

    *verdicts* are the providers' :func:`provider_verdicts` payloads and
    *study* carries the cross-provider aggregates (geo-IP, redirects).
    Every archive writer — monolithic, streamed, per-shard — builds its
    manifest here, so this is the one place that says which verdicts make
    a provider intercepting, failing open or misrepresenting locations.
    """
    verdicts = list(verdicts)

    def flagged(*keys: str) -> list[str]:
        return sorted(
            v["provider"] for v in verdicts if any(v[key] for key in keys)
        )

    return {
        "providers": sorted(v["provider"] for v in verdicts),
        "intercepting": flagged("injection", "proxy", "tls_interception"),
        "failing_open": flagged("fails_open"),
        "misrepresenting": flagged("misrepresents_locations"),
        # Summable across archive shards.
        "geoip": [
            {
                "database": row.database,
                "compared": row.compared,
                "estimates": row.estimates,
                "agreements": row.agreements,
            }
            for row in study.geoip.rows()
        ],
        # Unionable across archive shards.
        "redirects": [
            {
                "destination": row.destination,
                "providers": sorted(row.providers),
                "countries": sorted(row.countries),
            }
            for row in study.redirects.table()
        ],
    }


def study_manifest(study: "StudyReport") -> dict:
    """The manifest of a fully materialised :class:`StudyReport`."""
    return manifest_from_verdicts(
        map(provider_verdicts, study.providers.values()), study
    )


def write_study_archive(
    study: "StudyReport", root: str | pathlib.Path
) -> pathlib.Path:
    """Persist a study to *root*; returns the archive directory."""
    root = pathlib.Path(root)
    root.mkdir(parents=True, exist_ok=True)
    (root / _MANIFEST).write_text(
        json.dumps(study_manifest(study), indent=2)
    )
    for name, report in study.providers.items():
        write_provider_archive(report, root / _slug(name))
    return root


def provider_verdicts(report: "ProviderReport") -> dict:
    """The per-provider ``verdicts.json`` payload, keys in archive order."""
    return {
        "provider": report.provider,
        "subscription": report.subscription,
        "client_type": report.client_type,
        "injection": report.injection_detected,
        "proxy": report.proxy_detected,
        "tls_interception": report.tls_interception_detected,
        "dns_leak": report.dns_leak_detected,
        "ipv6_leak": report.ipv6_leak_detected,
        "webrtc_leak": report.webrtc_leak_detected,
        "fails_open": report.fails_open,
        "misrepresents_locations": report.misrepresents_locations,
        "full_vantage_points": [r.hostname for r in report.full_results],
        "swept_vantage_points": [r.hostname for r in report.sweep_results],
    }


def write_provider_verdicts(
    report: "ProviderReport", directory: str | pathlib.Path
) -> dict:
    """Write one provider's ``verdicts.json``; returns the payload dict."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    verdicts = provider_verdicts(report)
    (directory / _VERDICTS).write_text(json.dumps(verdicts, indent=2))
    return verdicts


def write_provider_archive(
    report: "ProviderReport", directory: str | pathlib.Path
) -> pathlib.Path:
    directory = pathlib.Path(directory)
    write_provider_verdicts(report, directory)
    for results in report.full_results + report.sweep_results:
        _write_results_file(results, directory)
    return directory


def _write_results_file(
    results: "VantagePointResults", directory: pathlib.Path
) -> pathlib.Path:
    path = directory / (_slug(results.hostname) + ".json")
    path.write_text(results.to_json())
    return path


def write_unit_result(
    results: "VantagePointResults", root: str | pathlib.Path
) -> pathlib.Path:
    """Persist one vantage point's results under ``<root>/<provider>/``.

    This is the unit of incremental persistence: study checkpoints append
    completed work units through it, and :func:`write_provider_archive`
    writes with the same file writer, so both share one format
    (``<root>/<provider slug>/<hostname slug>.json``) byte for byte.
    """
    directory = pathlib.Path(root) / _slug(results.provider)
    directory.mkdir(parents=True, exist_ok=True)
    return _write_results_file(results, directory)


def archive_fingerprint(root: str | pathlib.Path) -> str:
    """SHA-256 fingerprint of a study archive, byte-exact.

    For every ``*.json`` under *root* in sorted relative-path order the
    digest absorbs the path bytes, a NUL, the file bytes, a NUL — the
    recipe ``tests/test_determinism.py`` pins against its golden constant.
    It is the identity of a study's *output*: two runs agree on this value
    iff their archives are byte-identical, which is how the serve daemon
    proves a job's HTTP-fetched result equals a one-shot CLI run.
    """
    root = pathlib.Path(root)
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.json")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def read_vantage_point_results(
    path: str | pathlib.Path,
) -> "VantagePointResults":
    """Load one archived vantage-point file back into a typed record."""
    from repro.core.results import VantagePointResults

    return VantagePointResults.from_json(pathlib.Path(path).read_text())


class ArchiveReadError(RuntimeError):
    """A committed unit's archived results could not be read back.

    A unit committed by the run always has its bytes on disk, so a
    missing or torn file at assembly means the archive was damaged under
    the run; raising keeps that from silently becoming connect failures.
    """

    def __init__(self, path: pathlib.Path, unit_id: str, cause: Exception):
        super().__init__(
            f"cannot read back unit {unit_id} from {path}: {cause}"
        )
        self.path = path
        self.unit_id = unit_id


class StreamingArchiveWriter:
    """Append-only study archive writer.

    A monolithic :func:`write_study_archive` needs the whole
    :class:`StudyReport` in memory; this writer instead accepts one
    vantage point's results at a time (``append_result``, as each unit
    finishes), one provider's verdicts at a time (``write_verdicts``, as
    each provider is assembled and dropped), and the manifest last
    (``finalize``).  Every file goes through the same byte-exact writers
    the monolithic path uses, so a finalized streamed archive is
    indistinguishable — same :func:`archive_fingerprint` — from one
    written all at once.

    Crash behaviour: files are written whole, results before the unit is
    journalled, so an interrupted study leaves a readable prefix that a
    resume (``repro.runtime.checkpoint.CheckpointStore``) completes.
    """

    def __init__(self, root: str | pathlib.Path) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def append_result(
        self, results: "VantagePointResults"
    ) -> pathlib.Path:
        """Persist one vantage point's results as they complete."""
        return write_unit_result(results, self.root)

    def write_verdicts(self, report: "ProviderReport") -> dict:
        """Persist one assembled provider's verdict summary."""
        return write_provider_verdicts(
            report, self.root / _slug(report.provider)
        )

    def finalize(self, manifest: dict) -> pathlib.Path:
        """Write the study manifest, completing the archive."""
        path = self.root / _MANIFEST
        path.write_text(json.dumps(manifest, indent=2))
        return path


def iter_archive_results(
    root: str | pathlib.Path,
    provider: Optional[str] = None,
    strict: bool = False,
    metrics=None,
) -> Iterator["VantagePointResults"]:
    """Iterate archived vantage-point results without loading them all.

    Walks ``<root>/<provider slug>/*.json`` in sorted path order, skipping
    manifests and verdict summaries.  Truncated or corrupt files (e.g. the
    in-flight unit of a crashed streaming run) are skipped unless
    *strict*, so the readable prefix of a partial archive is always
    recoverable.  *metrics* (a
    :class:`~repro.obs.metrics.MetricsRegistry`) counts each skipped file
    as ``archive.torn_results`` — torn tails become a visible counter at
    ``/metrics`` instead of silent absence.
    """
    root = pathlib.Path(root)
    directories = (
        [root / _slug(provider)] if provider is not None
        else sorted(p for p in root.iterdir() if p.is_dir())
    )
    for directory in directories:
        if not directory.is_dir():
            continue
        for path in sorted(directory.glob("*.json")):
            if path.name == _VERDICTS:
                continue
            try:
                yield read_vantage_point_results(path)
            except (ValueError, KeyError, TypeError):
                if strict:
                    raise
                if metrics is not None:
                    metrics.inc("archive.torn_results")


def _merge_manifests(manifests: list[dict]) -> dict:
    """Structurally merge study manifests, in canonical key order.

    Provider-name sets union; the ``geoip`` table sums per database; the
    ``redirects`` table unions providers/countries per destination and
    re-sorts by the monolithic path's ``(-provider count, destination)``
    rule.  Because every aggregate is re-derived from its parts rather
    than last-source-wins, the merge is order-independent and — when the
    sources partition one study — byte-identical to the manifest the
    unsharded run writes.  Non-canonical keys are carried over last-wins,
    after the canonical ones.
    """
    merged: dict = {}
    name_sets: dict[str, set] = {
        key: set()
        for key in (
            "providers", "intercepting", "failing_open", "misrepresenting"
        )
    }
    geoip: dict[str, dict] = {}
    redirects: dict[str, dict] = {}
    extras: dict = {}
    for manifest in manifests:
        for key, bucket in name_sets.items():
            bucket.update(manifest.get(key, ()))
        for row in manifest.get("geoip", ()):
            agg = geoip.setdefault(
                row["database"],
                {
                    "database": row["database"],
                    "compared": 0,
                    "estimates": 0,
                    "agreements": 0,
                },
            )
            for counter in ("compared", "estimates", "agreements"):
                agg[counter] += row[counter]
        for row in manifest.get("redirects", ()):
            agg = redirects.setdefault(
                row["destination"],
                {
                    "destination": row["destination"],
                    "providers": set(),
                    "countries": set(),
                },
            )
            agg["providers"].update(row.get("providers", ()))
            agg["countries"].update(row.get("countries", ()))
        for key, value in manifest.items():
            if key not in _MANIFEST_KEYS:
                extras[key] = value
    present = set()
    for manifest in manifests:
        present.update(manifest)
    for key in _MANIFEST_KEYS:
        if key not in present:
            continue
        if key in name_sets:
            merged[key] = sorted(name_sets[key])
        elif key == "geoip":
            merged[key] = sorted(
                geoip.values(), key=lambda row: row["database"]
            )
        else:
            merged[key] = [
                {
                    "destination": row["destination"],
                    "providers": sorted(row["providers"]),
                    "countries": sorted(row["countries"]),
                }
                for row in sorted(
                    redirects.values(),
                    key=lambda row: (
                        -len(row["providers"]), row["destination"]
                    ),
                )
            ]
    merged.update(extras)
    return merged


def merge_archives(
    sources: list[str | pathlib.Path], dest: str | pathlib.Path
) -> pathlib.Path:
    """Merge study/checkpoint archive directories into *dest*.

    Per-vantage-point results and per-provider verdicts are copied (later
    sources win on conflicts — results are deterministic, so conflicting
    files are normally identical anyway); manifests merge *structurally*
    via :func:`_merge_manifests`, so merging the per-shard archives of a
    sharded run reproduces the monolithic manifest byte for byte, in any
    shard order.  Lets partial archives — shard outputs, two snapshot
    halves, or a checkpoint plus a finishing run — combine into one
    readable archive.
    """
    dest = pathlib.Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    manifests: list[dict] = []
    for source in sources:
        source = pathlib.Path(source)
        if not source.is_dir():
            raise FileNotFoundError(f"archive directory not found: {source}")
        source_manifest = source / _MANIFEST
        if source_manifest.exists():
            manifests.append(json.loads(source_manifest.read_text()))
        for path in sorted(source.rglob("*.json")):
            if path == source_manifest:
                continue
            relative = path.relative_to(source)
            target = dest / relative
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
    if manifests:
        (dest / _MANIFEST).write_text(
            json.dumps(_merge_manifests(manifests), indent=2)
        )
    return dest


@dataclass
class ArchivedVerdicts:
    """Per-provider verdicts loaded back from disk."""

    provider: str
    subscription: str
    client_type: str
    injection: bool
    proxy: bool
    tls_interception: bool
    dns_leak: bool
    ipv6_leak: bool
    webrtc_leak: bool
    fails_open: Optional[bool]
    misrepresents_locations: bool
    full_vantage_points: list[str] = field(default_factory=list)
    swept_vantage_points: list[str] = field(default_factory=list)


@dataclass
class ArchivedStudy:
    """A study read back from an archive directory."""

    manifest: dict
    verdicts: dict[str, ArchivedVerdicts] = field(default_factory=dict)

    @property
    def providers(self) -> list[str]:
        return list(self.manifest["providers"])


def read_study_archive(root: str | pathlib.Path) -> ArchivedStudy:
    root = pathlib.Path(root)
    manifest = json.loads((root / _MANIFEST).read_text())
    study = ArchivedStudy(manifest=manifest)
    for name in manifest["providers"]:
        directory = root / _slug(name)
        verdict_file = directory / _VERDICTS
        if not verdict_file.exists():
            continue
        raw = json.loads(verdict_file.read_text())
        study.verdicts[name] = ArchivedVerdicts(**raw)
    return study
