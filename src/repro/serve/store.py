"""Durable job state and results.

The store owns the daemon's state directory.  Every job gets one
directory whose contents answer every read query the HTTP API serves —
no result is ever recomputed, and nothing the daemon knows lives only in
memory:

    <state_dir>/
      sequence.json                   # monotonic job-ID counter
      jobs/<job_id>/
        job.json                      # JobRecord (state machine, durable)
        archive/                      # the byte-exact study archive, which
                                      # is the job's CheckpointStore
        report.json                   # to_jsonable(StudyReport)
        evidence.json                 # explain_document() per provider
        metrics.json                  # merged MetricsRegistry snapshot
        trace.jsonl                   # span trace (when the job traced)
        fingerprint.json              # archive_fingerprint(archive/)
        events.jsonl                  # the job's event log, written as
                                      # each event is published

``job.json`` is rewritten on every state transition (the queue's
``on_change`` hook).  Every JSON document here is written to a temporary
file beside its target and then renamed over it, so a daemon killed
mid-write leaves the previous document whole, and a killed daemon
recovers its whole queue by scanning ``jobs/*/job.json`` — jobs that were
running resume from their archives (each unit is written once, into
``archive/``, or a snapshots job's ``archive/snapshot-NN/``), results of
finished jobs stay fetchable forever (or until pruned).
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
from typing import TYPE_CHECKING, Optional

from repro.codec import to_jsonable
from repro.runtime.events import EventLog, read_events
from repro.serve.protocol import (
    JobRecord,
    JobRequest,
    JobState,
    ProtocolError,
    TERMINAL_STATES,
)

if TYPE_CHECKING:
    from repro.core.harness import StudyReport
    from repro.runtime.scheduler import LongitudinalReport

_SEQUENCE = "sequence.json"
_JOBS = "jobs"
_JOB = "job.json"
_ARCHIVE = "archive"
#: A job's separate checkpoint tree (``plan.json`` + ``results/``), written
#: before the archive became the checkpoint; nothing reads it.
_OLD_CHECKPOINT = "checkpoint"
_EVENTS = "events.jsonl"

#: Fetchable result documents: name -> filename.
RESULT_FILES = {
    "report": "report.json",
    "evidence": "evidence.json",
    "metrics": "metrics.json",
    "fingerprint": "fingerprint.json",
}


class ResultStore:
    """Filesystem-backed job registry and result index."""

    def __init__(self, root: str | pathlib.Path, metrics=None) -> None:
        self.root = pathlib.Path(root)
        self.jobs_root = self.root / _JOBS
        self.jobs_root.mkdir(parents=True, exist_ok=True)
        #: Optional MetricsRegistry; the daemon wires its own in so
        #: ``serve.store.*`` counters show up on ``GET /metrics``.
        self.metrics = metrics

    # ------------------------------------------------------------------
    # Job identity
    # ------------------------------------------------------------------
    def next_job_id(self, sequence: int, request: JobRequest) -> str:
        """Durable job IDs: persisted counter + work fingerprint prefix.

        The persisted counter dominates the queue's in-memory sequence so
        IDs never collide across daemon restarts.
        """
        path = self.root / _SEQUENCE
        persisted = 0
        if path.exists():
            try:
                persisted = int(json.loads(path.read_text())["next"])
            except (ValueError, KeyError, json.JSONDecodeError):
                persisted = 0
        number = max(sequence, persisted)
        _replace_text(path, json.dumps({"next": number + 1}))
        return f"job-{number:05d}-{request.fingerprint()[:8]}"

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    def job_dir(self, job_id: str) -> pathlib.Path:
        return self.jobs_root / job_id

    def archive_dir(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / _ARCHIVE

    def save_record(self, record: JobRecord) -> None:
        directory = self.job_dir(record.job_id)
        directory.mkdir(parents=True, exist_ok=True)
        self._write_json(directory / _JOB, record.to_dict())

    def load_records(self) -> list[JobRecord]:
        """Every persisted job, oldest first; unreadable ones skipped."""
        records = []
        for path in sorted(self.jobs_root.glob(f"*/{_JOB}")):
            try:
                records.append(
                    JobRecord.from_dict(json.loads(path.read_text()))
                )
            except (json.JSONDecodeError, ProtocolError, KeyError, ValueError):
                # A record this code cannot decode (damaged, or of a wire
                # form it does not know); its results stay on disk.
                continue
        records.sort(key=lambda r: r.sequence)
        return records

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def store_study_result(
        self,
        record: JobRecord,
        report: "StudyReport",
        trace_records: Optional[list[dict]] = None,
        metrics_snapshot: Optional[dict] = None,
    ) -> str:
        """Index a finished study/recheck; returns the archive fingerprint."""
        from repro.core.archive import archive_fingerprint
        from repro.obs.evidence import explain_document

        directory = self.job_dir(record.job_id)
        archive_root = self.archive_dir(record.job_id)
        fingerprint = archive_fingerprint(archive_root)

        self._write_json(
            directory / RESULT_FILES["report"], to_jsonable(report)
        )
        self._write_json(
            directory / RESULT_FILES["evidence"],
            {
                name: explain_document(provider_report)
                for name, provider_report in report.providers.items()
            },
        )
        if metrics_snapshot is not None:
            self._write_json(
                directory / RESULT_FILES["metrics"], metrics_snapshot
            )
        if trace_records:
            from repro.obs.trace import write_trace

            write_trace(trace_records, directory / "trace.jsonl")
        self._write_json(
            directory / RESULT_FILES["fingerprint"],
            {
                "fingerprint": fingerprint,
                "algorithm": "sha256/path-nul-bytes-nul over sorted *.json",
                "archive": str(archive_root),
            },
        )
        return fingerprint

    def store_longitudinal_result(
        self, record: JobRecord, report: "LongitudinalReport"
    ) -> None:
        directory = self.job_dir(record.job_id)
        directory.mkdir(parents=True, exist_ok=True)
        self._write_json(
            directory / RESULT_FILES["report"], report.to_dict()
        )

    def result(self, job_id: str, name: str) -> Optional[dict]:
        """A stored result document by name, or None if absent."""
        filename = RESULT_FILES.get(name)
        if filename is None:
            raise KeyError(name)
        path = self.job_dir(job_id) / filename
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def available_results(self, job_id: str) -> tuple[str, ...]:
        directory = self.job_dir(job_id)
        return tuple(
            name
            for name, filename in sorted(RESULT_FILES.items())
            if (directory / filename).exists()
        )

    def trace_path(self, job_id: str) -> Optional[pathlib.Path]:
        path = self.job_dir(job_id) / "trace.jsonl"
        return path if path.exists() else None

    # ------------------------------------------------------------------
    # Event logs (GET /jobs/{id}/events and /top)
    # ------------------------------------------------------------------
    def open_events(self, job_id: str) -> EventLog:
        """A fresh event log writing the job's ``events.jsonl``."""
        return EventLog(self.job_dir(job_id) / _EVENTS)

    def close_events(self, log: EventLog) -> None:
        """Complete a job's ``events.jsonl``, counted as one store write."""
        log.close()
        self._account(log.size)

    def load_events(self, job_id: str) -> list[dict]:
        """The job's event log, in order; [] when none was written.

        A torn last line (a daemon killed mid-write) ends the log.
        """
        path = self.job_dir(job_id) / _EVENTS
        return read_events(path) if path.exists() else []

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def prune_checkpoints(
        self, records: Optional[list[JobRecord]] = None
    ) -> dict[str, int]:
        """Prune checkpoints of every terminal job; {job_id: files removed}.

        Results, finished archives (a snapshots job's ``snapshot-NN`` too)
        and the job record are kept — only the crash-resume scaffolding
        goes, including a ``checkpoint/`` tree of the old layout.  Jobs
        still queued or running are never touched.
        """
        from repro.runtime.checkpoint import CheckpointStore

        if records is None:
            records = self.load_records()
        pruned: dict[str, int] = {}
        for record in records:
            if record.state not in TERMINAL_STATES:
                continue
            archive = self.archive_dir(record.job_id)
            stores = [archive, *sorted(archive.glob("snapshot-*"))]
            removed = sum(CheckpointStore(d).prune() for d in stores)
            old = self.job_dir(record.job_id) / _OLD_CHECKPOINT
            if old.is_dir():
                removed += sum(1 for p in old.rglob("*") if p.is_file())
                shutil.rmtree(old)
            if removed:
                pruned[record.job_id] = removed
        return pruned

    # ------------------------------------------------------------------
    def _write_json(self, path: pathlib.Path, payload: dict) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _replace_text(path, body)
        self._account(len(body.encode()))

    def _account(self, size: int) -> None:
        if self.metrics is not None:
            self.metrics.inc("serve.store.writes")
            self.metrics.inc("serve.store.bytes_written", size)


def _replace_text(path: pathlib.Path, text: str) -> None:
    """Write *text* to *path* whole or not at all: a temporary file
    beside it, then ``os.replace``, so a reader never sees a torn file."""
    temporary = path.with_name(path.name + ".tmp")
    temporary.write_text(text)
    os.replace(temporary, path)


__all__ = ["ResultStore", "RESULT_FILES", "JobState"]
