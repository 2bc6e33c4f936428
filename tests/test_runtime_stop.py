"""Cooperative stop, checkpoint pruning, and the graceful-shutdown CLI.

The stop event is the one mechanism behind ``repro study``'s SIGTERM
handler, daemon drain, and job cancellation: when set, the executor
finishes (and commits) every in-flight unit, publishes ``StudyHalted``,
and raises ``StudyInterrupted``.  These tests pin the contract that makes
the serve daemon's crash-resume work: whatever was committed before the
interrupt is exactly what a resumed run skips.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

PROVIDERS = ["Seed4.me", "PureVPN", "MyIP.io"]


def _executor(stop_event=None, pool=None, workers=1, checkpoint_dir=None):
    from repro.runtime.executor import StudyExecutor

    return StudyExecutor(
        seed=2018,
        providers=PROVIDERS,
        max_vantage_points=2,
        workers=workers,
        backend="thread",
        stop_event=stop_event,
        pool=pool,
        checkpoint_dir=checkpoint_dir,
    )


def _stop_after(bus, stop_event, units: int):
    """Set *stop_event* once *units* UnitFinished events have passed."""
    from repro.runtime import events as ev

    seen = {"n": 0}

    def listener(event):
        if isinstance(event, ev.UnitFinished):
            seen["n"] += 1
            if seen["n"] >= units:
                stop_event.set()

    bus.subscribe(listener)


class TestStopEvent:
    def test_preset_stop_interrupts_immediately_inline(self):
        from repro.runtime.executor import StudyInterrupted

        stop = threading.Event()
        stop.set()
        executor = _executor(stop_event=stop)
        with pytest.raises(StudyInterrupted) as err:
            executor.run()
        assert err.value.completed == 0
        assert err.value.remaining > 0

    def test_inline_stop_mid_run_commits_finished_units(self, tmp_path):
        from repro.runtime.executor import StudyInterrupted

        stop = threading.Event()
        executor = _executor(
            stop_event=stop, checkpoint_dir=str(tmp_path / "ckpt")
        )
        _stop_after(executor.bus, stop, units=2)
        with pytest.raises(StudyInterrupted) as err:
            executor.run()
        assert err.value.completed == 2
        journal = tmp_path / "ckpt" / "units.jsonl"
        assert len(journal.read_text().splitlines()) == 2

    def test_pooled_stop_commits_in_flight_units(self, tmp_path):
        from repro.runtime.executor import StudyInterrupted

        stop = threading.Event()
        executor = _executor(
            stop_event=stop,
            workers=4,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        _stop_after(executor.bus, stop, units=1)
        with pytest.raises(StudyInterrupted) as err:
            executor.run()
        # Everything the exception reports as completed is on disk.
        journal = tmp_path / "ckpt" / "units.jsonl"
        assert len(journal.read_text().splitlines()) == err.value.completed
        assert executor.stats.halted

    def test_request_stop_without_prior_event(self):
        from repro.runtime.executor import StudyInterrupted

        executor = _executor()
        executor.request_stop()
        with pytest.raises(StudyInterrupted):
            executor.run()

    def test_interrupted_run_resumes_to_identical_archive(self, tmp_path):
        """Stop + resume must produce the same bytes as one clean run."""
        from repro.core.archive import archive_fingerprint, write_study_archive
        from repro.runtime.executor import StudyInterrupted

        stop = threading.Event()
        first = _executor(
            stop_event=stop, checkpoint_dir=str(tmp_path / "ckpt")
        )
        _stop_after(first.bus, stop, units=3)
        with pytest.raises(StudyInterrupted):
            first.run()

        resumed = _executor(checkpoint_dir=str(tmp_path / "ckpt"))
        report = resumed.run()
        assert resumed.stats.skipped_units == 3
        write_study_archive(report, tmp_path / "resumed")

        clean = _executor().run()
        write_study_archive(clean, tmp_path / "clean")
        assert archive_fingerprint(tmp_path / "resumed") == (
            archive_fingerprint(tmp_path / "clean")
        )

    def test_study_halted_event_published(self):
        from repro.runtime import events as ev
        from repro.runtime.executor import StudyInterrupted

        stop = threading.Event()
        stop.set()
        executor = _executor(stop_event=stop)
        halted = []
        executor.bus.subscribe(
            lambda e: halted.append(e)
            if isinstance(e, ev.StudyHalted)
            else None
        )
        with pytest.raises(StudyInterrupted):
            executor.run()
        assert len(halted) == 1
        assert halted[0].remaining > 0


class TestSharedPool:
    def test_external_pool_is_shared_and_not_shut_down(self):
        pool = ThreadPoolExecutor(max_workers=4)
        try:
            a = _executor(pool=pool, workers=4).run()
            b = _executor(pool=pool, workers=4).run()
            assert sorted(a.providers) == sorted(b.providers)
            # The executor must not have shut the borrowed pool down.
            assert pool.submit(lambda: 42).result() == 42
        finally:
            pool.shutdown()

    def test_external_pool_matches_golden_output(self, tmp_path):
        from repro.core.archive import archive_fingerprint, write_study_archive
        from tests.test_determinism import GOLDEN_STUDY_FINGERPRINT

        pool = ThreadPoolExecutor(max_workers=4)
        try:
            report = _executor(pool=pool, workers=4).run()
        finally:
            pool.shutdown()
        write_study_archive(report, tmp_path / "archive")
        assert archive_fingerprint(tmp_path / "archive") == (
            GOLDEN_STUDY_FINGERPRINT
        )

    def test_external_pool_requires_thread_backend(self):
        from repro.runtime.executor import StudyExecutor

        pool = ThreadPoolExecutor(max_workers=1)
        try:
            with pytest.raises(ValueError, match="thread backend"):
                StudyExecutor(backend="process", workers=2, pool=pool)
        finally:
            pool.shutdown()


class TestCheckpointPrune:
    def test_prune_removes_everything_and_counts_files(self, tmp_path):
        from repro.runtime.checkpoint import CheckpointStore
        from repro.runtime.executor import StudyInterrupted

        stop = threading.Event()
        executor = _executor(
            stop_event=stop, checkpoint_dir=str(tmp_path / "ckpt")
        )
        _stop_after(executor.bus, stop, units=2)
        with pytest.raises(StudyInterrupted):
            executor.run()
        assert (tmp_path / "ckpt" / "units.jsonl").exists()

        removed = CheckpointStore(tmp_path / "ckpt").prune()
        # journal + plan pin + one results file per committed unit.
        assert removed >= 4
        assert not (tmp_path / "ckpt").exists()

    def test_prune_keeps_a_finished_archive(self, tmp_path):
        """A finished checkpoint is the study's archive: prune removes
        only its plan pin and journal, and the fingerprint holds."""
        from repro.core.archive import archive_fingerprint
        from repro.runtime.checkpoint import CheckpointStore
        from tests.test_determinism import GOLDEN_STUDY_FINGERPRINT

        checkpoint = tmp_path / "ckpt"
        _executor(checkpoint_dir=str(checkpoint)).run()
        assert archive_fingerprint(checkpoint) == GOLDEN_STUDY_FINGERPRINT

        assert CheckpointStore(checkpoint).prune() == 2
        assert not (checkpoint / "plan.pin").exists()
        assert not (checkpoint / "units.jsonl").exists()
        assert archive_fingerprint(checkpoint) == GOLDEN_STUDY_FINGERPRINT

    def test_prune_missing_directory_is_zero(self, tmp_path):
        from repro.runtime.checkpoint import CheckpointStore

        assert CheckpointStore(tmp_path / "nothing").prune() == 0

    def test_prune_cli_on_study_checkpoint(self, tmp_path):
        from repro.cli import main
        from repro.runtime.executor import StudyInterrupted

        stop = threading.Event()
        executor = _executor(
            stop_event=stop, checkpoint_dir=str(tmp_path / "ckpt")
        )
        _stop_after(executor.bus, stop, units=1)
        with pytest.raises(StudyInterrupted):
            executor.run()

        assert main(["checkpoint", "prune", str(tmp_path / "ckpt")]) == 0
        assert not (tmp_path / "ckpt").exists()

    def test_prune_cli_missing_path_fails(self, tmp_path, capsys):
        from repro.cli import main

        # A directory with neither a plan pin nor a journal is no
        # checkpoint: refused, and nothing in it is deleted.
        foreign = tmp_path / "foreign"
        (foreign / "sub").mkdir(parents=True)
        (foreign / "notes.txt").write_text("notes")
        (foreign / "sub" / "data.csv").write_text("a,b\n")
        for path in (tmp_path / "gone", foreign):
            assert main(["checkpoint", "prune", str(path)]) == 2
            err = capsys.readouterr().err
            (line,) = [line for line in err.splitlines() if line.strip()]
            assert line.startswith("error: ")
        assert (foreign / "notes.txt").read_text() == "notes"
        assert (foreign / "sub" / "data.csv").read_text() == "a,b\n"


class TestResumeMismatchCli:
    def test_foreign_checkpoint_is_one_error_line(self, tmp_path, capsys):
        from repro.cli import main
        from repro.runtime.checkpoint import CheckpointStore
        from repro.runtime.units import StudyPlan

        foreign = StudyPlan(seed=1, max_vantage_points=2, providers=["P"])
        checkpoint = tmp_path / "ckpt"
        CheckpointStore(checkpoint).open(foreign)

        assert main([
            "study", "--providers", "MyIP.io", "--max-vps", "1",
            "--resume", str(checkpoint),
        ]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines() if line.strip()]
        assert line.startswith("error: ")
        assert str(checkpoint) in line
        requested = StudyPlan(
            seed=2018, max_vantage_points=1, providers=["MyIP.io"]
        )
        assert foreign.fingerprint() in line
        assert requested.fingerprint() in line


class TestArchiveFingerprintCli:
    def test_fingerprint_matches_library(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core.archive import archive_fingerprint, write_study_archive

        report = _executor().run()
        write_study_archive(report, tmp_path / "archive")
        assert main(["archive", "fingerprint", str(tmp_path / "archive")]) == 0
        out = capsys.readouterr().out.strip()
        assert out == archive_fingerprint(tmp_path / "archive")


class TestExplainJson:
    def test_explain_json_document_shape(self, capsys):
        from repro.cli import main

        assert main([
            "report", "explain", "Seed4.me", "--max-vps", "2", "--json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["provider"] == "Seed4.me"
        assert isinstance(document["verdicts"], dict)
        assert "fails_open" in document["verdicts"]
        assert isinstance(document["evidence"], dict)

    def test_explain_json_matches_service_serialization(self, capsys):
        """--json and the HTTP result store share explain_document()."""
        from repro.api import explain_provider
        from repro.cli import main
        from repro.config import StudyConfig
        from repro.obs.evidence import explain_document

        assert main([
            "report", "explain", "Seed4.me", "--max-vps", "2", "--json",
        ]) == 0
        from_cli = json.loads(capsys.readouterr().out)

        report, trace_records = explain_provider(
            "Seed4.me", config=StudyConfig(max_vantage_points=2)
        )
        assert from_cli == explain_document(report, trace_records)


class TestStudySigterm:
    def test_sigterm_drains_flushes_checkpoint_and_exits_nonzero(
        self, tmp_path
    ):
        """The bug this fixes: SIGTERM used to kill the study mid-unit,
        losing in-flight work and leaving exit status 0|signal-death.
        Now the process finishes in-flight units, flushes the checkpoint,
        and exits 128+15."""
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        ckpt = tmp_path / "ckpt"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "study",
                "--max-vps", "2", "--resume", str(ckpt),
            ],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        journal = ckpt / "units.jsonl"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if journal.exists() and journal.stat().st_size > 0:
                break
            if proc.poll() is not None:
                pytest.fail(f"study died early: {proc.communicate()[1]}")
            time.sleep(0.05)
        else:
            proc.kill()
            pytest.fail("no unit committed within 60s")

        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 128 + signal.SIGTERM
        assert "interrupted by signal 15" in err
        assert str(ckpt) in err  # tells the operator how to resume
        # The journal is intact and parseable — the checkpoint flushed.
        lines = journal.read_text().splitlines()
        assert lines
        for line in lines:
            json.loads(line)
