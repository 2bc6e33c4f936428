"""Tests for the study archive and the CLI."""

import json

import pytest

from repro.cli import main
from repro.core.archive import (
    archive_fingerprint,
    merge_archives,
    read_study_archive,
    read_vantage_point_results,
    write_provider_archive,
    write_study_archive,
    write_unit_result,
)


@pytest.fixture(scope="module")
def small_study():
    from repro.api import run_full_study
    from repro.config import StudyConfig

    return run_full_study(StudyConfig(providers=["Seed4.me", "Mullvad"]))


class TestArchive:
    def test_round_trip(self, small_study, tmp_path):
        root = write_study_archive(small_study, tmp_path / "archive")
        loaded = read_study_archive(root)
        assert set(loaded.providers) == {"Seed4.me", "Mullvad"}
        seed = loaded.verdicts["Seed4.me"]
        assert seed.injection is True
        assert seed.ipv6_leak is True
        assert seed.fails_open is True
        mullvad = loaded.verdicts["Mullvad"]
        assert mullvad.injection is False
        assert mullvad.fails_open is False

    def test_manifest_contents(self, small_study, tmp_path):
        root = write_study_archive(small_study, tmp_path / "archive")
        manifest = json.loads((root / "manifest.json").read_text())
        assert "Seed4.me" in manifest["intercepting"]
        assert any(
            row["database"] == "maxmind-geolite2"
            for row in manifest["geoip"]
        )

    def test_per_vantage_point_files(self, small_study, tmp_path):
        root = write_study_archive(small_study, tmp_path / "archive")
        seed_dir = root / "seed4_me"
        json_files = list(seed_dir.glob("*.json"))
        # verdicts + one file per vantage point
        assert len(json_files) == 1 + 11
        sample = json.loads(
            next(p for p in json_files if p.name != "verdicts.json")
            .read_text()
        )
        assert sample["provider"] == "Seed4.me"

    def test_provider_archive_alone(self, small_study, tmp_path):
        report = small_study.providers["Mullvad"]
        directory = write_provider_archive(report, tmp_path / "mullvad")
        verdicts = json.loads((directory / "verdicts.json").read_text())
        assert verdicts["provider"] == "Mullvad"
        assert verdicts["webrtc_leak"] is True  # universal WebRTC exposure


class TestUnitResults:
    """Unit-level persistence: checkpoints and archives share one format."""

    def test_write_unit_result_matches_archive_layout(
        self, small_study, tmp_path
    ):
        results = small_study.providers["Seed4.me"].full_results[0]
        path = write_unit_result(results, tmp_path / "ck")
        archive_root = write_study_archive(small_study, tmp_path / "archive")
        twin = archive_root / path.relative_to(tmp_path / "ck")
        assert twin.exists()
        assert path.read_bytes() == twin.read_bytes()

    def test_vantage_point_results_round_trip_exactly(
        self, small_study, tmp_path
    ):
        for results in small_study.providers["Seed4.me"].full_results:
            path = write_unit_result(results, tmp_path / "rt")
            restored = read_vantage_point_results(path)
            assert restored == results
            assert restored.to_json() == results.to_json()

    def test_merge_archives_combines_partial_studies(
        self, small_study, tmp_path
    ):
        left = write_provider_archive(
            small_study.providers["Seed4.me"], tmp_path / "a" / "seed4_me"
        ).parent
        right = write_provider_archive(
            small_study.providers["Mullvad"], tmp_path / "b" / "mullvad"
        ).parent
        (tmp_path / "a" / "manifest.json").write_text(
            json.dumps({"providers": ["Seed4.me"]})
        )
        (tmp_path / "b" / "manifest.json").write_text(
            json.dumps({"providers": ["Mullvad"]})
        )
        merged = merge_archives([left, right], tmp_path / "merged")
        loaded = read_study_archive(merged)
        assert set(loaded.providers) == {"Seed4.me", "Mullvad"}
        assert loaded.verdicts["Seed4.me"].injection is True
        assert loaded.verdicts["Mullvad"].injection is False

    def test_merge_archives_rejects_missing_source(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            merge_archives([tmp_path / "nope"], tmp_path / "out")


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "NordVPN" in out
        assert "Seed4.me" in out

    def test_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "bench_table4.py" in out
        assert "Figure 9" in out

    def test_ecosystem(self, capsys):
        assert main(["ecosystem"]) == 0
        out = capsys.readouterr().out
        assert "Monthly" in out
        assert "affiliate programmes : 88" in out

    def test_audit_unknown_provider(self, capsys):
        assert main(["audit", "NotARealVPN"]) == 2
        err = capsys.readouterr().err
        assert "unknown provider" in err

    @pytest.mark.parametrize(
        "series", [[], ["--snapshots", "2"]], ids=["one-shot", "series"]
    )
    def test_study_unknown_provider(self, series, capsys):
        """Unknown names are refused before any world is built."""
        argv = ["study", "--providers", "Seed4.me", "NoSuchVPN", *series]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines() if line.strip()]
        assert line == (
            "error: unknown provider(s): NoSuchVPN; see 'repro list'"
        )

    def test_program_error_in_a_run_is_not_bad_input(self, monkeypatch):
        """No handler wraps a run: a ``KeyError`` raised in assembly
        escapes ``report explain`` instead of reading as a bad name."""
        from repro.core.harness import TestSuite

        def broken(*args, **kwargs):
            raise KeyError("assembly bug")

        monkeypatch.setattr(TestSuite, "assemble_provider_from_plan", broken)
        with pytest.raises(KeyError, match="assembly bug"):
            main(["report", "explain", "Seed4.me", "--max-vps", "1"])

    def test_fingerprint_of_no_archive_is_one_error_line(
        self, tmp_path, capsys
    ):
        """A directory without ``*.json`` has no fingerprint, not the
        hash of nothing."""
        (tmp_path / "notes.txt").write_text("not an archive\n")
        assert main(["archive", "fingerprint", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = [ln for ln in captured.err.splitlines() if ln.strip()]
        assert line.startswith("error: ")

    def test_audit_known_provider(self, capsys):
        assert main(["audit", "MyIP.io", "--max-vps", "2"]) == 0
        out = capsys.readouterr().out
        assert "MyIP.io" in out
        assert "location misrepresentation" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["study", "--providers", "Seed4.me", "--workers", "0"],
            ["study", "--providers", "Seed4.me", "--shards", "0"],
            ["study", "--providers", "Seed4.me", "--max-vps", "0"],
            ["study", "--providers", "Seed4.me", "--snapshots", "0"],
            ["study", "--providers", "Seed4.me", "--stage-sample", "0"],
            ["serve", "--workers", "0"],
            pytest.param(
                ["audit", "MyIP.io", "--max-vps", "0"],
                id="audit --max-vps 0",
            ),
            pytest.param(
                ["study", "--source", "catalog", "--providers", "Seed4.me"],
                id="--source and --providers",
            ),
            pytest.param(
                ["study", "--providers", "Seed4.me", "--stream"],
                id="--stream without --archive",
            ),
            pytest.param(
                ["study", "--source", "generated:x"], id="bad --source",
            ),
            pytest.param(
                ["study", "--source", "garbage:1", "--max-vps", "1"],
                id="--source garbage:1",
            ),
            pytest.param(
                ["study", "--source", "NoSuchVPN"], id="--source NoSuchVPN",
            ),
            pytest.param(
                ["report", "explain", "NoSuchVPN"],
                id="report explain NoSuchVPN",
            ),
            pytest.param(
                ["guide", "Seed4.me", "NoSuchVPN"], id="guide NoSuchVPN",
            ),
            pytest.param(
                ["trace", "summarize", "{tmp}/missing.jsonl"],
                id="trace of no file",
            ),
            pytest.param(
                ["trace", "summarize", "{tmp}/empty.jsonl"],
                id="trace of no records",
            ),
            pytest.param(
                ["trace", "query", "kind", "{tmp}/trace.jsonl"],
                id="bad trace query",
            ),
            pytest.param(
                ["client", "submit", "study", "--providers", "NoSuchVPN"],
                id="bad job",
            ),
            pytest.param(
                ["ledger", "show", "{tmp}/missing.jsonl"],
                id="ledger of no file",
            ),
            pytest.param(
                ["ledger", "show", "{tmp}/empty.jsonl"],
                id="ledger of no records",
            ),
            pytest.param(
                ["ledger", "show", "{tmp}/ledger.jsonl"],
                id="bad ledger record",
            ),
            pytest.param(
                ["archive", "fingerprint", "{tmp}/missing"],
                id="fingerprint of no directory",
            ),
            pytest.param(
                ["ecosystem", "generate", "--providers", "0",
                 "--out", "{tmp}/spec.json"],
                id="bad generated ecosystem",
            ),
        ],
        ids=lambda argv: " ".join(argv[-2:]),
    )
    def test_out_of_range_flag_is_one_error_line(
        self, argv, tmp_path, capsys
    ):
        """Bad input, flags and files alike, is one ``error:`` line."""
        (tmp_path / "empty.jsonl").write_text("")
        (tmp_path / "trace.jsonl").write_text('{"kind": "span"}\n')
        (tmp_path / "ledger.jsonl").write_text(
            '{"event": "UnitFinished", "unit_id": "u0"}\n'
        )
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines() if line.strip()]
        assert line.startswith("error: ")


class TestSeriesCli:
    """A snapshot series takes the one-shot study's flags."""

    ARGS = ["study", "--providers", "Seed4.me", "--max-vps", "1"]

    def test_streamed_series_archives_the_one_shot_snapshot(
        self, tmp_path, capsys
    ):
        series = tmp_path / "series"
        assert main([
            *self.ARGS, "--snapshots", "2", "--stream",
            "--archive", str(series),
        ]) == 0
        assert main([*self.ARGS, "--archive", str(tmp_path / "single")]) == 0
        capsys.readouterr()
        assert archive_fingerprint(series / "snapshot-00") == (
            archive_fingerprint(tmp_path / "single")
        )
        assert (series / "snapshot-01" / "manifest.json").exists()

    def test_series_with_ledger_and_dashboard(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        assert main([
            *self.ARGS, "--snapshots", "2", "--ledger", str(ledger),
            "--dashboard",
        ]) == 0
        capsys.readouterr()
        assert main(["ledger", "show", str(ledger), "--json"]) == 0
        top = json.loads(capsys.readouterr().out)
        assert top["finished"]
        assert top["completed"] == top["total_units"] > 0
