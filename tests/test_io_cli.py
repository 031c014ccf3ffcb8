"""Tests for dataset CSV I/O and the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.errors import DatasetFormatError
from repro.workloads import generate_synthetic
from repro.workloads.io import load_dataset_csv, save_dataset_csv


class TestCsvRoundtrip:
    def test_roundtrip_preserves_everything(self, tmp_path):
        dataset = generate_synthetic(200, seed=3)
        path = tmp_path / "events.csv"
        save_dataset_csv(dataset, path)
        loaded = load_dataset_csv(path, name="roundtrip")
        assert loaded.timestamps == dataset.timestamps
        assert loaded.keys == dataset.keys
        assert loaded.payloads == dataset.payloads
        assert loaded.name == "roundtrip"
        assert loaded.params["source"] == str(path)

    def test_minimal_csv_defaults_columns(self, tmp_path):
        path = tmp_path / "min.csv"
        path.write_text("event_time\n5\n3\n9\n")
        loaded = load_dataset_csv(path)
        assert loaded.timestamps == [5, 3, 9]
        assert len(loaded.keys) == 3  # defaulted

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,stuff\n1,2\n")
        with pytest.raises(ValueError, match="event_time"):
            load_dataset_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("event_time,key\n1,0\n\n2,1\n")
        assert load_dataset_csv(path).timestamps == [1, 2]


class TestMalformedRows:
    def test_bad_row_carries_path_and_row_number(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("event_time,key\n1,0\n2,oops\n3,1\n")
        with pytest.raises(DatasetFormatError) as excinfo:
            load_dataset_csv(path)
        # Row 3 of the file: the header is row 1.
        assert excinfo.value.row == 3
        assert excinfo.value.path == str(path)
        assert f"{path}:3" in str(excinfo.value)

    def test_bad_header_is_typed_with_row_1(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,stuff\n1,2\n")
        with pytest.raises(DatasetFormatError) as excinfo:
            load_dataset_csv(path)
        assert excinfo.value.row == 1

    def test_format_error_is_still_valueerror(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time\n")
        with pytest.raises(ValueError):
            load_dataset_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("event_time,key\n1,0\n2\n")
        with pytest.raises(DatasetFormatError, match="cannot parse"):
            load_dataset_csv(path)

    def test_field_count_mismatch_carries_row_number(self, tmp_path):
        # The header fixes the column count; a longer row would make
        # the payload ragged.
        path = tmp_path / "long.csv"
        path.write_text("event_time,key,p0\n1,0,7\n2,1,8,9\n")
        with pytest.raises(DatasetFormatError, match="expected 3 fields") \
                as excinfo:
            load_dataset_csv(path)
        assert excinfo.value.row == 3
        loaded = load_dataset_csv(path, lenient=True)
        assert loaded.payloads == [(7,)]
        assert loaded.params["skipped_rows"] == 1

    def test_value_beyond_64_bits_carries_row_number(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(f"event_time,key\n1,0\n{2**63},1\n")
        with pytest.raises(DatasetFormatError, match="64 bits") as excinfo:
            load_dataset_csv(path)
        assert excinfo.value.row == 3

    def test_lenient_skips_and_counts(self, tmp_path):
        path = tmp_path / "hostile.csv"
        path.write_text(
            "event_time,key\n1,0\n2,oops\nnope,1\n3,1\n4\n5,2\n"
        )
        loaded = load_dataset_csv(path, lenient=True)
        assert loaded.timestamps == [1, 3, 5]
        assert loaded.params["skipped_rows"] == 3

    def test_lenient_reports_zero_when_clean(self, tmp_path):
        path = tmp_path / "clean.csv"
        path.write_text("event_time,key\n1,0\n2,1\n")
        loaded = load_dataset_csv(path, lenient=True)
        assert loaded.params["skipped_rows"] == 0


class TestCli:
    def test_stats(self, capsys):
        assert main(["stats", "--dataset", "synthetic", "--n", "2000"]) == 0
        out = capsys.readouterr().out
        assert "inversions" in out
        assert "mean run length" in out

    def test_latency(self, capsys):
        assert main(["latency", "--dataset", "cloudlog", "--n", "2000"]) == 0
        out = capsys.readouterr().out
        assert "suggested latency" in out
        assert "100%" in out

    def test_sort(self, capsys):
        assert main([
            "sort", "--dataset", "androidlog", "--n", "2000",
            "--algorithm", "impatience",
        ]) == 0
        assert "M events/s" in capsys.readouterr().out

    def test_generate_then_stats_from_csv(self, tmp_path, capsys):
        out_csv = str(tmp_path / "gen.csv")
        assert main([
            "generate", "--dataset", "synthetic", "--n", "500",
            "--out", out_csv,
        ]) == 0
        assert main(["stats", "--csv", out_csv]) == 0
        assert "Disorder statistics (csv)" in capsys.readouterr().out

    def test_demo(self, capsys):
        assert main(["demo", "--dataset", "synthetic", "--n", "3000"]) == 0
        out = capsys.readouterr().out
        assert "windows:" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCliStructuredErrors:
    def test_missing_csv_exits_2_with_one_line_error(self, capsys):
        assert main(["stats", "--csv", "/nonexistent/events.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: FileNotFoundError:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_malformed_csv_exits_2_with_location(self, tmp_path, capsys):
        path = tmp_path / "broken.csv"
        path.write_text("event_time,key\n1,0\nnope,1\n")
        assert main(["stats", "--csv", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: DatasetFormatError:")
        assert f"{path}:3" in err

    def test_bad_chaos_spec_exits_2(self, capsys):
        assert main([
            "run", "--dataset", "synthetic", "--n", "500",
            "--chaos", "explode:p=1",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ChaosSpecError:")


class TestCliChaos:
    def test_supervised_run_reports_recovery(self, capsys):
        assert main([
            "run", "--dataset", "synthetic", "--n", "3000",
            "--chaos", "crash:punct=2;io:p=0.01", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "supervised: restarts=1" in out
        assert "chaos (seed 1)" in out

    @pytest.mark.parametrize(
        "query", ["windowed-count", "grouped-count", "top-k"]
    )
    def test_chaos_output_matches_plain_run(self, query, capsys):
        assert main([
            "run", "--dataset", "synthetic", "--n", "3000",
            "--query", query,
        ]) == 0
        plain = capsys.readouterr().out.splitlines()[0]
        assert main([
            "run", "--dataset", "synthetic", "--n", "3000",
            "--query", query,
            "--chaos", "crash:punct=3", "--seed", "0",
        ]) == 0
        chaotic = capsys.readouterr().out.splitlines()[0]
        # Same result-event count despite the mid-run crash (the line
        # differs only in elapsed time).
        assert plain.split(" in ")[0] == chaotic.split(" in ")[0]

    def test_supervised_metrics_export_has_resilience(self, tmp_path,
                                                      capsys):
        import json

        out_path = tmp_path / "metrics.json"
        assert main([
            "run", "--dataset", "synthetic", "--n", "2000",
            "--supervised", "--metrics-out", str(out_path),
        ]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["resilience"]["restarts"] == 0
        assert doc["resilience"]["quarantine"]["total"] == 0


class TestCliProfile:
    def test_profile(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main([
            "profile", "--dataset", "androidlog", "--n", "3000",
            "--regions", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "Regional disorder profile" in out
        assert out.count("\n") >= 6
