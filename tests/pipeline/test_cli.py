"""CLI coverage for the record / analyze subcommands and global flags."""

import json

import pytest

from repro import __version__
from repro.cli import _EXPERIMENT_IDS, _RECORD_APPS, main
from repro.pipeline import RECORDABLE_APPS


class TestVersionFlag:
    def test_version_exits_zero_and_prints(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"


class TestUnknownExperiment:
    def test_exit_status_2_and_names_listed(self, capsys):
        assert main(["run", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'nope'" in err
        assert "valid names:" in err
        assert "table3" in err

    def test_known_after_unknown_still_fails(self, capsys):
        assert main(["run", "nope", "table3"]) == 2


class TestRegistryConsistency:
    def test_cli_app_choices_match_pipeline(self):
        assert _RECORD_APPS == tuple(sorted(RECORDABLE_APPS))

    def test_cli_experiment_ids_match_registry(self):
        from repro.experiments import EXPERIMENTS

        assert _EXPERIMENT_IDS == tuple(EXPERIMENTS)


class TestRecordAnalyzeEndToEnd:
    def test_record_then_analyze(self, tmp_path, capsys):
        trace = tmp_path / "hist.trace"
        assert main(["record", "histogram", "--ranks", "3",
                     "--size", "64", "-o", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "recorded histogram on 3 ranks" in out
        assert trace.exists()

        assert main(["analyze", str(trace), "--detector", "our"]) == 0
        out = capsys.readouterr().out
        assert "3 ranks" in out
        assert "events/s" in out
        assert "races:" in out

    def test_analyze_json_output(self, tmp_path, capsys):
        trace = tmp_path / "hist.trace"
        main(["record", "histogram", "--size", "32", "-o", str(trace)])
        capsys.readouterr()
        assert main(["analyze", str(trace), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["detector"] == "our"
        assert report["events_total"] > 0
        assert isinstance(report["verdicts"], list)

    def test_analyze_json_is_the_indented_dump(self, minivite_trace, capsys):
        """``--json`` streams exactly the text ``json.dumps`` would build."""
        assert main(["analyze", str(minivite_trace), "--json"]) == 0
        text = capsys.readouterr().out
        assert json.loads(text)["forensics"]
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    @pytest.mark.parametrize("dispatch", ["queue", "file"])
    def test_jobs_and_dispatch_are_parsed_and_ignored(self, minivite_trace,
                                                      capsys, dispatch):
        """The hidden ``--jobs``/``--dispatch`` flags change nothing but
        one stderr line: analysis runs in one process."""
        assert main(["analyze", str(minivite_trace), "--json"]) == 0
        plain = capsys.readouterr()
        assert "ignored" not in plain.err
        assert main(["analyze", str(minivite_trace), "--json", "--jobs", "2",
                     "--dispatch", dispatch]) == 0
        shim = capsys.readouterr()
        assert shim.err.strip().splitlines() == [
            "repro analyze: --jobs/--dispatch are ignored; analysis runs "
            "in one process"]
        got, want = json.loads(shim.out), json.loads(plain.out)
        for key in ("verdicts", "forensics", "events_total"):
            assert got[key] == want[key], key
        assert want["verdicts"] and want["forensics"]

    def test_inject_race_rejected_for_non_minivite(self, tmp_path, capsys):
        assert main(["record", "cfd", "--inject-race",
                     "-o", str(tmp_path / "t")]) == 2
        assert "inject-race" in capsys.readouterr().err

    def test_unknown_app_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["record", "quicksilver"])
        assert exc.value.code == 2

    def test_analyze_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.trace")]) == 2
        assert "repro analyze:" in capsys.readouterr().err

    def test_analyze_corrupt_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_bytes(b"not a trace")
        assert main(["analyze", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "repro analyze:" in err
        assert str(bad) in err
