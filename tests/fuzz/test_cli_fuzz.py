"""The ``repro fuzz`` verb: byte-deterministic campaigns, corpus
replay, and the documented exit codes."""

import filecmp
import json

import pytest

from repro.cli import main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


FAST = ["--cycles", "48", "--no-gates", "--no-verify",
        "--no-cache"]


class TestDeterminism:
    def test_two_runs_are_byte_identical(self, capsys, tmp_path):
        argv = (["fuzz", "--seed", "3", "--specs", "4",
                 "--max-blocks", "12"] + FAST
                + ["--mutate", "broken-early-join"])
        runs = []
        for label in ("a", "b"):
            corpus = tmp_path / label
            report = tmp_path / f"{label}.json"
            code, out, _ = _run(capsys, argv + [
                "--corpus", str(corpus), "--json", str(report)])
            out = out.replace(str(report), "<report>")
            out = out.replace(str(corpus), "<corpus>")
            runs.append((code, out, corpus, report))
        (code_a, out_a, corpus_a, report_a), \
            (code_b, out_b, corpus_b, report_b) = runs
        assert code_a == code_b
        assert out_a == out_b
        assert report_a.read_bytes() == report_b.read_bytes()
        files_a = sorted(p.name for p in corpus_a.glob("*.json"))
        files_b = sorted(p.name for p in corpus_b.glob("*.json"))
        assert files_a == files_b and files_a
        match, mismatch, errors = filecmp.cmpfiles(
            corpus_a, corpus_b, files_a, shallow=False)
        assert mismatch == [] and errors == []

    def test_clean_campaign_exits_zero(self, capsys):
        code, out, _ = _run(
            capsys, ["fuzz", "--seed", "1", "--specs", "2",
                     "--max-blocks", "8"] + FAST)
        assert code == 0
        assert "0 finding(s)" in out

    def test_findings_exit_nonzero(self, capsys):
        code, out, _ = _run(
            capsys, ["fuzz", "--seed", "3", "--specs", "4",
                     "--max-blocks", "12", "--mutate",
                     "broken-early-join"] + FAST)
        assert code == 1
        assert "finding(s)" in out
        assert "shrunk" in out


class TestReplay:
    @pytest.fixture()
    def corpus(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        code, _, _ = _run(
            capsys, ["fuzz", "--seed", "3", "--specs", "4",
                     "--max-blocks", "12", "--mutate", "broken-early-join",
                     "--corpus", str(corpus)] + FAST)
        assert code == 1
        return corpus

    def test_replay_reproduces(self, capsys, corpus):
        code, out, _ = _run(
            capsys, ["fuzz", "--replay", str(corpus)] + FAST)
        assert code == 0
        assert "reproduced" in out
        assert "0 without repro" in out

    def test_replay_flags_a_fixed_bug(self, capsys, corpus, tmp_path):
        # Strip the mutation from one entry: the historical bug is now
        # "fixed", so the entry must stop reproducing and exit nonzero.
        entry_file = sorted(corpus.glob("*.json"))[0]
        data = json.loads(entry_file.read_text())
        data["mutation"] = None
        entry_file.write_text(json.dumps(data, sort_keys=True, indent=2))
        code, out, _ = _run(
            capsys, ["fuzz", "--replay", str(corpus)] + FAST)
        assert code == 1
        assert "NO REPRO" in out

    def test_empty_corpus_is_an_error(self, capsys, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        with pytest.raises(SystemExit, match="no corpus entries"):
            main(["fuzz", "--replay", str(empty)] + FAST)


class TestErrors:
    def test_unknown_mutation_is_an_error(self, capsys):
        with pytest.raises(SystemExit, match="unknown mutation"):
            main(["fuzz", "--mutate", "nonsense"] + FAST)


class TestReport:
    def test_json_report_matches_stdout_counts(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, out, _ = _run(
            capsys, ["fuzz", "--seed", "3", "--specs", "4",
                     "--max-blocks", "12", "--mutate", "broken-early-join",
                     "--json", str(report_path)] + FAST)
        report = json.loads(report_path.read_text())
        assert report["seed"] == 3
        assert report["examined"] == 4
        assert report["budget_exhausted"] is False
        assert f"{len(report['findings'])} finding(s)" in out
        for entry in report["findings"]:
            assert entry["blocks_after"] <= entry["blocks_before"]

    def test_progress_goes_to_stderr(self, capsys):
        code, out, err = _run(
            capsys, ["fuzz", "--seed", "1", "--specs", "2",
                     "--max-blocks", "8", "--progress"] + FAST)
        assert "2/2 spec(s)" in err
        assert "spec(s), 0 finding(s)" in out


class TestNoCache:
    ARGV = ["fuzz", "--seed", "2007", "--specs", "2", "--max-blocks", "8",
            "--no-verify"]

    def test_no_cache_leaves_the_cache_root_empty(
        self, capsys, tmp_path, monkeypatch
    ):
        root = tmp_path / "nc"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        # Control: these specs reach the gate stage, which caches.
        assert _run(capsys, self.ARGV)[0] == 0
        assert len([p for p in root.iterdir() if p.is_dir()]) == 2
        no_cache = tmp_path / "nc2"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(no_cache))
        code, out, _ = _run(capsys, self.ARGV + ["--no-cache"])
        assert code == 0 and "0 finding(s)" in out
        assert not no_cache.exists()
