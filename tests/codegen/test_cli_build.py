"""The ``repro build`` verb and the cache-aware inject/lint flags."""

import json

from repro.cli import main


class TestBuild:
    def test_cold_then_warm(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["build", "dual_ehb", "--cache", cache]) == 0
        assert "built" in capsys.readouterr().out
        assert main(["build", "dual_ehb", "--cache", cache]) == 0
        assert "cached" in capsys.readouterr().out

    def test_default_builds_every_target(self, tmp_path, capsys):
        from repro.faults.targets import TARGETS

        cache = str(tmp_path / "cache")
        assert main(["build", "--cache", cache]) == 0
        out = capsys.readouterr().out
        for name in TARGETS:
            assert name in out
        assert main(["build", "--cache", cache, "--stats"]) == 0
        assert f"entries:    {len(TARGETS)}" in capsys.readouterr().out

    def test_stats_alone_builds_nothing(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["build", "--cache", cache, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:    0" in out
        assert "built" not in out

    def test_clear(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["build", "join", "--cache", cache]) == 0
        capsys.readouterr()
        assert main(["build", "--cache", cache, "--clear", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "cleared 1 artifact(s)" in out
        assert "entries:    0" in out

    def test_unknown_target(self, tmp_path, capsys):
        import pytest

        with pytest.raises(SystemExit, match="unknown build target"):
            main(["build", "bogus", "--cache", str(tmp_path)])


class TestInjectBackend:
    ARGS = ["inject", "--netlist", "join", "--fault", "stuck0,stuck1,flip",
            "--cycles", "80"]

    def test_compiled_report_matches_scalar(self, tmp_path, capsys):
        """--lanes > 1 runs the compiled module out of --cache."""
        scalar = tmp_path / "scalar.json"
        lanes = tmp_path / "lanes.json"
        cache = tmp_path / "cache"
        main(self.ARGS + ["--report", str(scalar)])
        assert not cache.exists()
        main(self.ARGS + ["--lanes", "16", "--cache", str(cache),
                          "--report", str(lanes)])
        assert scalar.read_text() == lanes.read_text()
        # The campaign's module and the untestability prover's.
        artifacts = [p for p in cache.iterdir() if p.is_dir()]
        assert len(artifacts) == 2
        assert all((p / "module.py").is_file() for p in artifacts)

    def test_processor_rejects_compiled(self, tmp_path):
        import pytest

        with pytest.raises(SystemExit, match="RTL netlist"):
            main(["inject", "--netlist", "processor",
                  "--cache", str(tmp_path)])


class TestLintCache:
    def test_cached_run_matches_uncached(self, tmp_path, capsys):
        target = "rtl:join"
        assert main(["lint", target, "--no-cache"]) == 0
        plain = capsys.readouterr().out
        cache = str(tmp_path / "cache")
        assert main(["lint", target, "--cache", cache]) == 0
        cold = capsys.readouterr().out
        assert main(["lint", target, "--cache", cache]) == 0
        warm = capsys.readouterr().out
        assert plain == cold == warm

    def test_cached_json_findings_identical(self, tmp_path, capsys):
        target = "rtl:join"
        cache = str(tmp_path / "cache")
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["lint", target, "--no-cache", "--json", str(a)]) == 0
        assert main(["lint", target, "--cache", cache,
                     "--json", str(b)]) == 0
        assert json.loads(a.read_text()) == json.loads(b.read_text())
