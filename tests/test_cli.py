"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_config_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--config", "bogus", "--cycles", "10"])


    @pytest.mark.parametrize("argv", [
        ["table1", "--cycles", "0"],
        ["simulate", "--cycles", "-1"],
        ["trace", "--cycles", "-5"],
        ["trace", "--buffer", "-1"],
        ["stats", "--cycles", "0"],
        ["fuzz", "--cycles", "-4"],
        ["fuzz", "--specs", "-3"],
        ["profile", "--cycles", "0"],
        ["inject", "--cycles", "-3"],
    ], ids=lambda argv: argv[0] + argv[1])
    def test_out_of_range_number_exits_with_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        flag, value = argv[1:]
        message = str(exc.value.code)
        assert message.startswith(f"{flag} must be >= ")
        assert message.endswith(f", got {value}")
        assert capsys.readouterr().out == ""  # nothing ran

    def test_zero_buffer_still_streams_events(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        assert main(["trace", "--cycles", "8", "--buffer", "0",
                     "--events", str(events)]) == 0
        assert events.read_text()


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1", "--cycles", "300", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Active anti-tokens" in out and "No early evaluation" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "--config", "lazy", "--cycles", "300"]) == 0
        out = capsys.readouterr().out
        assert "system throughput" in out
        assert "F2->F3" in out

    def test_verify(self, capsys):
        assert main(["verify", "--design", "early"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_export_verilog_stdout(self, capsys):
        assert main(["export", "--format", "verilog", "--config", "lazy"]) == 0
        assert "endmodule" in capsys.readouterr().out

    def test_export_blif_to_file(self, tmp_path, capsys):
        out = tmp_path / "x.blif"
        assert main(["export", "--format", "blif", "-o", str(out)]) == 0
        assert out.read_text().startswith(".model")
        assert "wrote" in capsys.readouterr().out

    def test_export_smv(self, capsys):
        assert main(["export", "--format", "smv", "--config", "active"]) == 0
        out = capsys.readouterr().out
        assert "MODULE main" in out and "SPEC" in out

    def test_export_dot(self, capsys):
        assert main(["export", "--format", "dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_bound(self, capsys):
        assert main(["bound", "--config", "lazy"]) == 0
        out = capsys.readouterr().out
        assert "structurally live: True" in out
        assert "cycle ratio" in out

    def test_dmg(self, capsys):
        assert main(["dmg"]) == 0
        out = capsys.readouterr().out
        assert "digraph" in out and "○" in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()


class TestInject:
    def test_dual_ehb_campaign_report(self, tmp_path, capsys):
        report = tmp_path / "campaign.json"
        assert main([
            "inject", "--netlist", "dual_ehb", "--fault", "stuck0,stuck1",
            "--cycles", "200", "--report", str(report),
        ]) == 0
        out = capsys.readouterr().out
        assert "coverage:" in out and "(100.0%)" in out
        assert report.exists()
        import json

        data = json.loads(report.read_text())
        assert data["coverage"] == 1.0

    def test_shrink_prints_minimal_trace(self, capsys):
        assert main([
            "inject", "--netlist", "dual_ehb", "--fault", "stuck1",
            "--cycles", "150", "--shrink",
        ]) == 0
        out = capsys.readouterr().out
        assert "violation:" in out
        assert "counterexample" in out

    def test_unknown_netlist_rejected(self):
        with pytest.raises(SystemExit):
            main(["inject", "--netlist", "bogus"])

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(SystemExit, match="stuck2"):
            main(["inject", "--fault", "stuck2"])

    def test_empty_fault_list_rejected(self):
        with pytest.raises(SystemExit, match="no fault kinds"):
            main(["inject", "--fault", ""])


class TestInjectMetrics:
    def test_metrics_flag_adds_report_metadata(self, tmp_path, capsys):
        import json

        report = tmp_path / "campaign.json"
        assert main([
            "inject", "--netlist", "dual_ehb", "--cycles", "120",
            "--lanes", "8", "--metrics", "--report", str(report),
        ]) == 0
        out = capsys.readouterr().out
        assert "wall time:" in out
        assert "campaign_faults_total" in out
        data = json.loads(report.read_text())
        meta = data["metrics"]
        assert meta["lanes"] == 8 and meta["jobs"] == 1
        assert meta["wall_time_s"] > 0
        assert meta["injections"] == len(data["faults"])
        assert "batchsim_lane_utilization" in meta["series"]

    def test_one_lane_metrics_carry_the_engine_series(self, tmp_path,
                                                       capsys):
        import json

        report = tmp_path / "campaign.json"
        main(["inject", "--netlist", "join", "--cycles", "60", "--metrics",
              "--report", str(report)])
        series = json.loads(report.read_text())["metrics"]["series"]
        assert "batchsim_lane_utilization" in series
        assert any(name.startswith("codegen_cache_") for name in series)

    def test_default_report_has_no_metrics_key(self, tmp_path):
        import json

        report = tmp_path / "campaign.json"
        assert main([
            "inject", "--netlist", "dual_ehb", "--cycles", "120",
            "--report", str(report),
        ]) == 0
        assert "metrics" not in json.loads(report.read_text())

    def test_progress_lines_on_stderr(self, capsys):
        assert main([
            "inject", "--netlist", "dual_ehb", "--cycles", "120",
            "--lanes", "64", "--progress",
        ]) == 0
        assert "campaign:" in capsys.readouterr().err


class TestTrace:
    def test_pipeline_trace_writes_artifacts(self, tmp_path, capsys):
        vcd = tmp_path / "out.vcd"
        events = tmp_path / "out.jsonl"
        assert main([
            "trace", "--config", "pipeline", "--cycles", "24",
            "--vcd", str(vcd), "--events", str(events),
        ]) == 0
        out = capsys.readouterr().out
        assert "reconciliation:" in out and "OK" in out
        assert vcd.read_text().startswith("$comment")
        assert events.read_text().count("\n") > 0

    def test_fig9_config_traces(self, capsys):
        assert main(["trace", "--config", "active", "--cycles", "20"]) == 0
        out = capsys.readouterr().out
        assert "transfer+" in out and "ee-fire" in out

    def test_unknown_config_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "--config", "bogus"])


class TestStats:
    def test_stats_prints_registry(self, capsys):
        assert main(["stats", "--config", "active", "--cycles", "200"]) == 0
        out = capsys.readouterr().out
        assert "channel_throughput" in out
        assert "eb_tokens" in out
        assert "ee_firings_total" in out


class TestInjectLanes:
    def test_lanes_and_jobs_report_is_byte_identical(self, tmp_path):
        sequential = tmp_path / "seq.json"
        sharded = tmp_path / "sharded.json"
        base = ["inject", "--netlist", "dual_ehb", "--fault",
                "stuck0,stuck1", "--cycles", "120"]
        assert main(base + ["--report", str(sequential)]) == 0
        assert main(base + ["--lanes", "64", "--jobs", "4",
                            "--report", str(sharded)]) == 0
        assert sharded.read_bytes() == sequential.read_bytes()

    def test_processor_rejects_lanes(self):
        with pytest.raises(SystemExit, match="RTL netlist"):
            main(["inject", "--netlist", "processor", "--lanes", "64"])

    def test_nonpositive_lanes_rejected(self):
        with pytest.raises(SystemExit, match="positive"):
            main(["inject", "--lanes", "0"])
        with pytest.raises(SystemExit, match="positive"):
            main(["inject", "--jobs", "-1"])

    @pytest.mark.parametrize("netlist", ["join", "processor"])
    @pytest.mark.parametrize("cycles", ["0", "-3"])
    def test_nonpositive_cycles_rejected(self, tmp_path, netlist, cycles):
        report = tmp_path / "campaign.json"
        with pytest.raises(SystemExit,
                           match=f"cycles must be >= 1, got {cycles}"):
            main(["inject", "--netlist", netlist, "--cycles", cycles,
                  "--report", str(report)])
        assert not report.exists()

    def test_processor_rejects_shrink(self):
        with pytest.raises(SystemExit,
                           match="--shrink needs an RTL netlist"):
            main(["inject", "--netlist", "processor", "--shrink"])

    @pytest.mark.parametrize("kinds", ["bogus", "stuck0"])
    def test_processor_rejects_fault(self, kinds):
        with pytest.raises(SystemExit,
                           match="--fault needs an RTL netlist"):
            main(["inject", "--netlist", "processor", "--fault", kinds,
                  "--cycles", "20"])

    def test_processor_rejects_a_horizon_before_its_injections(self, tmp_path):
        report = tmp_path / "campaign.json"
        with pytest.raises(SystemExit,
                           match=r"injection cycle 60 is outside \[0, 20\)"):
            main(["inject", "--netlist", "processor", "--cycles", "20",
                  "--report", str(report)])
        assert not report.exists()


class TestInjectWorkers:
    @pytest.mark.parametrize("spec, bad", [
        ("nonsense", "'nonsense'"),
        ("127.0.0.1:7000,host:port", "'host:port'"),
    ])
    def test_malformed_address_rejected(self, tmp_path, spec, bad):
        report = tmp_path / "campaign.json"
        with pytest.raises(SystemExit, match=f"bad worker address {bad}"):
            main(["inject", "--netlist", "join", "--cycles", "20",
                  "--workers", spec, "--report", str(report)])
        assert not report.exists()

    def test_empty_address_list_rejected(self):
        with pytest.raises(SystemExit, match="no worker addresses"):
            main(["inject", "--netlist", "join", "--workers", ","])

    def test_malformed_address_exits_with_one_line(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "inject", "--netlist", "join",
             "--cycles", "20", "--workers", "nonsense"],
            capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "--workers: bad worker address 'nonsense'; expected host:port"
        ]


class TestInjectResilience:
    def test_checkpointed_report_is_byte_identical(self, tmp_path):
        plain = tmp_path / "plain.json"
        checkpointed = tmp_path / "ck.json"
        base = ["inject", "--netlist", "dual_ehb", "--cycles", "120"]
        assert main(base + ["--report", str(plain)]) == 0
        assert main(base + ["--checkpoint", str(tmp_path / "store"),
                            "--report", str(checkpointed)]) == 0
        assert checkpointed.read_bytes() == plain.read_bytes()
        # Resuming the completed store reproduces the same bytes again.
        resumed = tmp_path / "resumed.json"
        assert main(base + ["--resume", str(tmp_path / "store"),
                            "--report", str(resumed)]) == 0
        assert resumed.read_bytes() == plain.read_bytes()

    def test_resume_without_manifest_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="no checkpoint manifest"):
            main(["inject", "--netlist", "dual_ehb",
                  "--resume", str(tmp_path / "nowhere")])

    def test_conflicting_checkpoint_and_resume_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="different directories"):
            main(["inject", "--netlist", "dual_ehb",
                  "--checkpoint", str(tmp_path / "a"),
                  "--resume", str(tmp_path / "b")])

    def test_checkpoint_from_other_campaign_rejected(self, tmp_path):
        store = str(tmp_path / "store")
        assert main(["inject", "--netlist", "dual_ehb", "--cycles", "120",
                     "--checkpoint", store]) == 0
        with pytest.raises(SystemExit, match="different workload"):
            main(["inject", "--netlist", "dual_ehb", "--cycles", "200",
                  "--checkpoint", store])

    def test_processor_rejects_checkpoint(self, tmp_path):
        with pytest.raises(SystemExit, match="RTL netlist"):
            main(["inject", "--netlist", "processor",
                  "--checkpoint", str(tmp_path / "store")])

    @pytest.mark.parametrize("flags", [
        ["--shard-timeout", "5", "--max-retries", "7"],
        ["--max-retries", "2"],
        ["--shard-timeout", "5", "--jobs", "1"],
    ])
    def test_fabric_flags_rejected_in_process(self, tmp_path, flags):
        report = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(["inject", "--netlist", "join", "--cycles", "20", *flags,
                  "--report", str(report)])
        assert exc.value.code == (
            "--shard-timeout/--max-retries: only a campaign with --jobs > 1 "
            "or --workers times out or retries chunks; this one runs in "
            "this process"
        )
        assert not report.exists()

    def test_shard_timeout_and_retries_accepted(self, tmp_path):
        report = tmp_path / "r.json"
        assert main(["inject", "--netlist", "dual_ehb", "--cycles", "120",
                     "--lanes", "16", "--jobs", "2",
                     "--shard-timeout", "300", "--max-retries", "3",
                     "--report", str(report)]) == 0
        assert report.exists()


class TestVerifyCheckpoint:
    def test_workers_reject_checkpoint(self, tmp_path):
        store = tmp_path / "store"
        with pytest.raises(SystemExit, match="^--checkpoint needs a local "
                           "build; --workers") as exc:
            main(["verify", "--design", "all", "--workers", "127.0.0.1:1",
                  "--checkpoint", str(store)])
        assert "\n" not in str(exc.value.code)
        assert not store.exists()

    def test_verify_with_checkpoint_passes_and_persists(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["verify", "--design", "early",
                     "--checkpoint", str(store)]) == 0
        assert "PASS" in capsys.readouterr().out
        assert (store / "snapshot.json").is_file()
        # Resume from the drained snapshot: same verdict.
        assert main(["verify", "--design", "early",
                     "--checkpoint", str(store)]) == 0
        assert "PASS" in capsys.readouterr().out


class TestLint:
    def test_list_targets(self, capsys):
        assert main(["lint", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig9:active" in out and "zoo:capacity1" in out

    def test_clean_target_exits_zero(self, capsys):
        assert main(["lint", "rtl:join"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_zoo_target_exits_nonzero(self, capsys):
        assert main(["lint", "zoo:capacity1"]) == 1
        out = capsys.readouterr().out
        assert "ELX005" in out and "new error(s)" in out

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit, match="unknown lint target"):
            main(["lint", "bogus:target"])

    def test_json_and_sarif_written(self, tmp_path, capsys):
        json_path = tmp_path / "findings.json"
        sarif_path = tmp_path / "findings.sarif"
        assert main(["lint", "zoo:comb_cycle",
                     "--json", str(json_path),
                     "--sarif", str(sarif_path)]) == 1
        import json as jsonlib
        findings = jsonlib.loads(json_path.read_text())
        assert findings["findings"][0]["rule"] == "LNT005"
        sarif = jsonlib.loads(sarif_path.read_text())
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["results"][0]["ruleId"] == "LNT005"

    def test_baseline_suppresses_known_errors(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "zoo:capacity1",
                     "--write-baseline", str(baseline)]) == 1
        capsys.readouterr()
        assert main(["lint", "zoo:capacity1",
                     "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "suppressed" in out

    def test_explain_prints_catalog_entry(self, capsys):
        assert main(["lint", "--explain", "LNT008"]) == 0
        out = capsys.readouterr().out
        assert "LNT008 [WARNING]" in out
        assert "state bit can never leave X" in out

    def test_explain_unknown_rule_rejected(self):
        with pytest.raises(SystemExit, match="unknown rule"):
            main(["lint", "--explain", "LNT999"])

    def test_explain_with_target_renders_witnesses(self, capsys):
        assert main(["lint", "--explain", "ELX009",
                     "zoo:starved_counterflow"]) == 0
        out = capsys.readouterr().out
        assert "1 finding(s) for ELX009" in out
        assert "witness (starved-counterflow)" in out
        assert "channel:DEAD->EJ -> source:DEAD" in out

    def test_explain_exits_zero_even_on_errors(self, capsys):
        assert main(["lint", "--explain", "LNT005", "zoo:comb_cycle"]) == 0
        out = capsys.readouterr().out
        assert "1 finding(s) for LNT005" in out

    def _write_defective_blif(self, tmp_path):
        from repro.rtl.export import to_blif
        from repro.rtl.logic import X
        from repro.rtl.netlist import Netlist

        nl = Netlist("xdemo")
        a = nl.add_input("a")
        nl.BUF("q", out="d")
        nl.add_flop("d", q="q", init=X)
        nl.AND(a, "q", out="o")
        nl.add_output("o")
        path = tmp_path / "xdemo.blif"
        path.write_text(to_blif(nl))
        return path

    def test_file_target_reports_located_findings(self, tmp_path, capsys):
        path = self._write_defective_blif(tmp_path)
        sarif_path = tmp_path / "file.sarif"
        assert main(["lint", "--file", str(path),
                     "--sarif", str(sarif_path)]) == 0  # warnings only
        out = capsys.readouterr().out
        assert "LNT008" in out
        assert "xdemo.blif:" in out  # findings carry file:line:column
        import json as jsonlib
        sarif = jsonlib.loads(sarif_path.read_text())
        for result in sarif["runs"][0]["results"]:
            physical = result["locations"][0]["physicalLocation"]
            assert physical["artifactLocation"]["uri"].endswith("xdemo.blif")
            assert physical["region"]["startLine"] >= 1

    def test_file_mixes_with_named_targets(self, tmp_path, capsys):
        path = self._write_defective_blif(tmp_path)
        assert main(["lint", "rtl:join", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "LNT008" in out

    def test_file_baseline_suppresses(self, tmp_path, capsys):
        path = self._write_defective_blif(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "--file", str(path),
                     "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert main(["lint", "--file", str(path),
                     "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "suppressed" in out

    def test_malformed_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.blif"
        bad.write_text(".model bad\n.inputs a\n.outputs y\n"
                       ".names a y\n.end\n")
        with pytest.raises(SystemExit, match="truncated .names cover"):
            main(["lint", "--file", str(bad)])

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="ghost.blif"):
            main(["lint", "--file", str(tmp_path / "ghost.blif")])

    @pytest.mark.parametrize("content, reason", [
        (None, "No such file"),
        ("not json", "malformed baseline (Expecting value"),
        ("[1, 2]", "malformed baseline (not a JSON object)"),
        ('{"fingerprints": "oops"}', "must be a list of strings"),
        ('{"fingerprints": [[1]]}', "must be a list of strings"),
    ], ids=["missing", "not-json", "json-list", "fingerprints-not-list",
            "fingerprint-not-string"])
    def test_bad_baseline_exits_before_linting(self, tmp_path, capsys,
                                               content, reason):
        baseline = tmp_path / "base.json"
        if content is not None:
            baseline.write_text(content)
        findings = tmp_path / "findings.json"
        with pytest.raises(SystemExit) as exc:
            main(["lint", "zoo:capacity1", "--baseline", str(baseline),
                  "--json", str(findings)])
        message = str(exc.value.code)
        assert message.startswith("--baseline: ")
        assert str(baseline) in message and reason in message
        assert "\n" not in message
        assert not findings.exists()  # nothing was linted or written
        assert capsys.readouterr().out == ""
