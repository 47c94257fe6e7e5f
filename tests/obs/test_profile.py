"""Tests for progress reporting and the behavioural network's probes."""

import io

from repro.obs import ProgressReporter


class TestProgressReporter:
    def test_throttles_to_every_nth(self):
        stream = io.StringIO()
        report = ProgressReporter("frontier", every=10, stream=stream)
        for i in range(25):
            report(i)
        lines = stream.getvalue().splitlines()
        assert lines == ["frontier: 0", "frontier: 9", "frontier: 19"]

    def test_total_rendering(self):
        stream = io.StringIO()
        ProgressReporter("sweep", every=1, stream=stream)(3, 12)
        assert stream.getvalue() == "sweep: 3/12\n"


class TestKripkeProgress:
    def test_build_kripke_reports_progress(self):
        from repro.rtl.netlist import Netlist
        from repro.verif.kripke import build_kripke

        nl = Netlist("counter2")
        en = nl.add_input("en")
        q0 = nl.add_flop("d0", q="q0", init=0)
        q1 = nl.add_flop("d1", q="q1", init=0)
        nl.XOR(q0, en, out="d0")
        carry = nl.AND(q0, en)
        nl.XOR(q1, carry, out="d1")
        nl.add_output("q1")

        calls = []
        kripke = build_kripke(
            nl, progress=lambda n, f: calls.append((n, f)), progress_every=1,
        )
        assert calls, "progress hook never called"
        assert calls[-1][1] == 0  # final call: frontier drained
        assert calls[-1][0] == 4  # the 2-bit counter's sequential states
        assert len(kripke) == 8


class TestCampaignProgress:
    def test_run_campaign_counts_up_to_total(self):
        from repro.faults.campaign import CampaignConfig, run_campaign

        seen = []
        run_campaign(
            "dual_ehb",
            CampaignConfig(cycles=60, untestable_analysis=False),
            lanes=16,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen and seen[-1][0] == seen[-1][1]
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)


class TestNetworkProbes:
    def test_probe_runs_once_per_cycle(self):
        from repro.elastic.behavioral import ElasticNetwork, Sink, Source

        net = ElasticNetwork("probed")
        ch = net.add_channel("c")
        net.add(Source("src", ch))
        net.add(Sink("snk", ch))
        cycles = []
        net.probes.append(lambda n: cycles.append(n.cycle))
        net.run(5)
        assert cycles == [0, 1, 2, 3, 4]
