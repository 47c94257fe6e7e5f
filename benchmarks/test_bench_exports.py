"""The paper's framework outputs: Verilog, SMV and BLIF generation.

"A complete framework for elastic systems has been designed.  It can
generate Verilog models for simulation, SMV models for verification and
BLIF models for logic synthesis with SIS."  This bench regenerates all
three for the Fig. 9 control layer (with the paper's CTL properties
embedded as SMV SPEC clauses) and times the writers.
"""

import pytest

from repro.casestudy.fig9 import Config, build_fig9_spec
from repro.rtl.export import channel_specs_smv, to_blif, to_smv, to_verilog
from repro.synthesis.elaborate import to_gates


@pytest.fixture(scope="module")
def elaborated():
    return to_gates(build_fig9_spec(Config.ACTIVE), include_env=True,
                    as_latches=True)


def test_reproduce_framework_outputs(elaborated, tmp_path):
    nl = elaborated.netlist
    verilog = to_verilog(nl, module="fig9_control")
    blif = to_blif(nl, model="fig9_control")
    specs = channel_specs_smv(elaborated.channels.values())
    fairness = [f"{sig} = {'TRUE' if value else 'FALSE'}"
                for sig, value in elaborated.fairness.items()]
    smv = to_smv(nl, specs=specs, fairness=fairness)

    (tmp_path / "fig9_control.v").write_text(verilog)
    (tmp_path / "fig9_control.blif").write_text(blif)
    (tmp_path / "fig9_control.smv").write_text(smv)

    print("\n=== framework outputs for the Fig. 9 control layer ===")
    print(f"Verilog: {len(verilog.splitlines())} lines")
    print(f"BLIF:    {len(blif.splitlines())} lines "
          f"({blif.count('.latch')} .latch)")
    print(f"SMV:     {len(smv.splitlines())} lines "
          f"({smv.count('SPEC')} SPEC, {smv.count('FAIRNESS')} FAIRNESS)")

    assert verilog.count("endmodule") == 1
    assert blif.count(".latch") == nl.stats()["latches"] + nl.stats()["flops"]
    assert smv.count("SPEC") == 4 * len(elaborated.channels)
    assert "FAIRNESS Dout_stall = FALSE" in smv


def test_bench_verilog_writer(benchmark, elaborated):
    text = benchmark(to_verilog, elaborated.netlist)
    assert "endmodule" in text


def test_bench_blif_writer(benchmark, elaborated):
    text = benchmark(to_blif, elaborated.netlist)
    assert ".end" in text


def test_bench_smv_writer(benchmark, elaborated):
    specs = channel_specs_smv(elaborated.channels.values())
    text = benchmark(to_smv, elaborated.netlist, specs)
    assert "MODULE main" in text
