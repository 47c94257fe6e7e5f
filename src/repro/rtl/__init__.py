"""Gate/latch/flip-flop netlist kernel.

This package is the substrate replacing the paper's Verilog + SIS + SMV
tool chain at the structural level:

* :mod:`repro.rtl.logic` -- three-valued (0/1/X) logic operations.
* :mod:`repro.rtl.netlist` -- netlists of gates, transparent latches
  (active-high ``H`` or active-low ``L`` phase) and flip-flops.
* :mod:`repro.rtl.simulator` -- two-phase cycle simulation with
  X-propagation and combinational-cycle handling via ternary fixed
  points.
* :mod:`repro.rtl.batchsim` -- the two-plane lane encoding (one bit
  per lane in a value/known word pair) spoken by the lane-parallel
  :class:`~repro.codegen.sim.CompiledSimulator`: packing, unpacking and
  per-lane override masks.
* :mod:`repro.rtl.toposort` -- per-phase topological orders and
  combinational-cycle extraction shared by both simulators.
* :mod:`repro.rtl.area` -- constant propagation, dead-logic removal and
  literal/latch/flip-flop counting (the paper's Table 1 area columns).
"""

from repro.rtl.logic import AND, NOT, OR, X, lnot, land, lor, lxor, is_known
from repro.rtl.netlist import Gate, Latch, FlipFlop, Netlist, Phase
from repro.rtl.simulator import TwoPhaseSimulator, CombinationalCycleError
from repro.rtl.batchsim import (
    LaneOverride,
    broadcast,
    pack_stimulus,
    pack_values,
    unpack_lane,
)
from repro.rtl.toposort import find_combinational_cycle, topo_order
from repro.rtl.area import AreaReport, constant_propagate, count_area, prune_dead
from repro.rtl.export import channel_specs_smv, to_blif, to_smv, to_verilog

__all__ = [
    "AND",
    "NOT",
    "OR",
    "X",
    "lnot",
    "land",
    "lor",
    "lxor",
    "is_known",
    "Gate",
    "Latch",
    "FlipFlop",
    "Netlist",
    "Phase",
    "TwoPhaseSimulator",
    "CombinationalCycleError",
    "LaneOverride",
    "broadcast",
    "pack_stimulus",
    "pack_values",
    "unpack_lane",
    "find_combinational_cycle",
    "topo_order",
    "AreaReport",
    "constant_propagate",
    "count_area",
    "prune_dead",
    "channel_specs_smv",
    "to_blif",
    "to_smv",
    "to_verilog",
]
