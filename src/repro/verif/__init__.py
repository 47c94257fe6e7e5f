"""Formal verification of elastic controllers (Sect. 5 of the paper).

Replaces the paper's NuSMV flow with an in-repo model checker:

* :mod:`repro.verif.kripke` -- builds a Kripke structure from a gate
  netlist: one row per reachable sequential state, holding its
  successor and its observed signals under every input vector
  (``2^k``-bit words); primary inputs are non-deterministic, which
  models the paper's "units with non-deterministic delays" and free
  environments.
* :mod:`repro.verif.ctl` -- CTL formulas and a fair-CTL model checker
  holding each satisfying set as one ``2^k``-bit mask per sequential
  state (fairness constraints are needed for the ``AG AF`` liveness
  property under environments that may stall forever).
* :mod:`repro.verif.properties` -- the four channel properties checked
  in the paper (Retry+, Retry−, invariant (2), liveness) plus helpers
  to run them on every channel of a netlist.
* :mod:`repro.verif.datapath` -- the Fig. 8(b) data-correctness set-up:
  alternating-bit producers, non-deterministic killing consumers, and
  random acyclic control netlists.
"""

from repro.verif.kripke import (
    KripkeStructure,
    StateSpaceLimitError,
    build_kripke,
)
from repro.verif.ctl import (
    AF,
    AG,
    AU,
    AX,
    EF,
    EG,
    EU,
    EX,
    AP,
    And,
    Formula,
    Implies,
    Not,
    Or,
    TrueF,
    check,
)
from repro.verif.properties import (
    channel_properties,
    verify_channel_properties,
    verify_netlist,
)
from repro.verif.datapath import (
    AlternatingChecker,
    DataCorrectnessHarness,
    random_acyclic_network,
)

__all__ = [
    "KripkeStructure",
    "StateSpaceLimitError",
    "build_kripke",
    "AF",
    "AG",
    "AU",
    "AX",
    "EF",
    "EG",
    "EU",
    "EX",
    "AP",
    "And",
    "Formula",
    "Implies",
    "Not",
    "Or",
    "TrueF",
    "check",
    "channel_properties",
    "verify_channel_properties",
    "verify_netlist",
    "AlternatingChecker",
    "DataCorrectnessHarness",
    "random_acyclic_network",
]
