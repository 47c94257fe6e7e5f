"""The paper's case study (Sect. 6): the Fig. 9 system and Table 1.

* :mod:`repro.casestudy.fig9` -- builds the five-unit system
  (S, I, F, M, W plus the control register C) as a
  :class:`~repro.synthesis.spec.SystemSpec`, in any of the five
  Table 1 configurations.
* :mod:`repro.casestudy.table1` -- runs the 10K-cycle simulations and
  the area pipeline, and renders the Table 1 reproduction.
"""

from repro.casestudy.fig9 import (
    CHANNELS_REPORTED,
    Config,
    MEAN_LATENCY,
    OPCODE_PROBABILITIES,
    build_fig9_spec,
)
from repro.casestudy.table1 import Table1Row, run_config, run_table1, format_table

__all__ = [
    "CHANNELS_REPORTED",
    "Config",
    "MEAN_LATENCY",
    "OPCODE_PROBABILITIES",
    "build_fig9_spec",
    "Table1Row",
    "run_config",
    "run_table1",
    "format_table",
]
