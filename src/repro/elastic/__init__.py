"""Elastic controllers: the SELF protocol with token counterflow.

Two implementation layers reproduce the paper's controllers:

* :mod:`repro.elastic.behavioral` -- cycle-accurate controller objects
  (elastic buffers, lazy/early joins, eager forks, passive anti-token
  interfaces, variable-latency controllers) connected by four-wire
  channels ``{V+, S+, V−, S−}`` and solved to a ternary fixed point each
  cycle.  This layer runs the Table 1 experiments.
* :mod:`repro.elastic.gates` -- the same controllers as gate/latch/FF
  netlists (Figs. 3--7) for area accounting and model checking.

:mod:`repro.elastic.protocol` defines the channel states, the
six-event table of a dual channel, the ``(I*R*T)*`` language monitor
and the dual-channel invariants.
"""

from repro.elastic.protocol import (
    ChannelState,
    DualChannelEvent,
    ProtocolMonitor,
    ProtocolViolation,
    classify,
    classify_dual,
    invariant_holds,
)
from repro.elastic.channel import Channel, ChannelStats
from repro.elastic.ee import EarlyEvalFunction, MuxEE, AndEE, ThresholdEE
from repro.elastic.behavioral import (
    Controller,
    ElasticBuffer,
    EagerFork,
    EarlyJoin,
    Join,
    LazyFork,
    PassiveAntiToken,
    Pipe,
    Sink,
    Source,
    VariableLatency,
    ElasticNetwork,
)

__all__ = [
    "ChannelState",
    "DualChannelEvent",
    "ProtocolMonitor",
    "ProtocolViolation",
    "classify",
    "classify_dual",
    "invariant_holds",
    "Channel",
    "ChannelStats",
    "EarlyEvalFunction",
    "MuxEE",
    "AndEE",
    "ThresholdEE",
    "Controller",
    "ElasticBuffer",
    "EagerFork",
    "EarlyJoin",
    "Join",
    "LazyFork",
    "PassiveAntiToken",
    "Pipe",
    "Sink",
    "Source",
    "VariableLatency",
    "ElasticNetwork",
]
