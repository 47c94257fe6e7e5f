"""Scalar references for the gate-level observers.

``repro profile`` and the trace recorder observe RTL designs on lanes
of the compiled simulator only.  The scalar twins they replaced live on
here, as the references the lane observers are checked against.
``TwoPhaseSimulator`` has no observer list, so each twin is fed from
the values ``TwoPhaseSimulator.cycle()`` returns (:func:`cycle`):

* :class:`ScalarChannelProfiler` -- ``RtlChannelProfiler`` on settled
  scalar values;
* :class:`RtlStallWatchdog` -- the no-progress rule written per wire,
  beside the profiler's event-table form of it;
* :func:`edge_observer` -- the recorder's edge and X-onset stream on a
  net watch list;
* :func:`run_rtl` -- a drop-in for ``repro.obs.analyze._run_rtl`` that
  drives the channel profiler on the scalar simulator.
"""

from dataclasses import replace
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.obs.analyze import (
    _WINDOW,
    RtlChannelProfiler,
    StallDiagnosis,
    _diagnose,
    _eager_stimulus,
    _fanin_cones,
)
from repro.rtl.logic import X
from repro.rtl.simulator import TwoPhaseSimulator

Observer = Callable[[int, Dict[str, object]], None]


def cycle(sim: TwoPhaseSimulator, inputs: Mapping[str, object],
          observers: Sequence[Observer]) -> Dict[str, object]:
    """One scalar cycle, then each observer on its settled values."""
    time = sim.time
    values = sim.cycle(inputs)
    for observe in observers:
        observe(time, values)
    return values


class ScalarChannelProfiler(RtlChannelProfiler):
    """The channel profiler, fed settled scalar values by :meth:`observe`."""

    def attach_scalar(self, sim: TwoPhaseSimulator) -> "ScalarChannelProfiler":
        self._prepare(sim)
        return self

    def observe(self, time: int, values: Dict[str, object]) -> None:
        self._account(time, values)

    def _final_state(self) -> Mapping[str, object]:
        return dict(self._sim.state)


class RtlStallWatchdog:
    """The scalar no-progress watchdog: one design's dual channels.

    The progress and blocked tests are written per wire; the
    wait-for graph is built over the blocked wires in sorted order,
    combinational cones first, then sequential ones.  Every ``window``
    cycles without progress make one diagnosis, and the window
    restarts.
    """

    def __init__(self, netlist, channels: Sequence,
                 window: int = _WINDOW) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.channels = list(channels)
        self.window = window
        self.last_progress = -1
        self.diagnoses: List[StallDiagnosis] = []
        watched = (
            [ch.sp for ch in self.channels] + [ch.sn for ch in self.channels]
        )
        self._fanin_comb = _fanin_cones(netlist, watched, sequential=False)
        self._fanin_seq = _fanin_cones(netlist, watched, sequential=True)

    @classmethod
    def for_target(cls, target, **kwargs) -> "RtlStallWatchdog":
        return cls(target.netlist, target.channels, **kwargs)

    def observe(self, time: int, values: Dict[str, object]) -> None:
        progress = False
        blocked = set()
        for ch in self.channels:
            vp, sp = values.get(ch.vp), values.get(ch.sp)
            vn, sn = values.get(ch.vn), values.get(ch.sn)
            if (vp == 1 and sp == 0 and vn != 1) or \
               (vn == 1 and sn == 0 and vp != 1) or \
               (vp == 1 and vn == 1):
                progress = True
            elif vp == 1 and sp == 1:
                blocked.add(ch.sp)
            elif vn == 1 and sn == 1:
                blocked.add(ch.sn)
        if progress or not blocked:
            self.last_progress = time
            return
        if time - self.last_progress < self.window:
            return
        waits_on: Dict[str, Tuple[str, ...]] = {}
        for fanin in (self._fanin_comb, self._fanin_seq):
            for wire in sorted(blocked):
                deps = tuple(sorted((fanin[wire] & blocked) - {wire}))
                if deps:
                    waits_on[wire] = deps
            if waits_on:
                break
        diagnosis = _diagnose(time, self.last_progress, blocked, waits_on)
        self.diagnoses.append(replace(diagnosis, window=self.window))
        self.last_progress = time


def edge_observer(recorder, watch: Sequence[str]) -> Observer:
    """Record edges and X onsets of ``watch`` into ``recorder``."""
    watch = list(watch)
    for net in watch:
        recorder._declare(net)
    prev: Dict[str, object] = {}

    def observe(time: int, values: Dict[str, object]) -> None:
        for net in watch:
            new = values.get(net, X)
            old = prev.get(net, X)
            if new is not old and new != old:
                if new is X:
                    recorder.emit(time, "x-onset", net)
                else:
                    recorder.emit(time, "edge", net, new)
                prev[net] = new

    return observe


def run_rtl(target, cycles: int, cache, ee) -> ScalarChannelProfiler:
    """``repro.obs.analyze._run_rtl`` on the scalar simulator."""
    sim = TwoPhaseSimulator(target.netlist)
    profiler = ScalarChannelProfiler(target, ee=ee).attach_scalar(sim)
    stimulus = _eager_stimulus(target.free_inputs)
    for _ in range(cycles):
        cycle(sim, stimulus, [profiler.observe])
    return profiler
