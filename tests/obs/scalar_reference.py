"""Scalar references for the gate-level observers.

``repro profile``, the trace recorder and the stall watchdogs observe
RTL designs on lanes of the compiled simulator only.  The scalar twins
they replaced live on here, as the references the lane observers are
checked against.  ``TwoPhaseSimulator`` has no observer list, so each
twin is fed from the values ``TwoPhaseSimulator.cycle()`` returns
(:func:`cycle`):

* :class:`ScalarChannelProfiler` -- ``RtlChannelProfiler`` on settled
  scalar values;
* :class:`RtlStallWatchdog` -- the per-wire no-progress watchdog;
* :func:`edge_observer` -- the recorder's edge and X-onset stream on a
  net watch list;
* :func:`run_rtl` -- a drop-in for ``repro.obs.analyze._run_rtl`` that
  drives all of them on the scalar simulator.
"""

from typing import Callable, Dict, List, Mapping, Sequence

from repro.obs.analyze import _WINDOW, RtlChannelProfiler, _eager_stimulus
from repro.resilience.watchdog import (
    StallDiagnosis,
    StallError,
    _diagnose_rtl,
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
        self._account(values)

    def _final_state(self) -> Mapping[str, object]:
        return dict(self._sim.state)


class RtlStallWatchdog:
    """The scalar no-progress watchdog: one design's dual channels.

    The progress/pending criterion is written per wire; the wait-for
    graph is the per-lane watchdog's (``_diagnose_rtl``).
    """

    def __init__(self, netlist, channels: Sequence, window: int = 32,
                 raise_on_stall: bool = True) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.netlist = netlist
        self.channels = list(channels)
        self.window = window
        self.raise_on_stall = raise_on_stall
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
        pending = False
        for ch in self.channels:
            vp, sp = values.get(ch.vp), values.get(ch.sp)
            vn, sn = values.get(ch.vn), values.get(ch.sn)
            if (vp == 1 and sp == 0 and vn != 1) or \
               (vn == 1 and sn == 0 and vp != 1) or \
               (vp == 1 and vn == 1):
                progress = True
                break
            if (vp == 1 and sp == 1) or (vn == 1 and sn == 1):
                pending = True
        if progress or not pending:
            self.last_progress = time
            return
        if time - self.last_progress < self.window:
            return
        diagnosis = _diagnose_rtl(
            self.channels, values, self._fanin_comb, self._fanin_seq,
            time, self.window, self.last_progress,
            detail=f"netlist {self.netlist.name!r}",
        )
        self.diagnoses.append(diagnosis)
        if self.raise_on_stall:
            raise StallError(diagnosis)
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


def run_rtl(target, cycles: int, cache, ee):
    """``repro.obs.analyze._run_rtl`` on the scalar simulator."""
    sim = TwoPhaseSimulator(target.netlist)
    profiler = ScalarChannelProfiler(target, ee=ee).attach_scalar(sim)
    watchdog = RtlStallWatchdog.for_target(
        target, window=_WINDOW, raise_on_stall=False
    )
    stimulus = _eager_stimulus(target.free_inputs)
    observers = [profiler.observe, watchdog.observe]
    for _ in range(cycles):
        cycle(sim, stimulus, observers)
    return profiler, watchdog.diagnoses
