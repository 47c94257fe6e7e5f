"""Cycle-accurate behavioural elastic controllers and network simulator.

Each controller owns ports on dual channels (:class:`~repro.elastic.
channel.Channel`) and implements two methods:

* ``evaluate()`` -- combinational: read the current (possibly unknown)
  wire values and payloads, drive output wires using ternary logic and
  put output payloads.  Called once per cycle, then again whenever a
  neighbour's evaluation changed a wire or payload, until the whole
  network reaches a fixed point.  All wire equations are monotone (X
  can only resolve to 0/1), so the settled wires exist and are unique;
  a payload is recomputed from the settled payloads it reads, so the
  settled payloads do not depend on the order of evaluation either.
* ``commit()`` -- sequential: called once per cycle after the network
  settled, to update internal state (buffer occupancy, pending-token
  flip-flops, variable-latency countdowns).

The controller equations transcribe Figs. 3--7 of the paper at the
cycle level:

* :class:`ElasticBuffer` -- a dual EB (two EHBs): capacity 2 for tokens
  and anti-tokens, forward and backward latency 1, cancellation at its
  boundaries (Fig. 5).
* :class:`Join` -- lazy join for tokens + eager fork for anti-tokens
  with one pending flip-flop per input and the B gate preventing new
  transfers while anti-tokens drain (Fig. 6(a)).
* :class:`EagerFork` -- eager fork for tokens (pending FF per output)
  + lazy join for anti-tokens; the half-turn symmetric image of the
  join (Fig. 6(b)).
* :class:`EarlyJoin` -- join with an early-evaluation function and the
  G gates ``not V+in and V+out and not S+out`` generating anti-tokens
  at the inputs that were not valid when the output fired (Fig. 6(c)).
* :class:`PassiveAntiToken` -- the Fig. 7(a) interface: stops
  anti-token propagation with ``S− = not V+`` and converts kills into
  plain transfers for the anti-token-free upstream region.
* :class:`VariableLatency` -- the Fig. 7(b) go/done/ack controller.
* :class:`Source` / :class:`Sink` -- environment producers and
  consumers, including the non-deterministic killing consumers used in
  the Fig. 8(b) verification set-up.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.elastic.channel import Channel
from repro.elastic.ee import AndEE, EarlyEvalFunction
from repro.elastic.protocol import ProtocolViolation
from repro.rtl.logic import Value, X, is_known, land, lnot, lor


def _b(value: object) -> Value:
    """Python bool/int -> canonical wire value."""
    return 1 if value else 0


#: Sentinel for "no payload latched" (None is legitimate channel data).
_NO_HELD_DATA = object()


class Controller:
    """Base class: a named controller with evaluate/commit phases."""

    #: True when :meth:`evaluate` drives every wire and payload from the
    #: controller's own state and reads no channel, so its first
    #: evaluation in a cycle is final.  This states a fact about the
    #: equations, not a setting: :meth:`ElasticNetwork.step` evaluates
    #: such a controller once per cycle and never again when a
    #: neighbour changes.  Subclasses that read a channel in
    #: ``evaluate`` must set it back to False.
    state_only = False

    def __init__(self, name: str):
        self.name = name

    def channels(self) -> Sequence[Channel]:
        """Channels this controller is connected to (for registration)."""
        return ()

    def evaluate(self) -> bool:
        """Drive output wires and payloads.

        Returns True if any wire or payload changed (see
        :meth:`Channel.put_data`); the network then evaluates every
        controller sharing a channel with this one again.
        """
        raise NotImplementedError

    def commit(self) -> None:
        """Update sequential state from the settled wires."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


def controller_ports(ctrl: Controller) -> Tuple[List[Channel], List[Channel]]:
    """``(consumed, produced)`` channels of one controller.

    A controller consumes tokens from the first (it drives their
    ``{S+, V-}`` wires) and produces tokens into the second (it drives
    ``{V+, S-}``).  Read from the port attributes every controller here
    uses: ``left``/``right`` (buffers, pipes, VL units), ``up``/``down``
    (the passive interface), ``inputs`` or ``input``, and ``outputs`` or
    ``output``.  A controller with none of them (a probe) has no ports.
    """
    if hasattr(ctrl, "left") and hasattr(ctrl, "right"):
        return [ctrl.left], [ctrl.right]
    if hasattr(ctrl, "up") and hasattr(ctrl, "down"):
        return [ctrl.up], [ctrl.down]
    consumed: List[Channel] = []
    produced: List[Channel] = []
    if hasattr(ctrl, "inputs"):
        consumed += ctrl.inputs
    elif hasattr(ctrl, "input"):
        consumed.append(ctrl.input)
    if hasattr(ctrl, "outputs"):
        produced += ctrl.outputs
    elif hasattr(ctrl, "output"):
        produced.append(ctrl.output)
    return consumed, produced


# ----------------------------------------------------------------------
# Elastic buffer (dual EB = two EHBs, Fig. 5)
# ----------------------------------------------------------------------
class ElasticBuffer(Controller):
    """A dual elastic buffer of capacity 2 (one EB = two EHBs).

    State is the signed occupancy ``count``: positive values are stored
    tokens (with payloads, FIFO), negative values stored anti-tokens.
    All four output wires are pure functions of the state, so an EB cuts
    every combinational path -- exactly why the paper places the
    cancellation gates at EHB boundaries.

    Wire equations (left = input channel, right = output channel)::

        right.V+ = count > 0          right.S− = count <= -capacity
        left.S+  = count >= capacity  left.V−  = count < 0

    which preserve the invariants of equation (2) by construction.
    """

    state_only = True

    def __init__(
        self,
        name: str,
        left: Channel,
        right: Channel,
        capacity: int = 2,
        initial_tokens: int = 0,
        initial_data: Optional[Sequence[object]] = None,
    ):
        super().__init__(name)
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0 <= initial_tokens <= capacity:
            raise ValueError("initial tokens must fit the capacity")
        self.left = left
        self.right = right
        self.capacity = capacity
        self.count = initial_tokens
        if initial_data is not None:
            if len(initial_data) != initial_tokens:
                raise ValueError("initial_data length must equal initial_tokens")
            self.data: List[object] = list(initial_data)
        else:
            self.data = [None] * initial_tokens
        self._initial = (initial_tokens, list(self.data))

    def channels(self) -> Sequence[Channel]:
        return (self.left, self.right)

    def reset(self) -> None:
        self.count, data = self._initial
        self.data = list(data)

    @property
    def tokens(self) -> int:
        """Stored tokens (0 when holding anti-tokens)."""
        return max(self.count, 0)

    @property
    def anti_tokens(self) -> int:
        """Stored anti-tokens (0 when holding tokens)."""
        return max(-self.count, 0)

    def evaluate(self) -> bool:
        changed = False
        has_token = self.count > 0
        changed |= self.right.drive_vp(_b(has_token))
        if has_token:
            changed |= self.right.put_data(self.data[0])
        changed |= self.right.drive_sn(_b(self.count <= -self.capacity))
        changed |= self.left.drive_sp(_b(self.count >= self.capacity))
        changed |= self.left.drive_vn(_b(self.count < 0))
        return changed

    def commit(self) -> None:
        left, right = self.left, self.right
        in_pos = left.pos_transfer
        kill_left = left.kill
        out_neg = left.neg_transfer
        out_pos = right.pos_transfer
        kill_right = right.kill
        in_neg = right.neg_transfer

        if out_pos or kill_right:
            # Head token leaves (transfer) or is annihilated by an
            # incoming anti-token at the output boundary.
            self.data.pop(0)
            self.count -= 1
        if kill_left or out_neg:
            # A stored anti-token annihilates an arriving token, or
            # moves backwards onto the input channel.
            self.count += 1
        if in_pos:
            self.count += 1
            if in_neg:
                # Token and anti-token entered opposite ends of an empty
                # buffer in the same cycle: they annihilate inside.
                self.count -= 1
            else:
                self.data.append(left.data)
        elif in_neg:
            self.count -= 1
        if not -self.capacity <= self.count <= self.capacity:
            raise ProtocolViolation(f"{self.name}: occupancy {self.count} out of range")
        if len(self.data) != max(self.count, 0):
            raise ProtocolViolation(f"{self.name}: data/occupancy mismatch")


# ----------------------------------------------------------------------
# Join (lazy for tokens, eager fork for anti-tokens, Fig. 6(a))
# ----------------------------------------------------------------------
class Join(Controller):
    """Dual join controller.

    Positive flow (lazy): ``V+out = AND(V+in_i) and not pending`` where
    *pending* is the B gate -- any anti-token still stored in the
    per-input flip-flops blocks new transfers.  ``S+in_i`` stops an
    input when no output transfer happens, with an I gate keeping the
    invariant ``not (V− and S+)``.

    Negative flow (eager fork): an anti-token arriving on the output
    channel is broadcast backwards to every input the same cycle;
    inputs that cannot take it (no token to kill, and anti-token
    back-pressure) latch it in their flip-flop.
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[Channel],
        output: Channel,
        combine: Optional[Callable[[Sequence[object]], object]] = None,
    ):
        super().__init__(name)
        if not inputs:
            raise ValueError("a join needs at least one input")
        self.inputs = list(inputs)
        self.output = output
        self.combine = combine if combine is not None else tuple
        self.apend = [0] * len(self.inputs)

    def channels(self) -> Sequence[Channel]:
        return (*self.inputs, self.output)

    def evaluate(self) -> bool:
        changed = False
        out = self.output
        pending = _b(any(self.apend))

        vp_out = land(lnot(pending), *[ch.vp for ch in self.inputs])
        changed |= out.drive_vp(vp_out)
        if vp_out == 1:
            changed |= out.put_data(self.combine([ch.data for ch in self.inputs]))
        # B gate also back-pressures further anti-tokens while draining.
        changed |= out.drive_sn(pending)

        # Eager anti-token fork: broadcast an accepted anti-token, plus
        # any anti-tokens still pending in the flip-flops.
        forked = land(out.vn, lnot(vp_out), lnot(pending))
        fire = land(vp_out, lnot(out.sp))
        for i, ch in enumerate(self.inputs):
            vn_i = lor(_b(self.apend[i]), forked)
            changed |= ch.drive_vn(vn_i)
            # I gate: never stop a token we are about to kill.
            changed |= ch.drive_sp(land(lnot(fire), lnot(vn_i)))
        return changed

    def commit(self) -> None:
        out = self.output
        accepted = out.neg_transfer  # anti-token taken from the output channel
        for i, ch in enumerate(self.inputs):
            offered = ch.vn == 1
            delivered = offered and (ch.vp == 1 or ch.sn == 0)
            incoming = accepted
            self.apend[i] = _b((self.apend[i] or incoming) and not delivered)


# ----------------------------------------------------------------------
# Early-evaluation join (Fig. 6(c))
# ----------------------------------------------------------------------
class EarlyJoin(Controller):
    """Join with early evaluation and anti-token generation.

    The EE block replaces the conjunction of input valids; the G gates
    implement ``V−in_i = not V+in_i and V+out and not S+out`` feeding
    the per-input anti-token flip-flops (shared with the eager
    anti-token fork for anti-tokens arriving from the output channel).

    ``anti_capacity`` implements the Sect. 7 extension: each input may
    store up to that many pending anti-tokens (the paper uses 1 and
    reports "little experimental motivation" for more -- which the
    ablation benches reproduce).  With pending anti-tokens on an input,
    that input's valid is masked (an arriving token annihilates before
    it can be consumed), and the B gate only blocks new firings when a
    counter is full.
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[Channel],
        output: Channel,
        ee: EarlyEvalFunction,
        anti_capacity: int = 1,
    ):
        super().__init__(name)
        if ee.arity != len(inputs):
            raise ValueError("EE arity must match the number of inputs")
        if anti_capacity < 1:
            raise ValueError("anti_capacity must be >= 1")
        self.inputs = list(inputs)
        self.output = output
        self.ee = ee
        self.anti_capacity = anti_capacity
        self.apend = [0] * len(self.inputs)
        self._held_data: object = _NO_HELD_DATA

    def channels(self) -> Sequence[Channel]:
        return (*self.inputs, self.output)

    def _ee_inputs(self) -> Tuple[List[Value], List[object]]:
        # Inputs with pending anti-tokens are masked: their next token
        # is already doomed and cannot be consumed by a firing.
        valids = [
            land(ch.vp, _b(self.apend[i] == 0))
            for i, ch in enumerate(self.inputs)
        ]
        datas = [
            ch.data if (ch.vp == 1 and self.apend[i] == 0) else None
            for i, ch in enumerate(self.inputs)
        ]
        return valids, datas

    def evaluate(self) -> bool:
        changed = False
        out = self.output
        full = _b(any(c >= self.anti_capacity for c in self.apend))

        valids, datas = self._ee_inputs()
        ee_val = self.ee.evaluate(valids, datas)
        vp_out = land(ee_val, lnot(full))
        changed |= out.drive_vp(vp_out)
        if vp_out == 1:
            # SELF persistence: a token stalled in Retry+ must keep the
            # payload it was first offered with, even if a late input
            # arrives mid-retry and EE would now see more operands
            # (positive unateness keeps V+ itself asserted).
            if self._held_data is not _NO_HELD_DATA:
                changed |= out.put_data(self._held_data)
            else:
                changed |= out.put_data(self.ee.output_data(valids, datas))
        changed |= out.drive_sn(full)

        fire = land(vp_out, lnot(out.sp))
        forked = land(out.vn, lnot(vp_out), lnot(full))
        for i, ch in enumerate(self.inputs):
            # G gate: early firing leaves an anti-token on inputs whose
            # (unmasked) token was absent.
            generated = land(fire, lnot(valids[i]))
            vn_i = lor(_b(self.apend[i] > 0), generated, forked)
            changed |= ch.drive_vn(vn_i)
            changed |= ch.drive_sp(land(lnot(fire), lnot(vn_i)))
        return changed

    def owing(self) -> Optional[List[int]]:
        """The inputs this cycle's firing leaves owing an anti-token.

        ``None`` when the join does not fire (its output offers no token
        or is stopped).  Otherwise the indices of the inputs whose token
        is absent or masked by a pending anti-token; the firing is early
        when the list is not empty.  Reads the settled wires and the
        counters as they stand before :meth:`commit`.
        """
        out = self.output
        if not (out.vp == 1 and out.sp == 0):
            return None
        return [
            i for i, ch in enumerate(self.inputs)
            if not (ch.vp == 1 and self.apend[i] == 0)
        ]

    def commit(self) -> None:
        out = self.output
        owing = self.owing() or ()
        accepted = out.neg_transfer
        for i, ch in enumerate(self.inputs):
            generated = i in owing
            offered = ch.vn == 1
            delivered = offered and (ch.vp == 1 or ch.sn == 0)
            incoming = 1 if (accepted or generated) else 0
            self.apend[i] = self.apend[i] + incoming - (1 if delivered else 0)
            if not 0 <= self.apend[i] <= self.anti_capacity:
                raise ProtocolViolation(
                    f"{self.name}: anti-token counter {i} out of range"
                )
        # Latch the offered payload across a Retry+ stall; any other
        # outcome (transfer, idle, kill) starts a fresh transaction.
        if out.vp == 1 and out.sp == 1:
            self._held_data = out.data
        else:
            self._held_data = _NO_HELD_DATA


# ----------------------------------------------------------------------
# Eager fork (Fig. 6(b); positive part also Fig. 4(b))
# ----------------------------------------------------------------------
class EagerFork(Controller):
    """Dual eager fork controller.

    Positive flow (eager): every output channel receives its copy of
    the input token as soon as it can, independently of its siblings;
    a flip-flop per output remembers which copies are still owed
    (``pend``).  The input token is consumed once every copy has either
    transferred or been annihilated by a branch anti-token.

    Negative flow (lazy join): anti-tokens propagate backwards through
    the fork only when present on *all* output channels and no token is
    in flight -- the exact dual of the lazy token join.
    """

    def __init__(
        self,
        name: str,
        input: Channel,
        outputs: Sequence[Channel],
        branch_data: Optional[Callable[[int, object], object]] = None,
    ):
        super().__init__(name)
        if not outputs:
            raise ValueError("a fork needs at least one output")
        self.input = input
        self.outputs = list(outputs)
        self.branch_data = branch_data
        self.pend = [1] * len(self.outputs)

    def channels(self) -> Sequence[Channel]:
        return (self.input, *self.outputs)

    def evaluate(self) -> bool:
        changed = False
        inp = self.input
        done: List[Value] = []
        anti_all = land(*[ch.vn for ch in self.outputs])
        # The anti-token wave crosses the fork only at a fresh token
        # boundary (every pending flag set): a half-delivered token
        # must finish first, or branch anti-tokens targeting different
        # tokens would be merged.  Gating on *state* (never on the
        # upstream S-/V+ wires) keeps V-in free of combinational cycles
        # when forks abut -- the hazard Sect. 4 warns about -- and
        # Retry- persistence holds because a colliding token is
        # annihilated (kill) instead of forcing a withdrawal.
        fresh = _b(all(self.pend))
        vn_in = land(anti_all, fresh)
        changed |= inp.drive_vn(vn_in)
        # The wave is consumed when the input channel moves it: a
        # negative transfer backwards, or a kill against an arriving
        # token (which annihilates every branch copy at once).
        moved = land(vn_in, lor(inp.vp, lnot(inp.sn)))
        for i, ch in enumerate(self.outputs):
            pend = _b(self.pend[i])
            vp_i = land(inp.vp, pend)
            changed |= ch.drive_vp(vp_i)
            if vp_i == 1:
                payload = inp.data
                if self.branch_data is not None:
                    payload = self.branch_data(i, payload)
                changed |= ch.put_data(payload)
            completed = land(vp_i, lor(lnot(ch.sp), ch.vn))
            done.append(lor(lnot(pend), completed))
            # I gate: never stop an anti-token that annihilates our copy.
            changed |= ch.drive_sn(land(lnot(moved), lnot(vp_i)))
        all_done = land(*done)
        changed |= inp.drive_sp(land(lnot(all_done), lnot(vn_in)))
        return changed

    def commit(self) -> None:
        inp = self.input
        if inp.vp == 1:
            consumed = inp.sp == 0  # all copies completed this cycle
            if consumed:
                self.pend = [1] * len(self.outputs)
            else:
                for i, ch in enumerate(self.outputs):
                    completed = ch.vp == 1 and (ch.sp == 0 or ch.vn == 1)
                    if completed:
                        self.pend[i] = 0
        # With no token in flight every pend flag is (and stays) 1.


class LazyFork(Controller):
    """A non-eager fork: all branches must transfer in the same cycle.

    Provided for comparison experiments.  Beware: lazy forks create
    combinational dependencies between the stop signals of sibling
    branches and can produce genuine combinational cycles in netlists
    that eager forks handle fine; the network simulator will report an
    unresolved fixed point in that case.
    """

    def __init__(self, name: str, input: Channel, outputs: Sequence[Channel]):
        super().__init__(name)
        self.input = input
        self.outputs = list(outputs)

    def channels(self) -> Sequence[Channel]:
        return (self.input, *self.outputs)

    def evaluate(self) -> bool:
        changed = False
        inp = self.input
        anti_all = land(*[ch.vn for ch in self.outputs])
        # A lazy fork is always at a fresh token boundary (no pending
        # state), so the wave gate reduces to anti_all; see EagerFork
        # for the state-gated variant.
        vn_in = anti_all
        changed |= inp.drive_vn(vn_in)
        moved = land(vn_in, lor(inp.vp, lnot(inp.sn)))
        stops = [ch.sp for ch in self.outputs]
        for i, ch in enumerate(self.outputs):
            others = [s for j, s in enumerate(stops) if j != i]
            kill_ok = ch.vn  # a branch anti-token always completes a copy
            vp_i = land(inp.vp, lor(land(*[lnot(s) for s in others]), kill_ok))
            changed |= ch.drive_vp(vp_i)
            if vp_i == 1:
                changed |= ch.put_data(inp.data)
            changed |= ch.drive_sn(land(lnot(moved), lnot(vp_i)))
        no_stop = land(*[lor(lnot(ch.sp), ch.vn) for ch in self.outputs])
        changed |= inp.drive_sp(land(lnot(land(inp.vp, no_stop)), lnot(vn_in)))
        return changed


# ----------------------------------------------------------------------
# Combinational function block (control-transparent)
# ----------------------------------------------------------------------
class Pipe(Controller):
    """A combinational functional block: control wires pass through.

    The elastic control layer of a single-input single-output block is
    just a wire (Sect. 6: join/fork components are omitted for blocks
    with one input or output); only the payload is transformed.
    """

    def __init__(
        self,
        name: str,
        left: Channel,
        right: Channel,
        func: Optional[Callable[[object], object]] = None,
    ):
        super().__init__(name)
        self.left = left
        self.right = right
        self.func = func if func is not None else (lambda value: value)

    def channels(self) -> Sequence[Channel]:
        return (self.left, self.right)

    def evaluate(self) -> bool:
        left, right = self.left, self.right
        changed = right.drive_vp(left.vp)
        if left.vp == 1:
            changed |= right.put_data(self.func(left.data))
        changed |= right.drive_sn(left.sn)
        changed |= left.drive_sp(right.sp)
        changed |= left.drive_vn(right.vn)
        return changed


# ----------------------------------------------------------------------
# Passive anti-token interface (Fig. 7(a))
# ----------------------------------------------------------------------
class PassiveAntiToken(Controller):
    """Boundary between an anti-token region and a token-only region.

    Upstream of this interface no ``{V−, S−}`` wires exist.  The
    interface stops anti-token propagation with ``S− = not V+`` (the
    inverter of Fig. 7(a)): when a token is present the anti-token
    annihilates it (the upstream region simply sees a transfer); when
    none is present the anti-token waits passively on the downstream
    channel.
    """

    def __init__(self, name: str, up: Channel, down: Channel):
        super().__init__(name)
        self.up = up
        self.down = down

    def channels(self) -> Sequence[Channel]:
        return (self.up, self.down)

    def evaluate(self) -> bool:
        changed = False
        up, down = self.up, self.down
        changed |= down.drive_vp(up.vp)
        if up.vp == 1:
            changed |= down.put_data(up.data)
        changed |= down.drive_sn(lnot(up.vp))
        # Upstream never sees anti-tokens; a kill looks like a transfer.
        changed |= up.drive_vn(0)
        changed |= up.drive_sp(land(down.sp, lnot(down.vn)))
        return changed


# ----------------------------------------------------------------------
# Variable-latency controller (Fig. 7(b))
# ----------------------------------------------------------------------
class VariableLatency(Controller):
    """Controller for a variable-latency functional unit.

    Implements the three-wire (go/done/ack) handshake of Fig. 7(b) at
    the cycle level: ``go`` corresponds to accepting an input token,
    ``done`` to the unit finishing after a sampled latency, and ``ack``
    to the output transfer (or kill).  While the unit is empty,
    anti-tokens pass backwards combinationally -- there is no latch in
    the controller, so (as the paper notes for the M1/M2 channels)
    anti-tokens are never killed *inside* it, only at buffer
    boundaries.
    """

    IDLE, BUSY, DONE = range(3)

    def __init__(
        self,
        name: str,
        left: Channel,
        right: Channel,
        latency: Callable[[random.Random], int],
        func: Optional[Callable[[object], object]] = None,
        rng: Optional[random.Random] = None,
    ):
        super().__init__(name)
        self.left = left
        self.right = right
        self.latency = latency
        self.func = func if func is not None else (lambda value: value)
        self.rng = rng if rng is not None else random.Random(0)
        self.state = self.IDLE
        self.remaining = 0
        self.payload: object = None
        self.result: object = None
        self.go_count = 0
        self.done_count = 0
        self.aborted = 0

    def channels(self) -> Sequence[Channel]:
        return (self.left, self.right)

    def evaluate(self) -> bool:
        changed = False
        left, right = self.left, self.right
        idle = self.state == self.IDLE
        done = self.state == self.DONE
        busy = self.state == self.BUSY

        changed |= right.drive_vp(_b(done))
        if done:
            changed |= right.put_data(self.result)
        if busy:
            # An anti-token may preempt the computation in flight (the
            # counterflow pipelining of the paper's refs [1, 2]): the
            # anti-token is absorbed and the operation aborted.
            changed |= right.drive_sn(0)
        elif done:
            changed |= right.drive_sn(0)
        else:  # idle: pass the anti-token through combinationally
            changed |= right.drive_sn(land(left.sn, lnot(left.vp)))
        changed |= left.drive_vn(land(right.vn, _b(idle)))
        if idle:
            changed |= left.drive_sp(0)
        elif busy:
            changed |= left.drive_sp(1)
        else:
            # done: accept a new operand in the cycle the result departs
            # (ack = output transfer or kill), like back-to-back go/ack
            # handshakes on the Fig. 7(b) interface.
            released = lor(lnot(right.sp), right.vn)
            changed |= left.drive_sp(lnot(released))
        return changed

    def _start(self, payload: object) -> None:
        self.payload = payload
        lat = self.latency(self.rng)
        if lat < 1:
            raise ValueError("latency must be >= 1")
        self.go_count += 1
        if lat == 1:
            self.state = self.DONE
            self.result = self.func(self.payload)
            self.done_count += 1
        else:
            self.state = self.BUSY
            self.remaining = lat - 1

    def commit(self) -> None:
        left, right = self.left, self.right
        if self.state == self.IDLE:
            if left.pos_transfer:
                self._start(left.data)
            # left.kill: the token died on the input channel; stay idle.
        elif self.state == self.BUSY:
            if right.neg_transfer:
                # Preempted: the anti-token annihilates the operand in
                # flight and the unit is flushed.
                self.state = self.IDLE
                self.payload = None
                self.aborted += 1
            else:
                self.remaining -= 1
                if self.remaining == 0:
                    self.state = self.DONE
                    self.result = self.func(self.payload)
                    self.done_count += 1
        elif self.state == self.DONE:
            if right.pos_transfer or right.kill:
                self.state = self.IDLE
                self.result = None
                if left.pos_transfer:
                    self._start(left.data)


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
class Source(Controller):
    """Environment producer on a ``{V+, S+}`` interface.

    Offers a token with probability ``p_valid`` each cycle and honours
    SELF persistence: a retried token is re-offered with the same
    payload until it transfers (or is killed, if the channel carries
    anti-tokens -- the source itself behaves like a passive interface,
    ``S− = not V+``).
    """

    state_only = True

    def __init__(
        self,
        name: str,
        output: Channel,
        data_fn: Optional[Callable[[int], object]] = None,
        p_valid: float = 1.0,
        rng: Optional[random.Random] = None,
    ):
        super().__init__(name)
        self.output = output
        self.data_fn = data_fn if data_fn is not None else (lambda n: n)
        self.p_valid = p_valid
        self.rng = rng if rng is not None else random.Random(0)
        self.seq = 0
        self.pending = False
        self.current: object = None
        self.offer = False
        self._decided = False
        self.sent = 0
        self.killed = 0

    def channels(self) -> Sequence[Channel]:
        return (self.output,)

    def evaluate(self) -> bool:
        out = self.output
        if not self.pending and not self._decided:
            # Decide once per cycle whether to offer a fresh token.
            self._decided = True
            if self.p_valid >= 1.0 or self.rng.random() < self.p_valid:
                self.current = self.data_fn(self.seq)
                self.offer = True
        valid = self.pending or self.offer
        changed = out.drive_vp(_b(valid))
        if valid:
            changed |= out.put_data(self.current)
        changed |= out.drive_sn(lnot(_b(valid)))
        return changed

    def commit(self) -> None:
        out = self.output
        if out.vp == 1:
            if out.kill:
                self.killed += 1
                self.seq += 1
                self.pending = False
            elif out.pos_transfer:
                self.sent += 1
                self.seq += 1
                self.pending = False
            else:  # retry: persistence
                self.pending = True
        self.offer = False
        self._decided = False


class Sink(Controller):
    """Environment consumer, optionally stalling and/or killing.

    With ``p_stop == p_kill == 0`` this is the always-ready consumer of
    the Table 1 experiments.  With nonzero probabilities it becomes the
    non-deterministic consumer of the Fig. 8(b) verification set-up:
    each cycle it either accepts, stalls, or emits an anti-token to
    cancel data inside the netlist.  Anti-token persistence (Retry−) is
    honoured.
    """

    state_only = True

    def __init__(
        self,
        name: str,
        input: Channel,
        p_stop: float = 0.0,
        p_kill: float = 0.0,
        on_data: Optional[Callable[[object], None]] = None,
        rng: Optional[random.Random] = None,
    ):
        super().__init__(name)
        if p_stop + p_kill > 1.0 + 1e-12:
            raise ValueError("p_stop + p_kill must be <= 1")
        self.input = input
        self.p_stop = p_stop
        self.p_kill = p_kill
        self.on_data = on_data
        self.rng = rng if rng is not None else random.Random(0)
        self.pending_anti = False
        self._action: Optional[str] = None
        self.received: List[object] = []
        self.kills_sent = 0

    def channels(self) -> Sequence[Channel]:
        return (self.input,)

    def evaluate(self) -> bool:
        ch = self.input
        if self._action is None:
            if self.pending_anti:
                self._action = "kill"
            else:
                r = self.rng.random()
                if r < self.p_kill:
                    self._action = "kill"
                elif r < self.p_kill + self.p_stop:
                    self._action = "stall"
                else:
                    self._action = "accept"
        action = self._action
        changed = ch.drive_vn(_b(action == "kill"))
        changed |= ch.drive_sp(_b(action == "stall"))
        return changed

    def commit(self) -> None:
        ch = self.input
        if ch.pos_transfer:
            self.received.append(ch.data)
            if self.on_data is not None:
                self.on_data(ch.data)
        if self._action == "kill":
            if ch.kill or ch.neg_transfer:
                self.kills_sent += 1
                self.pending_anti = False
            else:  # Retry-: hold the anti-token
                self.pending_anti = True
        self._action = None


# ----------------------------------------------------------------------
# Network simulator
# ----------------------------------------------------------------------
class ElasticNetwork:
    """Fixed-point simulator for a network of elastic controllers.

    Per cycle: reset all channel wires to X and settle the network on a
    worklist, check that every wire settled, classify/record every
    channel, then ``commit`` all controllers.

    The worklist starts with every controller in :attr:`controllers`
    order.  When an ``evaluate`` reports a changed wire or payload,
    every controller sharing a channel with it is queued again unless
    it is already queued or :attr:`Controller.state_only`; the
    controller itself is queued again only when it sits on both ends of
    a channel.  Settling ends when the worklist is empty.  Wires only
    resolve from X, so only a combinational payload loop can keep
    changing: more than ``(4 * |channels| + 4) * |controllers|``
    changing evaluations in one cycle raise "fixed point not reached".
    """

    def __init__(self, name: str = "network"):
        self.name = name
        self.controllers: List[Controller] = []
        self.channels: Dict[str, Channel] = {}
        self.cycle = 0
        #: ``(controllers, their classes, fan-out)`` as of the last
        #: cycle; :meth:`_fanout` rebuilds it when the list changes
        #: (tests shuffle it in place) or a controller's class is
        #: swapped (:mod:`repro.fuzz.mutations` does that).
        self._plan: Tuple[list, list, List[Tuple[int, ...]]] = ([], [], [])
        self._saboteurs: List[Callable[[int, Dict[str, Channel]], None]] = []
        #: post-commit probes ``fn(net)`` run once per settled cycle
        #: (wires are still valid, ``net.cycle`` is the cycle just
        #: simulated).  Empty by default -- the common untraced path
        #: pays one truthiness check per cycle.  :mod:`repro.obs` uses
        #: this for occupancy sampling and metrics collection.
        self.probes: List[Callable[["ElasticNetwork"], None]] = []

    def add_saboteur(
        self, saboteur: Callable[[int, Dict[str, Channel]], None]
    ) -> Callable[[int, Dict[str, Channel]], None]:
        """Register a fault-injection hook ``fn(cycle, channels)``.

        Saboteurs run after the network settles but *before* channels
        are classified and controllers commit, so a corrupted wire is
        what every monitor and every controller's commit phase sees --
        the behavioural analogue of a glitch on the physical wire.  See
        :mod:`repro.faults.models` for the stock fault models.
        """
        self._saboteurs.append(saboteur)
        return saboteur

    def add_probe(
        self, probe: Callable[["ElasticNetwork"], None]
    ) -> Callable[["ElasticNetwork"], None]:
        """Register a post-commit probe ``fn(net)`` (see :attr:`probes`).

        Probes run once per settled cycle with the channel wires still
        valid and ``net.cycle`` naming the cycle just simulated -- the
        attachment point for occupancy sampling, metrics collection and
        the :class:`~repro.resilience.NetworkStallWatchdog`.
        """
        self.probes.append(probe)
        return probe

    def add_channel(self, name: str, monitor: bool = True, check_data: bool = True) -> Channel:
        """Create and register a channel."""
        if name in self.channels:
            raise ValueError(f"duplicate channel {name!r}")
        ch = Channel(name, monitor=monitor, check_data=check_data)
        self.channels[name] = ch
        return ch

    def add(self, controller: Controller) -> Controller:
        """Register a controller (its channels must already be added)."""
        for ch in controller.channels():
            if self.channels.get(ch.name) is not ch:
                raise ValueError(
                    f"{controller.name}: channel {ch.name!r} not registered"
                )
        self.controllers.append(controller)
        return controller

    def _fanout(self) -> List[Tuple[int, ...]]:
        """For each controller, the indices to queue when it changes."""
        controllers = self.controllers
        classes = [type(ctrl) for ctrl in controllers]
        planned, planned_classes, fanout = self._plan
        if controllers == planned and classes == planned_classes:
            return fanout
        ends: Dict[int, List[int]] = {}
        for i, ctrl in enumerate(controllers):
            for ch in ctrl.channels():
                ends.setdefault(id(ch), []).append(i)
        fanout = []
        for i, ctrl in enumerate(controllers):
            targets = set()
            for ch in ctrl.channels():
                on_channel = ends[id(ch)]
                targets.update(j for j in on_channel if j != i)
                if on_channel.count(i) > 1:
                    targets.add(i)
            fanout.append(tuple(sorted(
                j for j in targets if not controllers[j].state_only
            )))
        self._plan = (list(controllers), classes, fanout)
        return fanout

    def step(self) -> None:
        """Simulate one clock cycle."""
        for ch in self.channels.values():
            ch.begin_cycle()
        controllers = self.controllers
        fanout = self._fanout()
        queued = [True] * len(controllers)
        worklist = deque(range(len(controllers)))
        pop, push = worklist.popleft, worklist.append
        budget = (4 * len(self.channels) + 4) * len(controllers)
        while worklist:
            i = pop()
            queued[i] = False
            if controllers[i].evaluate():
                budget -= 1
                if budget < 0:
                    raise ProtocolViolation(
                        f"{self.name}: fixed point not reached"
                    )
                for j in fanout[i]:
                    if not queued[j]:
                        queued[j] = True
                        push(j)
        for saboteur in self._saboteurs:
            saboteur(self.cycle, self.channels)
        for ch in self.channels.values():
            ch.finish_cycle()
        for ctrl in self.controllers:
            ctrl.commit()
        if self.probes:
            for probe in self.probes:
                probe(self)
        self.cycle += 1

    def run(self, cycles: int) -> None:
        """Simulate ``cycles`` clock cycles."""
        for _ in range(cycles):
            self.step()

    def throughput(self, channel: str) -> float:
        """The Th of one channel (transfers + kills per cycle)."""
        return self.channels[channel].stats.throughput

    def report(self) -> str:
        """Human-readable per-channel summary."""
        lines = [f"network {self.name}: {self.cycle} cycles"]
        for name in sorted(self.channels):
            lines.append(f"  {name:24s} {self.channels[name].stats}")
        return "\n".join(lines)
