"""Cycle-accurate behavioural elastic controllers and network simulator.

Each controller owns ports on dual channels (:class:`~repro.elastic.
channel.Channel`) and implements two methods:

* ``evaluate()`` -- combinational: read the current (possibly unknown)
  wire values and payloads, drive output wires through each channel's
  producer or consumer end, with the two-input ternary gates of
  :mod:`repro.rtl.logic`, and put output payloads.  Called once per
  cycle, then again whenever a neighbour's evaluation changed a wire
  or payload, until the whole network reaches a fixed point.  All
  wire equations are monotone (X can only resolve to 0/1), so the
  settled wires exist and are unique; a payload is recomputed from the
  settled payloads it reads, so the settled payloads do not depend on
  the order of evaluation either.
* ``commit()`` -- sequential: called once per cycle after the network
  settled and every channel classified its cycle, to update internal
  state (buffer occupancy, pending-token flip-flops, variable-latency
  countdowns) from each channel's ``last_event``.

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
from repro.elastic.ee import EarlyEvalFunction
from repro.elastic.protocol import (
    KILL,
    NEGATIVE_TRANSFER,
    POSITIVE_TRANSFER,
    RETRY_POS,
    ProtocolViolation,
)
from repro.rtl.logic import Value, land2, landn2, lnor2, lnot, lor2, lorn2


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
        count, capacity = self.count, self.capacity
        right = self.right
        changed = right.drive_producer(
            1 if count > 0 else 0, 1 if count <= -capacity else 0
        )
        if count > 0:
            changed |= right.put_data(self.data[0])
        changed |= self.left.drive_consumer(
            1 if count >= capacity else 0, 1 if count < 0 else 0
        )
        return changed

    def commit(self) -> None:
        on_left, on_right = self.left.last_event, self.right.last_event
        in_pos = on_left is POSITIVE_TRANSFER
        kill_left = on_left is KILL
        out_neg = on_left is NEGATIVE_TRANSFER
        out_pos = on_right is POSITIVE_TRANSFER
        kill_right = on_right is KILL
        in_neg = on_right is NEGATIVE_TRANSFER

        count = self.count
        if out_pos or kill_right:
            # Head token leaves (transfer) or is annihilated by an
            # incoming anti-token at the output boundary.
            self.data.pop(0)
            count -= 1
        if kill_left or out_neg:
            # A stored anti-token annihilates an arriving token, or
            # moves backwards onto the input channel.
            count += 1
        if in_pos:
            count += 1
            if in_neg:
                # Token and anti-token entered opposite ends of an empty
                # buffer in the same cycle: they annihilate inside.
                count -= 1
            else:
                self.data.append(self.left.data)
        elif in_neg:
            count -= 1
        self.count = count
        if not -self.capacity <= count <= self.capacity:
            raise ProtocolViolation(f"{self.name}: occupancy {count} out of range")
        if len(self.data) != (count if count > 0 else 0):
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
        out = self.output
        # The B gate: an anti-token still pending in a flip-flop blocks
        # new transfers and back-pressures further anti-tokens.
        pending = 1 if any(self.apend) else 0
        vp_out = 0
        if not pending:
            vp_out = 1
            for ch in self.inputs:
                vp_out = land2(vp_out, ch.vp)
        changed = out.drive_producer(vp_out, pending)
        if vp_out == 1:
            changed |= out.put_data(self.combine([ch.data for ch in self.inputs]))

        # Eager anti-token fork: broadcast an accepted anti-token, plus
        # any anti-tokens still pending in the flip-flops.
        forked = 0 if pending else landn2(out.vn, vp_out)
        fire = landn2(vp_out, out.sp)
        for ch, pend in zip(self.inputs, self.apend):
            vn_i = 1 if pend else forked
            # I gate: never stop a token we are about to kill.
            changed |= ch.drive_consumer(lnor2(fire, vn_i), vn_i)
        return changed

    def commit(self) -> None:
        # anti-token taken from the output channel
        accepted = self.output.last_event is NEGATIVE_TRANSFER
        for i, ch in enumerate(self.inputs):
            event = ch.last_event
            delivered = event is KILL or event is NEGATIVE_TRANSFER
            self.apend[i] = 1 if (self.apend[i] or accepted) and not delivered else 0


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
        valids: List[Value] = [
            0 if pend else ch.vp for ch, pend in zip(self.inputs, self.apend)
        ]
        datas = [
            ch.data if valid == 1 else None
            for ch, valid in zip(self.inputs, valids)
        ]
        return valids, datas

    def evaluate(self) -> bool:
        out = self.output
        full = 1 if max(self.apend, default=0) >= self.anti_capacity else 0

        valids, datas = self._ee_inputs()
        vp_out = 0 if full else land2(self.ee.evaluate(valids, datas), 1)
        changed = out.drive_producer(vp_out, full)
        if vp_out == 1:
            # SELF persistence: a token stalled in Retry+ must keep the
            # payload it was first offered with, even if a late input
            # arrives mid-retry and EE would now see more operands
            # (positive unateness keeps V+ itself asserted).
            if self._held_data is not _NO_HELD_DATA:
                changed |= out.put_data(self._held_data)
            else:
                changed |= out.put_data(self.ee.output_data(valids, datas))

        fire = landn2(vp_out, out.sp)
        forked = 0 if full else landn2(out.vn, vp_out)
        for ch, pend, valid in zip(self.inputs, self.apend, valids):
            if pend:
                vn_i = 1
            else:
                # G gate: early firing leaves an anti-token on inputs
                # whose (unmasked) token was absent.
                vn_i = lor2(landn2(fire, valid), forked)
            changed |= ch.drive_consumer(lnor2(fire, vn_i), vn_i)
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
        accepted = out.last_event is NEGATIVE_TRANSFER
        for i, ch in enumerate(self.inputs):
            generated = i in owing
            event = ch.last_event
            delivered = event is KILL or event is NEGATIVE_TRANSFER
            incoming = 1 if (accepted or generated) else 0
            self.apend[i] = self.apend[i] + incoming - (1 if delivered else 0)
            if not 0 <= self.apend[i] <= self.anti_capacity:
                raise ProtocolViolation(
                    f"{self.name}: anti-token counter {i} out of range"
                )
        # Latch the offered payload across a Retry+ stall; any other
        # outcome (transfer, idle, kill) starts a fresh transaction.
        if out.last_event is RETRY_POS:
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
        inp = self.input
        # The anti-token wave crosses the fork only at a fresh token
        # boundary (every pending flag set): a half-delivered token
        # must finish first, or branch anti-tokens targeting different
        # tokens would be merged.  Gating on *state* (never on the
        # upstream S-/V+ wires) keeps V-in free of combinational cycles
        # when forks abut -- the hazard Sect. 4 warns about -- and
        # Retry- persistence holds because a colliding token is
        # annihilated (kill) instead of forcing a withdrawal.
        vn_in = 1 if all(self.pend) else 0
        if vn_in:
            for ch in self.outputs:
                vn_in = land2(vn_in, ch.vn)
        # The wave is consumed when the input channel moves it: a
        # negative transfer backwards, or a kill against an arriving
        # token (which annihilates every branch copy at once).
        vp = inp.vp
        moved = land2(vn_in, lorn2(vp, inp.sn))
        changed = False
        all_done = 1
        for i, (ch, pend) in enumerate(zip(self.outputs, self.pend)):
            vp_i = vp if pend else 0
            # I gate: never stop an anti-token that annihilates our copy.
            changed |= ch.drive_producer(vp_i, lnor2(moved, vp_i))
            if vp_i == 1:
                payload = inp.data
                if self.branch_data is not None:
                    payload = self.branch_data(i, payload)
                changed |= ch.put_data(payload)
            if pend:  # a delivered copy is done already
                completed = land2(vp_i, lorn2(ch.vn, ch.sp))
                all_done = land2(all_done, completed)
        changed |= inp.drive_consumer(lnor2(all_done, vn_in), vn_in)
        return changed

    def commit(self) -> None:
        event = self.input.last_event
        if event is POSITIVE_TRANSFER or event is KILL:
            # all copies completed this cycle
            self.pend = [1] * len(self.outputs)
        elif event is RETRY_POS:
            for i, ch in enumerate(self.outputs):
                copy = ch.last_event  # completed when it moved or died
                if copy is POSITIVE_TRANSFER or copy is KILL:
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
        inp = self.input
        # A lazy fork is always at a fresh token boundary (no pending
        # state), so the wave gate reduces to the anti-tokens of every
        # branch; see EagerFork for the state-gated variant.
        vn_in = 1
        for ch in self.outputs:
            vn_in = land2(vn_in, ch.vn)
        moved = land2(vn_in, lorn2(inp.vp, inp.sn))
        changed = False
        for i, ch in enumerate(self.outputs):
            siblings_go = 1
            for j, other in enumerate(self.outputs):
                if j != i:
                    siblings_go = landn2(siblings_go, other.sp)
            # a branch anti-token always completes a copy
            vp_i = land2(inp.vp, lor2(siblings_go, ch.vn))
            changed |= ch.drive_producer(vp_i, lnor2(moved, vp_i))
            if vp_i == 1:
                changed |= ch.put_data(inp.data)
        no_stop = 1
        for ch in self.outputs:
            no_stop = land2(no_stop, lorn2(ch.vn, ch.sp))
        changed |= inp.drive_consumer(
            lnor2(land2(inp.vp, no_stop), vn_in), vn_in
        )
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
        changed = right.drive_producer(left.vp, left.sn)
        if left.vp == 1:
            changed |= right.put_data(self.func(left.data))
        changed |= left.drive_consumer(right.sp, right.vn)
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
        up, down = self.up, self.down
        changed = down.drive_producer(up.vp, lnot(up.vp))
        if up.vp == 1:
            changed |= down.put_data(up.data)
        # Upstream never sees anti-tokens; a kill looks like a transfer.
        changed |= up.drive_consumer(landn2(down.sp, down.vn), 0)
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
        left, right = self.left, self.right
        state = self.state
        if state == self.IDLE:
            # Pass the anti-token through combinationally.
            changed = right.drive_producer(0, landn2(left.sn, left.vp))
            changed |= left.drive_consumer(0, right.vn)
        elif state == self.BUSY:
            # An anti-token may preempt the computation in flight (the
            # counterflow pipelining of the paper's refs [1, 2]): the
            # anti-token is absorbed and the operation aborted.
            changed = right.drive_producer(0, 0)
            changed |= left.drive_consumer(1, 0)
        else:
            changed = right.drive_producer(1, 0)
            changed |= right.put_data(self.result)
            # Done: accept a new operand in the cycle the result departs
            # (ack = output transfer or kill), like back-to-back go/ack
            # handshakes on the Fig. 7(b) interface.
            changed |= left.drive_consumer(landn2(right.sp, right.vn), 0)
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
        left, on_right = self.left, self.right.last_event
        if self.state == self.IDLE:
            if left.last_event is POSITIVE_TRANSFER:
                self._start(left.data)
            # A kill on ``left``: the token died on the input channel;
            # stay idle.
        elif self.state == self.BUSY:
            if on_right is NEGATIVE_TRANSFER:
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
            if on_right is POSITIVE_TRANSFER or on_right is KILL:
                self.state = self.IDLE
                self.result = None
                if left.last_event is POSITIVE_TRANSFER:
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
        if self.pending or self.offer:
            changed = out.drive_producer(1, 0)
            changed |= out.put_data(self.current)
        else:
            changed = out.drive_producer(0, 1)
        return changed

    def commit(self) -> None:
        event = self.output.last_event
        if event is KILL:
            self.killed += 1
            self.seq += 1
            self.pending = False
        elif event is POSITIVE_TRANSFER:
            self.sent += 1
            self.seq += 1
            self.pending = False
        elif event is RETRY_POS:  # persistence
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
        return ch.drive_consumer(
            1 if action == "stall" else 0, 1 if action == "kill" else 0
        )

    def commit(self) -> None:
        ch = self.input
        event = ch.last_event
        if event is POSITIVE_TRANSFER:
            self.received.append(ch.data)
            if self.on_data is not None:
                self.on_data(ch.data)
        if self._action == "kill":
            if event is KILL or event is NEGATIVE_TRANSFER:
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
        the :class:`~repro.obs.analyze.NetworkProfiler` (cycle accounting,
        stall attribution and stall diagnosis).
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
        classes = list(map(type, controllers))
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
        channels = self.channels.values()
        for ch in channels:
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
        for ch in channels:
            ch.finish_cycle()
        for ctrl in controllers:
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
