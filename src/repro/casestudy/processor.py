"""An elastic processor pipeline: the paper's machinery end-to-end.

A five-stage in-order pipeline built entirely from the paper's
controllers, exercising every mechanism at once:

* **elasticity** -- every stage boundary is an elastic buffer, so the
  pipeline tolerates variable memory/multiplier latencies without a
  global stall network;
* **variable latency** -- the multiplier (fast/slow) and the memory
  unit (cache hit/miss) are VL controllers (Fig. 7(b));
* **early evaluation** -- writeback selects the executing unit's result
  by opcode with an early join (Fig. 6(c)): an ALU instruction does not
  wait for the multiplier pipeline, anti-tokens cancel (or preempt) the
  unused units' work;
* **exception handling by counterflow** (Sect. 7) -- on a branch
  misprediction the commit unit injects one anti-token per wrong-path
  instruction in flight; the anti-tokens annihilate them wherever they
  are.  FIFO annihilation order guarantees exactly the wrong-path
  instructions die.

The instruction stream, opcode mix and misprediction rate are
configurable; :func:`build_processor` returns the network plus handles
for measurement (IPC, flush counts, committed trace).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.performance import distribution_latency
from repro.elastic.behavioral import (
    EarlyJoin,
    ElasticBuffer,
    ElasticNetwork,
    Join,
    Pipe,
    Sink,
    Source,
    VariableLatency,
)
from repro.elastic.channel import Channel
from repro.elastic.ee import MuxEE


@dataclass(frozen=True)
class Instruction:
    """One architectural instruction."""

    seq: int
    epoch: int
    op: str  # "alu" | "mul" | "mem"
    is_branch: bool = False
    mispredicted: bool = False


@dataclass
class ProcessorConfig:
    """Workload and micro-architecture knobs."""

    op_mix: Dict[str, float] = field(
        default_factory=lambda: {"alu": 0.7, "mul": 0.2, "mem": 0.1}
    )
    p_branch: float = 0.15
    p_mispredict: float = 0.25  # per branch
    mul_latency: Dict[int, float] = field(
        default_factory=lambda: {3: 0.8, 12: 0.2}
    )
    mem_latency: Dict[int, float] = field(
        default_factory=lambda: {1: 0.7, 8: 0.3}
    )
    early_writeback: bool = True
    seed: int = 0


class FetchUnit(Source):
    """Speculative fetch: streams instructions, restarts on redirect."""

    def __init__(self, name: str, output: Channel, config: ProcessorConfig):
        self.config = config
        self._rng = random.Random(config.seed * 7919 + 1)
        self.epoch = 0
        self.fetched_in_epoch = 0
        super().__init__(name, output, data_fn=self._make_instruction)

    def _make_instruction(self, seq: int) -> Instruction:
        cfg = self.config
        ops = list(cfg.op_mix)
        op = self._rng.choices(ops, weights=[cfg.op_mix[o] for o in ops], k=1)[0]
        is_branch = self._rng.random() < cfg.p_branch
        mispredicted = is_branch and self._rng.random() < cfg.p_mispredict
        self.fetched_in_epoch += 1
        return Instruction(seq, self.epoch, op, is_branch, mispredicted)

    def redirect(self) -> None:
        """Branch misprediction: abandon the wrong path, new epoch.

        The currently offered (retried) instruction, if any, belongs to
        the wrong path too; it stays offered (SELF persistence) and is
        annihilated by an incoming anti-token like the rest.
        """
        self.epoch += 1
        self.fetched_in_epoch = 0


class CommitUnit(Sink):
    """In-order commit with anti-token pipeline flushing."""

    def __init__(self, name: str, input: Channel, fetch: FetchUnit):
        super().__init__(name, input)
        self.fetch = fetch
        self.committed: List[Instruction] = []
        self.flushes = 0
        self.wrong_path_killed = 0
        self.anti_budget = 0
        self.in_flight_guess = 0

    def evaluate(self):
        ch = self.input
        if self._action is None:
            if self.pending_anti or self.anti_budget > 0:
                self._action = "kill"
            else:
                self._action = "accept"
        return ch.drive_consumer(0, 1 if self._action == "kill" else 0)

    def commit(self):
        ch = self.input
        if self._action == "kill":
            if ch.kill or ch.neg_transfer:
                self.anti_budget -= 1
                self.wrong_path_killed += 1
                self.pending_anti = False
            else:
                self.pending_anti = True
        elif ch.pos_transfer:
            instr: Instruction = ch.data
            assert instr.epoch == self.fetch.epoch, (
                "wrong-path instruction escaped the flush"
            )
            self.committed.append(instr)
            if instr.is_branch and instr.mispredicted:
                # Everything currently in flight is wrong-path: one
                # anti-token per fetched-but-not-yet-committed
                # instruction of this epoch.  Kills never consume
                # current-epoch instructions (each flush's anti-tokens
                # hunt the *previous* epoch's leftovers), so in-flight
                # is simply fetched minus committed.
                commits_of_epoch = sum(
                    1 for i in self.committed if i.epoch == instr.epoch
                )
                stale = self.fetch.fetched_in_epoch - commits_of_epoch
                self.flushes += 1
                self.anti_budget = stale
                self.fetch.redirect()
        self._action = None


def build_processor(
    config: Optional[ProcessorConfig] = None,
) -> Tuple[ElasticNetwork, FetchUnit, CommitUnit]:
    """Assemble the elastic pipeline; returns (network, fetch, commit)."""
    cfg = config or ProcessorConfig()
    net = ElasticNetwork("elastic-cpu")

    ch = {
        name: net.add_channel(name, check_data=False)
        for name in (
            "fetch", "if_id", "id", "disp",
            "sel", "sel_q",
            "alu_in", "alu_out", "alu_q",
            "mul_in", "mul_q0", "mul_out", "mul_q",
            "mem_in", "mem_q0", "mem_out", "mem_q",
            "wb", "wb_q",
        )
    }

    fetch = FetchUnit("fetch", ch["fetch"], cfg)
    net.add(fetch)
    net.add(ElasticBuffer("EB_IF", ch["fetch"], ch["if_id"]))
    net.add(Pipe("decode", ch["if_id"], ch["id"]))
    net.add(ElasticBuffer("EB_ID", ch["id"], ch["disp"]))

    # Dispatch: broadcast to the select channel and all three units.
    from repro.elastic.behavioral import EagerFork

    net.add(
        EagerFork(
            "dispatch",
            ch["disp"],
            [ch["sel"], ch["alu_in"], ch["mul_in"], ch["mem_in"]],
        )
    )
    net.add(ElasticBuffer("EB_SEL", ch["sel"], ch["sel_q"]))

    # ALU: single-cycle (just its output register).
    net.add(Pipe("alu", ch["alu_in"], ch["alu_out"]))
    net.add(ElasticBuffer("EB_ALU", ch["alu_out"], ch["alu_q"]))

    # MUL: buffered variable-latency unit.
    net.add(ElasticBuffer("EB_MUL0", ch["mul_in"], ch["mul_q0"]))
    net.add(
        VariableLatency(
            "mul", ch["mul_q0"], ch["mul_out"],
            latency=distribution_latency(cfg.mul_latency),
            rng=random.Random(cfg.seed * 31 + 3),
        )
    )
    net.add(ElasticBuffer("EB_MUL", ch["mul_out"], ch["mul_q"]))

    # MEM: buffered variable-latency unit (cache hit/miss).
    net.add(ElasticBuffer("EB_MEM0", ch["mem_in"], ch["mem_q0"]))
    net.add(
        VariableLatency(
            "mem", ch["mem_q0"], ch["mem_out"],
            latency=distribution_latency(cfg.mem_latency),
            rng=random.Random(cfg.seed * 31 + 4),
        )
    )
    net.add(ElasticBuffer("EB_MEM", ch["mem_out"], ch["mem_q"]))

    # Writeback: select the executing unit's result by opcode.
    unit_of = {"alu": 1, "mul": 2, "mem": 3}

    def chooser(instr: Instruction) -> int:
        return unit_of[instr.op]

    wb_inputs = [ch["sel_q"], ch["alu_q"], ch["mul_q"], ch["mem_q"]]
    if cfg.early_writeback:
        ee = MuxEE(select=0, chooser=chooser, arity=4)
        net.add(EarlyJoin("writeback", wb_inputs, ch["wb"], ee))
    else:
        net.add(
            Join(
                "writeback", wb_inputs, ch["wb"],
                combine=lambda xs: xs[unit_of[xs[0].op]],
            )
        )
    net.add(ElasticBuffer("EB_WB", ch["wb"], ch["wb_q"]))

    commit = CommitUnit("commit", ch["wb_q"], fetch)
    net.add(commit)
    return net, fetch, commit


@dataclass
class ProcessorReport:
    """Measurement summary of a processor run."""

    cycles: int
    committed: int
    ipc: float
    flushes: int
    wrong_path_killed: int

    def __str__(self) -> str:
        return (
            f"{self.cycles} cycles: {self.committed} committed "
            f"(IPC {self.ipc:.3f}), {self.flushes} flushes, "
            f"{self.wrong_path_killed} wrong-path instructions annihilated"
        )


def run_processor(
    config: Optional[ProcessorConfig] = None, cycles: int = 5000
) -> Tuple[ProcessorReport, CommitUnit]:
    """Build, run, and summarise."""
    net, fetch, commit = build_processor(config)
    net.run(cycles)
    report = ProcessorReport(
        cycles=cycles,
        committed=len(commit.committed),
        ipc=len(commit.committed) / cycles,
        flushes=commit.flushes,
        wrong_path_killed=commit.wrong_path_killed,
    )
    return report, commit
