#!/usr/bin/env python3
"""Pipeline flush by anti-token injection (the Sect. 7 extension).

The paper's conclusion observes that the anti-token counterflow
mechanism "can also be used for handling exceptions inside elastic
pipelines -- for example, flushing a pipeline on branch mispredictions
can be done by injecting anti-tokens".

This example models a speculative front-end: a fetch unit streams
instructions into a 5-stage elastic pipeline; a 'commit' consumer
occasionally discovers a misprediction and must cancel everything in
flight.  Instead of a global flush wire, it simply emits one anti-token
per speculative instruction; the anti-tokens travel backwards,
annihilating wrong-path instructions wherever they are.
"""

import random

from repro.elastic import ElasticBuffer, ElasticNetwork, Sink, Source


class CommitUnit(Sink):
    """Accepts instructions; on a misprediction flushes the window."""

    def __init__(self, name, channel, window, p_mispredict, rng):
        super().__init__(name, channel, rng=rng)
        self.window = window
        self.p_mispredict = p_mispredict
        self.flush_budget = 0
        self.flushes = 0
        self.wrong_path_cancelled = 0
        self.committed = []

    def evaluate(self):
        ch = self.input
        if self._action is None:
            if self.pending_anti or self.flush_budget > 0:
                self._action = "kill"
            elif self.rng.random() < self.p_mispredict:
                # Mispredicted: cancel the next `window` instructions.
                self.flushes += 1
                self.flush_budget = self.window
                self._action = "kill"
            else:
                self._action = "accept"
        action = self._action
        return ch.drive_consumer(0, 1 if action == "kill" else 0)

    def commit(self):
        ch = self.input
        if ch.pos_transfer:
            self.committed.append(ch.data)
        if self._action == "kill" and (ch.kill or ch.neg_transfer):
            self.flush_budget -= 1
            self.wrong_path_cancelled += 1
        super().commit()


def main() -> None:
    net = ElasticNetwork("flush")
    stages = 5
    chans = [net.add_channel(f"s{i}") for i in range(stages + 1)]
    fetch = Source("fetch", chans[0], data_fn=lambda n: f"i{n}")
    net.add(fetch)
    for i in range(stages):
        net.add(ElasticBuffer(f"stage{i}", chans[i], chans[i + 1]))
    commit = CommitUnit("commit", chans[-1], window=4,
                        p_mispredict=0.05, rng=random.Random(11))
    net.add(commit)

    net.run(2000)
    print(net.report())
    print(f"\nmispredictions: {commit.flushes}")
    print(f"wrong-path instructions cancelled: {commit.wrong_path_cancelled}")
    print(f"instructions committed: {len(commit.committed)}")

    # Correctness: the committed stream is a strictly increasing
    # subsequence of the fetch stream -- no wrong-path instruction was
    # ever committed, and no instruction was duplicated.
    indices = [int(i[1:]) for i in commit.committed]
    assert indices == sorted(set(indices)), "commit stream corrupted"
    gaps = sum(b - a - 1 for a, b in zip(indices, indices[1:]))
    print(f"flushed gaps in the committed stream: {gaps} instructions")
    print("\nAnti-tokens flushed exactly the speculative window, without")
    print("any global flush signal: the counterflow IS the flush logic.")


if __name__ == "__main__":
    main()
