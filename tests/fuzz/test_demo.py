"""Acceptance: the planted broken-early-join arbiter is found by the
oracle and auto-shrunk to a handful of blocks, and the corpus entry
replays."""

import pytest

from repro.fuzz.corpus import replay_entry
from repro.fuzz.model import SpecModel
from repro.fuzz.oracle import OracleConfig
from repro.fuzz.runner import run_demo

FAST = OracleConfig(cycles=64, check_gates=False,
                    check_verify=False)


@pytest.fixture(scope="module")
def demo_entry():
    return run_demo(seed=0)


class TestDemo:
    def test_finding_is_a_protocol_violation(self, demo_entry):
        assert demo_entry.finding["stage"] == "behavioral"
        detail = demo_entry.finding["detail"]
        assert "invariant" in detail or "Retry" in detail

    def test_shrunk_to_at_most_six_blocks(self, demo_entry):
        d = demo_entry.to_dict()
        assert d["blocks_after"] <= 6
        assert d["blocks_after"] <= d["blocks_before"]

    def test_guilty_early_join_survives_the_shrink(self, demo_entry):
        shrunk = SpecModel.from_dict(demo_entry.shrunk)
        assert any(b.ee is not None and b.n_inputs >= 2
                   for b in shrunk.blocks)

    def test_entry_replays(self, demo_entry):
        replayed = replay_entry(demo_entry, config=FAST)
        assert replayed is not None
        assert replayed.stage == "behavioral"

    def test_demo_is_deterministic(self, demo_entry):
        again = run_demo(seed=0)
        assert again.to_json() == demo_entry.to_json()

    def test_mutation_name_is_recorded(self, demo_entry):
        assert demo_entry.mutation == "broken-early-join"
