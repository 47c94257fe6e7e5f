"""Tests for the system specification DSL."""

import pytest

from repro.core.performance import fixed_latency
from repro.elastic.ee import AndEE
from repro.synthesis.spec import BlockSpec, SystemSpec


def minimal_spec():
    spec = SystemSpec("mini")
    spec.add_source("P")
    spec.add_sink("C")
    spec.add_register("R")
    spec.connect(spec.source("P"), spec.register_in("R"))
    spec.connect(spec.register_out("R"), spec.sink("C"))
    return spec


class TestDeclarations:
    def test_duplicate_names_rejected(self):
        spec = SystemSpec("s")
        spec.add_block("B")
        with pytest.raises(ValueError):
            spec.add_block("B")

    def test_name_shared_across_kinds_rejected(self):
        """A sink named like a block would be one node of the DMG
        abstraction: source -> A -> B -> C -> sink C has no path to
        the sink, only self-loops at C."""
        spec = SystemSpec("s")
        spec.add_source("P")
        for name in "ABC":
            spec.add_block(name)
        with pytest.raises(ValueError, match="'C': already a BlockSpec"):
            spec.add_sink("C")

    def test_vl_block_must_be_1in_1out(self):
        with pytest.raises(ValueError):
            BlockSpec("m", n_inputs=2, latency=fixed_latency(2))

    def test_ee_arity_must_match(self):
        with pytest.raises(ValueError):
            BlockSpec("j", n_inputs=3, ee=AndEE(2))

    def test_is_early(self):
        assert BlockSpec("j", n_inputs=2, ee=AndEE(2)).is_early
        assert not BlockSpec("j", n_inputs=2).is_early


class TestConnections:
    def test_default_names(self):
        spec = minimal_spec()
        names = [c.name for c in spec.connections]
        assert names == ["P->R", "R->C"]

    def test_name_collision_suffixed(self):
        spec = SystemSpec("s")
        spec.add_source("A")
        spec.add_block("B", n_inputs=2, n_outputs=1)
        spec.add_sink("C")
        spec.add_block("A2")  # decoy
        c1 = spec.connect(spec.source("A"), spec.block_in("B", 0))
        # same default name would clash:
        spec.connections.append(c1)  # simulate existing
        spec.connections.pop()
        c2 = spec.connect(spec.source("A"), spec.block_in("B", 1))
        assert c1.name != c2.name

    def test_explicit_duplicate_name_rejected(self):
        spec = SystemSpec("s")
        spec.add_source("A")
        spec.add_sink("B")
        spec.add_sink("B2")
        spec.connect(spec.source("A"), spec.sink("B"), name="x")
        with pytest.raises(ValueError):
            spec.connect(spec.source("A"), spec.sink("B2"), name="x")

    def test_connection_lookup(self):
        spec = minimal_spec()
        assert spec.connection("P->R").src == ("source", "P", "out")
        with pytest.raises(KeyError):
            spec.connection("nope")


class TestValidation:
    def test_minimal_spec_validates(self):
        minimal_spec().validate()

    def test_unconnected_port_caught(self):
        spec = SystemSpec("s")
        spec.add_source("P")
        spec.add_sink("C")
        spec.add_block("B", n_inputs=1, n_outputs=2)
        spec.connect(spec.source("P"), spec.block_in("B"))
        spec.connect(spec.block_out("B", 0), spec.sink("C"))
        with pytest.raises(ValueError, match="unconnected"):
            spec.validate()

    def test_double_connection_caught(self):
        spec = SystemSpec("s")
        spec.add_source("P")
        spec.add_sink("C")
        spec.add_sink("C2")
        spec.connect(spec.source("P"), spec.sink("C"))
        spec.connect(spec.source("P"), spec.sink("C2"))
        with pytest.raises(ValueError, match="multiply"):
            spec.validate()

    def test_wrong_role_caught(self):
        spec = SystemSpec("s")
        spec.add_source("P")
        spec.add_source("Q")
        with pytest.raises(ValueError, match="used as"):
            spec.connect(spec.source("P"), spec.source("Q"))
            spec.validate()

    def test_unknown_endpoint_caught(self):
        spec = SystemSpec("s")
        spec.add_source("P")
        spec.connect(spec.source("P"), ("sink", "ghost", "in"))
        with pytest.raises(ValueError, match="unknown endpoint"):
            spec.validate()
