"""The ELX0xx defect zoo: spec-, network- and DMG-level protocol rules."""

from repro.elastic.behavioral import (
    EarlyJoin,
    ElasticBuffer,
    ElasticNetwork,
    Pipe,
    Sink,
    Source,
)
from repro.elastic.ee import AndEE
from repro.lint.elastic_rules import lint_network, lint_spec
from repro.lint.findings import Severity
from repro.synthesis.spec import SystemSpec


def codes(findings):
    return sorted({f.rule for f in findings})


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


def pipeline_spec(**register_kwargs):
    """Source -> block -> register -> sink: the minimal healthy spec."""
    spec = SystemSpec("ok")
    spec.add_source("Din")
    spec.add_sink("Dout")
    spec.add_block("F")
    spec.add_register("R", **register_kwargs)
    spec.connect(spec.source("Din"), spec.block_in("F"))
    spec.connect(spec.block_out("F"), spec.register_in("R"))
    spec.connect(spec.register_out("R"), spec.sink("Dout"))
    return spec


def loop_spec(capacity, initial_tokens, early=False):
    """A two-node loop through register R, plus an environment tap."""
    spec = SystemSpec("loop")
    spec.add_source("Din")
    spec.add_sink("Dout")
    spec.add_block(
        "A", n_inputs=2, n_outputs=2, ee=AndEE(2) if early else None
    )
    spec.add_register("R", capacity=capacity, initial_tokens=initial_tokens)
    spec.connect(spec.source("Din"), spec.block_in("A", 0))
    spec.connect(spec.register_out("R"), spec.block_in("A", 1))
    spec.connect(spec.block_out("A", 0), spec.sink("Dout"))
    spec.connect(spec.block_out("A", 1), spec.register_in("R"))
    return spec


def unconnected_port_spec():
    spec = SystemSpec("zoo")
    spec.add_source("Din")
    spec.add_sink("Dout")
    spec.add_block("F", n_inputs=2)
    spec.connect(spec.source("Din"), spec.block_in("F", 0))
    spec.connect(spec.block_out("F"), spec.sink("Dout"))
    return spec


def reversed_roles_spec():
    spec = SystemSpec("zoo")
    spec.add_source("Din")
    spec.add_sink("Dout")
    # Wired backwards: the sink as producer, the source as consumer.
    spec.connect(spec.sink("Dout"), spec.source("Din"))
    return spec


def dangling_loop_spec():
    spec = loop_spec(capacity=1, initial_tokens=1)
    spec.add_block("dangling")  # two unconnected ports
    return spec


def g_inputs_arity_spec():
    spec = pipeline_spec()
    spec.blocks["F"].g_inputs = [True, False]  # F has one input
    return spec


def block_cycle_spec(early):
    """A register-free cycle A -> B -> A behind join A."""
    spec = SystemSpec("zoo")
    spec.add_source("Din")
    spec.add_sink("Dout")
    spec.add_block("A", n_inputs=2, n_outputs=2,
                   ee=AndEE(2) if early else None)
    spec.add_block("B")
    spec.connect(spec.source("Din"), spec.block_in("A", 0))
    spec.connect(spec.block_out("A", 0), spec.sink("Dout"))
    spec.connect(spec.block_out("A", 1), spec.block_in("B"))
    spec.connect(spec.block_out("B"), spec.block_in("A", 1))
    return spec


def passive_pipeline_spec():
    spec = pipeline_spec()
    spec.connections[0].passive = True
    return spec


def passive_early_loop_spec():
    spec = loop_spec(capacity=2, initial_tokens=1, early=True)
    for conn in spec.connections:
        if conn.dst == spec.block_in("A", 1):
            conn.passive = True
    return spec


def contended_network():
    net = ElasticNetwork("zoo")
    a = net.add_channel("a", check_data=False)
    b = net.add_channel("b", check_data=False)
    net.add_channel("orphan", check_data=False)
    net.add(Source("src", a))
    net.add(Source("src2", a))  # second producer on a
    net.add(Pipe("p", a, b))
    net.add(Sink("snk", b))
    return net


def buffer_ring_network(**buffer_kwargs):
    """Two elastic buffers feeding each other."""
    net = ElasticNetwork("zoo")
    a = net.add_channel("a", check_data=False)
    b = net.add_channel("b", check_data=False)
    net.add(ElasticBuffer("EB1", a, b, **buffer_kwargs))
    net.add(ElasticBuffer("EB2", b, a, **buffer_kwargs))
    return net


def early_loop_network():
    net = ElasticNetwork("zoo")
    src = net.add_channel("src", check_data=False)
    loop = net.add_channel("loop", check_data=False)
    out = net.add_channel("out", check_data=False)
    net.add(Source("S", src))
    net.add(EarlyJoin("EJ", [src, loop], out, ee=AndEE(2)))
    net.add(Pipe("P", out, loop))
    return net


def buffered_early_loop_network():
    from repro.elastic.behavioral import EagerFork

    net = ElasticNetwork("ok")
    src = net.add_channel("src", check_data=False)
    out = net.add_channel("out", check_data=False)
    q = net.add_channel("q", check_data=False)
    loop = net.add_channel("loop", check_data=False)
    fb = net.add_channel("fb", check_data=False)
    net.add(Source("S", src))
    net.add(EarlyJoin("EJ", [src, fb], out, ee=AndEE(2)))
    net.add(EagerFork("F", out, [q, loop]))
    net.add(Sink("K", q))
    net.add(Pipe("P", loop, net.add_channel("pb", check_data=False)))
    net.add(ElasticBuffer("EB", net.channels["pb"], fb,
                          capacity=2, initial_tokens=1))
    return net


#: Every spec and network the tests below lint, by name.
SPEC_FIXTURES = {
    "pipeline": pipeline_spec,
    "unconnected_port": unconnected_port_spec,
    "reversed_roles": reversed_roles_spec,
    "dangling_loop": dangling_loop_spec,
    "g_inputs_arity": g_inputs_arity_spec,
    "capacity0": lambda: pipeline_spec(capacity=0),
    "overfull": lambda: pipeline_spec(initial_tokens=3),
    "initial_data": lambda: pipeline_spec(initial_tokens=1,
                                          initial_data=["a", "b"]),
    "empty_loop": lambda: loop_spec(capacity=2, initial_tokens=0),
    "full_loop": lambda: loop_spec(capacity=1, initial_tokens=1),
    "bubbled_loop": lambda: loop_spec(capacity=2, initial_tokens=1),
    "early_block_cycle": lambda: block_cycle_spec(early=True),
    "lazy_block_cycle": lambda: block_cycle_spec(early=False),
    "passive_pipeline": passive_pipeline_spec,
    "passive_early_loop": passive_early_loop_spec,
}
NETWORK_FIXTURES = {
    "contended": contended_network,
    "empty_ring": lambda: buffer_ring_network(initial_tokens=0),
    "full_ring": lambda: buffer_ring_network(capacity=1, initial_tokens=1),
    "early_loop": early_loop_network,
    "buffered_early_loop": buffered_early_loop_network,
}


def test_healthy_pipeline_is_clean():
    assert lint_spec(pipeline_spec()) == []


# ----------------------------------------------------------------------
# ELX001 connectivity
# ----------------------------------------------------------------------
def test_elx001_unconnected_port():
    found = by_rule(lint_spec(unconnected_port_spec()), "ELX001")
    assert len(found) == 1
    assert "never connected" in found[0].message
    assert found[0].severity == Severity.ERROR


def test_elx001_role_reversal():
    found = by_rule(lint_spec(reversed_roles_spec()), "ELX001")
    assert found, "reversed roles must be flagged"
    assert any("declared as" in f.message for f in found)


def test_elx001_suppresses_graph_rules():
    found = lint_spec(dangling_loop_spec())
    assert by_rule(found, "ELX001")
    # The deadlock rules stay silent on a mis-wired graph.
    assert not by_rule(found, "ELX005")


# ----------------------------------------------------------------------
# ELX003 controller shape
# ----------------------------------------------------------------------
def test_elx003_g_inputs_mask_arity():
    found = by_rule(lint_spec(g_inputs_arity_spec()), "ELX003")
    assert [f.subject for f in found] == ["F"]


def test_elx003_capacity_and_occupancy():
    spec = pipeline_spec(capacity=0)
    found = by_rule(lint_spec(spec), "ELX003")
    assert any("capacity 0 < 1" in f.message for f in found)

    spec = pipeline_spec(initial_tokens=3)  # default capacity 2
    found = by_rule(lint_spec(spec), "ELX003")
    assert any("does not fit" in f.message for f in found)

    spec = pipeline_spec(initial_tokens=1, initial_data=["a", "b"])
    found = by_rule(lint_spec(spec), "ELX003")
    assert any("initial_data" in f.message for f in found)


# ----------------------------------------------------------------------
# ELX004 / ELX005 / ELX006 deadlock analysis (spec level)
# ----------------------------------------------------------------------
def test_elx004_token_free_register_loop():
    found = lint_spec(loop_spec(capacity=2, initial_tokens=0))
    assert codes(found) == ["ELX004"]
    f = by_rule(found, "ELX004")[0]
    assert f.path == ("A", "R")
    assert "carries no token" in f.message


def test_elx005_full_capacity1_loop():
    found = lint_spec(loop_spec(capacity=1, initial_tokens=1))
    assert codes(found) == ["ELX005"]
    f = by_rule(found, "ELX005")[0]
    assert f.path == ("A", "R")
    assert "no spare EB capacity" in f.message


def test_elx005_clean_when_loop_has_a_bubble():
    assert lint_spec(loop_spec(capacity=2, initial_tokens=1)) == []


def test_elx006_early_join_cycle_without_annihilator():
    """A register-free cycle behind an early join: the anti-tokens it
    emits circulate forever."""
    found = lint_spec(block_cycle_spec(early=True))
    assert codes(found) == ["ELX006"]
    f = found[0]
    assert "early join 'A'" in f.message
    assert set(f.path) == {"A", "B"}


def test_elx006_downgrades_to_elx004_without_early_join():
    """The same dead cycle without early evaluation is a plain
    token-free loop, not a counterflow problem."""
    assert codes(lint_spec(block_cycle_spec(early=False))) == ["ELX004"]


# ----------------------------------------------------------------------
# ELX007 inert passive interfaces
# ----------------------------------------------------------------------
def test_elx007_passive_interface_without_early_join():
    found = lint_spec(passive_pipeline_spec())
    assert codes(found) == ["ELX007"]
    assert found[0].severity == Severity.INFO


def test_elx007_silent_when_an_early_join_exists():
    assert by_rule(lint_spec(passive_early_loop_spec()), "ELX007") == []


# ----------------------------------------------------------------------
# Network level
# ----------------------------------------------------------------------
def test_elx002_dangling_and_contended_channels():
    found = lint_network(contended_network())
    assert codes(found) == ["ELX002"]
    subjects = {f.subject for f in found}
    assert {"a", "orphan"} <= subjects
    messages = " / ".join(f.message for f in found)
    assert "producer" in messages and "no controller drives" in messages


def test_elx004_network_token_free_loop():
    found = lint_network(buffer_ring_network(initial_tokens=0))
    assert codes(found) == ["ELX004"]
    assert set(found[0].path) == {"EB1", "EB2"}


def test_elx005_network_full_loop():
    found = lint_network(buffer_ring_network(capacity=1, initial_tokens=1))
    assert codes(found) == ["ELX005"]


def test_elx006_network_early_join_loop_without_buffer():
    found = lint_network(early_loop_network())
    # The join's output fans nowhere else, so 'out' also lacks a
    # consumer-side check -- but the loop EJ -> P -> EJ has no
    # annihilating buffer, which is the interesting verdict.
    assert "ELX006" in codes(found)
    f = by_rule(found, "ELX006")[0]
    assert "early join 'EJ'" in f.message


def test_network_with_buffer_on_early_loop_is_clean():
    assert lint_network(buffered_early_loop_network()) == []
