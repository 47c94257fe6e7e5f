"""The behavioural fixed point does not depend on controller order.

Each cycle, :meth:`~repro.elastic.behavioral.ElasticNetwork.step`
evaluates every controller once, in ``net.controllers`` order, and then
again whenever a neighbour's evaluation changed a wire or a payload.
Every wire equation is monotone (a wire only resolves from X to 0 or
1), so the settled wires are the same whatever the order.  A payload is
recomputed whenever a payload it reads changes, so each settled payload
is computed from the settled payloads upstream, and those do not depend
on the order either.  Table 1 and the fuzz oracle rely on both.  These
tests shuffle ``net.controllers`` and compare every channel's ``(V+,
S+, V-, S-, payload)`` on every cycle with the unshuffled network; the
payload monitors stay on (``check_data=True``).

Payloads used to go stale.  Settling stopped once no control wire
changed, so an early join that saw a late operand refined its output
payload after its ``V+`` had settled, a controller downstream that had
read the old payload was not evaluated again, and which payload went
stale depended on the order.  The explicit cases below are shuffles
that exposed it: four raised "data changed during Retry+", and one
carried different payloads from cycle 10 on without raising.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.casestudy.fig9 import Config, build_fig9_spec
from repro.synthesis.elaborate import to_behavioral
from tests.elastic.channel_trace import PayloadCanon, channel_states, hyp_model
from tests.strategies import spec_models


def trace(net, cycles, canon):
    """Every channel's settled wires and payload, cycle by cycle."""
    out = []
    for _ in range(cycles):
        net.step()
        out.append(channel_states(net, canon))
    return out


@settings(max_examples=20, deadline=None)
@given(spec_models(), st.randoms(use_true_random=False))
def test_generated_specs_settle_alike_in_any_order(model, rng):
    canon = PayloadCanon()
    # A fresh spec per network: spec data functions may carry state.
    want = trace(to_behavioral(model.build(), seed=0), 200, canon)
    net = to_behavioral(model.build(), seed=0)
    rng.shuffle(net.controllers)
    assert trace(net, 200, canon) == want


@pytest.mark.parametrize("config", list(Config))
def test_fig9_settles_alike_in_any_order(config):
    canon = PayloadCanon()
    want = trace(to_behavioral(build_fig9_spec(config)), 500, canon)
    for order in range(2):
        net = to_behavioral(build_fig9_spec(config))
        random.Random(order).shuffle(net.controllers)
        assert trace(net, 500, canon) == want, f"shuffle {order}"


@pytest.mark.parametrize("spec,shuffle", [
    (4, 1), (24, 0), (25, 2), (36, 0),  # raised "data changed during Retry+"
    (15, 1),  # payloads differed from cycle 10 on
])
def test_shuffles_that_left_payloads_stale(spec, shuffle):
    model = hyp_model(spec)
    canon = PayloadCanon()
    want = trace(to_behavioral(model.build(), seed=0), 200, canon)
    net = to_behavioral(model.build(), seed=0)
    random.Random(shuffle).shuffle(net.controllers)
    assert trace(net, 200, canon) == want
