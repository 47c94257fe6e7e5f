"""The behavioural fixed point does not depend on controller order.

Each cycle, :meth:`~repro.elastic.behavioral.ElasticNetwork.step`
sweeps its controllers until no channel wire changes.  Every controller
equation is monotone (a wire only resolves from X to 0 or 1), so the
settled wires are the same whatever order the sweeps visit the
controllers in.  Table 1 and the fuzz oracle rely on that.  These tests
shuffle ``net.controllers`` and compare every channel's
``{V+, S+, V-, S-}`` on every cycle with the unshuffled network.

Payloads are not compared, and the generated specs run with
``check_data=False``.  The sweep stops once the control wires settle,
so a payload refined after its ``V+`` settled (an early join seeing a
late operand) can leave a payload further downstream stale, and
which payload goes stale depends on the order.  The payload monitor
then reports "data changed during Retry+" on some shuffles.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.casestudy.fig9 import Config, build_fig9_spec
from repro.synthesis.elaborate import to_behavioral
from tests.strategies import spec_models


def wire_trace(net, cycles):
    """Every channel's settled ``(V+, S+, V-, S-)``, cycle by cycle."""
    channels = list(net.channels.values())
    trace = []
    for _ in range(cycles):
        net.step()
        trace.append([(ch.vp, ch.sp, ch.vn, ch.sn) for ch in channels])
    return trace


@settings(max_examples=20, deadline=None)
@given(spec_models(), st.randoms(use_true_random=False))
def test_generated_specs_settle_alike_in_any_order(model, rng):
    # A fresh spec per network: spec data functions may carry state.
    want = wire_trace(
        to_behavioral(model.build(), seed=0, check_data=False), 200
    )
    net = to_behavioral(model.build(), seed=0, check_data=False)
    rng.shuffle(net.controllers)
    assert wire_trace(net, 200) == want


@pytest.mark.parametrize("config", list(Config))
def test_fig9_settles_alike_in_any_order(config):
    want = wire_trace(to_behavioral(build_fig9_spec(config)), 500)
    for order in range(2):
        net = to_behavioral(build_fig9_spec(config))
        random.Random(order).shuffle(net.controllers)
        assert wire_trace(net, 500) == want, f"shuffle {order}"
