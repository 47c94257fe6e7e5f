"""Per-cycle channel traces for comparing two behavioural runs.

Payloads are compared through :class:`PayloadCanon`.  Join payloads are
nested tuples that share their parts, and in a loop they grow every
cycle: after 200 cycles one generated spec's largest payload unfolds
to about 8.6e8 tuple nodes, so a deep ``==`` between two runs, which
share no objects, does not finish.  The canonicaliser visits each
distinct object once.
"""

import random

from repro.fuzz.generate import GeneratorConfig, generate_model


class PayloadCanon:
    """Hash-consing: structurally equal payloads get equal ints.

    Memoised by object identity, so a payload DAG costs time linear in
    its distinct objects, however far it unfolds.  Tuples are compared
    element by element; any other payload is a leaf compared by type
    and ``==`` (it must be hashable).  Use one instance for both runs
    of a comparison: it keeps every payload it numbered alive, so an
    ``id`` is never reused.
    """

    def __init__(self):
        self._ids = {}  # id(obj) -> (obj, number)
        self._numbers = {}  # structural key -> number

    def __call__(self, payload):
        ids = self._ids
        stack = [payload]
        while stack:
            obj = stack[-1]
            if id(obj) in ids:
                stack.pop()
                continue
            if type(obj) is tuple:
                missing = [part for part in obj if id(part) not in ids]
                if missing:
                    stack.extend(missing)
                    continue
                key = (tuple, tuple(ids[id(part)][1] for part in obj))
            else:
                key = (type(obj), obj)
            ids[id(obj)] = (obj, self._numbers.setdefault(key, len(self._numbers)))
            stack.pop()
        return ids[id(payload)][1]


def channel_states(net, canon=None):
    """Every channel's settled ``(V+, S+, V-, S-)``, plus its payload's
    number under ``canon`` when one is given."""
    if canon is None:
        return [(ch.vp, ch.sp, ch.vn, ch.sn) for ch in net.channels.values()]
    return [
        (ch.vp, ch.sp, ch.vn, ch.sn, canon(ch.data))
        for ch in net.channels.values()
    ]


def hyp_model(s):
    """Spec ``s`` of the fixed generated set the regression cases name."""
    return generate_model(
        random.Random(f"hyp:{s}"), GeneratorConfig(max_blocks=16)
    )
