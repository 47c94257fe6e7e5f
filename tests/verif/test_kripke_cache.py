"""Regression tests: Kripke structures through the build cache.

Mirrors the lint-findings caching contract: a first build is a miss
that stores the exploration rows, a rebuild of the same netlist +
observation set is a hit that returns an identical Kripke structure,
and changing the observation set changes the key.
"""

from repro.codegen.cache import BuildCache, process_stats
from repro.obs.metrics import MetricsRegistry
from repro.rtl.netlist import Netlist
from repro.codegen.fingerprint import canonical_digest
from repro.verif.kripke import (
    KRIPKE_VERSION,
    _kripke_identity,
    _kripke_key,
    build_kripke,
)
from repro.verif.properties import verify_netlist
from repro.verif.testbenches import DESIGNS, diamond_with_feedback


def toggler():
    nl = Netlist("tog")
    en = nl.add_input("en")
    q = nl.add_flop("d", q="q", init=0)
    nl.XOR(q, en, out="d")
    nl.add_output("q")
    return nl


class TestKripkeCache:
    def test_miss_then_hit(self, tmp_path):
        metrics = MetricsRegistry()
        cache = BuildCache(tmp_path / "cache", metrics=metrics)
        nl = toggler()
        fresh = build_kripke(nl, cache=cache)
        after_miss = process_stats()
        # A fresh exploration also loads its simulator module; count
        # only the structure lookups.
        assert metrics.counter(
            "codegen_cache_misses_total", tier="disk", kind="json"
        ).value == 1

        # A new cache instance against the same root: disk-tier hit.
        cached = build_kripke(nl, cache=BuildCache(tmp_path / "cache"))
        after_hit = process_stats()
        assert after_hit["hits"] == after_miss["hits"] + 1
        assert after_hit["misses"] == after_miss["misses"]
        assert fresh == cached

    def test_cached_structure_is_identical(self, tmp_path):
        cache = BuildCache(tmp_path / "cache")
        nl, chans, fairness = diamond_with_feedback(**DESIGNS["early"])
        fresh = verify_netlist(nl, chans, fairness=fairness, cache=cache)
        again = verify_netlist(nl, chans, fairness=fairness, cache=cache)
        assert fresh.ok == again.ok
        assert fresh.results == again.results
        assert fresh.states == again.states

    def test_observe_set_is_part_of_the_key(self):
        nl = toggler()
        assert _kripke_key(nl, ["q"]) != _kripke_key(nl, ["q", "en"])

    def test_version_one_artifacts_are_never_read(self):
        # The rows replaced version 1's (state, input) transition table;
        # the version is part of the key, so an old artifact is a miss.
        nl = toggler()
        old = canonical_digest({
            **_kripke_identity(nl, ["q"]), "version": 1,
        })
        assert KRIPKE_VERSION == 2
        assert _kripke_key(nl, ["q"]) != old

    def test_wide_words_round_trip_as_hex(self, tmp_path):
        # 14 inputs: 16,384-bit words, past CPython's 4,300-digit limit
        # on int-to-decimal conversion.
        nl = Netlist("wide")
        ins = [nl.add_input(f"i{j}") for j in range(14)]
        nl.add_flop(nl.AND(*ins), q="q", init=0)
        nl.add_output("q")
        cache = BuildCache(tmp_path / "cache")
        fresh = build_kripke(nl, cache=cache)
        cached = build_kripke(nl, cache=BuildCache(tmp_path / "cache"))
        assert fresh == cached
        assert fresh.words[0][-1].bit_length() == 1 << 14

    def test_netlist_change_changes_key(self):
        a = toggler()
        b = toggler()
        b.add_input("extra")
        assert _kripke_key(a, ["q"]) != _kripke_key(b, ["q"])

    def test_oversized_cached_entry_not_served(self, tmp_path):
        cache = BuildCache(tmp_path / "cache")
        nl = Netlist("big")
        prev = nl.add_input("in0")
        for i in range(4):
            prev = nl.add_flop(prev, q=f"q{i}", init=0)
        nl.add_output(prev)
        build_kripke(nl, cache=cache)  # stores the full exploration
        import pytest

        from repro.verif.kripke import StateSpaceLimitError

        with pytest.raises(StateSpaceLimitError):
            build_kripke(nl, cache=cache, max_states=3)

    def test_no_cache_still_works(self):
        k = build_kripke(toggler(), cache=None)
        assert len(k) == 4
