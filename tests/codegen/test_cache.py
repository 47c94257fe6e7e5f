"""The build cache: keys, tiers, counters, invalidation, maintenance."""

import hashlib
import json

import pytest

from repro.codegen.cache import (
    BuildCache,
    build_cache,
    process_stats,
    reset_process_stats,
)
from repro.codegen.fingerprint import (
    CODEGEN_VERSION,
    artifact_key,
    canonical_digest,
    netlist_fingerprint,
)
from repro.obs import MetricsRegistry
from repro.rtl.logic import X
from repro.rtl.netlist import Netlist


def _small_netlist(flavor=0, init=0):
    nl = Netlist(f"cachetest{flavor}")
    a = nl.add_input("a")
    b = nl.add_input("b")
    if flavor:
        nl.add_gate("OR", (a, b), out="y")
    else:
        nl.add_gate("AND", (a, b), out="y")
    nl.add_flop("y", q="q", init=init)
    nl.add_output("q")
    nl.validate()
    return nl


def test_canonical_digest_is_sorted_compact_sha256():
    doc = {"b": [1, "x"], "a": {"d": None, "c": 2}}
    blob = b'{"a":{"c":2,"d":null},"b":[1,"x"]}'
    assert canonical_digest(doc) == hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("init, known_ok", [(0, True), (X, False)])
def test_hook_free_modules_carry_only_clean_kernels(init, known_ok):
    from repro.codegen.sim import CompiledSimulator
    from repro.rtl.batchsim import LaneOverride

    nl = _small_netlist(init=init)
    cache = BuildCache.in_memory()
    module = cache.load_module(nl, hooks=frozenset())
    assert module.KNOWN_OK is known_ok and module.HOOKS == frozenset()
    assert hasattr(module, "cycle_clean")
    assert hasattr(module, "kcycle_clean") is known_ok
    assert not hasattr(module, "cycle") and not hasattr(module, "kcycle")
    hooked = cache.load_module(nl, hooks=frozenset(["y"]))
    assert hasattr(hooked, "cycle")
    assert hasattr(hooked, "kcycle") is known_ok
    # No override can select a guarded kernel of a hook-free module.
    sim = CompiledSimulator(nl, 4, hooks=frozenset(), cache=cache)
    with pytest.raises(ValueError, match="not a hook"):
        sim.set_overrides({"y": LaneOverride(set1=0b1111)})
    sim.set_overrides({})
    sim.cycle({"a": (0b1010, 0b1111), "b": (0b0110, 0b1111)})
    assert sim.planes("y") == (0b0010, 0b1111)


def test_fingerprint_and_key_stability():
    nl = _small_netlist()
    assert netlist_fingerprint(nl) == netlist_fingerprint(_small_netlist())
    assert netlist_fingerprint(nl) != netlist_fingerprint(_small_netlist(1))
    base = artifact_key(nl)
    assert base == artifact_key(_small_netlist())
    # hooks and observe restrictions each produce distinct artifacts
    assert artifact_key(nl, hooks=frozenset(["y"])) != base
    assert artifact_key(nl, observe=frozenset(["q"])) != base
    assert artifact_key(nl, hooks=frozenset(["y"])) != artifact_key(
        nl, observe=frozenset(["y"])
    )


def test_cache_tiers_and_counters(tmp_path):
    nl = _small_netlist()
    registry = MetricsRegistry()
    cache = BuildCache(tmp_path / "c", metrics=registry)
    reset_process_stats()

    m1 = cache.load_module(nl)  # cold: disk miss, emit, import
    assert process_stats() == {"hits": 0, "misses": 1}
    m2 = cache.load_module(nl)  # memory hit, same object
    assert m2 is m1
    assert process_stats() == {"hits": 1, "misses": 1}

    other = BuildCache(tmp_path / "c")  # fresh instance: disk hit
    m3 = other.load_module(nl)
    assert m3 is not m1 and m3.KEY == m1.KEY
    assert process_stats() == {"hits": 2, "misses": 1}

    hits = {
        c.labels: c.value
        for c in registry.series("codegen_cache_hits_total")
    }
    assert hits == {(("kind", "module"), ("tier", "memory")): 1}
    misses = {
        c.labels: c.value
        for c in registry.series("codegen_cache_misses_total")
    }
    assert misses == {(("kind", "module"), ("tier", "disk")): 1}


def test_meta_version_mismatch_invalidates(tmp_path):
    nl = _small_netlist()
    cache = BuildCache(tmp_path / "c")
    module = cache.load_module(nl)
    key = module.KEY
    meta_path = tmp_path / "c" / key / BuildCache.META
    meta = json.loads(meta_path.read_text())
    meta["codegen_version"] = CODEGEN_VERSION + 1
    meta_path.write_text(json.dumps(meta))

    fresh = BuildCache(tmp_path / "c")
    reset_process_stats()
    rebuilt = fresh.load_module(nl)  # stale version -> miss + rebuild
    assert process_stats()["misses"] == 1
    assert rebuilt.KEY == key
    assert (json.loads(meta_path.read_text())["codegen_version"]
            == CODEGEN_VERSION)


def test_torn_module_invalidates(tmp_path):
    nl = _small_netlist()
    cache = BuildCache(tmp_path / "c")
    key = cache.load_module(nl).KEY
    module_path = tmp_path / "c" / key / BuildCache.MODULE
    module_path.write_text("def broken(:\n")  # torn/hand-mangled source

    fresh = BuildCache(tmp_path / "c")
    reset_process_stats()
    module = fresh.load_module(nl)
    assert process_stats()["misses"] == 1
    assert module.KEY == key
    assert "def broken" not in module_path.read_text()


def test_json_artifacts_round_trip(tmp_path):
    cache = BuildCache(tmp_path / "c")
    assert cache.load_json("deadbeef") is None
    payload = [{"rule": "LNT001", "n": 3}]
    cache.store_json("deadbeef", payload, meta={"kind": "test"})
    assert cache.load_json("deadbeef") == payload
    assert BuildCache(tmp_path / "c").load_json("deadbeef") == payload


def test_stats_and_clear(tmp_path):
    cache = BuildCache(tmp_path / "c")
    cache.load_module(_small_netlist())
    cache.load_module(_small_netlist(1))
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["bytes"] > 0
    assert cache.clear() == 2
    assert cache.stats()["entries"] == 0
    # cleared memory tier too: the next load rebuilds from nothing
    reset_process_stats()
    cache.load_module(_small_netlist())
    assert process_stats() == {"hits": 0, "misses": 1}


def test_build_cache_shares_instances(tmp_path):
    a = build_cache(tmp_path / "shared")
    b = build_cache(tmp_path / "shared")
    assert a is b
    assert a.metrics is None  # shared: a registry is passed per load


def _module_counts(registry):
    return {
        (name, dict(c.labels)["tier"]): c.value
        for name in ("codegen_cache_hits_total", "codegen_cache_misses_total")
        for c in registry.series(name)
    }


def test_a_registry_counts_only_the_loads_of_its_call(tmp_path):
    from repro.faults.campaign import CampaignConfig, run_campaign

    registry = MetricsRegistry()
    root = str(tmp_path / "shared")
    run_campaign("join", CampaignConfig(cycles=40, seed=1), lanes=16,
                 metrics=registry, cache=root)
    counted = _module_counts(registry)
    # the harness's miss and hit, and the prover's miss
    assert counted == {
        ("codegen_cache_hits_total", "memory"): 1,
        ("codegen_cache_misses_total", "disk"): 2,
    }
    run_campaign("fork", CampaignConfig(cycles=40, seed=1), lanes=16,
                 cache=root)
    assert _module_counts(registry) == counted
    # a registry passed to one load counts that load only
    other = MetricsRegistry()
    build_cache(root).load_module(_small_netlist(), metrics=other)
    build_cache(root).load_module(_small_netlist())
    assert _module_counts(other) == {("codegen_cache_misses_total", "disk"): 1}
    assert _module_counts(registry) == counted


def _counting_compiles(monkeypatch):
    import repro.codegen.cache as codegen_cache

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return compile(*args, **kwargs)

    monkeypatch.setattr(codegen_cache, "compile", counted, raising=False)
    return calls


def test_warm_disk_hit_compiles_nothing(tmp_path, monkeypatch):
    nl = _small_netlist()
    key = BuildCache(tmp_path / "c").load_module(nl).KEY
    assert (tmp_path / "c" / key / BuildCache.CODE).is_file()
    compiles = _counting_compiles(monkeypatch)
    reset_process_stats()
    module = BuildCache(tmp_path / "c").load_module(nl)
    assert compiles == [] and module.KEY == key
    assert process_stats() == {"hits": 1, "misses": 0}


@pytest.mark.parametrize("spoil", ["torn", "garbage", "magic", "source"])
def test_a_bad_code_file_falls_back_to_the_source(tmp_path, monkeypatch, spoil):
    import importlib.util

    nl = _small_netlist()
    root = tmp_path / "c"
    key = BuildCache(root).load_module(nl).KEY
    code = root / key / BuildCache.CODE
    blob = code.read_bytes()
    magic = importlib.util.MAGIC_NUMBER
    if spoil == "torn":
        code.write_bytes(blob[:len(blob) // 2])
    elif spoil == "garbage":
        code.write_bytes(blob[:len(magic) + 32] + b"\xff" * 64)
    elif spoil == "magic":  # compiled by another interpreter
        code.write_bytes(bytes(b ^ 0xFF for b in magic) + blob[len(magic):])
    else:  # compiled from another source: its KEY would be wrong
        other = BuildCache(root).load_module(_small_netlist(1)).KEY
        code.write_bytes((root / other / BuildCache.CODE).read_bytes())
    compiles = _counting_compiles(monkeypatch)
    reset_process_stats()
    module = BuildCache(root).load_module(nl)
    assert compiles and module.KEY == key
    assert process_stats() == {"hits": 1, "misses": 0}
    # the code file is written again, and the next load runs it
    compiles.clear()
    assert BuildCache(root).load_module(nl).KEY == key
    assert compiles == []


def test_lint_findings_cache(tmp_path):
    from repro.lint.targets import all_targets, run_lint

    cache = BuildCache(tmp_path / "c")
    plain = run_lint(["rtl:dual_ehb", "zoo:comb_cycle"])
    cold = run_lint(["rtl:dual_ehb", "zoo:comb_cycle"], cache=cache)
    reset_process_stats()
    warm = run_lint(["rtl:dual_ehb", "zoo:comb_cycle"],
                    cache=BuildCache(tmp_path / "c"))
    stats = process_stats()
    assert stats["hits"] == 2 and stats["misses"] == 0

    def key(report):
        return [(f.fingerprint, f.message, f.severity, f.path)
                for f in report.findings]

    assert key(plain) == key(cold) == key(warm)
    assert all_targets() == sorted(
        t for t in all_targets(include_zoo=True) if not t.startswith("zoo:")
    )


def test_compiled_simulator_accepts_cache_path(tmp_path):
    from repro.codegen.sim import CompiledSimulator

    nl = _small_netlist()
    sim = CompiledSimulator(nl, 4, cache=str(tmp_path / "c"))
    sim.cycle({"a": (0b1010, 0b1111), "b": (0b0110, 0b1111)})
    assert sim.planes("y") == (0b0010, 0b1111)
    assert (tmp_path / "c" / sim.key / "module.py").is_file()


def test_in_memory_cache_writes_nothing(tmp_path, monkeypatch):
    from repro.codegen.sim import CompiledSimulator

    monkeypatch.chdir(tmp_path)
    root = tmp_path / "codegen-cache"  # the autouse REPRO_CACHE_DIR
    cache = BuildCache.in_memory()
    reset_process_stats()
    sim = CompiledSimulator(_small_netlist(), 4, cache=cache)
    sim.cycle({"a": (0b1010, 0b1111), "b": (0b0110, 0b1111)})
    assert sim.planes("y") == (0b0010, 0b1111)
    assert CompiledSimulator(_small_netlist(), 4, cache=cache).module \
        is sim.module
    assert process_stats() == {"hits": 1, "misses": 1}
    cache.store_json("k", [1], meta={"kind": "test"})
    assert cache.load_json("k") == [1]
    assert cache.stats()["entries"] == 0 and cache.clear() == 0
    assert not root.exists()
    assert list(tmp_path.iterdir()) == []


def test_unwritable_root_builds_in_memory(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    cache = BuildCache(blocker / "cache")  # mkdir raises OSError
    reset_process_stats()
    module = cache.load_module(_small_netlist())
    assert module.KEY == artifact_key(_small_netlist())
    assert cache.load_module(_small_netlist()) is module
    assert process_stats() == {"hits": 1, "misses": 1}
    cache.store_json("k", [1], meta={"kind": "test"})
    assert cache.load_json("k") == [1]


def test_loaded_functions_keep_module_line_numbers(tmp_path):
    from repro.faults.targets import TARGETS

    target = TARGETS["dual_ehb_latches"]()
    cache = BuildCache(tmp_path / "c")
    hooks = frozenset(target.fault_sites)
    module = cache.load_module(target.netlist, hooks=hooks)
    lines = (tmp_path / "c" / module.KEY / BuildCache.MODULE) \
        .read_text().splitlines()
    names = ("cycle", "cycle_clean", "kcycle", "kcycle_clean")
    for name in names:
        code = getattr(module, name).__code__
        assert lines[code.co_firstlineno - 1].startswith(f"def {name}(")
        assert code.co_filename.endswith(BuildCache.MODULE)
    memory = BuildCache.in_memory().load_module(target.netlist, hooks=hooks)
    for name in names:
        assert (getattr(memory, name).__code__.co_firstlineno
                == getattr(module, name).__code__.co_firstlineno)
