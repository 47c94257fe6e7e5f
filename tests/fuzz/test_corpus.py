"""Corpus persistence: byte-deterministic JSON, lossless replay."""

import json
import random

from repro.fuzz.corpus import (
    CORPUS_SCHEMA,
    CorpusEntry,
    load_corpus,
    replay_entry,
    save_entry,
)
from repro.fuzz.generate import GeneratorConfig, generate_model
from repro.fuzz.oracle import OracleConfig, run_oracle

FAST = OracleConfig(cycles=48, check_gates=False,
                    check_verify=False)


def _entry(name="case0", mutation="broken-early-join"):
    model = generate_model(random.Random("corpus:1"),
                           GeneratorConfig(max_blocks=8), name=name)
    finding = {"spec": name, "stage": "behavioral", "detail": "boom",
               "seed": 5}
    return CorpusEntry(name=name, seed=5, finding=finding,
                       model=model.to_dict(), shrunk=model.to_dict(),
                       mutation=mutation, rules_hit=["ELX006", "ELX001"])


class TestRoundTrip:
    def test_dict_round_trip(self):
        entry = _entry()
        clone = CorpusEntry.from_dict(entry.to_dict())
        assert clone.to_json() == entry.to_json()

    def test_to_dict_carries_schema_and_sizes(self):
        d = _entry().to_dict()
        assert d["schema"] == CORPUS_SCHEMA
        assert d["blocks_before"] == len(d["model"]["blocks"])
        assert d["blocks_after"] == len(d["shrunk"]["blocks"])

    def test_to_dict_sorts_rules_hit(self):
        assert _entry().to_dict()["rules_hit"] == ["ELX001", "ELX006"]

    def test_rules_hit_survives_round_trip(self):
        clone = CorpusEntry.from_dict(json.loads(_entry().to_json()))
        assert clone.rules_hit == ["ELX001", "ELX006"]

    def test_legacy_entry_without_rules_hit_loads(self):
        data = _entry().to_dict()
        del data["rules_hit"]
        assert CorpusEntry.from_dict(data).rules_hit == []

    def test_json_is_byte_stable(self):
        assert _entry().to_json() == _entry().to_json()
        assert _entry().to_json().endswith("\n")

    def test_runner_populates_rules_hit_deterministically(self):
        from repro.fuzz.runner import _rules_hit

        model = generate_model(random.Random("corpus:2"),
                               GeneratorConfig(max_blocks=8), name="rh")
        hits = _rules_hit(model)
        assert hits == sorted(set(hits))
        assert hits == _rules_hit(model)


class TestSaveLoad:
    def test_save_then_load(self, tmp_path):
        entry = _entry()
        target = save_entry(entry, tmp_path / "corpus")
        assert target.name == "case0.json"
        loaded = load_corpus(tmp_path / "corpus")
        assert len(loaded) == 1
        assert loaded[0].to_json() == entry.to_json()

    def test_load_is_name_sorted(self, tmp_path):
        for name in ("zz", "aa", "mm"):
            save_entry(_entry(name=name), tmp_path)
        assert [e.name for e in load_corpus(tmp_path)] == ["aa", "mm", "zz"]

    def test_saved_bytes_are_deterministic(self, tmp_path):
        a = save_entry(_entry(), tmp_path / "a")
        b = save_entry(_entry(), tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()

    def test_file_is_plain_sorted_json(self, tmp_path):
        target = save_entry(_entry(), tmp_path)
        data = json.loads(target.read_text())
        assert list(data) == sorted(data)


class TestReplay:
    def test_clean_entry_does_not_reproduce_without_mutation(self):
        entry = _entry(mutation=None)
        assert replay_entry(entry, config=FAST) is None

    def test_mutated_entry_reproduces_when_the_bug_is_real(self):
        # Find an actually-failing model first, then round-trip it
        # through the corpus format and replay.
        from repro.fuzz.mutations import MUTATIONS

        model = None
        for trial in range(30):
            candidate = generate_model(
                random.Random(f"replay:{trial}"),
                GeneratorConfig(max_blocks=10, p_join=0.9, p_early=1.0,
                                p_vl=0.0, p_kill_sink=0.0,
                                source_p_valid=(0.5, 0.75)),
                name=f"rp{trial}")
            finding = run_oracle(candidate, seed=0, config=FAST,
                                 mutate=MUTATIONS["broken-early-join"])
            if finding is not None and finding.stage == "behavioral":
                model = candidate
                break
        assert model is not None, "no failing model found"
        entry = CorpusEntry(name=model.name, seed=0,
                            finding=finding.to_dict(),
                            model=model.to_dict(), shrunk=model.to_dict(),
                            mutation="broken-early-join")
        replayed = replay_entry(entry, config=FAST)
        assert replayed is not None
        assert replayed.stage == "behavioral"

    def test_replay_survives_disk_round_trip(self, tmp_path):
        entry = _entry(mutation=None)
        save_entry(entry, tmp_path)
        (loaded,) = load_corpus(tmp_path)
        assert replay_entry(loaded, config=FAST) is None
