"""Identifier scheme, domain types, configuration loading."""

import pytest

import oracles
from ckt import ids
from ckt.config import (
    Ontology,
    default_weights,
    load_ontology,
    load_weights,
    normalize_tokens,
    split_identifier,
)
from ckt.errors import ConfigError, ConflictError
from ckt.model import Entity, FactSet, Span


def test_id_scheme_is_bit_exact():
    assert ids.file_id("src/a.c") == "file:src/a.c"
    assert ids.func_id("src/a.c", "f") == "func:src/a.c#f"
    assert ids.var_id("src/a.c", "f.x") == "var:src/a.c#f.x"
    assert ids.type_id("src/a.c", "T") == "type:src/a.c#T"
    assert ids.comment_id("src/a.c", 12) == "comment:src/a.c#L12"
    assert oracles.bug_id("CQ", "22") == "bug:CQ/22"
    assert ids.commit_id("abc123") == "commit:abc123"
    assert ids.dev_id("a@x") == "dev:a@x"
    assert ids.concept_id("save-button") == "concept:save-button"


def test_kind_inference():
    assert ids.kind_of("func:a#f") == "function"
    assert ids.kind_of("dev:a@x") == "developer"
    assert ids.kind_of("mystery") is None
    assert ids.kind_of("weird:") is None


def test_path_extraction():
    assert ids.path_of("func:src/a.c#f") == "src/a.c"
    assert ids.path_of("file:src/a.c") == "src/a.c"
    assert ids.path_of("bug:CQ/22") is None


def test_windows_paths_normalized():
    assert ids.file_id("src\\a.c") == "file:src/a.c"
    assert ids.norm_path("./src/a.c") == "src/a.c"


def test_span_rejects_inverted_range():
    with pytest.raises(ValueError):
        Span("a.c", 9, 3)


def test_entity_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Entity("x:1", "gizmo", "x")


def test_factset_conflict_and_merge():
    facts = FactSet()
    facts.add_entity(Entity("func:a#f", "function", "f", Span("a", 1, 2)))
    facts.add_entity(Entity("func:a#f", "function", "f", Span("a", 1, 2)))
    with pytest.raises(ConflictError):
        facts.add_entity(Entity("func:a#f", "function", "f", Span("a", 3, 4)))
    facts.add_entity(Entity("func:a#f", "function", "f", Span("a", 3, 4)), merge=True)
    assert facts.entities["func:a#f"].span == Span("a", 1, 2)


def test_normalize_tokens_keeps_code_marks():
    tokens = normalize_tokens("Fix for bug#22, state 162_S1 on 12-03-2013!")
    assert tokens == ["fix", "bug#22", "state", "162_s1", "12-03-2013"]


def test_split_identifier():
    assert split_identifier("VHDLPosedge_S2") == ["vhdl", "posedge", "s", "2"]
    assert split_identifier("pickMirror") == ["pick", "mirror"]
    assert split_identifier("retry_count") == ["retry", "count"]


def test_ontology_ngram_hits():
    ont = Ontology()
    ont.add("divide and conquer", ["divide"], "divide-and-conquer")
    hits = ont.hits(["divide", "conquer", "then", "divide"])
    assert hits == {"divide-and-conquer": 2}


def test_load_weights_errors(tmp_path):
    bad = tmp_path / "w.json"
    bad.write_text('{"classes": ["a"], "weights": {}}')
    with pytest.raises(ConfigError):
        load_weights(str(bad))
    good = tmp_path / "ok.json"
    good.write_text('{"classes": ["a"], "tau": 0.2, "weights": {"a": {"f_rec": 1.0}}}')
    weights = load_weights(str(good))
    assert weights.tau == 0.2


def test_load_ontology(tmp_path):
    path = tmp_path / "ont.jsonl"
    path.write_text('{"term":"convex hull","synonyms":["hull"],"concept":"convex-hull"}\n')
    ont = load_ontology(str(path))
    assert ont.concepts() == ["convex-hull"]
    assert ont.hits(["convex", "hull"]) == {"convex-hull": 2}


def test_default_weights_reference_known_features():
    weights = default_weights()
    features = {"f_rec", "f_multi", "f_depth"} | {
        f"f_kw_{c}" for c in weights.classes
    }
    weights.validate_against(features)
