"""Triple store, SPARQL subset, and the entity dictionary."""

import os
import random

import pytest

from openqa.errors import FilterTypeError, MalformedLine
from openqa.kb import (
    KnowledgeBase, ObjectUnknown, SparqlQuery, SubjectUnknown, Triple,
    build_entity_dictionary, execute_sparql, load_triples, serialize_sparql,
)

SERIALIZED = {
    "SELECT ?x WHERE { <paris> <capital_of> ?x . }": SparqlQuery("x", ObjectUnknown("paris", "capital_of")),
    "SELECT ?x WHERE { ?x <capital_of> <france> . }": SparqlQuery("x", SubjectUnknown("capital_of", "france")),
    "SELECT ?x WHERE { <x> <population> ?x . FILTER(?x >= 2100000) }":
        SparqlQuery("x", ObjectUnknown("x", "population"), (">=", "2100000")),
    'SELECT ?x WHERE { <x> <p> ?x . FILTER(?x != "paris") }': SparqlQuery("x", ObjectUnknown("x", "p"), ("!=", "paris")),
}


def small_kb() -> KnowledgeBase:
    return KnowledgeBase([
        Triple("paris", "capital_of", "france"),
        Triple("paris", "population", "2100000"),
        Triple("berlin", "capital_of", "germany"),
        Triple("berlin", "population", "3700000"),
        Triple("france", "capital", "paris"),
    ])


class TestKnowledgeBase:
    def test_duplicates_collapse_in_order(self):
        kb = KnowledgeBase([Triple("a", "p", "b"), Triple("a", "p", "b"), Triple("a", "p", "c")])
        assert kb.triples == [Triple("a", "p", "b"), Triple("a", "p", "c")]

    def test_entities_are_subjects_and_linked_objects(self):
        kb = small_kb()
        assert "paris" in kb.entities and "berlin" in kb.entities and "france" in kb.entities
        assert "2100000" not in kb.entities  # object that is never a subject

    def test_predicates_of(self):
        assert small_kb().predicates_of("paris") == ["capital_of", "population"]
        assert small_kb().predicates_of("unknown") == []

    def test_predicates_by_subject_equals_scan(self):
        rng = random.Random(5)
        names = [f"e{i}" for i in range(30)]
        kb = KnowledgeBase([Triple(rng.choice(names), f"p{rng.randrange(8)}", rng.choice(names)) for _ in range(400)])

        def scan(subject):
            out = []
            for t in kb.triples:
                if t.subject == subject and t.predicate not in out:
                    out.append(t.predicate)
            return out

        for subject in names + ["unknown"]:
            assert kb.predicates_of(subject) == scan(subject)
        assert set(kb.predicates_by_subject) == {t.subject for t in kb.triples}

    def test_triple_rejects_empty_and_control_fields(self):
        with pytest.raises(ValueError):
            Triple("", "p", "o")
        with pytest.raises(ValueError):
            Triple("a\tb", "p", "o")
        with pytest.raises(ValueError):
            Triple("a", "p", "o\n")

    def test_load_triples(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("# comment\nparis\tcapital_of\tfrance\n\nparis\tcapital_of\tfrance\n")
        kb = load_triples(str(path))
        assert kb.triples == [Triple("paris", "capital_of", "france")]

    def test_load_triples_malformed(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only two\tfields\n")
        with pytest.raises(MalformedLine):
            load_triples(str(path))


class TestSparql:
    def test_object_unknown(self):
        q = SparqlQuery("x", ObjectUnknown("paris", "capital_of"))
        assert execute_sparql(small_kb(), q) == ["france"]

    def test_subject_unknown(self):
        q = SparqlQuery("x", SubjectUnknown("capital_of", "france"))
        assert execute_sparql(small_kb(), q) == ["paris"]

    def test_no_match_is_empty(self):
        q = SparqlQuery("x", ObjectUnknown("london", "capital_of"))
        assert execute_sparql(small_kb(), q) == []

    @pytest.mark.parametrize("cmp,literal,expect", [
        ("=", '"3700000"', ["3700000"]),
        ("!=", '"3700000"', ["2100000"]),
        ("<", "3000000", ["2100000"]),
        ("<=", "2100000", ["2100000"]),
        (">", "2100000", ["3700000"]),
        (">=", "2100000", ["2100000", "3700000"]),
    ])
    def test_filters(self, cmp, literal, expect):
        kb = KnowledgeBase([Triple("x", "population", "2100000"),
                            Triple("x", "population", "3700000")])
        q = SparqlQuery("x", ObjectUnknown("x", "population"), (cmp, literal.strip('"')))
        assert sorted(execute_sparql(kb, q)) == expect

    def test_numeric_filter_on_text_binding_raises(self):
        q = SparqlQuery("x", ObjectUnknown("paris", "capital_of"), (">", "10"))
        with pytest.raises(FilterTypeError):
            execute_sparql(small_kb(), q)

    @pytest.mark.parametrize("filt", [("~", "3"), ("<", "paris")], ids=["unknown-comparator", "non-numeric-literal"])
    def test_query_rejects_bad_filter(self, filt):
        with pytest.raises(ValueError):
            SparqlQuery("x", ObjectUnknown("a", "p"), filt)

    @pytest.mark.parametrize("text", list(SERIALIZED))
    def test_parse_serialize_roundtrip(self, text):
        """Each query value serializes to exactly the SPARQL text it stands for."""
        assert serialize_sparql(SERIALIZED[text]) == text


class TestEntityDictionary:
    def test_built_from_entities(self):
        d = build_entity_dictionary(small_kb())
        assert d.entries["paris"] == "paris"
        assert "2100000" not in d.entries

    def test_multiword_entities_set_max_entry_tokens(self):
        kb = KnowledgeBase([Triple("New York", "in", "usa"), Triple("usa", "has", "New York")])
        d = build_entity_dictionary(kb)
        assert d.entries["new york"] == "New York"
        assert d.max_entry_tokens >= 2

    def test_collision_keeps_lexicographically_smallest(self):
        kb = KnowledgeBase([Triple("X", "p", "o"), Triple("x", "p", "o")])
        d = build_entity_dictionary(kb)
        assert d.entries["x"] == "X"
