"""Triple store, SPARQL subset, and the entity dictionary."""

import os
import random
import subprocess
import sys

import pytest

from openqa.errors import FilterTypeError, MalformedLine
from openqa.kb import (
    KnowledgeBase, ObjectUnknown, SparqlQuery, SubjectUnknown, Triple,
    build_entity_dictionary, execute_sparql, load_triples, serialize_sparql,
)
from openqa.text import dictionary_key, tokenize

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
        assert small_kb().predicates_by_subject["paris"] == ["capital_of", "population"]
        assert "unknown" not in small_kb().predicates_by_subject

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
            assert kb.predicates_by_subject.get(subject, []) == scan(subject)
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

    def test_keys_are_tokens_joined_by_a_space(self):
        names = ["Paris, Texas", "Dr. No", "Jean-Luc Picard", "New  York"]
        d = build_entity_dictionary(KnowledgeBase([Triple(n, "p", "o") for n in names]))
        assert d.entries == {" ".join(tokenize(n).tokens): n for n in names}
        assert sorted(d.entries) == ["dr no", "jean-luc picard", "new york", "paris texas"]
        assert d.max_entry_tokens == 2

    def test_key_order_is_first_occurrence_under_any_hash_seed(self, fx):
        """The keys follow each subject's first line in kb.tsv; a set of entities would order them by string hash."""
        path = os.path.join(fx, "kb.tsv")
        code = ("import sys; from openqa.kb import build_entity_dictionary, load_triples; "
                "print(list(build_entity_dictionary(load_triples(sys.argv[1])).entries))")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        outs = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            done = subprocess.run([sys.executable, "-c", code, path], env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            outs.append(done.stdout)
        first_occurrence = list(dict.fromkeys(dictionary_key(t.subject) for t in load_triples(path).triples))
        assert outs == [f"{first_occurrence}\n"] * 2

    def test_collision_keeps_lexicographically_smallest(self):
        kb = KnowledgeBase([Triple("X", "p", "o"), Triple("x", "p", "o")])
        d = build_entity_dictionary(kb)
        assert d.entries["x"] == "X"
