"""Rule-based semantic parsing solver."""

import os

import pytest

from openqa import sp_solver
from openqa.kb import KnowledgeBase, Triple, build_entity_dictionary, load_triples, serialize_sparql
from openqa.retrieval import tag_passage
from openqa.sp_solver import (
    DEFAULT_TEMPLATE_CONFIDENCE, DICTIONARY_CONFIDENCE, TEMPLATE_CAPTURE_CONFIDENCE,
    QuestionTemplate, SubjectCandidate, generate_queries, load_templates,
    recognize_predicates, recognize_subjects, solve_sp,
)
from openqa.text import tokenize


@pytest.fixture(scope="module")
def world(fx):
    kb = load_triples(os.path.join(fx, "kb.tsv"))
    return kb, build_entity_dictionary(kb), load_templates(os.path.join(fx, "templates.jsonl"))


class TestRecognition:
    def test_dictionary_subject(self, world):
        kb, d, templates = world
        subjects = recognize_subjects("who wrote hamlet", d, templates)
        assert subjects[0].entity == "hamlet"
        assert subjects[0].confidence == DICTIONARY_CONFIDENCE
        assert subjects[0].source == "dictionary"

    def test_unlinkable_capture_yields_nothing(self, world):
        kb, d, templates = world
        # "the odyssey" matches the template but is not a KB entity
        assert recognize_subjects("who wrote the odyssey", d, templates) == []

    def test_template_capture_confidence(self):
        # the capture links to an entity the token pass cannot see
        # (the dictionary key spans two tokens but FMM consumed the first)
        from openqa.text import EntityDictionary
        d = EntityDictionary({"new york": "new_york", "york city": "york_city"})
        templates = [QuestionTemplate(pattern="^about new (.+)$", predicate="p", subject_group=1)]
        subjects = recognize_subjects("about new york city", d, templates)
        by_source = {s.source: s for s in subjects}
        assert by_source["dictionary"].entity == "new_york"
        assert by_source["template"].entity == "york_city"
        assert by_source["template"].confidence == TEMPLATE_CAPTURE_CONFIDENCE

    def test_predicate_from_template(self, world):
        kb, d, templates = world
        predicates = recognize_predicates("what is the capital of france", templates)
        assert [p.predicate for p in predicates] == ["capital"]
        assert predicates[0].confidence == DEFAULT_TEMPLATE_CONFIDENCE

    def test_no_template_match(self, world):
        kb, d, templates = world
        assert recognize_predicates("tell me something nice", templates) == []


class TestQueriesAndSolve:
    def test_generate_queries_multiplies_confidences(self, world):
        kb, d, templates = world
        subjects = recognize_subjects("who wrote hamlet", d, templates)
        predicates = recognize_predicates("who wrote hamlet", templates)
        queries = generate_queries(subjects, predicates)
        assert [(serialize_sparql(q), c) for q, c in queries] == [
            ("SELECT ?x WHERE { <hamlet> <author> ?x . }", 0.9)]

    def test_solve_simple(self, world):
        kb, d, templates = world
        out = solve_sp("who wrote hamlet", kb, d, templates)
        assert out[0].answer == "shakespeare"
        assert out[0].confidence == pytest.approx(0.9)
        assert out[0].solver == "sp"
        assert "<hamlet> <author>" in out[0].provenance

    def test_solve_unanswerable_is_empty(self, world):
        kb, d, templates = world
        assert solve_sp("what color is the sky", kb, d, templates) == []

    def test_multi_binding_penalty(self):
        kb = KnowledgeBase([Triple("france", "city", "paris"), Triple("france", "city", "lyon")])
        d = build_entity_dictionary(kb)
        templates = [QuestionTemplate(pattern="^cities of (.+)$", predicate="city", subject_group=1)]
        out = solve_sp("cities of france", kb, d, templates)
        assert len(out) == 2
        # two bindings halve the confidence: 1.0 * 0.9 / 2
        assert all(c.confidence == pytest.approx(0.45) for c in out)
        # deterministic order: equal confidence ties break on the answer string
        assert [c.answer for c in out] == ["lyon", "paris"]

    def test_entity_that_is_not_a_valid_iri(self):
        # "c>3" cannot be written between <...>, so a query that went through
        # SPARQL text would not parse; the query is built, not parsed
        kb = KnowledgeBase([Triple("c>3", "author", "kim")])
        d = build_entity_dictionary(kb)
        templates = [QuestionTemplate(pattern="^who wrote (.+)$", predicate="author", subject_group=1)]
        out = solve_sp("who wrote c>3", kb, d, templates)
        assert [c.answer for c in out] == ["kim"]
        assert out[0].provenance == "SELECT ?x WHERE { <c>3> <author> ?x . }"

    def test_duplicate_answers_keep_best_confidence(self):
        kb = KnowledgeBase([Triple("hamlet", "author", "shakespeare")])
        d = build_entity_dictionary(kb)
        templates = [
            QuestionTemplate(pattern="^who wrote (.+)$", predicate="author", subject_group=1),
            QuestionTemplate(pattern="^who wrote (.+)$", predicate="author",
                             subject_group=1, confidence=0.5),
        ]
        out = solve_sp("who wrote hamlet", kb, d, templates)
        assert len(out) == 1
        assert out[0].confidence == pytest.approx(0.9)


PUNCTUATED_KB = KnowledgeBase([
    Triple("Paris, Texas", "population", "24171"),
    Triple("Dr. No", "director", "Terence Young"),
    Triple("Jean-Luc Picard", "captain_of", "Enterprise"),
])
PUNCTUATED_TEMPLATES = [
    QuestionTemplate(pattern="^what is the population of (.+)$", predicate="population", subject_group=1),
    QuestionTemplate(pattern="^who directed (.+)$", predicate="director", subject_group=1),
]
PUNCTUATED_QUESTIONS = [
    ("What is the population of Paris, Texas?", "paris texas", "Paris, Texas", "24171"),
    ("what is the population of paris texas", "paris texas", "Paris, Texas", "24171"),
    ("Who directed Dr. No?", "dr no", "Dr. No", "Terence Young"),
    ("who directed Dr No", "dr no", "Dr. No", "Terence Young"),
]


class TestPunctuatedNames:
    """Names with punctuation are keyed by their tokens, the form the token
    pass merges, so they are found with or without their punctuation."""

    @pytest.mark.parametrize("question, key, entity, answer", PUNCTUATED_QUESTIONS)
    def test_dictionary_pass(self, question, key, entity, answer):
        d = build_entity_dictionary(PUNCTUATED_KB)
        assert recognize_subjects(question, d, []) == [
            SubjectCandidate(key, entity, DICTIONARY_CONFIDENCE, "dictionary")]

    @pytest.mark.parametrize("question, key, entity, answer", PUNCTUATED_QUESTIONS)
    def test_template_capture(self, monkeypatch, question, key, entity, answer):
        # with the token pass merging nothing, only the capture can find the entity
        monkeypatch.setattr(sp_solver, "tokenize", lambda text, dictionary=None: tokenize(text))
        d = build_entity_dictionary(PUNCTUATED_KB)
        subjects = recognize_subjects(question, d, PUNCTUATED_TEMPLATES)
        assert [(s.entity, s.source) for s in subjects] == [(entity, "template")]

    @pytest.mark.parametrize("question, key, entity, answer", PUNCTUATED_QUESTIONS)
    def test_solve(self, question, key, entity, answer):
        d = build_entity_dictionary(PUNCTUATED_KB)
        out = solve_sp(question, PUNCTUATED_KB, d, PUNCTUATED_TEMPLATES)
        assert [c.answer for c in out] == [answer]

    def test_passage_subject_field(self):
        d = build_entity_dictionary(PUNCTUATED_KB)
        doc, _ = tag_passage("p", "Jean-Luc Picard watched Dr. No in Paris, Texas.", d, 0)
        assert doc.subject_field == ("Jean-Luc Picard", "Dr. No", "Paris, Texas")


class TestTemplates:
    def test_load_templates(self, fx):
        templates = load_templates(os.path.join(fx, "templates.jsonl"))
        assert len(templates) == 8
        assert all(t.pattern.startswith("^") for t in templates)
