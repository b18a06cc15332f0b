"""Rule-based semantic parsing solver."""

import json
import os
import random

import pytest

from openqa import sp_solver
from openqa.errors import MalformedLine
from openqa.kb import KnowledgeBase, Triple, build_entity_dictionary, load_triples
from openqa.retrieval import tag_passage
from openqa.sp_solver import (
    DEFAULT_TEMPLATE_CONFIDENCE, DICTIONARY_CONFIDENCE, TEMPLATE_CAPTURE_CONFIDENCE,
    QuestionTemplate, load_templates, solve_sp,
)
from openqa.text import EntityDictionary, split_words

from oracles import solve_sp_staged


@pytest.fixture(scope="module")
def world(fx):
    kb = load_triples(os.path.join(fx, "kb.tsv"))
    return kb, build_entity_dictionary(kb), load_templates(os.path.join(fx, "templates.jsonl"))


def answers(out):
    return [(c.answer, c.confidence, c.provenance) for c in out]


class TestRecognition:
    def test_dictionary_subject(self, world):
        kb, d, templates = world
        assert d.find(split_words("who wrote hamlet")) == [(2, 3, "hamlet")]
        # a dictionary subject and a template capture of the same entity: the dictionary's 1.0 wins
        out = solve_sp("who wrote hamlet", kb, d, templates)
        assert answers(out) == [("shakespeare", DICTIONARY_CONFIDENCE * DEFAULT_TEMPLATE_CONFIDENCE,
                                 "SELECT ?x WHERE { <hamlet> <author> ?x . }")]

    def test_unlinkable_capture_yields_nothing(self, world):
        kb, d, templates = world
        # "the odyssey" matches the template but is not a KB entity
        assert d.find(split_words("who wrote the odyssey")) == []
        assert solve_sp("who wrote the odyssey", kb, d, templates) == []

    def test_template_capture_confidence(self):
        # the capture links to an entity the dictionary pass cannot see
        # (the dictionary key spans two tokens but the merge consumed the first)
        kb = KnowledgeBase([Triple("new_york", "p", "a"), Triple("york_city", "p", "b")])
        d = EntityDictionary({"new york": "new_york", "york city": "york_city"})
        templates = [QuestionTemplate(pattern="^about new (.+)$", predicate="p", subject_group=1)]
        assert d.find(split_words("about new york city")) == [(1, 3, "new_york")]
        out = solve_sp("about new york city", kb, d, templates)
        assert answers(out) == [
            ("a", DICTIONARY_CONFIDENCE * DEFAULT_TEMPLATE_CONFIDENCE, "SELECT ?x WHERE { <new_york> <p> ?x . }"),
            ("b", TEMPLATE_CAPTURE_CONFIDENCE * DEFAULT_TEMPLATE_CONFIDENCE, "SELECT ?x WHERE { <york_city> <p> ?x . }"),
        ]

    def test_predicate_from_template(self, world):
        kb, d, templates = world
        out = solve_sp("what is the capital of france", kb, d, templates)
        assert answers(out) == [("paris", DICTIONARY_CONFIDENCE * DEFAULT_TEMPLATE_CONFIDENCE,
                                 "SELECT ?x WHERE { <france> <capital> ?x . }")]

    def test_no_template_match(self, world):
        kb, d, templates = world
        # a subject with no predicate makes no query
        assert d.find(split_words("tell me about hamlet")) == [(3, 4, "hamlet")]
        assert solve_sp("tell me about hamlet", kb, d, templates) == []


class TestQueriesAndSolve:
    def test_query_confidence_multiplies(self):
        kb = KnowledgeBase([Triple("hamlet", "author", "shakespeare"), Triple("hamlet", "genre", "tragedy")])
        d = build_entity_dictionary(kb)
        templates = [QuestionTemplate(pattern="^who wrote (.+)$", predicate="author", subject_group=1),
                     QuestionTemplate(pattern="wrote", predicate="genre", confidence=0.5)]
        out = solve_sp("who wrote hamlet", kb, d, templates)
        assert answers(out) == [("shakespeare", 0.9, "SELECT ?x WHERE { <hamlet> <author> ?x . }"),
                                ("tragedy", 0.5, "SELECT ?x WHERE { <hamlet> <genre> ?x . }")]

    def test_equal_confidences_keep_the_first_query_subjects_major(self):
        # x is reached at 0.9 by <a> <q> and by <b> <p>; <a>'s queries come first
        kb = KnowledgeBase([Triple("a", "q", "x"), Triple("b", "p", "x")])
        d = build_entity_dictionary(kb)
        templates = [QuestionTemplate(pattern="^(?:a|b) and", predicate="q"),
                     QuestionTemplate(pattern="and (?:a|b)$", predicate="p")]
        out = solve_sp("b and a", kb, d, templates)
        assert answers(out) == [("x", 0.9, "SELECT ?x WHERE { <a> <q> ?x . }")]

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

    def test_question_is_read_once(self, world, monkeypatch):
        """One normalization and one regex search per template, captures included."""
        kb, d, templates = world
        normalized = []
        normalize = sp_solver.normalize
        monkeypatch.setattr(sp_solver, "normalize", lambda text: normalized.append(text) or normalize(text))
        searched = []

        class CountingRegex:
            def __init__(self, tpl):
                self.tpl, self.regex = tpl, tpl.regex

            def search(self, text):
                searched.append(self.tpl)
                return self.regex.search(text)

        for tpl in templates:
            object.__setattr__(tpl, "regex", CountingRegex(tpl))
        try:
            out = solve_sp("who wrote hamlet", kb, d, templates)
        finally:
            for tpl in templates:
                object.__setattr__(tpl, "regex", tpl.regex.regex)
        assert [c.answer for c in out] == ["shakespeare"]
        assert normalized == ["who wrote hamlet"]
        assert searched == templates and all(t.subject_group is not None for t in templates)


def random_world(rng: random.Random):
    """A KB over made-up words, a dictionary with multi-token keys and several
    keys per entity, templates with captures (some of them keys, some not,
    some optional) and repeated predicates at equal and unequal confidences."""
    words = ["ka", "lo", "mi", "nu", "po", "ri", "su", "te"]
    entities = [" ".join(rng.sample(words, rng.randint(1, 2))) for _ in range(6)]
    predicates = ["p0", "p1", "p2"]
    triples = [Triple(rng.choice(entities), rng.choice(predicates), rng.choice(entities + ["v1", "v2", "v3"]))
               for _ in range(rng.randint(4, 14))]
    kb = KnowledgeBase(triples)
    keys = dict.fromkeys(" ".join(rng.choices(words[:4], k=rng.randint(1, 3))) for _ in range(rng.randint(2, 8)))
    d = EntityDictionary({key: rng.choice(entities) for key in keys})  # overlapping keys: a merge can hide one
    shapes = [
        ("^{w} (.+)$", 1),
        ("^(?:({w}) )?{w} (.+)$", 1),  # group 1 takes no part when the first word is missing
        ("^(?:({w}) )?{w} (.+)$", 2),
        ("(.+) {w}$", 1),
        ("{w}", None),
        ("^{w} {w}", None),
    ]
    templates = []
    for _ in range(rng.randint(1, 8)):
        shape, group = rng.choice(shapes)
        pattern = shape.replace("{w}", "{}").format(*(rng.choice(words) for _ in range(shape.count("{w}"))))
        templates.append(QuestionTemplate(pattern=pattern, predicate=rng.choice(predicates), subject_group=group,
                                          confidence=rng.choice([0.5, 0.9, 0.9, 1.0])))
    return kb, d, templates, words


def test_one_pass_equals_the_staged_oracle():
    """`solve_sp` equals the staged recognize-subjects, recognize-predicates,
    generate-queries path to the last bit, answers, order and provenance."""
    rng = random.Random(20)
    seen = {"answered": 0, "several subjects": 0, "capture non-keys": 0, "capture keys": 0,
            "capture-only entities": 0}
    for _ in range(1000):
        kb, d, templates, words = random_world(rng)
        for _ in range(10):
            question = [rng.choice(words) for _ in range(rng.randint(1, 5))]
            if rng.random() < 0.5:  # end on a key, for a capture to take
                question.append(rng.choice(sorted(d.entries)))
            question = rng.choice(["{}", "{}?", "  {} .", "{}!"]).format(" ".join(question).capitalize())
            out = solve_sp(question, kb, d, templates)
            assert answers(out) == answers(solve_sp_staged(question, kb, d, templates)), question
            seen["answered"] += bool(out)
            seen["several subjects"] += len({c.provenance.split(">")[0] for c in out}) > 1
            found = {entity for _, _, entity in d.find(split_words(question))}
            for tpl in templates:
                m = tpl.regex.search(sp_solver.normalize(question))
                capture = m and tpl.subject_group is not None and m.group(tpl.subject_group)
                if capture:
                    entity = d.entries.get(capture)
                    seen["capture non-keys" if entity is None else "capture keys"] += 1
                    seen["capture-only entities"] += entity is not None and entity not in found
    assert min(seen.values()) >= 4, seen


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
        words = split_words(question)
        assert [(" ".join(words[start:stop]), e) for start, stop, e in d.find(words)] == [(key, entity)]

    @pytest.mark.parametrize("question, key, entity, answer", PUNCTUATED_QUESTIONS)
    def test_template_capture(self, monkeypatch, question, key, entity, answer):
        # with the dictionary pass finding nothing, only the capture can find the entity
        monkeypatch.setattr(EntityDictionary, "find", lambda self, words: [])
        d = build_entity_dictionary(PUNCTUATED_KB)
        out = solve_sp(question, PUNCTUATED_KB, d, PUNCTUATED_TEMPLATES)
        assert [(c.answer, c.confidence) for c in out] == [
            (answer, TEMPLATE_CAPTURE_CONFIDENCE * DEFAULT_TEMPLATE_CONFIDENCE)]

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


@pytest.mark.parametrize("field,value,kind", [
    ("pattern", 5, "a string"),
    ("predicate", 5, "a string"),
    ("subject_group", True, "an integer"),
    ("subject_group", 1.0, "an integer"),
    ("confidence", True, "a number"),
])
def test_template_field_of_the_wrong_type_is_malformed(tmp_path, field, value, kind):
    """Unchecked, a template of such a row never answers (predicate 5), reads
    true as group 1, or fails on every question it matches (group 1.0)."""
    path = tmp_path / "templates.jsonl"
    row = {"pattern": "^who wrote (.+)$", "predicate": "author", "subject_group": 1, "confidence": 0.9, field: value}
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(MalformedLine) as info:
        load_templates(str(path))
    assert str(info.value) == f"{path}: malformed line 1: field {field!r} must be {kind}, got {json.dumps(value)}"


def test_pattern_that_is_not_a_regex_is_malformed(tmp_path):
    path = tmp_path / "templates.jsonl"
    path.write_text(json.dumps({"pattern": "^who wrote (.+$", "predicate": "author"}) + "\n")
    with pytest.raises(MalformedLine) as info:
        load_templates(str(path))
    assert str(info.value) == (f"{path}: malformed line 1: field 'pattern' is not a valid regular expression: "
                               "missing ), unterminated subpattern at position 11")
