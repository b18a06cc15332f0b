"""Rule-based semantic-parsing solver.

Recognizes candidate subjects (dictionary match, template capture) and
candidate predicates (template match), cross-products them into
object-unknown queries, executes each against the knowledge base and
emits confidence-scored answers. Queries are built as `SparqlQuery`
values; their SPARQL text is only the answers' provenance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .answers import SOLVER_SP, AnswerCandidate
from .jsonl import read_json_lines
from .kb import KnowledgeBase, ObjectUnknown, SparqlQuery, execute_sparql, serialize_sparql
from .text import EntityDictionary, normalize, tokenize

DICTIONARY_CONFIDENCE = 1.0
TEMPLATE_CAPTURE_CONFIDENCE = 0.8
DEFAULT_TEMPLATE_CONFIDENCE = 0.9


@dataclass(frozen=True)
class QuestionTemplate:
    pattern: str
    predicate: str
    subject_group: Optional[int] = None
    confidence: float = DEFAULT_TEMPLATE_CONFIDENCE
    regex: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        compiled = re.compile(self.pattern)
        if self.subject_group is not None:
            if self.subject_group < 1 or compiled.groups < self.subject_group:
                raise ValueError(
                    f"pattern has {compiled.groups} groups, subject_group={self.subject_group}"
                )
        if not (0.0 < self.confidence <= 1.0):
            raise ValueError("template confidence must be in (0, 1]")
        object.__setattr__(self, "regex", compiled)  # frozen: set once, here


def load_templates(path: str) -> list[QuestionTemplate]:
    """Read JSON Lines templates: pattern, predicate, subject_group, confidence."""
    return read_json_lines(path, lambda obj: QuestionTemplate(
        pattern=obj["pattern"],
        predicate=obj["predicate"],
        subject_group=obj.get("subject_group"),
        confidence=obj.get("confidence", DEFAULT_TEMPLATE_CONFIDENCE),
    ))


@dataclass(frozen=True)
class SubjectCandidate:
    surface: str
    entity: str
    confidence: float
    source: str  # "dictionary" | "template"


@dataclass(frozen=True)
class PredicateCandidate:
    predicate: str
    confidence: float
    template_id: int


def recognize_subjects(
    question: str,
    dictionary: EntityDictionary,
    templates: list[QuestionTemplate],
) -> list[SubjectCandidate]:
    """Dictionary token matches (confidence 1.0) plus template captures (0.8)."""
    found: dict[str, SubjectCandidate] = {}

    def offer(cand: SubjectCandidate):
        old = found.get(cand.entity)
        if old is None or cand.confidence > old.confidence:
            found[cand.entity] = cand

    seq = tokenize(question, dictionary)
    for token in seq.tokens:
        entity = dictionary.entries.get(token)
        if entity is not None:
            offer(SubjectCandidate(token, entity, DICTIONARY_CONFIDENCE, "dictionary"))

    norm_q = normalize(question)
    for tpl in templates:
        if tpl.subject_group is None:
            continue
        m = tpl.regex.search(norm_q)
        if not m:
            continue
        surface = m.group(tpl.subject_group)
        if surface is None:
            continue
        entity = dictionary.entries.get(normalize(surface))
        if entity is not None:
            offer(SubjectCandidate(surface, entity, TEMPLATE_CAPTURE_CONFIDENCE, "template"))

    return sorted(found.values(), key=lambda c: (-c.confidence, c.entity))


def recognize_predicates(question: str, templates: list[QuestionTemplate]) -> list[PredicateCandidate]:
    """Match the normalized question against each template in list order."""
    norm_q = normalize(question)
    found: dict[str, PredicateCandidate] = {}
    for idx, tpl in enumerate(templates):
        if not tpl.regex.search(norm_q):
            continue
        old = found.get(tpl.predicate)
        if old is None or tpl.confidence > old.confidence:
            found[tpl.predicate] = PredicateCandidate(tpl.predicate, tpl.confidence, idx)
    return sorted(found.values(), key=lambda c: (-c.confidence, c.predicate))


def generate_queries(
    subjects: list[SubjectCandidate],
    predicates: list[PredicateCandidate],
) -> list[tuple[SparqlQuery, float]]:
    """Full cross product of object-unknown queries, subjects-major;
    confidence multiplies."""
    out: list[tuple[SparqlQuery, float]] = []
    for s in subjects:
        for p in predicates:
            out.append((SparqlQuery("x", ObjectUnknown(s.entity, p.predicate)), s.confidence * p.confidence))
    return out


def solve_sp(
    question: str,
    kb: KnowledgeBase,
    dictionary: EntityDictionary,
    templates: list[QuestionTemplate],
) -> list[AnswerCandidate]:
    subjects = recognize_subjects(question, dictionary, templates)
    predicates = recognize_predicates(question, templates)
    best: dict[str, AnswerCandidate] = {}
    for query, combined in generate_queries(subjects, predicates):
        bindings = execute_sparql(kb, query)
        if not bindings:
            continue
        query_text = serialize_sparql(query)
        conf = combined / len(bindings)
        for b in bindings:
            cand = AnswerCandidate(b, conf, SOLVER_SP, provenance=query_text)
            old = best.get(b)
            if old is None or cand.confidence > old.confidence:
                best[b] = cand
    return sorted(best.values(), key=lambda c: (-c.confidence, c.answer))
