"""Rule-based semantic-parsing solver.

One pass over the question finds its candidate subjects (dictionary keys
among its words, template captures) and candidate predicates (matching
templates): the question is split into words once, normalized once, and
each template's regex is searched once, a match giving both the
template's predicate and its capture. The subjects and predicates are
cross-multiplied into object-unknown queries, each executed against the
knowledge base, and the bindings become confidence-scored answers.
Queries are built as `SparqlQuery` values; their SPARQL text is only the
answers' provenance. The same pass tells whether the question parsed in
full (`SpAnswers.full_parse`), which lets `ask` skip the other solvers.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional

from .answers import SOLVER_SP, AnswerCandidate
from .jsonl import read_json_lines
from .kb import KnowledgeBase, ObjectUnknown, SparqlQuery, execute_sparql, serialize_sparql
from .text import EntityDictionary, dictionary_key, normalize, split_words

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
        for name, kind, types in (("pattern", "a string", str), ("predicate", "a string", str),
                                  ("subject_group", "an integer", (int, type(None))),
                                  ("confidence", "a number", (int, float))):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, types):
                raise TypeError(f"field {name!r} must be {kind}, got {json.dumps(value, default=repr)}")
        try:
            compiled = re.compile(self.pattern)
        except re.error as exc:
            raise ValueError(f"field 'pattern' is not a valid regular expression: {exc}") from None
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


class SpAnswers(list):
    """`solve_sp`'s answers: a list of candidates that also says whether the
    question parsed in full, that is, a matching template's capture is itself
    a dictionary key and the query on that entity and the template's
    predicate has bindings. Such an answer is the KB's own fact."""
    __slots__ = ("full_parse",)

    def __init__(self, candidates=(), full_parse: bool = False):
        super().__init__(candidates)
        self.full_parse = full_parse


def solve_sp(
    question: str,
    kb: KnowledgeBase,
    dictionary: EntityDictionary,
    templates: list[QuestionTemplate],
) -> SpAnswers:
    """Answers of every (subject, predicate) query the question yields, in one
    pass over the templates.

    Subjects are the dictionary keys among the question's words (confidence
    1.0) and the template captures that are keys (0.8), each entity at its
    best; predicates are the matching templates' predicates, each at its
    best confidence. Queries go subjects-major, each side in
    (-confidence, name) order; a query's confidence is the product of its
    sides' divided by its number of bindings, and an answer keeps the
    first of its best. The result is a full parse when one of these queries
    pairs a template's key capture with that template's predicate."""
    subjects = {entity: DICTIONARY_CONFIDENCE for _, _, entity in dictionary.find(split_words(question))}
    predicates: dict[str, float] = {}
    parsed: set[tuple[str, str]] = set()  # (key capture's entity, its template's predicate)
    norm_q = normalize(question)
    for tpl in templates:
        m = tpl.regex.search(norm_q)
        if not m:
            continue
        predicates[tpl.predicate] = max(predicates.get(tpl.predicate, 0.0), tpl.confidence)  # ties keep the first
        if tpl.subject_group is None or (surface := m.group(tpl.subject_group)) is None:
            continue
        entity = dictionary.entries.get(dictionary_key(surface))
        if entity is not None:
            subjects.setdefault(entity, TEMPLATE_CAPTURE_CONFIDENCE)  # never above a dictionary match
            parsed.add((entity, tpl.predicate))

    def ranked(confidences: dict[str, float]) -> list[tuple[str, float]]:
        return sorted(confidences.items(), key=lambda item: (-item[1], item[0]))

    best: dict[str, AnswerCandidate] = {}
    full_parse = False
    ranked_predicates = ranked(predicates)
    for entity, s_conf in ranked(subjects):
        for predicate, p_conf in ranked_predicates:
            query = SparqlQuery("x", ObjectUnknown(entity, predicate))
            bindings = execute_sparql(kb, query)
            if not bindings:
                continue
            full_parse = full_parse or (entity, predicate) in parsed
            query_text = serialize_sparql(query)
            conf = s_conf * p_conf / len(bindings)
            for b in bindings:
                old = best.get(b)
                if old is None or conf > old.confidence:
                    best[b] = AnswerCandidate(b, conf, SOLVER_SP, provenance=query_text)
    return SpAnswers(sorted(best.values(), key=lambda c: (-c.confidence, c.answer)), full_parse)
