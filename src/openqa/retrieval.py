"""Embedded two-field full-text engine with BM25 ranking.

Documents carry a subject field (entities) and a value field (text).
Triples are spliced into single-line documents; passages are tagged with
the dictionary entities they mention. Query terms matching a document's
subject field contribute double.

`search` scores term-at-a-time (Turtle & Flood 1995): one pass over each
distinct query term's postings, in query order, adds that term's BM25
contribution to a per-document accumulator, so a query costs the total
length of its posting lists. Every document receives its contributions in
the same order as `bm25_score`, the per-document scorer kept as the
reference, so scores are equal to the last bit.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field

from .errors import DuplicateDocId, EmptyPassage, UnknownDoc
from .kb import Triple
from .text import EntityDictionary, normalize, tokenize

K1 = 1.2
B = 0.75
SUBJECT_BOOST = 2.0

KIND_TRIPLE = "triple"
KIND_PASSAGE = "passage"


@dataclass(frozen=True)
class IndexedDocument:
    doc_id: int
    subject_field: tuple[str, ...]
    value_field: str
    kind: str
    origin: str = ""

    def __post_init__(self):
        if not self.value_field:
            raise ValueError("value_field must be non-empty")


@dataclass(frozen=True)
class RetrievalResult:
    doc: IndexedDocument
    score: float


def splice_triple(t: Triple, doc_id: int) -> IndexedDocument:
    """One-line document: "subject predicate object", subject field = [subject]."""
    return IndexedDocument(
        doc_id=doc_id,
        subject_field=(t.subject,),
        value_field=f"{t.subject} {t.predicate} {t.object}",
        kind=KIND_TRIPLE,
        origin=f"triple:{t.subject}|{t.predicate}|{t.object}",
    )


def tag_passage(passage_id: str, text: str, dictionary: EntityDictionary, doc_id: int) -> IndexedDocument:
    """Passage document tagged with dictionary entities found in its text."""
    if not text:
        raise EmptyPassage(f"passage {passage_id!r} is empty")
    entities: list[str] = []
    for token in tokenize(text, dictionary).tokens:
        canonical = dictionary.entries.get(token)
        if canonical is not None and canonical not in entities:
            entities.append(canonical)
    return IndexedDocument(
        doc_id=doc_id,
        subject_field=tuple(entities),
        value_field=text,
        kind=KIND_PASSAGE,
        origin=f"passage:{passage_id}",
    )


@dataclass
class InvertedIndex:
    docs: dict[int, IndexedDocument] = field(default_factory=dict)
    postings: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    doc_lengths: dict[int, int] = field(default_factory=dict)
    subject_terms: dict[str, set[int]] = field(default_factory=dict)
    avg_doc_length: float = 0.0
    doc_count: int = 0


def build_index(docs: list[IndexedDocument]) -> InvertedIndex:
    idx = InvertedIndex()
    for doc in docs:
        if doc.doc_id in idx.docs:
            raise DuplicateDocId(f"doc_id {doc.doc_id} appears twice")
        idx.docs[doc.doc_id] = doc

    for doc_id in sorted(idx.docs):
        doc = idx.docs[doc_id]
        terms = tokenize(normalize(doc.value_field)).tokens
        idx.doc_lengths[doc_id] = len(terms)
        counts: dict[str, int] = {}
        for t in terms:
            counts[t] = counts.get(t, 0) + 1
        for term, tf in counts.items():
            idx.postings.setdefault(term, []).append((doc_id, tf))
        for entity in doc.subject_field:
            for term in tokenize(normalize(entity)).tokens:
                idx.subject_terms.setdefault(term, set()).add(doc_id)

    idx.doc_count = len(idx.docs)
    if idx.doc_count:
        idx.avg_doc_length = sum(idx.doc_lengths.values()) / idx.doc_count
    return idx


def _idf(idx: InvertedIndex, term: str) -> float:
    df = len(idx.postings.get(term, []))
    return math.log(1.0 + (idx.doc_count - df + 0.5) / (df + 0.5))


def bm25_score(idx: InvertedIndex, query_terms: list[str], doc_id: int) -> float:
    """BM25 (k1=1.2, b=0.75) with a 2x boost for subject-field term hits."""
    if doc_id not in idx.docs:
        raise UnknownDoc(f"doc_id {doc_id} not in index")
    length = idx.doc_lengths[doc_id]
    norm = K1 * (1.0 - B + B * length / idx.avg_doc_length) if idx.avg_doc_length else 0.0
    score = 0.0
    for term in dict.fromkeys(query_terms):  # distinct terms, query order
        tf = 0
        for d, f in idx.postings.get(term, []):
            if d == doc_id:
                tf = f
                break
        if tf == 0:
            continue
        contribution = _idf(idx, term) * tf * (K1 + 1.0) / (tf + norm)
        if doc_id in idx.subject_terms.get(term, ()):
            contribution *= SUBJECT_BOOST
        score += contribution
    return score


def search(idx: InvertedIndex, query: str, k: int = 10) -> list[RetrievalResult]:
    """Top-k documents containing at least one query term, best score
    first, ties broken by doc_id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    terms = list(tokenize(normalize(query)).tokens)
    if not terms:
        return []
    scores: dict[int, float] = {}
    for term in dict.fromkeys(terms):  # distinct terms, query order
        postings = idx.postings.get(term)
        if not postings:
            continue
        idf = _idf(idx, term)
        boosted = idx.subject_terms.get(term, ())
        for doc_id, tf in postings:
            length = idx.doc_lengths[doc_id]
            norm = K1 * (1.0 - B + B * length / idx.avg_doc_length) if idx.avg_doc_length else 0.0
            contribution = idf * tf * (K1 + 1.0) / (tf + norm)
            if doc_id in boosted:
                contribution *= SUBJECT_BOOST
            scores[doc_id] = scores.get(doc_id, 0.0) + contribution
    top = heapq.nsmallest(k, scores.items(), key=lambda item: (-item[1], item[0]))
    return [RetrievalResult(idx.docs[d], s) for d, s in top]


def load_passages(path: str) -> list[tuple[str, str]]:
    """JSON Lines {"id": str, "text": str} -> [(id, text)]."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                obj = json.loads(line)
                out.append((str(obj["id"]), obj["text"]))
    return out
