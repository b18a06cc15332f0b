"""Embedded two-field full-text engine with BM25 ranking.

Documents carry a subject field (entities) and a value field (text).
Triples are spliced into single-line documents; passages are tagged with
the dictionary entities they mention. Query terms matching a document's
subject field contribute double. Document text, subject entities and the
query are all split into terms by `tokenize`, so the index sees the same
tokens as the reader.

`search` scores term-at-a-time (Turtle & Flood 1995). `build_index`
computes every posting's BM25 contribution once, into flat arrays grouped
by term; a query adds each distinct query term's slice of contributions
into a dense per-document accumulator, in query order, so it costs the
total length of its posting lists in numpy, not in Python. Every document
receives its contributions in the order a per-document scorer would add
them, each computed in that scorer's operation order, so scores are equal
to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DuplicateDocId, EmptyPassage
from .jsonl import read_json_lines, text_field
from .kb import Triple
from .text import EntityDictionary, tokenize

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
    entries = dictionary.entries
    canonicals = (entries[t] for t in tokenize(text, dictionary).tokens if t in entries)
    return IndexedDocument(
        doc_id=doc_id,
        subject_field=tuple(dict.fromkeys(canonicals)),  # distinct, in order of first mention
        value_field=text,
        kind=KIND_PASSAGE,
        origin=f"passage:{passage_id}",
    )


@dataclass
class InvertedIndex:
    docs: dict[int, IndexedDocument] = field(default_factory=dict)
    # term -> [n, 2] (doc_id, tf) rows, doc ids ascending: a view into one flat array
    postings: dict[str, np.ndarray] = field(default_factory=dict)
    doc_count: int = 0
    # position -> doc_id, ascending; `search` accumulates scores by position
    doc_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    # term -> its rows in `positions` and `contributions`, which are aligned with the postings
    rows: dict[str, slice] = field(default_factory=dict)
    positions: np.ndarray = field(default_factory=lambda: np.zeros(0, np.intp))
    contributions: np.ndarray = field(default_factory=lambda: np.zeros(0))


def build_index(docs: list[IndexedDocument]) -> InvertedIndex:
    idx = InvertedIndex()
    for doc in docs:
        if doc.doc_id in idx.docs:
            raise DuplicateDocId(f"doc_id {doc.doc_id} appears twice")
        idx.docs[doc.doc_id] = doc

    ordered = sorted(idx.docs)
    term_ids: dict[str, int] = {}
    # per posting, in doc order: its term's id, its tf and whether the term is in the doc's subject field
    post_term: list[int] = []
    post_tf: list[int] = []
    post_subject: list[bool] = []
    lengths: list[int] = []  # per doc: its number of terms
    distinct: list[int] = []  # per doc: its number of postings
    entity_terms: dict[str, tuple[str, ...]] = {}  # each subject entity is tokenized once per build
    for doc_id in ordered:
        doc = idx.docs[doc_id]
        terms = tokenize(doc.value_field).tokens
        counts: dict[str, int] = {}
        for t in terms:
            counts[t] = counts.get(t, 0) + 1
        for entity in doc.subject_field:
            if entity not in entity_terms:
                entity_terms[entity] = tokenize(entity).tokens
        subject = {term for entity in doc.subject_field for term in entity_terms[entity]}
        post_term += [term_ids.setdefault(term, len(term_ids)) for term in counts]
        post_tf += counts.values()
        post_subject += [term in subject for term in counts]
        lengths.append(len(terms))
        distinct.append(len(counts))

    idx.doc_count = len(ordered)
    # One vectorised pass: group the postings by term and compute each one's contribution
    # in the per-document formula's operation order, so every value is bit-identical.
    idx.doc_ids = np.array(ordered, dtype=np.int64)
    order = np.argsort(np.array(post_term, dtype=np.intp), kind="stable")  # by term, then position
    idx.positions = np.repeat(np.arange(idx.doc_count), distinct)[order]
    tf = np.array(post_tf, dtype=np.int64)[order]
    pairs = np.stack([idx.doc_ids[idx.positions], tf], axis=1)
    df = np.bincount(post_term, minlength=len(term_ids))
    for (term, t), end in zip(term_ids.items(), np.cumsum(df).tolist()):
        idx.rows[term] = rows = slice(end - int(df[t]), end)
        idx.postings[term] = pairs[rows]
    idf = np.array([math.log(1.0 + (idx.doc_count - n + 0.5) / (n + 0.5)) for n in df.tolist()])
    avg_length = sum(lengths) / idx.doc_count if idx.doc_count else 0.0
    norm = K1 * (1.0 - B + B * np.array(lengths, dtype=np.int64) / avg_length) if avg_length else np.zeros(idx.doc_count)
    idx.contributions = np.repeat(idf, df) * tf * (K1 + 1.0) / (tf + norm[idx.positions])
    idx.contributions[np.array(post_subject, dtype=bool)[order]] *= SUBJECT_BOOST
    return idx


def search(idx: InvertedIndex, query: str, k: int = 10) -> list[RetrievalResult]:
    """Top-k documents containing at least one query term, best score
    first, ties broken by doc_id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = np.zeros(idx.doc_count)
    hit = np.zeros(idx.doc_count, dtype=bool)
    for term in dict.fromkeys(tokenize(query).tokens):  # distinct terms, query order
        rows = idx.rows.get(term)
        if rows is not None:
            positions = idx.positions[rows]
            scores[positions] += idx.contributions[rows]
            hit[positions] = True
    matched = np.flatnonzero(hit)  # positions ascending, so doc ids ascending
    top = matched[np.lexsort((matched, -scores[matched]))[:k]]
    return [RetrievalResult(idx.docs[d], s) for d, s in zip(idx.doc_ids[top].tolist(), scores[top].tolist())]


def load_passages(path: str) -> list[tuple[str, str]]:
    """JSON Lines {"id": str, "text": str} -> [(id, text)]."""
    return read_json_lines(path, lambda obj: (str(obj["id"]), text_field(obj, "text")))
