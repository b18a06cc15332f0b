"""Embedded two-field full-text engine with BM25 ranking.

Documents carry a subject field (entities) and a value field (text).
Triples are spliced into single-line documents; passages are tagged with
the dictionary entities they mention. Query terms matching a document's
subject field contribute double. Document text, subject entities and the
query are all split into terms by `tokenize`, so the index sees the same
tokens as the reader. The build reads each document's text once: its
words (`split_words`) feed both the entity tagging of a passage and the
index's term counts, and `build_index` counts each document's terms as it
arrives, holding no list of every document's words.

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

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .jsonl import read_json_lines, text_field
from .kb import Triple
from .text import EntityDictionary, first_word, split_words, tokenize

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


def tag_passage(passage_id: str, text: str, dictionary: EntityDictionary,
                doc_id: int) -> tuple[IndexedDocument, list[str]]:
    """Passage document tagged with the dictionary entities found in its
    text, with the text's words: the one word pass over the passage feeds
    the tagging here and the term counts in `build_index`."""
    words = split_words(text)
    entities = (entity for _, _, entity in dictionary.find(words))
    doc = IndexedDocument(
        doc_id=doc_id,
        subject_field=tuple(dict.fromkeys(entities)),  # distinct, in order of first mention
        value_field=text,
        kind=KIND_PASSAGE,
        origin=f"passage:{passage_id}",
    )
    return doc, words


@dataclass
class InvertedIndex:
    docs: list[IndexedDocument] = field(default_factory=list)  # a document's doc_id is its position here
    # term -> [n, 2] (doc_id, tf) rows, doc ids ascending: a view into one flat array
    postings: dict[str, np.ndarray] = field(default_factory=dict)
    doc_count: int = 0
    # term -> its rows in `positions` (doc ids) and `contributions`, which are aligned with the postings
    rows: dict[str, slice] = field(default_factory=dict)
    positions: np.ndarray = field(default_factory=lambda: np.zeros(0, np.intp))
    contributions: np.ndarray = field(default_factory=lambda: np.zeros(0))


def build_index(documents: Iterable[tuple[IndexedDocument, Sequence[str]]]) -> InvertedIndex:
    """Index (document, terms) pairs, the terms being `split_words(doc.value_field)`,
    in one pass: each document's terms are counted on arrival and not kept.
    Doc ids must arrive as 0, 1, 2, ...: a document's id is its position,
    by which `search` accumulates scores; any other id is a ValueError."""
    idx = InvertedIndex()
    term_ids: dict[str, int] = {}
    # per posting, in arrival order: its term's id, its tf and whether the term is in the doc's subject field
    post_term: list[int] = []
    post_tf: list[int] = []
    post_subject: list[bool] = []
    lengths: list[int] = []  # per doc: its number of terms
    distinct: list[int] = []  # per doc: its number of postings
    entity_terms: dict[str, list[str]] = {}  # each subject entity is split once per build
    for doc, terms in documents:
        if doc.doc_id != len(idx.docs):
            raise ValueError(f"doc_id {doc.doc_id} out of order: expected {len(idx.docs)}")
        idx.docs.append(doc)
        counts: dict[str, int] = {}
        for t in terms:
            counts[t] = counts.get(t, 0) + 1
        for entity in doc.subject_field:
            if entity not in entity_terms:
                entity_terms[entity] = split_words(entity)
        subject = {term for entity in doc.subject_field for term in entity_terms[entity]}
        post_term += [term_ids.setdefault(term, len(term_ids)) for term in counts]
        post_tf += counts.values()
        post_subject += [term in subject for term in counts]
        lengths.append(len(terms))
        distinct.append(len(counts))

    idx.doc_count = len(idx.docs)
    # One vectorised pass: group the postings by term, then position, and compute each one's
    # contribution in the per-document formula's operation order, so every value is bit-identical.
    idx.positions = np.repeat(np.arange(idx.doc_count), distinct)  # each posting's doc id, arrival order until grouped
    # a doc has one posting per term, so the (term, position) keys are distinct and any sort gives one order
    order = np.argsort(np.array(post_term, dtype=np.intp) * idx.doc_count + idx.positions)
    idx.positions = idx.positions[order]
    tf = np.array(post_tf, dtype=np.int64)[order]
    pairs = np.stack([idx.positions, tf], axis=1)
    df = np.bincount(post_term, minlength=len(term_ids))
    for (term, t), end in zip(term_ids.items(), np.cumsum(df).tolist()):
        idx.rows[term] = rows = slice(end - int(df[t]), end)
        idx.postings[term] = pairs[rows]
    idf = np.array([math.log(1.0 + (idx.doc_count - n + 0.5) / (n + 0.5)) for n in df.tolist()])
    avg_length = sum(lengths) / idx.doc_count if idx.doc_count else 0.0
    norm = K1 * (1.0 - B + B * np.array(lengths) / avg_length) if avg_length else np.zeros(idx.doc_count)
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
    matched = np.flatnonzero(hit)  # doc ids ascending
    top = matched[np.lexsort((matched, -scores[matched]))[:k]]
    return [RetrievalResult(idx.docs[d], s) for d, s in zip(top.tolist(), scores[top].tolist())]


def load_passages(path: str) -> list[tuple[str, str]]:
    """JSON Lines {"id": str, "text": str} -> [(id, text)]; a text that
    holds no word (no `tokenize` term, so no query could find it) is a
    malformed line."""
    def row(obj: dict) -> tuple[str, str]:
        pid, text = text_field(obj, "id"), text_field(obj, "text")
        if not first_word(text):
            raise ValueError(f"field 'text' holds no word, got {json.dumps(text)}")
        return pid, text

    return read_json_lines(path, row)
