"""Slow reference versions of fast program paths, kept only as test oracles.

Each computes its result one item at a time, straight from the formula,
so the tests can compare the program's batched or precomputed path with
it on seeded random inputs.
"""

import math

import numpy as np

from openqa import nn
from openqa.errors import UnknownDoc
from openqa.ld_solver import score_relation
from openqa.reader import ReaderModel, _forward, _question_tokens
from openqa.retrieval import B, K1, SUBJECT_BOOST, InvertedIndex
from openqa.text import Vocabulary, encode, tokenize


def bm25_score(idx: InvertedIndex, query_terms: list[str], doc_id: int) -> float:
    """BM25 (k1=1.2, b=0.75) with a 2x boost for subject-field term hits, for
    one document, with lengths, document frequencies and subject terms taken
    from the indexed documents' text by `tokenize`."""
    if doc_id not in idx.docs:
        raise UnknownDoc(f"doc_id {doc_id} not in index")
    terms = {d: tokenize(doc.value_field).tokens for d, doc in idx.docs.items()}
    avg_length = sum(len(t) for t in terms.values()) / len(terms)
    norm = K1 * (1.0 - B + B * len(terms[doc_id]) / avg_length) if avg_length else 0.0
    subject = {t for entity in idx.docs[doc_id].subject_field for t in tokenize(entity).tokens}
    score = 0.0
    for term in dict.fromkeys(query_terms):  # distinct terms, query order
        tf = terms[doc_id].count(term)
        if tf == 0:
            continue
        df = sum(term in t for t in terms.values())
        contribution = math.log(1.0 + (len(terms) - df + 0.5) / (df + 0.5)) * tf * (K1 + 1.0) / (tf + norm)
        if term in subject:
            contribution *= SUBJECT_BOOST
        score += contribution
    return score


def predict_logits(model: ReaderModel, question: str, passage_tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Raw, per-position start/end scores of one passage (no per-passage normalization)."""
    start, end, _ = _forward(model.params, encode(model.vocab, _question_tokens(question)),
                             encode(model.vocab, passage_tokens))
    return start, end


def detect_relation(scorer: nn.ModelParameters, vocab: Vocabulary, question_pattern: list[str],
                    candidates: list[str]) -> str:
    """The candidate relation with the best combined score; ties go to the smallest string."""
    return min(candidates, key=lambda rel: (-score_relation(scorer, vocab, question_pattern, rel).combined, rel))
