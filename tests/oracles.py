"""Slow reference versions of fast program paths, kept only as test oracles.

Each computes its result one item at a time, straight from the formula,
so the tests can compare the program's batched or precomputed path with
it on seeded random inputs.
"""

import math

import numpy as np

from openqa import nn
from openqa.ld_solver import RelationScore, _encode_side, _relation_tokens
from openqa.reader import ReaderModel, SpanPrediction, _forward as reader_forward, _question_tokens
from openqa.retrieval import B, K1, SUBJECT_BOOST, InvertedIndex
from openqa.selector import SelectorModel, _forward as selector_forward
from openqa.text import EntityDictionary, Vocabulary, encode, tokenize


def bm25_score(idx: InvertedIndex, query_terms: list[str], doc_id: int) -> float:
    """BM25 (k1=1.2, b=0.75) with a 2x boost for subject-field term hits, for
    one document, with lengths, document frequencies and subject terms taken
    from the indexed documents' text by `tokenize`."""
    if not 0 <= doc_id < len(idx.docs):
        raise KeyError(f"doc_id {doc_id} not in index")
    terms = [tokenize(doc.value_field).tokens for doc in idx.docs]
    avg_length = sum(len(t) for t in terms) / len(terms)
    norm = K1 * (1.0 - B + B * len(terms[doc_id]) / avg_length) if avg_length else 0.0
    subject = {t for entity in idx.docs[doc_id].subject_field for t in tokenize(entity).tokens}
    score = 0.0
    for term in dict.fromkeys(query_terms):  # distinct terms, query order
        tf = terms[doc_id].count(term)
        if tf == 0:
            continue
        df = sum(term in t for t in terms)
        contribution = math.log(1.0 + (len(terms) - df + 0.5) / (df + 0.5)) * tf * (K1 + 1.0) / (tf + norm)
        if term in subject:
            contribution *= SUBJECT_BOOST
        score += contribution
    return score


def merge_entries(text: str, dictionary: EntityDictionary) -> tuple[str, ...]:
    """`tokenize(text, dictionary)` by trying the windows at every position:
    the longest window of tokens, joined by one space, that is a dictionary
    key becomes one token, else the position's own token does."""
    base = tokenize(text).tokens
    merged: list[str] = []
    i = 0
    n = len(base)
    while i < n:
        for w in range(min(dictionary.max_entry_tokens, n - i), 1, -1):
            key = " ".join(base[i : i + w])
            if key in dictionary.entries:
                break
        else:
            key, w = base[i], 1
        merged.append(key)
        i += w
    return tuple(merged)


def predict_logits(model: ReaderModel, question: str, passage_tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Raw, per-position start/end scores of one passage (no per-passage normalization)."""
    start, end, _ = reader_forward(model.params, encode(model.vocab, _question_tokens(question)),
                                   [encode(model.vocab, passage_tokens)])
    return start[0], end[0]


def score_sequence(model: SelectorModel, ids: list[int]) -> float:
    """The selector's score of one sequence, encoded alone: a batch of one."""
    scores, _ = selector_forward(model, [ids])
    return float(scores[0])


def score_from_scratch(scorer: nn.ModelParameters, vocab: Vocabulary, pattern: list[str],
                       relation: str) -> RelationScore:
    """How well `relation` fits the question pattern, with both sides encoded
    from their tokens: the cosines of their CNN and of their BiGRU vectors."""
    p_cnn, p_gru, _ = _encode_side(scorer, encode(vocab, pattern))
    r_cnn, r_gru, _ = _encode_side(scorer, encode(vocab, _relation_tokens(relation)))
    return RelationScore(relation, nn.cosine(p_cnn, r_cnn), nn.cosine(p_gru, r_gru))


def detect_relation(scorer: nn.ModelParameters, vocab: Vocabulary, question_pattern: list[str],
                    candidates: list[str]) -> str:
    """The candidate relation with the best combined score; ties go to the smallest string."""
    return min(candidates,
               key=lambda rel: (-score_from_scratch(scorer, vocab, question_pattern, rel).combined, rel))


def enumerate_spans(
    start_logits: np.ndarray,
    end_logits: np.ndarray,
    max_span_len: int,
    doc_id: int,
    tokens: list[str],
) -> list[SpanPrediction]:
    """All spans up to max_span_len, best raw score first, ties by start then end:
    the oracle for `reader.best_spans`."""
    n = len(tokens)
    spans = []
    for i in range(n):
        for j in range(i, min(i + max_span_len, n)):
            spans.append(SpanPrediction(
                doc_id, i, j,
                float(start_logits[i] + end_logits[j]),
                " ".join(tokens[i : j + 1]),
            ))
    spans.sort(key=lambda s: (-s.raw_score, s.start, s.end))
    return spans


def mha_forward(params, prefix: str, x: np.ndarray, heads: int) -> tuple[np.ndarray, dict]:
    """Multi-head self-attention over one sequence x [n, d], one head at a
    time: the oracle for the batched heads of `nn.transformer_encoder_layer`."""
    g = lambda n: params[prefix + n]
    n, d = x.shape
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    Qh = (x @ g("Wq").T + g("bq")).reshape(n, heads, dh)
    Kh = (x @ g("Wk").T).reshape(n, heads, dh)
    Vh = (x @ g("Wv").T + g("bv")).reshape(n, heads, dh)
    A = np.empty((heads, n, n), dtype=np.float64)
    Oh = np.empty((n, heads, dh), dtype=np.float64)
    for h in range(heads):
        scores = Qh[:, h] @ Kh[:, h].T * scale
        A[h] = nn.softmax(scores, axis=-1)
        Oh[:, h] = A[h] @ Vh[:, h]
    O = Oh.reshape(n, d)
    out = O @ g("Wo").T + g("bo")
    cache = {"x": x, "Qh": Qh, "Kh": Kh, "Vh": Vh, "A": A, "O": O, "heads": heads, "dh": dh, "scale": scale}
    return out, cache


def mha_backward(params, prefix: str, cache: dict, grad_out: np.ndarray) -> tuple[nn.Grads, np.ndarray]:
    """The gradients of `mha_forward`, one head at a time."""
    g = lambda name: params[prefix + name]
    x, Qh, Kh, Vh, A, O = cache["x"], cache["Qh"], cache["Kh"], cache["Vh"], cache["A"], cache["O"]
    heads, dh, scale = cache["heads"], cache["dh"], cache["scale"]
    n, d = x.shape
    grads = {prefix + "Wo": grad_out.T @ O, prefix + "bo": grad_out.sum(axis=0)}
    dO = (grad_out @ g("Wo")).reshape(n, heads, dh)
    dQ = np.empty_like(Qh)
    dK = np.empty_like(Kh)
    dV = np.empty_like(Vh)
    for h in range(heads):
        dA = dO[:, h] @ Vh[:, h].T
        dV[:, h] = A[h].T @ dO[:, h]
        dS = nn.softmax_backward(A[h], dA, axis=-1)
        dQ[:, h] = dS @ Kh[:, h] * scale
        dK[:, h] = dS.T @ Qh[:, h] * scale
    dx = np.zeros_like(x)
    for name, dmat in (("Wq", dQ.reshape(n, d)), ("Wk", dK.reshape(n, d)), ("Wv", dV.reshape(n, d))):
        grads[prefix + name] = dmat.T @ x
        if name != "Wk":
            grads[prefix + "b" + name[1]] = dmat.sum(axis=0)
        dx += dmat @ g(name)
    return grads, dx
