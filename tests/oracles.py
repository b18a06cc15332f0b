"""Slow reference versions of fast program paths, kept only as test oracles.

Each computes its result one item at a time, straight from the formula,
so the tests can compare the program's batched or precomputed path with
it on seeded random inputs.
"""

import math

import numpy as np

from openqa import nn
from openqa.answers import SOLVER_SP, AnswerCandidate
from openqa.kb import KnowledgeBase, ObjectUnknown, SparqlQuery, execute_sparql, serialize_sparql
from openqa.ld_solver import _encode_side, _relation_tokens
from openqa.reader import SpanPrediction, _forward as reader_forward, _question_tokens
from openqa.retrieval import B, K1, SUBJECT_BOOST, InvertedIndex
from openqa.selector import _forward as selector_forward
from openqa.sp_solver import DICTIONARY_CONFIDENCE, TEMPLATE_CAPTURE_CONFIDENCE, QuestionTemplate
from openqa.text import EntityDictionary, dictionary_key, encode, normalize, tokenize


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
    """The text's tokens with the dictionary keys among them merged, by
    trying the windows at every position: the longest window of tokens,
    joined by one space, that is a dictionary key becomes one token, else
    the position's own token does (`EntityDictionary.find`'s oracle)."""
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


def recognize_subjects(question: str, dictionary: EntityDictionary,
                       templates: list[QuestionTemplate]) -> list[tuple[str, float]]:
    """(entity, confidence) of the question's subjects, best first, ties by
    name: the dictionary keys among its tokens (1.0), then the template
    captures that are keys (0.8); an entity keeps its first best."""
    found: dict[str, float] = {}

    def offer(entity: str, confidence: float):
        if entity not in found or confidence > found[entity]:
            found[entity] = confidence

    for token in merge_entries(question, dictionary):
        if token in dictionary.entries:
            offer(dictionary.entries[token], DICTIONARY_CONFIDENCE)
    norm_q = normalize(question)
    for tpl in templates:
        if tpl.subject_group is None:
            continue
        m = tpl.regex.search(norm_q)
        if m and m.group(tpl.subject_group) is not None:
            entity = dictionary.entries.get(dictionary_key(m.group(tpl.subject_group)))
            if entity is not None:
                offer(entity, TEMPLATE_CAPTURE_CONFIDENCE)
    return sorted(found.items(), key=lambda item: (-item[1], item[0]))


def recognize_predicates(question: str, templates: list[QuestionTemplate]) -> list[tuple[str, float]]:
    """(predicate, confidence) of every template that matches the normalized
    question, each predicate at its first best, best first, ties by name."""
    norm_q = normalize(question)
    found: dict[str, float] = {}
    for tpl in templates:
        if tpl.regex.search(norm_q) and (tpl.predicate not in found or tpl.confidence > found[tpl.predicate]):
            found[tpl.predicate] = tpl.confidence
    return sorted(found.items(), key=lambda item: (-item[1], item[0]))


def generate_queries(subjects: list[tuple[str, float]],
                     predicates: list[tuple[str, float]]) -> list[tuple[SparqlQuery, float]]:
    """Every (subject, predicate) object-unknown query, subjects-major, with
    the product of the two confidences."""
    return [(SparqlQuery("x", ObjectUnknown(s, p)), s_conf * p_conf)
            for s, s_conf in subjects for p, p_conf in predicates]


def solve_sp_staged(question: str, kb: KnowledgeBase, dictionary: EntityDictionary,
                    templates: list[QuestionTemplate]) -> list[AnswerCandidate]:
    """`sp_solver.solve_sp` in stages, each reading the question itself:
    subjects, then predicates, then their queries, each executed; a query's
    confidence is divided among its bindings, and an answer keeps the
    first of its best."""
    best: dict[str, AnswerCandidate] = {}
    queries = generate_queries(recognize_subjects(question, dictionary, templates),
                               recognize_predicates(question, templates))
    for query, combined in queries:
        bindings = execute_sparql(kb, query)
        for b in bindings:
            cand = AnswerCandidate(b, combined / len(bindings), SOLVER_SP, provenance=serialize_sparql(query))
            if b not in best or cand.confidence > best[b].confidence:
                best[b] = cand
    return sorted(best.values(), key=lambda c: (-c.confidence, c.answer))


def full_parse_staged(question: str, kb: KnowledgeBase, dictionary: EntityDictionary,
                      templates: list[QuestionTemplate]) -> bool:
    """Whether some template matches the normalized question with a capture
    that is itself a dictionary key, and the query on that entity and the
    template's predicate has bindings (`SpAnswers.full_parse`'s oracle)."""
    norm_q = normalize(question)
    for tpl in templates:
        m = tpl.regex.search(norm_q)
        capture = m and tpl.subject_group is not None and m.group(tpl.subject_group)
        entity = capture and dictionary.entries.get(dictionary_key(capture))
        if entity and execute_sparql(kb, SparqlQuery("x", ObjectUnknown(entity, tpl.predicate))):
            return True
    return False


def predict_logits(model: nn.Model, question: str, passage_tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Raw, per-position start/end scores of one passage (no per-passage normalization)."""
    start, end, _ = reader_forward(model.params, encode(model.vocab, _question_tokens(question)),
                                   [encode(model.vocab, passage_tokens)])
    return start[0], end[0]


def score_sequence(model: nn.Model, ids: list[int]) -> float:
    """The selector's score of one sequence, encoded alone: a batch of one."""
    scores, _ = selector_forward(model.params, [ids])
    return float(scores[0])


def score_from_scratch(scorer: nn.Model, pattern: list[str], relation: str) -> float:
    """How well `relation` fits the question pattern, with both sides encoded
    from their tokens: the mean of the cosines of their CNN and of their
    BiGRU vectors."""
    p_cnn, p_gru, _ = _encode_side(scorer.params, encode(scorer.vocab, pattern))
    r_cnn, r_gru, _ = _encode_side(scorer.params, encode(scorer.vocab, _relation_tokens(relation)))
    return 0.5 * nn.cosine(p_cnn, r_cnn) + 0.5 * nn.cosine(p_gru, r_gru)


def detect_relation(scorer: nn.Model, question_pattern: list[str], candidates: list[str]) -> str:
    """The candidate relation with the best combined score; ties go to the smallest string."""
    return min(candidates,
               key=lambda rel: (-score_from_scratch(scorer, question_pattern, rel), rel))


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
