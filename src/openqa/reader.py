"""Extractive span reader over retrieved passages.

One forward, `_forward`, serves answering and training: it encodes the
question once and a list of passages as one padded batch (training passes
one passage). Each passage is scored independently; span scores stay in
raw log space so they are comparable across passages, and the global
answer is the argmax over every passage's best span.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from . import nn
from .answers import SOLVER_RR, AnswerCandidate
from .errors import BadExample
from .hyper import Hyper
from .jsonl import int_field, read_json_lines, text_field
from .retrieval import KIND_PASSAGE, RetrievalResult
from .text import Vocabulary, encode, tokenize

MAX_SPAN_LEN = 15
TOP_K_PASSAGES = 10


@dataclass(frozen=True)
class SpanPrediction:
    passage_doc_id: int
    start: int
    end: int  # inclusive
    raw_score: float
    text: str


@dataclass
class ReaderModel:
    params: nn.ModelParameters
    vocab: Vocabulary


def init_reader(vocab_size: int, hyper: Hyper, draw: bool = True) -> nn.ModelParameters:
    params = nn.ModelParameters(hyper.seed, {"kind": "reader", "d": hyper.d, "h": hyper.h, "vocab": vocab_size}, draw)
    params.add("emb", (vocab_size, hyper.d))
    nn.init_bidirectional(params, "q.", "gru", hyper.d, hyper.h)
    params.add("q_pool", (2 * hyper.h,), fan_in=2 * hyper.h, fan_out=2 * hyper.h)
    nn.init_bidirectional(params, "p.", "gru", hyper.d, hyper.h)
    params.add("W_s", (2 * hyper.h, 2 * hyper.h))
    params.add("W_e", (2 * hyper.h, 2 * hyper.h))
    return params


def _encode_question(params: nn.ModelParameters, q_ids: list[int]):
    """Question side: the start/end query vectors v_s, v_e and the cache."""
    q_emb = nn.embedding_lookup(params["emb"], q_ids)
    q_states, q_bi = nn.bidirectional_encode("gru", params, "q.", q_emb)
    q_vec, _, q_att = nn.attention(params["q_pool"], q_states, q_states)
    v_s = params["W_s"] @ q_vec
    v_e = params["W_e"] @ q_vec
    return v_s, v_e, {"q_ids": q_ids, "q_bi": q_bi, "q_att": q_att, "q_vec": q_vec, "v_s": v_s, "v_e": v_e}


def _forward(params: nn.ModelParameters, q_ids: list[int], passages: list[list[int]]):
    """Start and end logits [P, L] of the passages' ids: the question is encoded
    once, the passages together as one zero-padded batch (one embedding lookup
    over all their ids), and each logit is a position's state dotted with v_s
    or v_e. Positions past a passage's length hold finite padding."""
    v_s, v_e, cache = _encode_question(params, q_ids)
    p_ids = [i for ids in passages for i in ids]
    embedded = nn.embedding_lookup(params["emb"], p_ids)
    xs = [embedded[end - len(ids) : end] for ids, end in zip(passages, accumulate(map(len, passages)))]
    p_states, p_bi = nn.bidirectional_encode_batch("gru", params, "p.", xs)
    cache.update({"p_ids": p_ids, "p_bi": p_bi, "p_states": p_states})
    return p_states @ v_s, p_states @ v_e, cache


def _backward(params: nn.ModelParameters, cache, d_start: np.ndarray, d_end: np.ndarray) -> nn.Grads:
    """Gradients from upstream [P, L] grads on `_forward`'s logits; padded
    positions' grads are dropped, and only real positions reach the embeddings."""
    p_states, q_vec = cache["p_states"], cache["q_vec"]
    v_s, v_e = cache["v_s"], cache["v_e"]

    dH = d_start[..., None] * v_s + d_end[..., None] * v_e
    states = p_states.reshape(-1, p_states.shape[-1])
    dv_s = states.T @ d_start.reshape(-1)
    dv_e = states.T @ d_end.reshape(-1)
    grads: nn.Grads = {
        "W_s": np.outer(dv_s, q_vec),
        "W_e": np.outer(dv_e, q_vec),
    }
    dq_vec = params["W_s"].T @ dv_s + params["W_e"].T @ dv_e

    p_bi_grads, dp_emb = nn.bidirectional_backward(params, cache["p_bi"], dH)
    nn.accumulate(grads, p_bi_grads)

    dq_pool, dKq, dVq = nn.attention_backward(cache["q_att"], dq_vec)
    grads["q_pool"] = dq_pool
    q_bi_grads, dq_emb = nn.bidirectional_backward(params, cache["q_bi"], dKq + dVq)
    nn.accumulate(grads, q_bi_grads)

    vocab_size = params["emb"].shape[0]
    demb = nn.embedding_backward(dp_emb[cache["p_bi"]["mask"].T], cache["p_ids"], vocab_size)
    demb += nn.embedding_backward(dq_emb, cache["q_ids"], vocab_size)
    nn.accumulate(grads, {"emb": demb})
    return grads


def _question_tokens(question: str) -> list[str]:
    return list(tokenize(question).tokens) or ["<unk>"]


def best_spans(
    start_logits: np.ndarray,
    end_logits: np.ndarray,
    max_span_len: int,
    passages: list[tuple[int, Sequence[str]]],
) -> list[SpanPrediction]:
    """The best span of at most max_span_len tokens for every row of a padded
    batch, by raw score start + end, without enumerating the spans: one banded
    argmax over the [P, L] logits.

    Row p holds passage p, (doc_id, tokens); its logits past len(tokens)
    are finite padding. Row p, position i, column w of the band holds
    start[p, i] + end[p, i + w] for w < max_span_len, and -inf where the
    end lies past the passage, as it does for every start past it. Each
    row's row-major argmax takes the first maximum, so ties go to the
    smallest start and then the smallest end.
    """
    P, L = start_logits.shape
    past = np.arange(L) >= np.array([len(tokens) for _, tokens in passages])[:, None]
    end = np.concatenate([np.where(past, -np.inf, end_logits), np.full((P, max_span_len - 1), -np.inf)], axis=1)
    band = start_logits[:, :, None] + np.lib.stride_tricks.sliding_window_view(end, max_span_len, axis=1)
    band = band.reshape(P, -1)
    best = band.argmax(axis=1)
    spans = []
    for (doc_id, tokens), k, score in zip(passages, best.tolist(), band[np.arange(P), best].tolist()):
        i, w = divmod(k, max_span_len)
        spans.append(SpanPrediction(doc_id, i, i + w, score, " ".join(tokens[i : i + w + 1])))
    return spans


def read(
    model: ReaderModel,
    question: str,
    results: list[RetrievalResult],
) -> list[AnswerCandidate]:
    """Best span per passage; confidences are a softmax over raw scores.

    The passages are those of the first TOP_K_PASSAGES passage-kind results
    that have a token. One `_forward` encodes the question once and the
    passages as one padded batch, and one banded argmax over its logits
    takes every passage's best span (`best_spans`)."""
    docs = [r.doc for r in results if r.doc.kind == KIND_PASSAGE][:TOP_K_PASSAGES]
    passages = [(doc.doc_id, tokenize(doc.value_field).tokens) for doc in docs]
    passages = [(doc_id, tokens) for doc_id, tokens in passages if tokens]
    if not passages:
        return []
    q_ids = encode(model.vocab, _question_tokens(question))
    # [:2]: the encoder caches are dropped at once
    start, end = _forward(model.params, q_ids, [encode(model.vocab, tokens) for _, tokens in passages])[:2]
    spans = best_spans(start, end, MAX_SPAN_LEN, passages)
    confidences = nn.softmax(np.array([s.raw_score for s in spans]))
    candidates = [
        AnswerCandidate(span.text, float(conf), SOLVER_RR,
                        provenance=f"doc={span.passage_doc_id} span=({span.start},{span.end})")
        for span, conf in zip(spans, confidences)
    ]
    candidates.sort(key=lambda c: (-c.confidence, c.provenance))
    return candidates


def load_reader_data(path: str) -> list[tuple[str, str, int, int]]:
    """JSON Lines: question, passage, answer_start_token, answer_end_token."""
    return read_json_lines(path, lambda obj: (text_field(obj, "question"), text_field(obj, "passage"),
                                              int_field(obj, "answer_start_token"), int_field(obj, "answer_end_token")))


def train_reader(dataset: list[tuple[str, str, int, int]], hyper: Hyper, vocab: Vocabulary) -> ReaderModel:
    """Online SGD on start + end cross entropy over gold span boundaries."""
    encoded = []
    for idx, (question, passage, gs, ge) in enumerate(dataset):
        q_tokens = list(tokenize(question).tokens)
        if not q_tokens:
            raise BadExample(idx, "question has no tokens")
        p_tokens = list(tokenize(passage).tokens)
        if not (0 <= gs <= ge < len(p_tokens)):
            raise BadExample(idx, "gold span outside passage")
        encoded.append((encode(vocab, q_tokens), encode(vocab, p_tokens), gs, ge))
    params = init_reader(vocab.size, hyper)

    def step(example):
        q_ids, p_ids, gs, ge = example
        start, end, cache = _forward(params, q_ids, [p_ids])
        loss_s, d_start = nn.softmax_cross_entropy(start[0], gs)
        loss_e, d_end = nn.softmax_cross_entropy(end[0], ge)
        return loss_s + loss_e, _backward(params, cache, d_start[None], d_end[None])

    return ReaderModel(nn.fit(params, encoded, step, hyper.epochs, hyper.lr), vocab)
