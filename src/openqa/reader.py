"""Extractive span reader over retrieved passages.

Each passage is scored independently; span scores stay in raw log space
so they are comparable across passages, and the global answer is the
argmax over every passage's best span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .answers import SOLVER_RR, AnswerCandidate
from .errors import SpanOutOfRange
from .hyper import Hyper
from .jsonl import read_json_lines
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


def init_reader(vocab_size: int, hyper: Hyper) -> nn.ModelParameters:
    params = nn.ModelParameters(hyper.seed, {"kind": "reader", "d": hyper.d, "h": hyper.h, "vocab": vocab_size})
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


def _encode_passage(params: nn.ModelParameters, p_ids: list[int]):
    p_emb = nn.embedding_lookup(params["emb"], p_ids)
    return nn.bidirectional_encode("gru", params, "p.", p_emb)


def _forward(params: nn.ModelParameters, q_ids: list[int], p_ids: list[int]):
    v_s, v_e, cache = _encode_question(params, q_ids)
    p_states, p_bi = _encode_passage(params, p_ids)
    start_logits = p_states @ v_s
    end_logits = p_states @ v_e
    cache.update({"p_ids": p_ids, "p_bi": p_bi, "p_states": p_states})
    return start_logits, end_logits, cache


def _backward(params: nn.ModelParameters, cache, d_start: np.ndarray, d_end: np.ndarray) -> nn.Grads:
    p_states, q_vec = cache["p_states"], cache["q_vec"]
    v_s, v_e = cache["v_s"], cache["v_e"]

    dH = np.outer(d_start, v_s) + np.outer(d_end, v_e)
    dv_s = p_states.T @ d_start
    dv_e = p_states.T @ d_end
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
    demb = nn.embedding_backward(dp_emb, cache["p_ids"], vocab_size)
    demb += nn.embedding_backward(dq_emb, cache["q_ids"], vocab_size)
    nn.accumulate(grads, {"emb": demb})
    return grads


def _question_tokens(question: str) -> list[str]:
    return list(tokenize(question).tokens) or ["<unk>"]


def enumerate_spans(
    start_logits: np.ndarray,
    end_logits: np.ndarray,
    max_span_len: int,
    doc_id: int,
    tokens: list[str],
) -> list[SpanPrediction]:
    """All spans up to max_span_len, best raw score first."""
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


def best_span(
    start_logits: np.ndarray,
    end_logits: np.ndarray,
    max_span_len: int,
    doc_id: int,
    tokens: list[str],
) -> SpanPrediction:
    """`enumerate_spans(...)[0]` without enumerating: a banded argmax.

    Row i, column w of the band holds start[i] + end[i + w] for
    w < max_span_len, and -inf past the passage end. The row-major argmax
    takes the first maximum, that is the smallest start and then the
    smallest end, which is `enumerate_spans`' tie-break.
    """
    n = len(tokens)
    padded_end = np.concatenate([end_logits, np.full(max_span_len - 1, -np.inf)])
    band = start_logits[:, None] + np.lib.stride_tricks.sliding_window_view(padded_end, max_span_len)[:n]
    i, w = divmod(int(np.argmax(band)), max_span_len)
    return SpanPrediction(doc_id, i, i + w, float(band[i, w]), " ".join(tokens[i : i + w + 1]))


def read(
    model: ReaderModel,
    question: str,
    results: list[RetrievalResult],
) -> list[AnswerCandidate]:
    """Best span per passage; confidences are a softmax over raw scores.

    The question is encoded once and shared by every passage; the
    passages are encoded together, as one padded batch."""
    docs = [r.doc for r in results if r.doc.kind == KIND_PASSAGE][:TOP_K_PASSAGES]
    passages = [(doc.doc_id, list(tokenize(doc.value_field).tokens)) for doc in docs]
    passages = [(doc_id, tokens) for doc_id, tokens in passages if tokens]
    if not passages:
        return []
    v_s, v_e = _encode_question(model.params, encode(model.vocab, _question_tokens(question)))[:2]
    embedded = [nn.embedding_lookup(model.params["emb"], encode(model.vocab, tokens)) for _, tokens in passages]
    # [0]: the batch's encoder cache is dropped at once
    p_states = nn.bidirectional_encode_batch("gru", model.params, "p.", embedded)[0]
    best_spans = [best_span(start[:len(tokens)], end[:len(tokens)], MAX_SPAN_LEN, doc_id, tokens)
                  for (doc_id, tokens), start, end in zip(passages, p_states @ v_s, p_states @ v_e)]
    confidences = nn.softmax(np.array([s.raw_score for s in best_spans]))
    candidates = [
        AnswerCandidate(span.text, float(conf), SOLVER_RR,
                        provenance=f"doc={span.passage_doc_id} span=({span.start},{span.end})")
        for span, conf in zip(best_spans, confidences)
    ]
    candidates.sort(key=lambda c: (-c.confidence, c.provenance))
    return candidates


def load_reader_data(path: str) -> list[tuple[str, str, int, int]]:
    """JSON Lines: question, passage, answer_start_token, answer_end_token."""
    return read_json_lines(path, lambda obj: (obj["question"], obj["passage"],
                                              int(obj["answer_start_token"]), int(obj["answer_end_token"])))


def train_reader(dataset: list[tuple[str, str, int, int]], hyper: Hyper, vocab: Vocabulary) -> ReaderModel:
    """SGD on start + end cross entropy over gold span boundaries."""
    encoded = []
    for idx, (question, passage, gs, ge) in enumerate(dataset):
        p_tokens = list(tokenize(passage).tokens)
        if not (0 <= gs <= ge < len(p_tokens)):
            raise SpanOutOfRange(idx)
        q_tokens = list(tokenize(question).tokens)
        encoded.append((encode(vocab, q_tokens), encode(vocab, p_tokens), gs, ge))

    params = init_reader(vocab.size, hyper)
    losses: list[float] = []
    for _ in range(hyper.epochs):
        epoch_loss = 0.0
        for q_ids, p_ids, gs, ge in encoded:
            start, end, cache = _forward(params, q_ids, p_ids)
            loss_s, d_start = nn.softmax_cross_entropy(start, gs)
            loss_e, d_end = nn.softmax_cross_entropy(end, ge)
            epoch_loss += loss_s + loss_e
            nn.sgd_step(params, _backward(params, cache, d_start, d_end), hyper.lr)
        losses.append(epoch_loss)
    params.arch["epoch_losses"] = losses
    return ReaderModel(params, vocab)
