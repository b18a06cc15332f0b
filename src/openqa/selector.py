"""Transformer answer-selection head.

Each candidate answer is spliced with the question into one sequence; all
of a question's sequences are encoded by the transformer stack in one pass,
as a zero-padded batch under a key mask, each is scored from its leading
position by a linear head, and the scores are softmaxed across candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .answers import AnswerCandidate
from .errors import BadExample, EmptyInput, NoCandidates
from .hyper import Hyper
from .jsonl import int_field, read_json_lines, text_field, text_list
from .text import CLS, SEP, Vocabulary, encode, tokenize

MAX_LEN = 64


@dataclass
class SelectorModel:
    params: nn.ModelParameters
    vocab: Vocabulary

    @property
    def heads(self) -> int:
        return self.params.arch["heads"]

    @property
    def layers(self) -> int:
        return self.params.arch["layers"]


@dataclass(frozen=True)
class SelectionResult:
    probabilities: tuple[float, ...]
    chosen: int
    answer: AnswerCandidate


def init_selector(vocab_size: int, hyper: Hyper, draw: bool = True) -> nn.ModelParameters:
    params = nn.ModelParameters(hyper.seed, {
        "kind": "selector", "d": hyper.d, "heads": hyper.heads,
        "layers": hyper.layers, "vocab": vocab_size,
    }, draw)
    params.add("emb", (vocab_size, hyper.d))
    params.add("pos", (MAX_LEN, hyper.d))
    for layer in range(hyper.layers):
        nn.init_transformer_layer(params, f"enc{layer}.", hyper.d, hyper.heads)
    params.add("head_W", (1, hyper.d))
    params.add_zeros("head_b", (1,))
    return params


def build_sequence(question: str, answer: str, vocab: Vocabulary) -> list[int]:
    """[CLS] question [SEP] answer [SEP], truncated to 64 ids.

    Truncation drops question-tail tokens first, then answer-tail tokens.
    """
    if not question or not answer:
        raise EmptyInput("question and answer must be non-empty")
    q_ids = encode(vocab, tokenize(question).tokens)
    a_ids = encode(vocab, tokenize(answer).tokens)
    overflow = 3 + len(q_ids) + len(a_ids) - MAX_LEN
    if overflow > 0:
        cut = min(overflow, len(q_ids))
        q_ids = q_ids[: len(q_ids) - cut]
        overflow -= cut
        if overflow > 0:
            a_ids = a_ids[: len(a_ids) - overflow]
    return [CLS] + q_ids + [SEP] + a_ids + [SEP]


def _forward(model: SelectorModel, seqs: list[list[int]]):
    """Scores of the sequences, encoded together as one zero-padded, key-masked batch."""
    params = model.params
    lengths = np.array([len(ids) for ids in seqs])
    mask = np.arange(lengths.max()) < lengths[:, None]
    ids = [i for seq in seqs for i in seq]
    x = np.zeros(mask.shape + (params["emb"].shape[1],))
    x[mask] = nn.embedding_lookup(params["emb"], ids) + params["pos"][np.nonzero(mask)[1]]
    caches = []
    for layer in range(model.layers):
        x, cache = nn.transformer_encoder_layer(params, f"enc{layer}.", x, model.heads, mask)
        caches.append(cache)
    # one [1, d] @ [d, 1] product per sequence: a single matrix-vector product
    # over the batch rounds by row position, and equal sequences must tie
    scores = (params["head_W"] @ x[:, 0, :, None] + params["head_b"])[:, 0, 0]
    return scores, {"ids": ids, "mask": mask, "caches": caches, "top": x}


def _backward(model: SelectorModel, cache, d_scores: np.ndarray) -> nn.Grads:
    params = model.params
    top = cache["top"]
    grads: nn.Grads = {
        "head_W": (d_scores @ top[:, 0]).reshape(1, -1),
        "head_b": np.array([d_scores.sum()]),
    }
    dx = np.zeros_like(top)
    dx[:, 0] = np.outer(d_scores, params["head_W"][0])
    for layer_cache in reversed(cache["caches"]):
        layer_grads, dx = nn.transformer_encoder_layer_backward(params, layer_cache, dx)
        nn.accumulate(grads, layer_grads)
    grads["emb"] = nn.embedding_backward(dx[cache["mask"]], cache["ids"], params["emb"].shape[0])
    grads["pos"] = np.pad(dx.sum(axis=0), ((0, params["pos"].shape[0] - dx.shape[1]), (0, 0)))
    return grads


def select(model: SelectorModel, question: str, candidates: list[AnswerCandidate]) -> SelectionResult:
    """Softmax over the candidates' sequence scores; argmax wins (lowest index on ties)."""
    if not candidates:
        raise NoCandidates("selector needs at least one candidate")
    scores, _ = _forward(model, [build_sequence(question, c.answer, model.vocab) for c in candidates])
    probs = nn.softmax(scores)
    chosen = int(np.argmax(probs))
    return SelectionResult(tuple(float(p) for p in probs), chosen, candidates[chosen])


def load_selector_data(path: str) -> list[tuple[str, list[str], int]]:
    """JSON Lines: {"question": str, "candidates": [str], "gold": int}."""
    return read_json_lines(path, lambda obj: (text_field(obj, "question"), text_list(obj, "candidates"),
                                              int_field(obj, "gold")))


def train_selector(dataset: list[tuple[str, list[str], int]], hyper: Hyper, vocab: Vocabulary) -> SelectorModel:
    """Online SGD on cross entropy over the per-example candidate softmax."""
    encoded = []
    for idx, (question, cands, gold) in enumerate(dataset):
        if not question or not all(cands):
            raise BadExample(idx, "question and candidates must be non-empty")
        if len(cands) < 2:
            raise BadExample(idx, "at least two candidates required")
        if not 0 <= gold < len(cands):
            raise BadExample(idx, "gold index outside candidate list")
        encoded.append(([build_sequence(question, a, vocab) for a in cands], gold))
    model = SelectorModel(init_selector(vocab.size, hyper), vocab)

    def step(example):
        seqs, gold = example
        scores, cache = _forward(model, seqs)
        loss, d_scores = nn.softmax_cross_entropy(scores, gold)
        return loss, _backward(model, cache, d_scores)

    nn.fit(model.params, encoded, step, hyper.epochs, hyper.lr)
    return model
