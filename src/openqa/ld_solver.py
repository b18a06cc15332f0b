"""Neural KB solver: BiLSTM BIO tagging, Levenshtein entity linking, and
joint attentive-CNN / attentive-BiGRU relation scoring.

The tagger marks the entity mention in the question as a word span; the
mention's words are linked to the closest dictionary entries by edit
distance; the question pattern (the span replaced by a placeholder) is
scored against each candidate relation by two encoders whose
attention-pooled features are compared by cosine similarity. The tagger
and the scorer arrive as `nn.Model`s, each bound to the vocabulary whose
ids it reads; training takes the vocabulary and returns bare parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import nn
from .answers import SOLVER_LD, AnswerCandidate
from .errors import BadExample
from .hyper import Hyper
from .jsonl import read_json_lines, text_field, text_list
from .kb import KnowledgeBase
from .text import EntityDictionary, Vocabulary, edit_distances, encode, normalize, tokenize

TAGS = ("B", "I", "O")  # index order doubles as the argmax tie-break
PLACEHOLDER = "<e>"
CONV_WIDTH = 3
HINGE_MARGIN = 0.2
MAX_LINK_DISTANCE = 2


@dataclass(frozen=True)
class EntityCandidate:
    entity: str
    distance: int


# ---------------------------------------------------------------------------
# tagger
# ---------------------------------------------------------------------------

def init_tagger(vocab_size: int, hyper: Hyper, draw: bool = True) -> nn.ModelParameters:
    params = nn.ModelParameters(hyper.seed, {"kind": "tagger", "d": hyper.d, "h": hyper.h, "vocab": vocab_size}, draw)
    params.add("emb", (vocab_size, hyper.d))
    nn.init_bidirectional(params, "lstm.", "lstm", hyper.d, hyper.h)
    params.add("out_W", (len(TAGS), 2 * hyper.h))
    params.add_zeros("out_b", (len(TAGS),))
    return params


def _tagger_logits(params: nn.ModelParameters, ids: list[int]):
    emb = nn.embedding_lookup(params["emb"], ids)
    states, bi_cache = nn.bidirectional_encode("lstm", params, "lstm.", emb)
    logits, lin_cache = nn.linear_forward(params["out_W"], params["out_b"], states)
    return logits, (ids, bi_cache, lin_cache)


def _tagger_backward(params: nn.ModelParameters, cache, grad_logits: np.ndarray) -> nn.Grads:
    ids, bi_cache, lin_cache = cache
    gW, gb, gstates = nn.linear_backward(grad_logits, lin_cache)
    grads: nn.Grads = {"out_W": gW, "out_b": gb}
    bi_grads, gemb = nn.bidirectional_backward(params, bi_cache, gstates)
    nn.accumulate(grads, bi_grads)
    grads["emb"] = nn.embedding_backward(gemb, ids, params["emb"].shape[0])
    return grads


def repair_bio(tags: list[str]) -> list[str]:
    """An I at sequence start or after O is reinterpreted as B."""
    out: list[str] = []
    for i, t in enumerate(tags):
        if t == "I" and (i == 0 or out[-1] == "O"):
            out.append("B")
        else:
            out.append(t)
    return out


def tag_entities(tagger: nn.Model, tokens: Sequence[str]) -> tuple[str, ...]:
    """BIO tags of a question's tokens (at least one), as `tokenize` gives them."""
    logits, _ = _tagger_logits(tagger.params, encode(tagger.vocab, tokens))
    raw = [TAGS[i] for i in logits.argmax(axis=1)]
    return tuple(repair_bio(raw))


def _best_run(tags) -> tuple[int, int] | None:
    """Longest contiguous B/I run as the span (start, stop); earliest wins ties."""
    best = None
    i = 0
    n = len(tags)
    while i < n:
        if tags[i] == "O":
            i += 1
            continue
        j = i
        while j + 1 < n and tags[j + 1] != "O":
            j += 1
        if best is None or (j + 1 - i) > (best[1] - best[0]):
            best = (i, j + 1)
        i = j + 1
    return best


def link_entity(mention: str, dictionary: EntityDictionary) -> list[EntityCandidate]:
    """Dictionary entries within MAX_LINK_DISTANCE edits of the normalized mention.

    The edit distance is at least the difference in length, so only the
    keys whose length is within MAX_LINK_DISTANCE of the mention's can match.
    They are one contiguous block of the dictionary's length-sorted keys,
    and one edit_distances call compares the mention with all of them,
    reading no column past the longest key that can match."""
    if not mention:
        return []
    norm = normalize(mention)
    m = len(norm)
    lo = int(np.searchsorted(dictionary.key_lengths, m - MAX_LINK_DISTANCE, side="left"))
    hi = int(np.searchsorted(dictionary.key_lengths, m + MAX_LINK_DISTANCE, side="right"))
    if lo >= hi:
        return []
    distances = edit_distances(norm, dictionary.key_codes[lo:hi, : m + MAX_LINK_DISTANCE], dictionary.key_lengths[lo:hi])
    out = [
        EntityCandidate(dictionary.entries[dictionary.keys_by_length[lo + r]], int(distances[r]))
        for r in np.flatnonzero(distances <= MAX_LINK_DISTANCE)
    ]
    return sorted(out, key=lambda c: (c.distance, -len(c.entity), c.entity))


# ---------------------------------------------------------------------------
# relation scorer
# ---------------------------------------------------------------------------

def init_relation_scorer(vocab_size: int, hyper: Hyper, draw: bool = True) -> nn.ModelParameters:
    params = nn.ModelParameters(hyper.seed, {"kind": "relation_scorer", "d": hyper.d, "h": hyper.h, "vocab": vocab_size},
                                draw)
    params.add("emb", (vocab_size, hyper.d))
    params.add("cnn.F", (hyper.d, CONV_WIDTH, hyper.d))
    params.add("cnn.q", (hyper.d,), fan_in=hyper.d, fan_out=hyper.d)
    nn.init_bidirectional(params, "gru.", "gru", hyper.d, hyper.h)
    params.add("gru.q", (2 * hyper.h,), fan_in=2 * hyper.h, fan_out=2 * hyper.h)
    return params


def _encode_side(params: nn.ModelParameters, ids: list[int]):
    """Attention-pooled CNN and BiGRU feature vectors for one token list."""
    emb = nn.embedding_lookup(params["emb"], ids)
    pre, conv_cache = nn.conv1d_forward(params["cnn.F"], emb)
    feats = np.tanh(pre)
    cnn_vec, _, cnn_att = nn.attention(params["cnn.q"], feats, feats)
    states, bi_cache = nn.bidirectional_encode("gru", params, "gru.", emb)
    gru_vec, _, gru_att = nn.attention(params["gru.q"], states, states)
    cache = {"ids": ids, "feats": feats, "conv": conv_cache, "cnn_att": cnn_att,
             "bi": bi_cache, "gru_att": gru_att}
    return cnn_vec, gru_vec, cache


def _encode_side_backward(params: nn.ModelParameters, cache, d_cnn: np.ndarray, d_gru: np.ndarray) -> nn.Grads:
    dq_cnn, dK, dV = nn.attention_backward(cache["cnn_att"], d_cnn)
    dfeats = dK + dV
    dpre = dfeats * (1.0 - cache["feats"] ** 2)
    dF, demb1 = nn.conv1d_backward(dpre, cache["conv"])

    dq_gru, dKg, dVg = nn.attention_backward(cache["gru_att"], d_gru)
    bi_grads, demb2 = nn.bidirectional_backward(params, cache["bi"], dKg + dVg)

    grads: nn.Grads = {"cnn.F": dF, "cnn.q": dq_cnn, "gru.q": dq_gru}
    nn.accumulate(grads, bi_grads)
    grads_emb = nn.embedding_backward(demb1 + demb2, cache["ids"], params["emb"].shape[0])
    nn.accumulate(grads, {"emb": grads_emb})
    return grads


def _relation_tokens(relation: str) -> list[str]:
    return list(tokenize(relation.replace("_", " ")).tokens)


def _score_backward(params: nn.ModelParameters, pattern, relation, d_score: float) -> nn.Grads:
    """Gradient of the score 0.5*cnn + 0.5*gru (see `score_relation`) through
    both encoders, from the pattern's and the relation's `_encode_side` results."""
    (p_cnn, p_gru, p_cache), (r_cnn, r_gru, r_cache) = pattern, relation
    dp_cnn, dr_cnn = nn.cosine_backward(p_cnn, r_cnn, 0.5 * d_score)
    dp_gru, dr_gru = nn.cosine_backward(p_gru, r_gru, 0.5 * d_score)
    grads = _encode_side_backward(params, p_cache, dp_cnn, dp_gru)
    nn.accumulate(grads, _encode_side_backward(params, r_cache, dr_cnn, dr_gru))
    return grads


def encode_relations(scorer: nn.Model, relations: Iterable[str]) -> dict[str, tuple]:
    """relation -> its (CNN, BiGRU) vectors under the scorer's weights as they
    are now, for every relation with tokens. The vectors depend only on the
    weights, so a loaded scorer's table holds for every question; training
    changes the weights and never uses one."""
    return {rel: _encode_side(scorer.params, encode(scorer.vocab, tokens))[:2]
            for rel in relations if (tokens := _relation_tokens(rel))}


def score_relation(pattern_vectors: tuple, relation_vectors: tuple) -> float:
    """How well a relation fits the question pattern: the mean of the cosine
    of the pattern's and the relation's CNN vectors and that of their BiGRU
    vectors, each side's (CNN, BiGRU) pair as `_encode_side` gives it (a
    relation's is its `encode_relations` entry)."""
    (p_cnn, p_gru), (r_cnn, r_gru) = pattern_vectors, relation_vectors
    return 0.5 * nn.cosine(p_cnn, r_cnn) + 0.5 * nn.cosine(p_gru, r_gru)


# ---------------------------------------------------------------------------
# end-to-end solve
# ---------------------------------------------------------------------------

def solve_ld(
    question: str,
    kb: KnowledgeBase,
    dictionary: EntityDictionary,
    tagger: nn.Model,
    scorer: nn.Model,
    relation_table: dict[str, tuple],
) -> list[AnswerCandidate]:
    """The objects of the linked entity's best-scoring relation. `relation_table`
    is `encode_relations` of every KB predicate under `scorer` (`System` keeps
    one). The mention is the tagged word span; when the tagger marks none,
    it is the first dictionary key found for the entity first in name order,
    an exact link. The question pattern, the span replaced by a placeholder,
    is encoded once, and `score_relation` is called once per relation."""
    words = tokenize(question).tokens
    if not words:
        return []
    span = _best_run(tag_entities(tagger, words))
    if span is not None:
        start, stop = span
        linked = link_entity(" ".join(words[start:stop]), dictionary)
    else:
        found = dictionary.find(words)
        if not found:
            return []
        start, stop, entity = min(found, key=lambda match: match[2])  # the first entity in name order, at its first key
        linked = [EntityCandidate(entity, 0)]
    if not linked:
        return []
    entity_cand = linked[0]

    # a relation without tokens is not scored
    relations = [r for r in kb.predicates_by_subject.get(entity_cand.entity, ()) if r in relation_table]
    if not relations:
        return []

    pattern = words[:start] + (PLACEHOLDER,) + words[stop:]
    pattern_vectors = _encode_side(scorer.params, encode(scorer.vocab, pattern))[:2]
    scored = [(score_relation(pattern_vectors, relation_table[rel]), rel) for rel in relations]
    combined = max(s for s, _ in scored)
    relation = min(rel for s, rel in scored if s == combined)  # ties go to the smallest relation string

    objects = kb.by_subject_predicate.get((entity_cand.entity, relation), [])
    confidence = (1.0 / (1.0 + entity_cand.distance)) * (combined + 1.0) / 2.0
    mention = " ".join(words[start:stop])
    provenance = f"mention={mention!r} entity={entity_cand.entity!r} relation={relation!r}"
    return [AnswerCandidate(obj, confidence, SOLVER_LD, provenance) for obj in objects]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def load_tagger_data(path: str) -> list[tuple[str, list[str]]]:
    """JSON Lines: {"question": str, "tags": ["O","B",...]}."""
    return read_json_lines(path, lambda obj: (text_field(obj, "question"), text_list(obj, "tags")))


def load_scorer_data(path: str) -> list[tuple[list[str], str, list[str]]]:
    """JSON Lines: {"pattern": [str], "gold": str, "negatives": [str]}."""
    return read_json_lines(path, lambda obj: (text_list(obj, "pattern"), text_field(obj, "gold"),
                                              text_list(obj, "negatives")))


def train_tagger(dataset: list[tuple[str, list[str]]], hyper: Hyper, vocab: Vocabulary) -> nn.ModelParameters:
    """Online SGD on per-token cross entropy over BIO labels."""
    encoded = []
    for idx, (question, tags) in enumerate(dataset):
        tokens = tokenize(question)
        if len(tokens) == 0:
            raise BadExample(idx, "question has no tokens")
        if len(tokens) != len(tags) or any(t not in TAGS for t in tags):
            raise BadExample(idx, "tags not aligned with tokens")
        encoded.append((encode(vocab, tokens.tokens), [TAGS.index(t) for t in tags]))
    params = init_tagger(vocab.size, hyper)
    params.arch["vocab_crc"] = vocab.crc

    def step(example):
        ids, gold = example
        logits, cache = _tagger_logits(params, ids)
        per_token = [nn.softmax_cross_entropy(row, g) for row, g in zip(logits, gold)]
        grad_logits = np.array([grad for _, grad in per_token])
        return sum(loss for loss, _ in per_token), _tagger_backward(params, cache, grad_logits)

    return nn.fit(params, encoded, step, hyper.epochs, hyper.lr)


def train_relation_scorer(dataset: list[tuple[list[str], str, list[str]]], hyper: Hyper, vocab: Vocabulary) -> nn.ModelParameters:
    """Online SGD on pairwise hinge loss: max(0, margin - s_gold + s_neg)."""
    encoded = []
    for idx, (pattern, gold, negatives) in enumerate(dataset):
        if not pattern:
            raise BadExample(idx, "pattern is empty")
        if not negatives:
            raise BadExample(idx, "at least one negative relation required")
        relation_ids = []
        for rel in [gold] + negatives:
            if not (ids := encode(vocab, _relation_tokens(rel))):
                raise BadExample(idx, f"relation {rel!r} has no tokens")
            relation_ids.append(ids)
        encoded.append((encode(vocab, pattern), relation_ids[0], relation_ids[1:]))
    params = init_relation_scorer(vocab.size, hyper)
    params.arch["vocab_crc"] = vocab.crc

    def step(example):  # the pattern is encoded once; the gold's gradient goes in after the negatives'
        p_ids, gold_ids, negatives = example
        pattern = _encode_side(params, p_ids)
        gold_side = _encode_side(params, gold_ids)
        gold_score = score_relation(pattern[:2], gold_side[:2])
        loss, d_gold = 0.0, 0.0
        grads: nn.Grads = {}
        for neg_ids in negatives:
            neg_side = _encode_side(params, neg_ids)
            margin = HINGE_MARGIN - gold_score + score_relation(pattern[:2], neg_side[:2])
            if margin > 0:
                loss += margin
                d_gold -= 1.0
                nn.accumulate(grads, _score_backward(params, pattern, neg_side, 1.0))
        if d_gold != 0.0:
            nn.accumulate(grads, _score_backward(params, pattern, gold_side, d_gold))
        return loss, grads

    return nn.fit(params, encoded, step, hyper.epochs, hyper.lr)
