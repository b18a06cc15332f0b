"""Neural KB solver: BiLSTM BIO tagging, Levenshtein entity linking, and
joint attentive-CNN / attentive-BiGRU relation scoring.

The tagger marks the entity mention in the question; the mention is
linked to the closest dictionary entries by edit distance; the question
pattern (mention replaced by a placeholder) is scored against each
candidate relation by two encoders whose attention-pooled features are
compared by cosine similarity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import nn
from .answers import SOLVER_LD, AnswerCandidate
from .errors import EmptyPattern, EmptyQuestion, EmptyRelation, MisalignedExample, NoNegatives
from .hyper import Hyper
from .jsonl import read_json_lines
from .kb import KnowledgeBase
from .sp_solver import recognize_subjects
from .text import EntityDictionary, Vocabulary, edit_distances, encode, normalize, tokenize

TAGS = ("B", "I", "O")  # index order doubles as the argmax tie-break
PLACEHOLDER = "<e>"
CONV_WIDTH = 3
HINGE_MARGIN = 0.2
MAX_LINK_DISTANCE = 2


@dataclass(frozen=True)
class TagSequence:
    tags: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tags)


@dataclass(frozen=True)
class EntityCandidate:
    entity: str
    distance: int
    mention: str


@dataclass(frozen=True)
class RelationScore:
    relation: str
    cnn_score: float
    gru_score: float

    @property
    def combined(self) -> float:
        return 0.5 * self.cnn_score + 0.5 * self.gru_score


# ---------------------------------------------------------------------------
# tagger
# ---------------------------------------------------------------------------

def init_tagger(vocab_size: int, hyper: Hyper) -> nn.ModelParameters:
    params = nn.ModelParameters(hyper.seed, {"kind": "tagger", "d": hyper.d, "h": hyper.h, "vocab": vocab_size})
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


def tag_entities(tagger: nn.ModelParameters, vocab: Vocabulary, question: str) -> TagSequence:
    tokens = tokenize(question)
    if len(tokens) == 0:
        raise EmptyQuestion("question has no tokens")
    logits, _ = _tagger_logits(tagger, encode(vocab, tokens.tokens))
    raw = [TAGS[int(np.argmax(row))] for row in logits]
    return TagSequence(tuple(repair_bio(raw)))


def _best_run(tags) -> tuple[int, int] | None:
    """Longest contiguous B/I run as (start, end) inclusive; earliest wins ties."""
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
        if best is None or (j - i) > (best[1] - best[0]):
            best = (i, j)
        i = j + 1
    return best


def extract_mention(tags: TagSequence, tokens: Sequence[str]) -> str:
    if len(tags.tags) != len(tokens):
        raise MisalignedExample(0)
    run = _best_run(tags.tags)
    if run is None:
        return ""
    return " ".join(tokens[run[0] : run[1] + 1])


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
        EntityCandidate(dictionary.entries[dictionary.keys_by_length[lo + r]], int(distances[r]), mention)
        for r in np.flatnonzero(distances <= MAX_LINK_DISTANCE)
    ]
    return sorted(out, key=lambda c: (c.distance, -len(c.entity), c.entity))


# ---------------------------------------------------------------------------
# relation scorer
# ---------------------------------------------------------------------------

def init_relation_scorer(vocab_size: int, hyper: Hyper) -> nn.ModelParameters:
    params = nn.ModelParameters(hyper.seed, {"kind": "relation_scorer", "d": hyper.d, "h": hyper.h, "vocab": vocab_size})
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


def _score_with_cache(params: nn.ModelParameters, vocab: Vocabulary, pattern: list[str], relation: str):
    if not pattern:
        raise EmptyPattern("question pattern has no tokens")
    rel_tokens = _relation_tokens(relation)
    if not rel_tokens:
        raise EmptyRelation(f"relation {relation!r} has no tokens")
    p_ids = encode(vocab, pattern)
    r_ids = encode(vocab, rel_tokens)
    p_cnn, p_gru, p_cache = _encode_side(params, p_ids)
    r_cnn, r_gru, r_cache = _encode_side(params, r_ids)
    cnn_score = nn.cosine(p_cnn, r_cnn)
    gru_score = nn.cosine(p_gru, r_gru)
    vectors = (p_cnn, p_gru, r_cnn, r_gru)
    return RelationScore(relation, cnn_score, gru_score), (p_cache, r_cache, vectors)


def _score_backward(params: nn.ModelParameters, cache, d_combined: float) -> nn.Grads:
    """Gradient of combined = 0.5*cnn + 0.5*gru through both encoders."""
    p_cache, r_cache, (p_cnn, p_gru, r_cnn, r_gru) = cache
    dp_cnn, dr_cnn = nn.cosine_backward(p_cnn, r_cnn, 0.5 * d_combined)
    dp_gru, dr_gru = nn.cosine_backward(p_gru, r_gru, 0.5 * d_combined)
    grads = _encode_side_backward(params, p_cache, dp_cnn, dp_gru)
    nn.accumulate(grads, _encode_side_backward(params, r_cache, dr_cnn, dr_gru))
    return grads


def score_relation(scorer: nn.ModelParameters, vocab: Vocabulary, question_pattern: list[str], relation: str) -> RelationScore:
    score, _ = _score_with_cache(scorer, vocab, question_pattern, relation)
    return score


def _best_relation(scorer: nn.ModelParameters, vocab: Vocabulary, question_pattern: list[str], candidates: list[str]) -> tuple[float, str]:
    """(best combined score, relation), scoring each of the (non-empty)
    candidates once; ties go to the smallest relation string."""
    scored = [(score_relation(scorer, vocab, question_pattern, rel).combined, rel) for rel in candidates]
    best = max(s for s, _ in scored)
    return best, min(rel for s, rel in scored if s == best)


# ---------------------------------------------------------------------------
# end-to-end solve
# ---------------------------------------------------------------------------

def _pattern_tokens(tokens: list[str], mention: str) -> list[str]:
    """Replace the mention's token run with a single placeholder."""
    m_tokens = mention.split(" ")
    n, m = len(tokens), len(m_tokens)
    for i in range(n - m + 1):
        if tokens[i : i + m] == m_tokens:
            return tokens[:i] + [PLACEHOLDER] + tokens[i + m :]
    return list(tokens)


def solve_ld(
    question: str,
    kb: KnowledgeBase,
    dictionary: EntityDictionary,
    tagger: nn.ModelParameters,
    scorer: nn.ModelParameters,
    vocab: Vocabulary,
) -> list[AnswerCandidate]:
    tokens = tokenize(question)
    if len(tokens) == 0:
        return []
    tags = tag_entities(tagger, vocab, question)
    mention = extract_mention(tags, tokens.tokens)

    if mention:
        linked = link_entity(mention, dictionary)
    else:
        # tagging found nothing: fall back to dictionary max-match
        subjects = recognize_subjects(question, dictionary, [])
        linked = [EntityCandidate(s.entity, 0, s.surface) for s in subjects if s.source == "dictionary"]
    if not linked:
        return []
    entity_cand = linked[0]

    relations = [r for r in kb.predicates_of(entity_cand.entity) if _relation_tokens(r)]
    if not relations:
        return []

    # the pattern keeps at least the placeholder, so it is never empty
    pattern = _pattern_tokens(list(tokens.tokens), entity_cand.mention)
    combined, relation = _best_relation(scorer, vocab, pattern, relations)

    objects = kb.by_subject_predicate.get((entity_cand.entity, relation), [])
    confidence = (1.0 / (1.0 + entity_cand.distance)) * (combined + 1.0) / 2.0
    provenance = f"mention={entity_cand.mention!r} entity={entity_cand.entity!r} relation={relation!r}"
    return [AnswerCandidate(obj, confidence, SOLVER_LD, provenance) for obj in objects]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def load_tagger_data(path: str) -> list[tuple[str, list[str]]]:
    """JSON Lines: {"question": str, "tags": ["O","B",...]}."""
    return read_json_lines(path, lambda obj: (obj["question"], list(obj["tags"])))


def load_scorer_data(path: str) -> list[tuple[list[str], str, list[str]]]:
    """JSON Lines: {"pattern": [str], "gold": str, "negatives": [str]}."""
    return read_json_lines(path, lambda obj: (list(obj["pattern"]), obj["gold"], list(obj["negatives"])))


def train_tagger(dataset: list[tuple[str, list[str]]], hyper: Hyper, vocab: Vocabulary) -> nn.ModelParameters:
    """Online SGD on per-token cross entropy over BIO labels."""
    if not dataset:
        raise MisalignedExample(0)
    encoded = []
    for idx, (question, tags) in enumerate(dataset):
        tokens = tokenize(question)
        if len(tokens) != len(tags) or any(t not in TAGS for t in tags):
            raise MisalignedExample(idx)
        encoded.append((encode(vocab, tokens.tokens), [TAGS.index(t) for t in tags]))

    params = init_tagger(vocab.size, hyper)
    losses: list[float] = []
    for _ in range(hyper.epochs):
        epoch_loss = 0.0
        for ids, gold in encoded:
            logits, cache = _tagger_logits(params, ids)
            grad_logits = np.zeros_like(logits)
            for t, g in enumerate(gold):
                loss_t, grad_t = nn.softmax_cross_entropy(logits[t], g)
                epoch_loss += loss_t
                grad_logits[t] = grad_t
            nn.sgd_step(params, _tagger_backward(params, cache, grad_logits), hyper.lr)
        losses.append(epoch_loss)
    params.arch["epoch_losses"] = losses
    return params


def train_relation_scorer(dataset: list[tuple[list[str], str, list[str]]], hyper: Hyper, vocab: Vocabulary) -> nn.ModelParameters:
    """Online SGD on pairwise hinge loss: max(0, margin - s_gold + s_neg)."""
    for idx, (_, _, negatives) in enumerate(dataset):
        if not negatives:
            raise NoNegatives(idx)

    params = init_relation_scorer(vocab.size, hyper)
    losses: list[float] = []
    for _ in range(hyper.epochs):
        epoch_loss = 0.0
        for pattern, gold, negatives in dataset:
            gold_score, gold_cache = _score_with_cache(params, vocab, pattern, gold)
            grads: nn.Grads = {}
            d_gold = 0.0
            for neg in negatives:
                neg_score, neg_cache = _score_with_cache(params, vocab, pattern, neg)
                loss = HINGE_MARGIN - gold_score.combined + neg_score.combined
                if loss > 0:
                    epoch_loss += loss
                    d_gold -= 1.0
                    nn.accumulate(grads, _score_backward(params, neg_cache, 1.0))
            if d_gold != 0.0:
                nn.accumulate(grads, _score_backward(params, gold_cache, d_gold))
            if grads:
                nn.sgd_step(params, grads, hyper.lr)
        losses.append(epoch_loss)
    params.arch["epoch_losses"] = losses
    return params
