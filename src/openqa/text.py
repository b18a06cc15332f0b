"""Tokenization, normalization, edit distance and vocabulary encoding.

Every solver shares these primitives: the rule-based solver matches
normalized text against templates and the entity dictionary, the neural
solvers encode token ids, and entity linking runs on Levenshtein distance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

_TOKEN_RE = re.compile(r"\w+(?:[.'\-]\w+)*")
_TERMINAL_PUNCT = ".?!,;:"

PAD, UNK, CLS, SEP = 0, 1, 2, 3
RESERVED_TOKENS = ["<pad>", "<unk>", "<cls>", "<sep>"]


def normalize(text: str) -> str:
    """Lowercase, trim, collapse whitespace, drop terminal punctuation."""
    out = " ".join(text.lower().split())
    while out and out[-1] in _TERMINAL_PUNCT:
        out = out[:-1].rstrip()
    return out


@dataclass(frozen=True)
class TokenSequence:
    tokens: tuple[str, ...]
    spans: tuple[tuple[int, int], ...]  # [start, end) offsets into the source

    def __len__(self) -> int:
        return len(self.tokens)


def tokenize(text: str, dictionary: Optional["EntityDictionary"] = None) -> TokenSequence:
    """Segment on whitespace/punctuation, then merge dictionary entries.

    Merging is forward maximum matching: at each position the longest
    window of normalized tokens (up to the dictionary's longest entry)
    that exactly equals a dictionary key becomes a single token.
    """
    base_tokens: list[str] = []
    base_spans: list[tuple[int, int]] = []
    for m in _TOKEN_RE.finditer(text):
        base_tokens.append(m.group(0).lower())
        base_spans.append((m.start(), m.end()))

    if dictionary is None or not dictionary.entries:
        return TokenSequence(tuple(base_tokens), tuple(base_spans))

    merged_tokens: list[str] = []
    merged_spans: list[tuple[int, int]] = []
    i = 0
    n = len(base_tokens)
    max_w = max(dictionary.max_entry_tokens, 1)
    while i < n:
        matched = False
        for w in range(min(max_w, n - i), 1, -1):
            key = " ".join(base_tokens[i : i + w])
            if key in dictionary.entries:
                merged_tokens.append(key)
                merged_spans.append((base_spans[i][0], base_spans[i + w - 1][1]))
                i += w
                matched = True
                break
        if not matched:
            merged_tokens.append(base_tokens[i])
            merged_spans.append(base_spans[i])
            i += 1
    return TokenSequence(tuple(merged_tokens), tuple(merged_spans))


def levenshtein(a: str, b: str) -> int:
    """Minimum single-character edits (insert/delete/substitute) a -> b."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    # single-row DP, b along the row
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost))
        prev = cur
    return prev[-1]


@dataclass(frozen=True)
class EntityDictionary:
    """Normalized surface form -> canonical entity string."""

    entries: dict[str, str] = field(default_factory=dict)
    max_entry_tokens: int = 0


class Vocabulary:
    """Dense token -> id map with four reserved ids (PAD/UNK/CLS/SEP)."""

    def __init__(self, tokens: list[str] | None = None):
        self._token_to_id: dict[str, int] = {t: i for i, t in enumerate(RESERVED_TOKENS)}
        self._id_to_token: list[str] = list(RESERVED_TOKENS)
        for t in tokens or []:
            self.add(t)

    def add(self, token: str) -> int:
        if token in self._token_to_id:
            return self._token_to_id[token]
        idx = len(self._id_to_token)
        self._token_to_id[token] = idx
        self._id_to_token.append(token)
        return idx

    def id_of(self, token: str) -> int:
        return self._token_to_id.get(token, UNK)

    def token_of(self, idx: int) -> str:
        return self._id_to_token[idx]

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def __len__(self) -> int:
        return len(self._id_to_token)

    @property
    def size(self) -> int:
        return len(self._id_to_token)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for t in self._id_to_token[len(RESERVED_TOKENS) :]:
                fh.write(t + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
        return cls(tokens)


def encode(vocab: Vocabulary, tokens: list[str] | tuple[str, ...]) -> list[int]:
    """Map tokens to ids; out-of-vocabulary tokens become UNK."""
    return [vocab.id_of(t) for t in tokens]

