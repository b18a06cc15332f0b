"""Tokenization, normalization, edit distance and vocabulary encoding.

Every solver shares these primitives. `tokenize` is the one rule that
turns text into terms: dictionary keys, BM25 terms and the neural
solvers' token ids all come from it. The rule-based solver matches
normalized text against templates, and entity linking runs on
Levenshtein distance.
The distance is one row-by-row DP over a matrix of UTF-32 code points, so a
mention is compared with a whole block of dictionary keys at once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

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

    def __len__(self) -> int:
        return len(self.tokens)


def tokenize(text: str, dictionary: Optional["EntityDictionary"] = None) -> TokenSequence:
    """Segment on whitespace/punctuation and lowercase, then merge dictionary entries.

    Merging is forward maximum matching: at each position the longest
    window of tokens (up to the dictionary's longest entry), joined by one
    space, that exactly equals a dictionary key becomes a single token.
    """
    base = [t.lower() for t in _TOKEN_RE.findall(text)]
    if dictionary is None or not dictionary.entries:
        return TokenSequence(tuple(base))

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
    return TokenSequence(tuple(merged))


def dictionary_key(text: str) -> str:
    """The form `tokenize` merges: the text's tokens joined by one space."""
    return " ".join(tokenize(text).tokens)


def code_matrix(strings: list[str]) -> np.ndarray:
    """[len(strings), w] uint32 code points, each row zero-padded to the longest."""
    return np.array(strings, dtype=str)[:, None].view(np.uint32)


def edit_distances(a: str, codes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Levenshtein distance from a to each row of a code matrix.

    Row r holds a string of lengths[r] <= codes.shape[1] characters. The
    DP keeps one row per string (b along the row) and updates all of them
    per character of a; substitution and deletion are elementwise, and the
    insertion chain cur[j] = min_k (cur[k] + j - k) is a running minimum.
    Column lengths[r] depends only on the columns before it, so the padding
    never reaches the distance read there.
    """
    cols = np.arange(codes.shape[1] + 1)
    prev = np.broadcast_to(cols, (codes.shape[0], cols.size))
    for i, ch in enumerate(a, start=1):
        cur = np.empty(prev.shape, dtype=prev.dtype)
        cur[:, 0] = i
        np.minimum(prev[:, 1:] + 1, prev[:, :-1] + (codes != ord(ch)), out=cur[:, 1:])
        prev = np.minimum.accumulate(cur - cols, axis=1) + cols
    return prev[np.arange(codes.shape[0]), lengths]


def levenshtein(a: str, b: str) -> int:
    """Minimum single-character edits (insert/delete/substitute) a -> b."""
    return int(edit_distances(a, code_matrix([b]), np.array([len(b)]))[0])


@dataclass(frozen=True)
class EntityDictionary:
    """Dictionary key (see dictionary_key) -> canonical entity string.

    max_entry_tokens, the longest key's token count, bounds the windows
    `tokenize` merges. The keys are also kept sorted by length, with their
    lengths and their code matrix (see edit_distances), so that linking
    takes the keys of a length range as one contiguous block.
    """

    entries: dict[str, str] = field(default_factory=dict)
    max_entry_tokens: int = field(init=False)
    keys_by_length: list[str] = field(init=False, repr=False, compare=False)
    key_lengths: np.ndarray = field(init=False, repr=False, compare=False)
    key_codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_entry_tokens", max((k.count(" ") + 1 for k in self.entries), default=0))
        keys = sorted(self.entries, key=len)
        object.__setattr__(self, "keys_by_length", keys)
        object.__setattr__(self, "key_lengths", np.array([len(k) for k in keys], dtype=np.intp))
        object.__setattr__(self, "key_codes", code_matrix(keys))


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

