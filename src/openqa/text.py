"""Tokenization, normalization, edit distance and vocabulary encoding.

Every solver shares these primitives. `tokenize` is the one rule that
turns text into terms: dictionary keys, BM25 terms and the neural
solvers' token ids all come from it. `EntityDictionary.find`, the one
dictionary matcher, takes a text's words (`split_words`) and gives the
word span of each key it finds, so a caller that already holds the words
matches them without splitting the text again: the passage tagging, the
rule-based solver and the neural solver's fallback all find entities
with it. The rule-based solver matches normalized text against
templates, and entity linking runs on Levenshtein distance. The distance is one DP over a
matrix of UTF-32 code points, one column per dictionary key, so a mention
is compared with a whole block of keys at once.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, field
from itertools import repeat
from typing import Sequence

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


def split_words(text: str) -> list[str]:
    """Segment on whitespace/punctuation, then lowercase."""
    return [t.lower() for t in _TOKEN_RE.findall(text)]


def tokenize(text: str) -> TokenSequence:
    """Segment on whitespace/punctuation and lowercase: `split_words(text)`."""
    return TokenSequence(tuple(split_words(text)))


def dictionary_key(text: str) -> str:
    """The form `find` matches: the text's tokens joined by one space."""
    return " ".join(tokenize(text).tokens)


def code_matrix(strings: list[str]) -> np.ndarray:
    """[len(strings), w] uint32 code points, each row zero-padded to the longest."""
    return np.array(strings, dtype=str)[:, None].view(np.uint32)


def edit_distances(a: str, codes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Levenshtein distance from a to each row of a code matrix.

    Row r holds a string of lengths[r] <= codes.shape[1] characters. The
    DP keeps one column per string (b down the column, the strings along
    the last axis) and updates all of them per character of a;
    substitution and deletion are elementwise, and the insertion chain
    cur[j] = min_k (cur[k] + j - k) is one running minimum down axis 0
    for the whole block. Entry lengths[r] of column r depends only on the
    entries above it, so the padding never reaches the distance read there.
    """
    chars = np.ascontiguousarray(codes.T)  # [w, n]: character j of every string in one row
    j = np.arange(chars.shape[0] + 1)[:, None]
    prev = np.broadcast_to(j, (j.size, chars.shape[1]))
    for i, ch in enumerate(a, start=1):
        cur = np.empty(prev.shape, dtype=prev.dtype)
        cur[0] = i
        np.minimum(prev[1:] + 1, prev[:-1] + (chars != ord(ch)), out=cur[1:])
        cur -= j
        prev = np.minimum.accumulate(cur, axis=0)
        prev += j
    return prev[lengths, np.arange(chars.shape[1])]


@dataclass(frozen=True)
class EntityDictionary:
    """Dictionary key (see dictionary_key) -> canonical entity string.

    max_entry_tokens, the longest key's token count, bounds the windows
    `find` tries, and first_tokens, the first token of every multi-token
    key, marks the positions where it tries them. The keys
    are also kept sorted by length, with their lengths and their code
    matrix (see edit_distances), so that linking takes the keys of a
    length range as one contiguous block.
    """

    entries: dict[str, str] = field(default_factory=dict)
    max_entry_tokens: int = field(init=False)
    first_tokens: frozenset[str] = field(init=False, repr=False, compare=False)
    keys_by_length: list[str] = field(init=False, repr=False, compare=False)
    key_lengths: np.ndarray = field(init=False, repr=False, compare=False)
    key_codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_entry_tokens", max((k.count(" ") + 1 for k in self.entries), default=0))
        object.__setattr__(self, "first_tokens", frozenset(k.split(" ", 1)[0] for k in self.entries if " " in k))
        keys = sorted(self.entries, key=len)
        object.__setattr__(self, "keys_by_length", keys)
        object.__setattr__(self, "key_lengths", np.array([len(k) for k in keys], dtype=np.intp))
        object.__setattr__(self, "key_codes", code_matrix(keys))

    def find(self, words: Sequence[str]) -> list[tuple[int, int, str]]:
        """(start, stop, entity) for each key `" ".join(words[start:stop])`
        among the words, in order, the spans not overlapping.

        Matching is forward maximum matching: at each position the longest
        window of words (up to the longest key) that equals a key is taken.
        Windows of two or more words are tried only where a multi-token key
        starts (the position's word is in `first_tokens`), since a window can
        only equal a key that begins with the window's first word."""
        entries, starts, longest = self.entries, self.first_tokens, self.max_entry_tokens
        n = len(words)
        found: list[tuple[int, int, str]] = []
        stop = 0  # the end of the last span tried
        for i, key in [(j, t) for j, t in enumerate(words) if t in entries or t in starts]:
            if i < stop:
                continue
            stop = i + 1
            if key in starts:
                for w in range(min(longest, n - i), 1, -1):
                    if (window := " ".join(words[i : i + w])) in entries:
                        key, stop = window, i + w
                        break
            if key in entries:
                found.append((i, stop, entries[key]))
        return found


class Vocabulary:
    """Dense token -> id map with four reserved ids (PAD/UNK/CLS/SEP)."""

    def __init__(self, tokens: list[str] | None = None):
        unique = dict.fromkeys(RESERVED_TOKENS + list(tokens or []))
        self._token_to_id: dict[str, int] = {t: i for i, t in enumerate(unique)}

    @property
    def size(self) -> int:
        return len(self._token_to_id)

    @property
    def crc(self) -> int:
        """CRC-32 of the tokens in id order, reserved ones included: a trained
        model records it, since its weights pair each id with one word."""
        return zlib.crc32("\n".join(self._token_to_id).encode("utf-8"))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(t + "\n" for t in list(self._token_to_id)[len(RESERVED_TOKENS):])

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
        return cls(tokens)


def encode(vocab: Vocabulary, tokens: list[str] | tuple[str, ...]) -> list[int]:
    """Map tokens to ids; out-of-vocabulary tokens become UNK."""
    return list(map(vocab._token_to_id.get, tokens, repeat(UNK)))

