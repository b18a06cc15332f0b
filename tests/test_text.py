"""Normalization, tokenization, edit distance, and vocabulary."""

import random
import zlib

import numpy as np
import pytest

from openqa.text import (
    CLS, PAD, SEP, UNK,
    EntityDictionary, TokenSequence, Vocabulary,
    code_matrix, dictionary_key, edit_distances, encode, normalize, split_words, tokenize,
)

from oracles import merge_entries


class TestNormalize:
    def test_lowercase_trim_collapse(self):
        assert normalize("  Who   WROTE  Hamlet ") == "who wrote hamlet"

    def test_strips_terminal_punctuation(self):
        assert normalize("Who wrote Hamlet?") == "who wrote hamlet"
        assert normalize("done.") == "done"
        assert normalize("wait!") == "wait"

    def test_keeps_interior_punctuation(self):
        assert normalize("Hello, World!") == "hello, world"

    def test_empty(self):
        assert normalize("   ") == ""
        assert normalize("") == ""


class TestTokenize:
    def test_basic_tokens(self):
        seq = tokenize("Who wrote Hamlet?")
        assert seq.tokens == ("who", "wrote", "hamlet")
        assert len(seq) == 3

    def test_interior_marks_stay_in_token(self):
        assert tokenize("don't e-mail 3.14").tokens == ("don't", "e-mail", "3.14")

    def test_empty_text(self):
        assert tokenize("") == TokenSequence(())

    def test_dictionary_merges_longest_match(self):
        d = EntityDictionary({"new york": "new_york", "new york city": "nyc"})
        assert d.find(split_words("visit New York City now")) == [(1, 4, "nyc")]

    def test_dictionary_match_is_forward_greedy(self):
        d = EntityDictionary({"new york": "new_york"})
        assert d.find(split_words("in new york today")) == [(1, 3, "new_york")]
        assert d.find(split_words("new new york")) == [(1, 3, "new_york")]

    def test_merge_equals_every_position_oracle(self):
        names = ["new york", "new york city", "new jersey", "a b", "b c", "a", "c",
                 "Paris, Texas", "texas", "york city", "city hall", "a b c"]
        words = ["new", "New", "york", "city", "jersey", "a", "b", "c", "Paris,", "Texas", "hall", "x", "."]
        fixed = ["a b c", "new new york", "New York City hall", "Paris, Texas.", "new jersey new york city"]
        rng = random.Random(17)
        for _ in range(300):
            keys = rng.sample(names, rng.randint(1, len(names)))
            d = EntityDictionary({dictionary_key(k): k for k in keys})
            texts = fixed + [" ".join(rng.choice(words) for _ in range(rng.randint(0, 12))) for _ in range(5)]
            for text in texts:
                # find's spans are the oracle's keys, in order, at the oracle's positions
                tokens, oracle = split_words(text), merge_entries(text, d)
                found = d.find(tokens)
                spans = [" ".join(tokens[start:stop]) for start, stop, _ in found]
                assert spans == [t for t in oracle if t in d.entries], (keys, text)
                assert [entity for _, _, entity in found] == [d.entries[key] for key in spans]
                merged, done = [], 0
                for start, stop, _ in found:
                    merged += tokens[done:start] + [" ".join(tokens[start:stop])]
                    done = stop
                assert tuple(merged + tokens[done:]) == oracle, (keys, text)

    def test_first_tokens_mark_multi_token_keys(self):
        d = EntityDictionary({"new york": "a", "new york city": "b", "paris texas": "c", "paris": "d"})
        assert d.first_tokens == {"new", "paris"}
        assert EntityDictionary({"paris": "d"}).first_tokens == frozenset()


class TestLevenshtein:
    @pytest.mark.parametrize("a,b,d", [
        ("", "", 0), ("a", "", 1), ("", "abc", 3),
        ("kitten", "sitting", 3), ("flaw", "lawn", 2),
        ("same", "same", 0), ("ab", "ba", 2),
        ("zürich", "zurich", 1), ("😀x", "x", 1), ("😀x", "x😀", 2), ("new york", "newyork", 1),
    ])
    def test_known_distances(self, a, b, d):
        assert edit_distances(a, code_matrix([b]), np.array([len(b)])).tolist() == [d]

    def test_symmetry(self):
        assert edit_distances("paris", code_matrix(["pairs", "sirap"]), np.array([5, 5])).tolist() == \
            [edit_distances(b, code_matrix(["paris"]), np.array([5]))[0] for b in ("pairs", "sirap")]


class TestEditDistances:
    def test_equals_scalar_oracle_row_by_row(self, scalar_levenshtein):
        rng = random.Random(31)
        alphabet = "ab ü😀"
        for _ in range(200):
            rows = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
                    for _ in range(rng.randint(0, 12))]
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            got = edit_distances(a, code_matrix(rows), np.array([len(r) for r in rows], dtype=np.intp))
            assert got.tolist() == [scalar_levenshtein(a, r) for r in rows], (a, rows)

    def test_code_matrix_pads_with_zeros(self):
        codes = code_matrix(["ab", "", "😀"])
        assert codes.dtype == np.uint32
        assert codes.tolist() == [[97, 98], [0, 0], [0x1F600, 0]]
        assert code_matrix([]).shape[0] == 0


class TestEntityDictionary:
    def test_keys_sorted_by_length_with_codes(self):
        d = EntityDictionary({"new york": "new_york", "ur": "ur", "zürich": "zurich"})
        assert d.keys_by_length == ["ur", "zürich", "new york"]
        assert d.key_lengths.tolist() == [2, 6, 8]
        assert d.key_codes.shape == (3, 8)

    def test_find_gives_the_keys_among_the_merged_words(self):
        d = EntityDictionary({"new york": "new_york", "york city": "york_city", "paris texas": "Paris, Texas",
                              "nyc": "new_york"})
        words = split_words("From NYC via New York City to Paris, Texas and new york")
        assert d.find(words) == [(1, 2, "new_york"), (3, 5, "new_york"), (7, 9, "Paris, Texas"), (10, 12, "new_york")]
        assert d.find(()) == [] and EntityDictionary().find(words) == []

    def test_derived_fields_stay_out_of_eq_and_repr(self):
        d = EntityDictionary({"paris": "paris"})
        assert d == EntityDictionary({"paris": "paris"})
        assert repr(d) == "EntityDictionary(entries={'paris': 'paris'}, max_entry_tokens=1)"
        empty = EntityDictionary()
        assert empty.keys_by_length == [] and empty.key_codes.shape[0] == 0


class TestVocabulary:
    def test_reserved_ids(self):
        v = Vocabulary()
        assert (PAD, UNK, CLS, SEP) == (0, 1, 2, 3)
        assert encode(v, ["<pad>", "<unk>", "<cls>", "<sep>"]) == [PAD, UNK, CLS, SEP]
        assert v.size == 4

    def test_add_and_lookup(self):
        v = Vocabulary(["alpha", "beta", "beta", "<unk>"])  # a repeated token keeps its first id
        assert encode(v, ["alpha", "beta", "missing", "<unk>"]) == [4, 5, UNK, UNK]
        assert v.size == 6

    def test_save_load_roundtrip(self, tmp_path):
        v = Vocabulary(["alpha", "beta", "gamma"])
        path = str(tmp_path / "vocab.txt")
        v.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.size == v.size
        assert encode(loaded, ["gamma"]) == encode(v, ["gamma"]) == [6]
        assert loaded.crc == v.crc

    def test_crc_binds_the_words_in_id_order(self):
        v = Vocabulary(["alpha", "beta"])
        assert v.crc == zlib.crc32(b"<pad>\n<unk>\n<cls>\n<sep>\nalpha\nbeta")
        assert v.crc == Vocabulary(["alpha", "beta"]).crc
        assert v.crc != Vocabulary(["beta", "alpha"]).crc
        assert v.crc != Vocabulary(["alpha", "gamma"]).crc

    def test_encode_decode(self):
        v = Vocabulary(["who", "wrote"])
        ids = encode(v, ["who", "wrote", "hamlet"])
        assert ids == [4, 5, UNK]
