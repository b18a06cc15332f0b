"""Two-field BM25 retrieval over spliced triples and tagged passages."""

import math
import os
import random

import pytest

from openqa.errors import MalformedLine
from openqa.kb import Triple
from openqa.retrieval import (
    B, K1, KIND_PASSAGE, KIND_TRIPLE, SUBJECT_BOOST,
    IndexedDocument, InvertedIndex, build_index, load_passages,
    search, splice_triple, tag_passage,
)
from openqa.text import EntityDictionary, split_words, tokenize

from oracles import bm25_score


def indexed(docs: list[IndexedDocument]) -> InvertedIndex:
    """`build_index` over the documents, each with its words."""
    return build_index((doc, split_words(doc.value_field)) for doc in docs)


def corpus() -> list[IndexedDocument]:
    docs = [
        splice_triple(Triple("hamlet", "author", "shakespeare"), 0),
        splice_triple(Triple("paris", "capital_of", "france"), 1),
    ]
    d = EntityDictionary({"paris": "paris"})
    docs.append(tag_passage("p1", "paris has been the capital of france", d, 2)[0])
    docs.append(tag_passage("p2", "the sky is blue", d, 3)[0])
    return docs


class TestDocuments:
    def test_splice_triple(self):
        doc = splice_triple(Triple("hamlet", "author", "shakespeare"), 7)
        assert doc.doc_id == 7
        assert doc.kind == KIND_TRIPLE
        assert doc.subject_field == ("hamlet",)
        assert doc.value_field == "hamlet author shakespeare"

    def test_tag_passage_collects_mentioned_entities(self):
        d = EntityDictionary({"paris": "paris", "france": "france"})
        doc, _ = tag_passage("p1", "Paris has been the capital of France", d, 0)
        assert doc.kind == KIND_PASSAGE
        assert set(doc.subject_field) == {"paris", "france"}
        assert doc.origin == "passage:p1"

    def test_tag_passage_returns_its_words_unmerged(self):
        d = EntityDictionary({"new york": "new york"})
        doc, words = tag_passage("p1", "Trams of New York, then İstanbul's.", d, 0)
        assert doc.subject_field == ("new york",)
        assert words == split_words(doc.value_field) and words[2:4] == ["new", "york"]

    def test_tag_passage_lists_each_canonical_once(self):
        d = EntityDictionary({"nyc": "new york", "new york": "new york", "paris": "paris"})
        doc, _ = tag_passage("p1", "NYC is not Paris, but New York is nyc", d, 0)
        assert doc.subject_field == ("new york", "paris")

    def test_out_of_order_doc_ids_rejected(self):
        for ids, expected in [((0, 0), 1), ((1,), 0), ((0, 2, 1), 1)]:
            docs = [splice_triple(Triple("a", "p", "b"), doc_id) for doc_id in ids]
            with pytest.raises(ValueError, match=f"^doc_id {ids[expected]} out of order: expected {expected}$"):
                indexed(docs)


class TestScoring:
    def test_bm25_matches_hand_formula(self):
        idx = indexed(corpus())
        n, df = idx.doc_count, 2  # "france" appears in two documents
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        lengths = [len(tokenize(doc.value_field)) for doc in corpus()]
        tf = 1
        expected = idf * (tf * (K1 + 1)) / (tf + K1 * (1 - B + B * lengths[2] / (sum(lengths) / n)))
        assert bm25_score(idx, ["france"], 2) == pytest.approx(expected)

    def test_subject_field_boost(self):
        idx = indexed(corpus())
        # "paris" is in doc 2's subject field, "france" is not
        paris = bm25_score(idx, ["paris"], 2)
        france = bm25_score(idx, ["france"], 2)
        assert paris == pytest.approx(SUBJECT_BOOST * france)

    def test_unknown_doc(self):
        idx = indexed(corpus())
        with pytest.raises(KeyError):
            bm25_score(idx, ["paris"], 99)

    def test_repeated_query_terms_count_once(self):
        idx = indexed(corpus())
        assert bm25_score(idx, ["paris", "paris"], 2) == bm25_score(idx, ["paris"], 2)


class TestSearch:
    def test_top_k_and_order(self):
        idx = indexed(corpus())
        out = search(idx, "capital of france", k=2)
        assert len(out) == 2
        assert out[0].score >= out[1].score
        assert out[0].doc.doc_id == 2  # the passage mentions all three terms

    def test_no_matching_terms(self):
        idx = indexed(corpus())
        assert search(idx, "zebra quantum", k=5) == []

    def test_tie_break_on_doc_id(self):
        docs = [
            IndexedDocument(0, (), "same words here", KIND_PASSAGE, "a"),
            IndexedDocument(1, (), "same words here", KIND_PASSAGE, "b"),
        ]
        idx = indexed(docs)
        out = search(idx, "same words", k=2)
        assert [r.doc.doc_id for r in out] == [0, 1]
        assert out[0].score == pytest.approx(out[1].score)

    def test_term_at_a_time_equals_per_doc_scoring(self):
        """search against bm25_score over every matched doc, on random corpora."""
        rng = random.Random(31)
        pool = [f"w{i}" for i in range(25)]
        for _ in range(40):
            docs = []
            for i in range(rng.randint(1, 40)):
                words = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
                subjects = tuple(rng.sample(words, rng.randint(0, min(2, len(words)))))
                docs.append(IndexedDocument(i, subjects, " ".join(words), KIND_PASSAGE))
            idx = indexed(docs)
            for _ in range(5):
                terms = [rng.choice(pool + ["absent"]) for _ in range(rng.randint(1, 6))]
                k = rng.randint(1, len(docs) + 2)
                matched = {d for t in terms for d, _ in idx.postings.get(t, [])}
                want = sorted((-bm25_score(idx, terms, d), d) for d in matched)[:k]
                got = search(idx, " ".join(terms), k)
                assert [(r.doc.doc_id, r.score) for r in got] == [(d, -s) for s, d in want]

    def test_search_equals_per_doc_scoring_on_copies_and_foreign_subjects(self):
        """search against bm25_score on random corpora with copies of docs (score
        ties) that sometimes drop the subject (a boost on only some of a term's
        postings), and subjects whose terms are not in the doc's own text; also
        the empty index, queries of unseen terms only, and k above the number
        of matched docs."""
        rng = random.Random(37)
        pool = [f"w{i}" for i in range(12)] + ["İstanbul", "paris,", "dr."]
        for size in [0] + [rng.randint(1, 30) for _ in range(40)]:
            docs = []
            for doc_id in range(size):
                if docs and rng.random() < 0.3:
                    src = rng.choice(docs)
                    words, subjects = src.value_field, src.subject_field if rng.random() < 0.5 else ()
                else:
                    words = " ".join(rng.choice(pool) for _ in range(rng.randint(1, 8)))
                    subjects = tuple(rng.sample(words.split() + ["w0", "w1"], rng.randint(0, 2)))
                docs.append(IndexedDocument(doc_id, subjects, words, KIND_PASSAGE))
            idx = indexed(docs)
            queries = [[rng.choice(pool + ["absent"]) for _ in range(rng.randint(1, 5))] for _ in range(5)]
            for words in queries + [["absent", "unseen"]]:
                terms = tokenize(" ".join(words)).tokens
                matched = {int(d) for t in terms for d, _ in idx.postings.get(t, [])}
                k = rng.randint(1, len(matched) + 3)
                want = sorted((-bm25_score(idx, terms, d), d) for d in matched)[:k]
                got = search(idx, " ".join(words), k)
                assert [(r.doc.doc_id, r.score) for r in got] == [(d, -s) for s, d in want]

    def test_boost_only_on_the_subject_docs_postings(self):
        docs = [IndexedDocument(0, (), "paris paris city", KIND_PASSAGE),
                IndexedDocument(1, ("paris",), "paris paris city", KIND_PASSAGE),
                IndexedDocument(2, (), "paris paris city", KIND_PASSAGE)]
        idx = indexed(docs)
        got = search(idx, "paris", k=5)
        assert [r.doc.doc_id for r in got] == [1, 0, 2]
        assert got[0].score == SUBJECT_BOOST * got[1].score and got[1].score == got[2].score
        assert [r.score for r in got] == [bm25_score(idx, ["paris"], d) for d in (1, 0, 2)]

    def test_index_terms_are_the_readers_tokens(self):
        # lowercasing "İ" adds a combining dot, which splits the word if done before tokenizing
        d = EntityDictionary({"i\u0307stanbul": "İstanbul"})
        doc, words = tag_passage("p", "Trams cross İstanbul, then İstanbul's bridges.", d, 0)
        assert doc.subject_field == ("İstanbul",)
        idx = build_index([(doc, words)])
        assert sorted(idx.postings) == sorted(set(tokenize(doc.value_field).tokens))
        got = search(idx, "İstanbul", k=1)
        assert [(r.doc.doc_id, r.score) for r in got] == [(0, bm25_score(idx, ["i\u0307stanbul"], 0))]

    def test_one_shot_stream_equals_list_of_pairs(self):
        """build_index reads a generator once and gives the documents, postings,
        rows and scores it gives for a list of the same pairs."""
        rng = random.Random(41)
        pool = [f"w{i}" for i in range(12)] + ["İstanbul", "paris,", "dr."]
        for size in [0, 1] + [rng.randint(2, 30) for _ in range(30)]:
            docs = []
            for doc_id in range(size):
                if docs and rng.random() < 0.3:  # a copy: score ties
                    words = rng.choice(docs).value_field
                else:
                    words = " ".join(rng.choice(pool) for _ in range(rng.randint(1, 8)))
                subjects = tuple(rng.sample(words.split() + ["w0", "w1"], rng.randint(0, 2)))
                docs.append(IndexedDocument(doc_id, subjects, words, KIND_PASSAGE))
            want = build_index([(doc, split_words(doc.value_field)) for doc in docs])
            got = build_index((doc, split_words(doc.value_field)) for doc in docs)
            assert got.docs == want.docs == docs and got.doc_count == want.doc_count == size
            assert sorted(got.postings) == sorted(want.postings) == sorted(got.rows) == sorted(want.rows)
            for term, rows in want.rows.items():
                assert got.postings[term].tolist() == want.postings[term].tolist()
                assert got.positions[got.rows[term]].tolist() == want.positions[rows].tolist()
                assert got.contributions[got.rows[term]].tolist() == want.contributions[rows].tolist()
            for _ in range(5):
                query = " ".join(rng.choice(pool + ["absent"]) for _ in range(rng.randint(1, 5)))
                k = rng.randint(1, size + 2)
                assert [(r.doc, r.score) for r in search(got, query, k)] == \
                    [(r.doc, r.score) for r in search(want, query, k)]

    def test_postings_are_doc_id_tf_rows(self):
        docs = [IndexedDocument(0, (), "a c", KIND_PASSAGE), IndexedDocument(1, (), "a b a", KIND_PASSAGE)]
        idx = indexed(docs)
        assert idx.postings["a"].tolist() == [[0, 1], [1, 2]]
        assert idx.postings["b"].tolist() == [[1, 1]]
        assert sorted(idx.postings) == ["a", "b", "c"]


class TestPersistence:
    def test_load_passages(self, fx):
        passages = load_passages(os.path.join(fx, "passages.jsonl"))
        assert len(passages) == 12
        assert passages[0][0] == "p01"

    @pytest.mark.parametrize("line, message", [
        ('{"id": "p2", "text": ', "malformed line 2: Expecting value"),
        ('["p2", "text"]', "malformed line 2: expected a JSON object, got list"),
        ('{"id": "p2"}', "malformed line 2: missing key 'text'"),
        ('{"id": "p2", "text": 5}', "malformed line 2: field 'text' must be a string, got 5"),
        ('{"id": "p2", "text": ["a"]}', "malformed line 2: field 'text' must be a string, got [\"a\"]"),
        ('{"id": "p2", "text": null}', "malformed line 2: field 'text' must be a string, got null"),
        ('{"id": "p2", "text": ""}', "malformed line 2: field 'text' holds no word, got \"\""),
        ('{"id": "p2", "text": "  "}', "malformed line 2: field 'text' holds no word, got \"  \""),
        ('{"id": "p2", "text": "... !!! ---"}', "malformed line 2: field 'text' holds no word, got \"... !!! ---\""),
        ('{"id": 2, "text": "fine"}', "malformed line 2: field 'id' must be a string, got 2"),
        ('{"id": null, "text": "fine"}', "malformed line 2: field 'id' must be a string, got null"),
    ])
    def test_malformed_line_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "passages.jsonl"
        path.write_text('{"id": "p1", "text": "fine"}\n' + line + "\n")
        with pytest.raises(MalformedLine) as info:
            load_passages(str(path))
        assert str(info.value).startswith(f"{path}: {message}")
        assert info.value.line_number == 2
