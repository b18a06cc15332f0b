"""Two-field BM25 retrieval over spliced triples and tagged passages."""

import math
import os
import random

import pytest

from openqa.errors import DuplicateDocId, MalformedLine, UnknownDoc
from openqa.kb import Triple, build_entity_dictionary, load_triples
from openqa.retrieval import (
    B, K1, KIND_PASSAGE, KIND_TRIPLE, SUBJECT_BOOST,
    IndexedDocument, build_index, load_passages,
    search, splice_triple, tag_passage,
)
from openqa.text import EntityDictionary, tokenize

from oracles import bm25_score


def corpus() -> list[IndexedDocument]:
    docs = [
        splice_triple(Triple("hamlet", "author", "shakespeare"), 0),
        splice_triple(Triple("paris", "capital_of", "france"), 1),
    ]
    d = EntityDictionary({"paris": "paris"})
    docs.append(tag_passage("p1", "paris has been the capital of france", d, 2))
    docs.append(tag_passage("p2", "the sky is blue", d, 3))
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
        doc = tag_passage("p1", "Paris has been the capital of France", d, 0)
        assert doc.kind == KIND_PASSAGE
        assert set(doc.subject_field) == {"paris", "france"}
        assert doc.origin == "passage:p1"

    def test_duplicate_doc_ids_rejected(self):
        a = splice_triple(Triple("a", "p", "b"), 0)
        b = splice_triple(Triple("c", "p", "d"), 0)
        with pytest.raises(DuplicateDocId):
            build_index([a, b])


class TestScoring:
    def test_bm25_matches_hand_formula(self):
        idx = build_index(corpus())
        n, df = idx.doc_count, 2  # "france" appears in two documents
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        lengths = [len(tokenize(doc.value_field)) for doc in corpus()]
        tf = 1
        expected = idf * (tf * (K1 + 1)) / (tf + K1 * (1 - B + B * lengths[2] / (sum(lengths) / n)))
        assert bm25_score(idx, ["france"], 2) == pytest.approx(expected)

    def test_subject_field_boost(self):
        idx = build_index(corpus())
        # "paris" is in doc 2's subject field, "france" is not
        paris = bm25_score(idx, ["paris"], 2)
        france = bm25_score(idx, ["france"], 2)
        assert paris == pytest.approx(SUBJECT_BOOST * france)

    def test_unknown_doc(self):
        idx = build_index(corpus())
        with pytest.raises(UnknownDoc):
            bm25_score(idx, ["paris"], 99)

    def test_repeated_query_terms_count_once(self):
        idx = build_index(corpus())
        assert bm25_score(idx, ["paris", "paris"], 2) == bm25_score(idx, ["paris"], 2)


class TestSearch:
    def test_top_k_and_order(self):
        idx = build_index(corpus())
        out = search(idx, "capital of france", k=2)
        assert len(out) == 2
        assert out[0].score >= out[1].score
        assert out[0].doc.doc_id == 2  # the passage mentions all three terms

    def test_no_matching_terms(self):
        idx = build_index(corpus())
        assert search(idx, "zebra quantum", k=5) == []

    def test_tie_break_on_doc_id(self):
        docs = [
            IndexedDocument(0, (), "same words here", KIND_PASSAGE, "a"),
            IndexedDocument(1, (), "same words here", KIND_PASSAGE, "b"),
        ]
        idx = build_index(docs)
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
            idx = build_index(docs)
            for _ in range(5):
                terms = [rng.choice(pool + ["absent"]) for _ in range(rng.randint(1, 6))]
                k = rng.randint(1, len(docs) + 2)
                matched = {d for t in terms for d, _ in idx.postings.get(t, [])}
                want = sorted((-bm25_score(idx, terms, d), d) for d in matched)[:k]
                got = search(idx, " ".join(terms), k)
                assert [(r.doc.doc_id, r.score) for r in got] == [(d, -s) for s, d in want]

    def test_search_equals_per_doc_scoring_on_sparse_doc_ids(self):
        """search against bm25_score on random corpora whose doc ids are sparse,
        shuffled and do not start at 0, with copies of docs (score ties) that
        sometimes drop the subject (a boost on only some of a term's postings),
        and subjects whose terms are not in the doc's own text; also the empty
        index, queries of unseen terms only, and k above the number of matched
        docs."""
        rng = random.Random(37)
        pool = [f"w{i}" for i in range(12)] + ["İstanbul", "paris,", "dr."]
        for size in [0] + [rng.randint(1, 30) for _ in range(40)]:
            docs = []
            for doc_id in rng.sample(range(5, 400), size):
                if docs and rng.random() < 0.3:
                    src = rng.choice(docs)
                    words, subjects = src.value_field, src.subject_field if rng.random() < 0.5 else ()
                else:
                    words = " ".join(rng.choice(pool) for _ in range(rng.randint(1, 8)))
                    subjects = tuple(rng.sample(words.split() + ["w0", "w1"], rng.randint(0, 2)))
                docs.append(IndexedDocument(doc_id, subjects, words, KIND_PASSAGE))
            idx = build_index(docs)
            queries = [[rng.choice(pool + ["absent"]) for _ in range(rng.randint(1, 5))] for _ in range(5)]
            for words in queries + [["absent", "unseen"]]:
                terms = tokenize(" ".join(words)).tokens
                matched = {int(d) for t in terms for d, _ in idx.postings.get(t, [])}
                k = rng.randint(1, len(matched) + 3)
                want = sorted((-bm25_score(idx, terms, d), d) for d in matched)[:k]
                got = search(idx, " ".join(words), k)
                assert [(r.doc.doc_id, r.score) for r in got] == [(d, -s) for s, d in want]

    def test_boost_only_on_the_subject_docs_postings(self):
        docs = [IndexedDocument(90, (), "paris paris city", KIND_PASSAGE),
                IndexedDocument(12, ("paris",), "paris paris city", KIND_PASSAGE),
                IndexedDocument(45, (), "paris paris city", KIND_PASSAGE)]
        idx = build_index(docs)
        got = search(idx, "paris", k=5)
        assert [r.doc.doc_id for r in got] == [12, 45, 90]
        assert got[0].score == SUBJECT_BOOST * got[1].score and got[1].score == got[2].score
        assert [r.score for r in got] == [bm25_score(idx, ["paris"], d) for d in (12, 45, 90)]

    def test_index_terms_are_the_readers_tokens(self):
        # lowercasing "İ" adds a combining dot, which splits the word if done before tokenizing
        d = EntityDictionary({"i\u0307stanbul": "İstanbul"})
        doc = tag_passage("p", "Trams cross İstanbul, then İstanbul's bridges.", d, 0)
        assert doc.subject_field == ("İstanbul",)
        idx = build_index([doc])
        assert sorted(idx.postings) == sorted(set(tokenize(doc.value_field).tokens))
        got = search(idx, "İstanbul", k=1)
        assert [(r.doc.doc_id, r.score) for r in got] == [(0, bm25_score(idx, ["i\u0307stanbul"], 0))]

    def test_postings_are_doc_id_tf_rows(self):
        docs = [IndexedDocument(7, (), "a b a", KIND_PASSAGE), IndexedDocument(3, (), "a c", KIND_PASSAGE)]
        idx = build_index(docs)
        assert idx.postings["a"].tolist() == [[3, 1], [7, 2]]
        assert idx.postings["b"].tolist() == [[7, 1]]
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
    ])
    def test_malformed_line_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "passages.jsonl"
        path.write_text('{"id": "p1", "text": "fine"}\n' + line + "\n")
        with pytest.raises(MalformedLine) as info:
            load_passages(str(path))
        assert str(info.value).startswith(f"{path}: {message}")
        assert info.value.line_number == 2
