"""Extractive span reader with unnormalized cross-passage comparison."""

import json
import os

import numpy as np
import pytest

import openqa.reader
from openqa import nn
from openqa.answers import SOLVER_RR, AnswerCandidate
from openqa.errors import MalformedLine
from openqa.hyper import Hyper
from openqa.kb import Triple
from openqa.reader import (
    MAX_SPAN_LEN, TOP_K_PASSAGES,
    ReaderModel, _backward, _forward, best_spans, init_reader, load_reader_data, read, train_reader,
)
from openqa.retrieval import (
    IndexedDocument, KIND_PASSAGE, RetrievalResult, splice_triple,
)
from openqa.text import Vocabulary, tokenize

from oracles import enumerate_spans, predict_logits


def passage_result(doc_id: int, text: str, score: float = 1.0) -> RetrievalResult:
    return RetrievalResult(IndexedDocument(doc_id, (), text, KIND_PASSAGE, f"passage:{doc_id}"), score)


@pytest.fixture(scope="module")
def reader(toy, vocab):
    return ReaderModel(nn.ModelParameters.load(toy["models"]["reader"]), vocab)


class TestEnumerateSpans:
    def test_all_spans_within_length(self):
        start = np.array([1.0, 0.0, 2.0])
        end = np.array([0.5, 1.5, 0.0])
        spans = enumerate_spans(start, end, max_span_len=2, doc_id=0, tokens=["a", "b", "c"])
        for s in spans:
            assert s.start <= s.end < s.start + 2
        # 3 length-1 spans + 2 length-2 spans
        assert len(spans) == 5

    def test_scores_are_sums_sorted_desc(self):
        start = np.array([1.0, 3.0])
        end = np.array([2.0, 0.0])
        spans = enumerate_spans(start, end, 2, 0, ["x", "y"])
        assert all(spans[i].raw_score >= spans[i + 1].raw_score for i in range(len(spans) - 1))
        best = spans[0]
        assert best.raw_score == pytest.approx(start[best.start] + end[best.end])

    def test_tie_break_start_then_end(self):
        start = np.zeros(3)
        end = np.zeros(3)
        spans = enumerate_spans(start, end, 3, 0, ["a", "b", "c"])
        keys = [(s.start, s.end) for s in spans]
        assert keys == sorted(keys)

    def test_span_text_joins_tokens(self):
        start = np.array([0.0, 5.0, 0.0])
        end = np.array([0.0, 0.0, 5.0])
        spans = enumerate_spans(start, end, 2, 0, ["the", "eiffel", "tower"])
        assert spans[0].text == "eiffel tower"


class TestBestSpan:
    def test_equals_first_enumerated_span(self):
        """One banded argmax over a ragged, padded batch against
        enumerate_spans(...)[0] per passage: batches hold 1-token passages,
        integer-valued logits force ties, lengths run below and above
        max_span_len, and the padding holds values that would win."""
        rng = np.random.default_rng(7)
        for _ in range(300):
            lengths = [int(n) for n in rng.integers(1, 25, size=int(rng.integers(1, 7)))]
            if rng.random() < 0.3:
                lengths[int(rng.integers(len(lengths)))] = 1
            max_span_len = int(rng.integers(1, 18))
            P, L = len(lengths), max(lengths)
            if rng.random() < 0.5:
                start, end = rng.integers(-2, 3, (P, L)).astype(float), rng.integers(-2, 3, (P, L)).astype(float)
            else:
                start, end = rng.normal(size=(P, L)), rng.normal(size=(P, L))
            passages = [(10 + p, tuple(f"t{p}.{i}" for i in range(n))) for p, n in enumerate(lengths)]
            for p, n in enumerate(lengths):
                start[p, n:], end[p, n:] = 9.0, 9.0
            want = [enumerate_spans(start[p, :n], end[p, :n], max_span_len, doc_id, list(tokens))[0]
                    for p, ((doc_id, tokens), n) in enumerate(zip(passages, lengths))]
            assert best_spans(start, end, max_span_len, passages) == want

    def test_tie_prefers_earliest_start_then_end(self):
        tokens = ("a", "b", "c")
        [span] = best_spans(np.zeros((1, 3)), np.zeros((1, 3)), 15, [(0, tokens)])
        assert (span.start, span.end, span.text) == (0, 0, "a")


def _read_per_passage(model, question, results):
    """The reader as one full forward pass and one span enumeration per passage."""
    best = []
    for r in [r for r in results if r.doc.kind == KIND_PASSAGE][:TOP_K_PASSAGES]:
        tokens = list(tokenize(r.doc.value_field).tokens)
        if tokens:
            start, end = predict_logits(model, question, tokens)
            best.append(enumerate_spans(start, end, MAX_SPAN_LEN, r.doc.doc_id, tokens)[0])
    if not best:
        return []
    confidences = nn.softmax(np.array([s.raw_score for s in best]))
    out = [AnswerCandidate(s.text, float(c), SOLVER_RR, f"doc={s.passage_doc_id} span=({s.start},{s.end})")
           for s, c in zip(best, confidences)]
    return sorted(out, key=lambda c: (-c.confidence, c.provenance))


class TestRead:
    def test_equals_per_passage_reading(self):
        rng = np.random.default_rng(11)
        words = [f"w{i}" for i in range(40)]
        model = ReaderModel(init_reader(len(words) + 4, Hyper(d=8, h=8, seed=5)), Vocabulary(words[:36]))
        for _ in range(12):
            question = " ".join(rng.choice(words, int(rng.integers(0, 6))))
            results = [passage_result(i, " ".join(rng.choice(words, int(rng.integers(1, 25)))))
                       for i in range(int(rng.integers(0, 13)))]
            if results and rng.random() < 0.3:
                results.insert(1, RetrievalResult(splice_triple(Triple("a", "p", "b"), 99), 2.0))
            got, want = read(model, question, results), _read_per_passage(model, question, results)
            # batched encoding rounds differently: confidences agree to 1e-12, the rest exactly
            assert [(c.answer, c.solver, c.provenance) for c in got] == \
                [(c.answer, c.solver, c.provenance) for c in want]
            assert all(abs(a.confidence - b.confidence) < 1e-12 for a, b in zip(got, want))

    def test_trained_pair_recovers_answer(self, fx, reader):
        data = load_reader_data(os.path.join(fx, "reader.jsonl"))
        for question, passage, gold_start, gold_end in data:
            tokens = list(tokenize(passage).tokens)
            out = read(reader, question, [passage_result(0, passage)])
            gold = " ".join(tokens[gold_start:gold_end + 1])
            assert out[0].answer == gold

    def test_triple_kind_results_ignored(self, reader):
        triple_doc = RetrievalResult(splice_triple(Triple("a", "p", "b"), 0), 9.0)
        assert read(reader, "what color is the sky", [triple_doc]) == []

    def test_confidences_softmax_over_passages(self, reader):
        results = [passage_result(0, "the sky is blue during a clear day"),
                   passage_result(1, "a group of lions is called a pride")]
        out = read(reader, "what color is the sky", results)
        assert len(out) == 2
        assert sum(c.confidence for c in out) == pytest.approx(1.0, abs=1e-9)
        assert out[0].confidence >= out[1].confidence
        assert all(c.solver == "rr" for c in out)

    def test_only_first_top_k_passages_read(self, reader):
        results = [passage_result(i, "the sky is blue during a clear day") for i in range(12)]
        out = read(reader, "what color is the sky", results)
        assert len(out) == TOP_K_PASSAGES

    def test_empty_results(self, reader):
        assert read(reader, "anything", []) == []


class TestOneForward:
    """Answering and training run the same `_forward`: a question's passages
    as one padded batch, a training example as a batch of one."""

    def _count(self, monkeypatch, calls):
        def counted(name, fn):
            def wrapper(*args):
                out = fn(*args)
                calls.append((name, out[0].shape if name == "_forward" else None))
                return out
            return wrapper

        for name in ("_forward", "_backward"):
            monkeypatch.setattr(openqa.reader, name, counted(name, getattr(openqa.reader, name)))

    def test_read_is_one_forward(self, monkeypatch, reader):
        calls = []
        self._count(monkeypatch, calls)
        results = [passage_result(0, "the sky is blue during a clear day"),
                   RetrievalResult(splice_triple(Triple("a", "p", "b"), 9), 2.0),
                   passage_result(1, "a group of lions is called a pride"),
                   passage_result(2, "honey never spoils")]
        assert len(read(reader, "what color is the sky", results)) == 3
        assert calls == [("_forward", (3, 8))]

    def test_train_step_is_one_forward_and_one_backward(self, monkeypatch, vocab):
        calls = []
        self._count(monkeypatch, calls)
        data = [("what color is the sky", "the sky is blue", 3, 3),
                ("what food never spoils", "honey never spoils", 0, 0)]
        train_reader(data, Hyper(d=4, h=4, epochs=2, seed=7), vocab)
        assert calls == [("_forward", (1, 4)), ("_backward", None), ("_forward", (1, 3)), ("_backward", None)] * 2

    def test_grad_check_padded_batch(self):
        """Two passages of different lengths in one batch, random upstream
        grads on the padding too: they must be dropped."""
        rng = np.random.default_rng(23)
        p = init_reader(9, Hyper(d=5, h=4, seed=9))
        for name in ("q.b", "p.b"):
            p[name][:] = rng.normal(size=p[name].shape)
        q_ids, passages = [4, 5, 8], [[5, 6, 4, 7], [8, 5]]
        Rs, Re = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))

        def loss_fn(p_):
            start, end, cache = _forward(p_, q_ids, passages)
            return float((start * Rs).sum() + (end * Re).sum()), _backward(p_, cache, Rs, Re)

        assert nn.grad_check(loss_fn, p) < 1e-4


@pytest.mark.parametrize("field,value", [("question", 5), ("passage", ["a"]), ("passage", None)])
def test_reader_data_field_that_is_not_a_string_is_malformed(tmp_path, field, value):
    path = tmp_path / "reader.jsonl"
    row = {"question": "what color is the sky", "passage": "the sky is blue",
           "answer_start_token": 3, "answer_end_token": 3, field: value}
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(MalformedLine) as info:
        load_reader_data(str(path))
    assert str(info.value) == f"{path}: malformed line 1: field {field!r} must be a string, got {json.dumps(value)}"


class TestLogits:
    def test_shapes_match_passage(self, reader):
        tokens = ["the", "sky", "is", "blue"]
        start, end = predict_logits(reader, "what color is the sky", tokens)
        assert start.shape == (4,) and end.shape == (4,)

    def test_max_span_len_enforced(self, reader):
        tokens = ["tok"] * 30
        start, end = predict_logits(reader, "question", tokens)
        spans = enumerate_spans(start, end, MAX_SPAN_LEN, 0, tokens)
        assert max(s.end - s.start + 1 for s in spans) == MAX_SPAN_LEN
