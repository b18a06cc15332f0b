"""Transformer answer selector."""

import json
import os

import numpy as np
import pytest

from openqa import nn, selector, text
from openqa.answers import AnswerCandidate
from openqa.errors import MalformedLine, NoCandidates
from openqa.hyper import Hyper
from openqa.selector import (
    CLS, MAX_LEN, SEP,
    build_sequence, init_selector, load_selector_data,
    select, train_selector,
)
from openqa.text import Vocabulary, encode, tokenize

from oracles import score_sequence


def candidates(*answers: str) -> list[AnswerCandidate]:
    return [AnswerCandidate(a, 0.5, "sp") for a in answers]


def sequence(question: str, answer: str, vocab: Vocabulary) -> list[int]:
    return build_sequence(encode(vocab, tokenize(question).tokens), encode(vocab, tokenize(answer).tokens))


@pytest.fixture(scope="module")
def trained(toy, vocab):
    return nn.Model(nn.ModelParameters.load(toy["models"]["selector"]), vocab)


@pytest.fixture(scope="module")
def untrained(vocab):
    params = init_selector(vocab.size, Hyper(d=16, h=16, heads=2, layers=1, seed=5))
    return nn.Model(params, vocab)


class TestBuildSequence:
    def test_structure(self, vocab):
        ids = sequence("who wrote hamlet", "shakespeare", vocab)
        assert ids[0] == CLS
        assert ids.count(SEP) == 2
        assert ids[-1] == SEP
        q_ids = ids[1:ids.index(SEP)]
        assert len(q_ids) == 3

    def test_truncation_drops_question_tail_first(self, vocab):
        long_q = "wrote hamlet " + "who " * 80
        ids = sequence(long_q, "shakespeare", vocab)
        assert len(ids) == MAX_LEN
        # the answer and closing separator survive truncation
        assert ids[-1] == SEP
        assert encode(vocab, ["shakespeare"])[0] in ids
        # the head of the question is preserved, the tail is cut
        assert ids[1:3] == encode(vocab, ["wrote", "hamlet"])

    def test_short_sequence_not_padded(self, vocab):
        ids = sequence("who", "x", vocab)
        assert len(ids) == 5  # CLS q SEP a SEP


class TestSelect:
    def test_probabilities_normalize(self, untrained):
        result = select(untrained, "who wrote hamlet", candidates("a", "b", "c"))
        assert sum(result.probabilities) == pytest.approx(1.0, abs=1e-9)

    def test_single_candidate_probability_one(self, untrained):
        result = select(untrained, "who wrote hamlet", candidates("only"))
        assert result.probabilities == (1.0,)
        assert result.chosen == 0

    def test_chosen_matches_argmax(self, untrained):
        result = select(untrained, "who wrote hamlet", candidates("a", "b", "c"))
        assert result.chosen == int(np.argmax(result.probabilities))
        assert result.answer.answer == ["a", "b", "c"][result.chosen]

    def test_permutation_equivariance(self, untrained):
        fwd = select(untrained, "who wrote hamlet", candidates("a", "b", "c"))
        rev = select(untrained, "who wrote hamlet", candidates("c", "b", "a"))
        assert fwd.probabilities == pytest.approx(tuple(reversed(rev.probabilities)))
        assert fwd.answer.answer == rev.answer.answer

    def test_no_candidates(self, untrained):
        with pytest.raises(NoCandidates):
            select(untrained, "who wrote hamlet", [])

    def test_consistent_with_score_sequence(self, untrained, vocab):
        answers = ["a", "b", "c"]
        scores = np.array([
            score_sequence(untrained, sequence("who wrote hamlet", a, vocab))
            for a in answers])
        probs = np.exp(scores - scores.max())
        probs /= probs.sum()
        result = select(untrained, "who wrote hamlet", candidates(*answers))
        assert result.probabilities == pytest.approx(tuple(probs))


    def test_equal_candidates_tie_exactly(self, untrained):
        # in one padded batch an equal sequence must score the same bits wherever it sits
        result = select(untrained, "who wrote hamlet", candidates("b", "a", "a", "c", "a", "b", "a"))
        p = result.probabilities
        assert p[1] == p[2] == p[4] == p[6] and p[0] == p[5]
        assert result.chosen == p.index(max(p))


class TestOnePass:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_select_runs_each_layer_once(self, monkeypatch, vocab, k):
        model = nn.Model(init_selector(vocab.size, Hyper(d=8, h=8, heads=2, layers=2, seed=3)), vocab)
        calls = []
        layer = nn.transformer_encoder_layer
        monkeypatch.setattr(nn, "transformer_encoder_layer", lambda *args: calls.append(1) or layer(*args))
        select(model, "who wrote hamlet", candidates(*"abcd"[:k]))
        assert len(calls) == model.params.arch["layers"]

    def test_train_step_is_one_forward_and_one_backward(self, monkeypatch, vocab):
        calls = {"_forward": 0, "_backward": 0}
        for name in calls:
            def counted(*args, name=name, fn=getattr(selector, name)):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(selector, name, counted)
        data = [("who wrote hamlet", ["shakespeare", "stratford", "blue"], 0),
                ("what color is the sky", ["pride", "blue"], 1)]
        train_selector(data, Hyper(d=8, h=8, heads=2, layers=1, epochs=2, seed=7), vocab)
        assert calls == {"_forward": 4, "_backward": 4}

    def test_question_is_split_into_words_once(self, monkeypatch, untrained):
        """`select` tokenizes the question once, not once per candidate."""
        split = []

        class CountingPattern:
            def findall(self, s, pattern=text._TOKEN_RE):
                split.append(s)
                return pattern.findall(s)

        monkeypatch.setattr(text, "_TOKEN_RE", CountingPattern())
        select(untrained, "who wrote hamlet", candidates("a", "b", "c"))
        assert sorted(split) == ["a", "b", "c", "who wrote hamlet"]


class TestTrained:
    def test_gold_chosen_on_training_data(self, toy, trained):
        data = load_selector_data(os.path.join(toy["dir"], "selector.jsonl"))
        assert data, "selector training data should not be empty"
        for question, answers, gold in data:
            result = select(trained, question, candidates(*answers))
            assert result.chosen == gold

    def test_loss_history_recorded(self, toy):
        losses = nn.ModelParameters.load(toy["models"]["selector"]).arch["epoch_losses"]
        assert len(losses) == 100
        assert all(np.isfinite(l) for l in losses)


class TestTrainer:
    def test_learns_to_disagree(self, vocab):
        data = [("who wrote hamlet", ["shakespeare", "stratford"], 0),
                ("what color is the sky", ["pride", "blue"], 1)]
        model = train_selector(data, Hyper(d=16, h=16, heads=2, layers=1,
                                           lr=0.1, epochs=60, seed=7), vocab)
        losses = model.params.arch["epoch_losses"]
        assert losses[-1] < losses[0]
        for question, answers, gold in data:
            assert select(model, question, candidates(*answers)).chosen == gold

    def test_rejects_out_of_range_gold(self, vocab):
        from openqa.errors import BadExample
        with pytest.raises(BadExample, match=r"^example 0: gold index outside candidate list$"):
            train_selector([("q", ["a", "b"], 2)],
                           Hyper(d=8, h=8, epochs=1), vocab)


@pytest.mark.parametrize("field,value,kind", [("question", 5, "a string"),
                                              ("candidates", "shakespeare", "an array of strings"),
                                              ("candidates", ["shakespeare", 7], "an array of strings")])
def test_selector_data_field_of_the_wrong_type_is_malformed(tmp_path, field, value, kind):
    path = tmp_path / "selector.jsonl"
    row = {"question": "who wrote hamlet", "candidates": ["shakespeare", "blue"], "gold": 0, field: value}
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(MalformedLine) as info:
        load_selector_data(str(path))
    assert str(info.value) == f"{path}: malformed line 1: field {field!r} must be {kind}, got {json.dumps(value)}"
