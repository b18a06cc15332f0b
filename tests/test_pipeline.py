"""System orchestration: ask, evaluate, splitting, selector data."""

import json
import logging
import os
import re
import threading
import time

import pytest

from openqa.errors import ConfigError, EmptyDataset, EmptyQuestion
from openqa.hyper import Hyper
from openqa.pipeline import (
    System, SystemConfig, ask, evaluate, load_qa_pairs,
    make_selector_data, run_solvers, split_dataset,
)
from openqa.reader import init_reader
from openqa.text import normalize


class TestConfig:
    def test_load_resolves_relative_paths(self, toy):
        config = SystemConfig.load(toy["config"])
        assert os.path.isabs(config.kb_path)
        assert os.path.exists(config.kb_path)

    def test_missing_resource_rejected(self, tmp_path, toy):
        with open(toy["config"], encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["kb_path"] = "/nonexistent/kb.tsv"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            SystemConfig.load(str(bad))

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("vocab_path"), "missing required key(s): vocab_path"),
        (lambda doc: doc["hyper"].update(dropout=0.1), "invalid hyper"),
        (lambda doc: doc.update(hyper=[1]), "invalid hyper"),
        (lambda doc: doc.update(solver_timout=1.0), "unknown key(s): solver_timout"),
        (lambda doc: doc.update(retrieval_k="10"), "retrieval_k must be an integer >= 1, got '10'"),
        (lambda doc: doc.update(retrieval_k=True), "retrieval_k must be an integer >= 1, got True"),
        (lambda doc: doc.update(solver_timeout="fast"), "solver_timeout must be a number > 0, got 'fast'"),
        (lambda doc: doc.update(solver_timeout=0), "solver_timeout must be a number > 0, got 0"),
        (lambda doc: doc.update(solver_timeout=False), "solver_timeout must be a number > 0, got False"),
        (lambda doc: doc.update(http_addr=8080), "http_addr must be host:port with a port in 1..65535, got 8080"),
        (lambda doc: doc.update(http_addr="localhost:http"), "got 'localhost:http'"),
        (lambda doc: doc.update(kb_path=5), "kb_path must be a path string, got 5"),
        (lambda doc: doc["hyper"].update(d="x"), "invalid hyper: d must be an integer >= 1, got 'x'"),
        (lambda doc: doc["hyper"].update(d=0), "invalid hyper: d must be an integer >= 1, got 0"),
        (lambda doc: doc["hyper"].update(epochs=-1), "invalid hyper: epochs must be an integer >= 1, got -1"),
        (lambda doc: doc["hyper"].update(lr=0), "invalid hyper: lr must be a number > 0, got 0"),
        (lambda doc: doc["hyper"].update(seed=-1), "invalid hyper: seed must be an integer >= 0, got -1"),
    ])
    def test_malformed_config_is_config_error(self, tmp_path, toy, edit, message):
        with open(toy["config"], encoding="utf-8") as fh:
            doc = json.load(fh)
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=re.escape(message)):
            SystemConfig.load(str(bad))

    def test_retrieval_k_must_be_positive(self, toy):
        with open(toy["config"], encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["retrieval_k"] = 0
        with pytest.raises(ConfigError):
            SystemConfig(**{**{k: doc[k] for k in
                               ("kb_path", "passages_path", "templates_path", "vocab_path")},
                           "retrieval_k": 0})


    def test_model_of_another_kind_fails_at_load(self, toy, tmp_path):
        tagger = toy["models"]["tagger"]
        config_path = toy["write_config"](str(tmp_path / "swapped.json"), {"reader_model": tagger})
        with pytest.raises(ConfigError, match=re.escape(f"reader_model {tagger}: a 'tagger' model, expected 'reader'")):
            System(SystemConfig.load(config_path))

    def test_model_for_another_vocabulary_fails_at_load(self, toy, tmp_path):
        reader = str(tmp_path / "reader.json")
        init_reader(toy["system"].vocab.size + 5, Hyper(d=4, h=4)).save(reader)
        config_path = toy["write_config"](str(tmp_path / "other_vocab.json"), {"reader_model": reader})
        size = toy["system"].vocab.size
        with pytest.raises(ConfigError, match=re.escape(f"reader_model {reader}: built for a vocabulary of {size + 5}")):
            System(SystemConfig.load(config_path))


class TestAsk:
    def test_empty_question_raises(self, toy):
        with pytest.raises(EmptyQuestion):
            ask(toy["system"], "   ")

    def test_kb_question(self, toy):
        response = ask(toy["system"], "who wrote hamlet")
        assert response.answer == "shakespeare"
        assert response.solver == "selector"
        assert 0.0 < response.confidence <= 1.0

    def test_passage_question(self, toy):
        response = ask(toy["system"], "what color is the sky")
        assert response.answer == "blue"

    def test_unanswerable_question(self, toy):
        response = ask(toy["system"], "zorp blix quantum nonsense")
        assert response.answer is None
        assert response.solver == "none"
        assert response.confidence == 0.0

    def test_response_carries_candidates_and_timings(self, toy):
        response = ask(toy["system"], "who wrote hamlet")
        assert set(response.candidates) == {"sp", "ld", "rr"}
        assert set(response.timings) == {"sp", "ld", "rr"}
        assert all(t >= 0.0 for t in response.timings.values())

    def test_to_dict_is_json_serializable(self, toy):
        doc = ask(toy["system"], "who wrote hamlet").to_dict()
        json.dumps(doc)
        assert doc["answer"] == "shakespeare"

    def test_fallback_without_selector(self, toy):
        response = ask(toy["system_three"], "who wrote hamlet")
        assert response.answer == "shakespeare"
        assert response.solver in ("sp", "ld", "rr")


class TestSolverDegradation:
    def test_run_solvers_shape(self, toy):
        candidates, timings = run_solvers(toy["system"], "who wrote hamlet")
        assert set(candidates) == {"sp", "ld", "rr"}

    def test_timings_are_each_solvers_own_time(self, toy, monkeypatch):
        system = toy["system"]
        run_sp = system.run_sp

        def slow_sp(question):
            time.sleep(0.3)
            return run_sp(question)

        monkeypatch.setattr(system, "run_sp", slow_sp)
        candidates, timings = run_solvers(system, "who wrote hamlet")
        assert candidates["sp"][0].answer == "shakespeare"
        assert timings["sp"] >= 300.0
        assert timings["ld"] < 150.0 and timings["rr"] < 150.0

    def test_solvers_run_in_the_calling_thread(self, toy, monkeypatch):
        system = toy["system"]
        threads = {}
        for tag in ("sp", "ld", "rr"):
            def record(question, tag=tag, run=getattr(system, f"run_{tag}")):
                threads[tag] = threading.get_ident()
                return run(question)
            monkeypatch.setattr(system, f"run_{tag}", record)
        run_solvers(system, "who wrote hamlet")
        assert threads == dict.fromkeys(("sp", "ld", "rr"), threading.get_ident())

    def test_budget_skips_solvers_not_yet_started(self, toy, tmp_path, monkeypatch, caplog):
        config_path = toy["write_config"](str(tmp_path / "budget.json"), {"solver_timeout": 0.2})
        system = System(SystemConfig.load(config_path))
        calls = []

        def slow_sp(question):
            time.sleep(0.3)
            return System.run_sp(system, question)

        def never(question):
            calls.append(question)
            return []

        monkeypatch.setattr(system, "run_sp", slow_sp)
        monkeypatch.setattr(system, "run_ld", never)
        monkeypatch.setattr(system, "run_rr", never)
        with caplog.at_level(logging.WARNING, logger="openqa"):
            candidates, timings = run_solvers(system, "who wrote hamlet")
        assert candidates["sp"][0].answer == "shakespeare"
        assert calls == []
        assert candidates["ld"] == [] and candidates["rr"] == []
        skips = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert [r.getMessage().split()[1] for r in skips] == ["ld", "rr"]
        assert all(r.exc_info is None for r in skips)

    def test_missing_models_degrade_to_empty(self, toy, tmp_path):
        config_path = toy["write_config"](str(tmp_path / "bare.json"), {})
        bare = System(SystemConfig.load(config_path))
        candidates, _ = run_solvers(bare, "who wrote hamlet")
        assert candidates["ld"] == [] and candidates["rr"] == []
        assert candidates["sp"][0].answer == "shakespeare"
        # ask remains total
        assert ask(bare, "who wrote hamlet").answer == "shakespeare"


class TestSplit:
    def test_sizes(self):
        pairs = [(f"q{i}", f"a{i}") for i in range(10)]
        train, test = split_dataset(pairs, 0.7, seed=0)
        assert len(train) == 7 and len(test) == 3

    def test_disjoint_union(self):
        pairs = [(f"q{i}", f"a{i}") for i in range(100)]
        train, test = split_dataset(pairs, 0.7, seed=5)
        assert sorted(train + test) == sorted(pairs)
        assert not set(train) & set(test)

    def test_seed_determinism(self):
        pairs = [(f"q{i}", f"a{i}") for i in range(50)]
        assert split_dataset(pairs, 0.7, seed=9) == split_dataset(pairs, 0.7, seed=9)
        assert split_dataset(pairs, 0.7, seed=9) != split_dataset(pairs, 0.7, seed=10)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split_dataset([("q", "a")], 1.0)


class TestEvaluate:
    def test_full_accuracy_on_toy_world(self, toy):
        report = evaluate(toy["system"], toy["pairs"])
        assert report.total == 25
        assert report.accuracy == 1.0

    def test_normalized_comparison(self, toy):
        report = evaluate(toy["system"], [("who wrote hamlet", "  Shakespeare! ")])
        assert report.correct == 1

    def test_empty_dataset(self, toy):
        with pytest.raises(EmptyDataset):
            evaluate(toy["system"], [])

    def test_per_solver_hit_rates(self, toy):
        report = evaluate(toy["system"], toy["pairs"])
        assert set(report.per_solver_hit_rate) == {"sp", "ld", "rr"}
        assert all(0.0 <= r <= 1.0 for r in report.per_solver_hit_rate.values())
        assert report.per_solver_hit_rate["ld"] >= 0.5


class TestSelectorData:
    def test_counts_and_format(self, toy, tmp_path):
        out = str(tmp_path / "sel.jsonl")
        written, skipped = make_selector_data(toy["system_three"], toy["pairs"], out)
        assert written + skipped == 25
        assert written >= 1
        with open(out) as fh:
            for line in fh:
                doc = json.loads(line)
                assert len(doc["candidates"]) >= 2
                assert 0 <= doc["gold"] < len(doc["candidates"])

    def test_gold_index_matches_answer(self, toy, tmp_path):
        out = str(tmp_path / "sel.jsonl")
        make_selector_data(toy["system_three"], toy["pairs"], out)
        gold_by_q = {q: a for q, a in toy["pairs"]}
        with open(out) as fh:
            for line in fh:
                doc = json.loads(line)
                gold = normalize(gold_by_q[doc["question"]])
                assert normalize(doc["candidates"][doc["gold"]]) == gold


def test_load_qa_pairs(fx):
    pairs = load_qa_pairs(os.path.join(fx, "qa.jsonl"))
    assert len(pairs) == 25
    assert pairs[0] == ("who wrote hamlet", "shakespeare")
