"""System orchestration: ask, evaluate, splitting, selector data."""

import json
import logging
import os
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from openqa import nn, pipeline, text
from openqa.errors import ConfigError, EmptyDataset, EmptyQuestion, MalformedLine
from openqa.hyper import Hyper
from openqa.kb import build_entity_dictionary, load_triples
from openqa.pipeline import (
    System, SystemConfig, ask, evaluate, load_qa_pairs,
    fusion_input, make_selector_data, split_dataset,
)
from openqa.reader import init_reader
from openqa.retrieval import load_passages
from openqa.selector import select
from openqa.text import normalize

from conftest import write_changed_vocab


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

    def test_build_draws_no_weights(self, toy, monkeypatch):
        """Loading checks each model's shapes against a zero model of its arch:
        a build makes no generator and draws nothing, and (in a fresh process)
        does not import numpy.random if `import numpy` has not already (numpy
        1.x imports it eagerly, numpy 2 on first use)."""
        def no_draw(*args):
            raise AssertionError("a System build made a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        system = System(SystemConfig.load(toy["config"]))
        models = [model.params for model in (system.tagger, system.scorer, system.reader, system.selector)]
        assert all(model is not None and model._rng is None for model in models)

        src = os.path.dirname(os.path.dirname(pipeline.__file__))
        code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
                "from openqa.pipeline import System, SystemConfig; "
                f"System(SystemConfig.load({toy['config']!r})); "
                "print(before, 'numpy.random' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        before, after = done.stdout.split()
        assert after == before

    def test_every_model_is_bound_to_the_vocabulary_it_was_checked_against(self, toy):
        system = toy["system"]
        for model in (system.tagger, system.scorer, system.reader, system.selector):
            assert type(model) is nn.Model and model.vocab is system.vocab

    def test_model_for_another_vocabulary_fails_at_load(self, toy, tmp_path):
        reader = str(tmp_path / "reader.json")
        init_reader(toy["system"].vocab.size + 5, Hyper(d=4, h=4)).save(reader)
        config_path = toy["write_config"](str(tmp_path / "other_vocab.json"), {"reader_model": reader})
        size = toy["system"].vocab.size
        with pytest.raises(ConfigError, match=re.escape(f"reader_model {reader}: built for a vocabulary of {size + 5}")):
            System(SystemConfig.load(config_path))

    @pytest.mark.parametrize("change", ["reversed", "one-word-replaced"])
    def test_models_trained_on_other_words_fail_at_load(self, toy, tmp_path, change):
        vocab = write_changed_vocab(tmp_path / "vocab.txt", change)
        for kind, model in toy["models"].items():
            config_path = toy["write_config"](str(tmp_path / f"{kind}.json"),
                                              {"vocab_path": vocab, f"{kind}_model": model})
            message = f"{kind}_model {model}: trained on other words than {vocab} "
            with pytest.raises(ConfigError, match=re.escape(message)):
                System(SystemConfig.load(config_path))

    def test_trained_model_without_a_vocabulary_checksum_fails_at_load(self, toy, tmp_path):
        params = nn.ModelParameters.load(toy["models"]["reader"])
        del params.arch["vocab_crc"]
        reader = str(tmp_path / "reader.npz")
        params.save(reader)
        config_path = toy["write_config"](str(tmp_path / "no_crc.json"), {"reader_model": reader})
        with pytest.raises(ConfigError, match=re.escape(f"reader_model {reader}: trained on other words than ")):
            System(SystemConfig.load(config_path))

    def test_seed_model_loads_with_any_words_of_its_size(self, toy, tmp_path):
        """An untrained model pairs no id with a word, so it records no checksum and loads."""
        vocab = write_changed_vocab(tmp_path / "vocab.txt", "reversed")
        reader = str(tmp_path / "reader.npz")
        init_reader(toy["system"].vocab.size, Hyper(d=4, h=4)).save(reader)
        config_path = toy["write_config"](str(tmp_path / "seed.json"), {"vocab_path": vocab, "reader_model": reader})
        assert System(SystemConfig.load(config_path)).reader is not None

    def test_build_and_ask_load_no_hashlib(self, toy):
        src = os.path.dirname(os.path.dirname(pipeline.__file__))
        code = ("import sys; from openqa.pipeline import System, SystemConfig, ask; "
                f"ask(System(SystemConfig.load({toy['config']!r})), 'who wrote hamlet'); "
                "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


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

    @pytest.mark.parametrize("question,only", [("who wrote hamlet", "sp"), ("who wrote hamlet", "ld"),
                                               ("what color is the sky", "rr")])
    def test_lone_top_is_selected_without_the_transformer(self, toy, monkeypatch, question, only):
        """With one solver's top, `ask` gives what `select` gives on that top,
        without running it; with two or more tops, it runs `select` once."""
        system = toy["system"]
        for tag in {"sp", "ld", "rr"} - {only}:
            monkeypatch.setattr(system, f"run_{tag}", lambda q: [])
        calls = []
        monkeypatch.setattr(pipeline, "select", lambda *args: calls.append(args) or select(*args))
        response = ask(system, question)
        top = getattr(System, f"run_{only}")(system, question)[0]
        want = select(system.selector, question, [top])
        assert calls == []
        assert (response.answer, response.confidence, response.solver) == \
            (want.answer.answer, want.probabilities[want.chosen], "selector") == (top.answer, 1.0, "selector")
        monkeypatch.undo()
        monkeypatch.setattr(pipeline, "select", lambda *args: calls.append(args) or select(*args))
        ask(system, "who wrote hamlet")
        assert len(calls) == 1 and len(calls[0][2]) == 2


class TestSolverDegradation:
    def test_every_solver_has_a_candidate_list(self, toy):
        candidates = ask(toy["system"], "who wrote hamlet").candidates
        assert set(candidates) == {"sp", "ld", "rr"}

    def test_timings_are_each_solvers_own_time(self, toy, monkeypatch):
        system = toy["system"]
        run_sp = system.run_sp

        def slow_sp(question):
            time.sleep(0.3)
            return run_sp(question)

        monkeypatch.setattr(system, "run_sp", slow_sp)
        response = ask(system, "who wrote hamlet")
        candidates, timings = response.candidates, response.timings
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
        ask(system, "who wrote hamlet")
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
            candidates = ask(system, "who wrote hamlet").candidates
        assert candidates["sp"][0].answer == "shakespeare"
        assert calls == []
        assert candidates["ld"] == [] and candidates["rr"] == []
        skips = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert [r.getMessage().split()[1] for r in skips] == ["ld", "rr"]
        assert all(r.exc_info is None for r in skips)

    def test_failed_solver_is_one_error_line(self, toy, monkeypatch, caplog):
        system = toy["system"]

        def failing_sp(question):
            raise ValueError("boom")

        monkeypatch.setattr(system, "run_sp", failing_sp)
        with caplog.at_level(logging.WARNING, logger="openqa"):
            response = ask(system, "who wrote hamlet")
        assert response.candidates["sp"] == []
        assert response.answer == "shakespeare" and (response.candidates["ld"] or response.candidates["rr"])
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert [r.getMessage() for r in errors] == ["solver sp failed on 'who wrote hamlet': ValueError: boom"]
        assert errors[0].exc_info is None

    def test_missing_models_degrade_to_empty(self, toy, tmp_path):
        config_path = toy["write_config"](str(tmp_path / "bare.json"), {})
        bare = System(SystemConfig.load(config_path))
        response = ask(bare, "who wrote hamlet")
        candidates = response.candidates
        assert candidates["ld"] == [] and candidates["rr"] == []
        assert candidates["sp"][0].answer == "shakespeare"
        # ask remains total
        assert response.answer == "shakespeare"


class TestBuildCorpus:
    def test_each_document_is_split_into_words_once(self, fx, monkeypatch):
        """The token regex runs once per document and once per distinct
        subject entity: tagging and indexing share each passage's words."""
        class CountingPattern:
            def __init__(self, pattern):
                self.pattern, self.runs = pattern, 0

            def findall(self, text):
                self.runs += 1
                return self.pattern.findall(text)

        kb = load_triples(os.path.join(fx, "kb.tsv"))
        dictionary = build_entity_dictionary(kb)
        passages_path = os.path.join(fx, "passages.jsonl")
        passages = load_passages(passages_path)
        pattern = CountingPattern(text._TOKEN_RE)
        monkeypatch.setattr(text, "_TOKEN_RE", pattern)
        idx = pipeline.build_corpus(kb, dictionary, passages_path)
        entities = {entity for doc in idx.docs for entity in doc.subject_field}
        assert idx.doc_count == len(kb.triples) + len(passages) and passages and entities
        assert pattern.runs == idx.doc_count + len(entities)


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

    def test_rows_are_what_ask_fuses(self, toy, tmp_path):
        """Each written row's candidates are the answers `ask` hands the selector."""
        out = str(tmp_path / "sel.jsonl")
        written, _ = make_selector_data(toy["system_three"], toy["pairs"], out)
        with open(out) as fh:
            rows = [json.loads(line) for line in fh]
        assert len(rows) == written >= 1
        for row in rows:
            tops = fusion_input(ask(toy["system_three"], row["question"]).candidates)
            assert row["candidates"] == [c.answer for c in tops]


def test_load_qa_pairs(fx):
    pairs = load_qa_pairs(os.path.join(fx, "qa.jsonl"))
    assert len(pairs) == 25
    assert pairs[0] == ("who wrote hamlet", "shakespeare")


@pytest.mark.parametrize("field", ["question", "answer"])
@pytest.mark.parametrize("value", [5, ["a"], None, "", "?"])
def test_qa_field_that_is_not_a_string_is_malformed(tmp_path, field, value):
    """A field that is not a string, or that normalizes to nothing, names the file and line."""
    path = tmp_path / "qa.jsonl"
    path.write_text(json.dumps({"question": "who wrote hamlet", "answer": "x", field: value}) + "\n")
    with pytest.raises(MalformedLine) as info:
        load_qa_pairs(str(path))
    fault = "is empty after normalization" if isinstance(value, str) else "must be a string"
    assert str(info.value) == f"{path}: malformed line 1: field {field!r} {fault}, got {json.dumps(value)}"
