"""Shared fixtures: the toy world and models trained once per session."""

import json
import os
import time

import pytest

from openqa.hyper import Hyper
from openqa.ld_solver import load_scorer_data, load_tagger_data, train_relation_scorer, train_tagger
from openqa.pipeline import System, SystemConfig, load_qa_pairs, make_selector_data
from openqa.reader import load_reader_data, train_reader
from openqa.selector import load_selector_data, train_selector
from openqa.text import Vocabulary

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "toyworld")

# per-model epoch budgets for the toy world (lr/seed/dims come from config.json)
TOY_EPOCHS = {"tagger": 60, "scorer": 30, "reader": 100, "selector": 100}


def _scalar_levenshtein(a: str, b: str) -> int:
    """Single-row DP over b, one pair at a time: the oracle for the batched DP."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost))
        prev = cur
    return prev[-1]


def write_changed_vocab(path, change: str) -> str:
    """The toy vocabulary's words `reversed`, or with `one-word-replaced`,
    written to `path`: the same size as the toy vocabulary, other words."""
    with open(os.path.join(FIXTURES, "vocab.txt"), encoding="utf-8") as fh:
        words = fh.read().split()
    words = words[::-1] if change == "reversed" else words[:5] + ["zorp"] + words[6:]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(w + "\n" for w in words)
    return str(path)


@pytest.fixture(scope="session")
def scalar_levenshtein():
    return _scalar_levenshtein


@pytest.fixture(scope="session")
def fx() -> str:
    return FIXTURES


@pytest.fixture(scope="session")
def vocab() -> Vocabulary:
    return Vocabulary.load(os.path.join(FIXTURES, "vocab.txt"))


def _toy_hyper(epochs: int) -> Hyper:
    with open(os.path.join(FIXTURES, "config.json"), encoding="utf-8") as fh:
        doc = json.load(fh)["hyper"]
    doc["epochs"] = epochs
    return Hyper(**doc)


def _write_config(path: str, models: dict) -> str:
    with open(os.path.join(FIXTURES, "config.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("kb_path", "passages_path", "templates_path", "vocab_path"):
        doc[key] = os.path.join(FIXTURES, doc[key])
    doc.update(models)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return path


@pytest.fixture(scope="session")
def toy(tmp_path_factory):
    """Toy world with all four models trained from seeds.

    Returns a dict with the trained Systems, config paths, the QA pairs,
    and the wall-clock seconds spent training (used by the end-to-end
    acceptance budget).
    """
    out = tmp_path_factory.mktemp("toy_models")
    vocab = Vocabulary.load(os.path.join(FIXTURES, "vocab.txt"))
    pairs = load_qa_pairs(os.path.join(FIXTURES, "qa.jsonl"))

    started = time.perf_counter()
    tagger_path = str(out / "tagger.npz")
    scorer_path = str(out / "scorer.npz")
    reader_path = str(out / "reader.npz")
    selector_path = str(out / "selector.npz")

    train_tagger(load_tagger_data(os.path.join(FIXTURES, "tagger.jsonl")),
                 _toy_hyper(TOY_EPOCHS["tagger"]), vocab).save(tagger_path)
    train_relation_scorer(load_scorer_data(os.path.join(FIXTURES, "scorer.jsonl")),
                          _toy_hyper(TOY_EPOCHS["scorer"]), vocab).save(scorer_path)
    train_reader(load_reader_data(os.path.join(FIXTURES, "reader.jsonl")),
                 _toy_hyper(TOY_EPOCHS["reader"]), vocab).params.save(reader_path)

    three_config = _write_config(str(out / "config_three.json"), {
        "tagger_model": tagger_path, "scorer_model": scorer_path, "reader_model": reader_path,
    })
    system_three = System(SystemConfig.load(three_config))

    selector_data = str(out / "selector.jsonl")
    written, skipped = make_selector_data(system_three, pairs, selector_data)
    train_selector(load_selector_data(selector_data),
                   _toy_hyper(TOY_EPOCHS["selector"]), vocab).params.save(selector_path)
    train_seconds = time.perf_counter() - started

    full_config = _write_config(str(out / "config.json"), {
        "tagger_model": tagger_path, "scorer_model": scorer_path,
        "reader_model": reader_path, "selector_model": selector_path,
    })
    system = System(SystemConfig.load(full_config))

    return {
        "dir": str(out),
        "config": full_config,
        "three_config": three_config,
        "system": system,
        "system_three": system_three,
        "pairs": pairs,
        "models": {"tagger": tagger_path, "scorer": scorer_path,
                   "reader": reader_path, "selector": selector_path},
        "selector_data": {"written": written, "skipped": skipped},
        "train_seconds": train_seconds,
        "write_config": _write_config,
    }
