"""The whole engine: train every model, fuse the solvers, evaluate.

Mirrors the production flow: train the three solver models, bootstrap
selector training data from solver agreement, train the selector, then
answer questions through the fused pipeline.
"""

import json
import os
import tempfile
import time

from openqa.hyper import Hyper
from openqa.ld_solver import load_scorer_data, load_tagger_data, train_relation_scorer, train_tagger
from openqa.pipeline import (
    System, SystemConfig, ask, evaluate, load_qa_pairs, make_selector_data, split_dataset,
)
from openqa.reader import load_reader_data, train_reader
from openqa.selector import load_selector_data, train_selector
from openqa.text import Vocabulary

TOYWORLD = os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures", "toyworld")

started = time.perf_counter()
workdir = tempfile.mkdtemp(prefix="openqa_demo_")
vocab = Vocabulary.load(os.path.join(TOYWORLD, "vocab.txt"))

def hyper(epochs):
    return Hyper(d=16, h=16, heads=2, layers=1, lr=0.1, epochs=epochs, seed=7)

def write_config(name, models):
    with open(os.path.join(TOYWORLD, "config.json")) as fh:
        doc = json.load(fh)
    for key in ("kb_path", "passages_path", "templates_path", "vocab_path"):
        doc[key] = os.path.join(TOYWORLD, doc[key])
    doc.update(models)
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path

print("training the solver models ...")
paths = {k: os.path.join(workdir, f"{k}.npz") for k in ("tagger", "scorer", "reader", "selector")}
train_tagger(load_tagger_data(os.path.join(TOYWORLD, "tagger.jsonl")),
             hyper(60), vocab).save(paths["tagger"])
train_relation_scorer(load_scorer_data(os.path.join(TOYWORLD, "scorer.jsonl")),
                      hyper(30), vocab).save(paths["scorer"])
train_reader(load_reader_data(os.path.join(TOYWORLD, "reader.jsonl")),
             hyper(100), vocab).params.save(paths["reader"])

print("bootstrapping selector data from solver agreement ...")
system = System(SystemConfig.load(write_config("three.json", {
    "tagger_model": paths["tagger"], "scorer_model": paths["scorer"],
    "reader_model": paths["reader"]})))
pairs = load_qa_pairs(os.path.join(TOYWORLD, "qa.jsonl"))
selector_jsonl = os.path.join(workdir, "selector.jsonl")
written, skipped = make_selector_data(system, pairs, selector_jsonl)
print(f"  {written} examples written, {skipped} skipped")

train_selector(load_selector_data(selector_jsonl), hyper(100), vocab).params.save(paths["selector"])
system = System(SystemConfig.load(write_config("full.json", {
    f"{k}_model": v for k, v in paths.items()})))

print("\nasking through the fused pipeline:")
for q in ("who wrote hamlet", "what is the capital of spain",
          "what color is the sky", "tell me the chemical symbol for iron"):
    r = ask(system, q)
    print(f"  {q!r} -> {r.answer!r} (confidence {r.confidence:.3f}, via {r.solver})")

train, test = split_dataset(pairs, 0.7, seed=0)
print(f"\n70/30 split: {len(train)} train, {len(test)} test")
report = evaluate(system, pairs)
print(f"exact match on all {report.total} pairs: {report.accuracy:.0%}")
print("per-solver hit rates:", {k: round(v, 2) for k, v in report.per_solver_hit_rate.items()})
print(f"\ntotal wall time {time.perf_counter() - started:.1f}s; artifacts in {workdir}")
