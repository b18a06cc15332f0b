"""Tour of the three solvers, each answering in its own way.

- sp: templates + entity dictionary -> SPARQL
- ld: BIO tagger + Levenshtein linking + relation scorer -> KB lookup
- rr: BM25 retrieval + extractive span reader
"""

import os

from openqa.hyper import Hyper
from openqa.kb import build_entity_dictionary, load_triples
from openqa.ld_solver import (
    encode_relations, load_scorer_data, load_tagger_data, solve_ld, tag_entities,
    train_relation_scorer, train_tagger,
)
from openqa.pipeline import build_corpus
from openqa.reader import load_reader_data, read, train_reader
from openqa.retrieval import search
from openqa.sp_solver import load_templates, solve_sp
from openqa.text import Vocabulary, tokenize

TOYWORLD = os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures", "toyworld")

kb = load_triples(os.path.join(TOYWORLD, "kb.tsv"))
dictionary = build_entity_dictionary(kb)
templates = load_templates(os.path.join(TOYWORLD, "templates.jsonl"))
vocab = Vocabulary.load(os.path.join(TOYWORLD, "vocab.txt"))
hyper = Hyper(d=16, h=16, lr=0.1, seed=7)

print("-- sp: rule-based semantic parsing --")
for q in ("who wrote hamlet", "what is the capital of france"):
    print(f"  {q!r} ->", solve_sp(q, kb, dictionary, templates)[0])

print("\n-- ld: neural tagging, linking, relation detection --")
hyper.epochs = 60
tagger = train_tagger(load_tagger_data(os.path.join(TOYWORLD, "tagger.jsonl")), hyper, vocab)
hyper.epochs = 30
scorer = train_relation_scorer(load_scorer_data(os.path.join(TOYWORLD, "scorer.jsonl")), hyper, vocab)
relation_table = encode_relations(scorer, vocab, dict.fromkeys(t.predicate for t in kb.triples))
for q in ("who wrote hamlet", "who wrote hamlit"):  # note the typo
    tags = tag_entities(tagger, vocab, tokenize(q).tokens)
    print(f"  {q!r} tags {list(tags.tags)} ->", solve_ld(q, kb, dictionary, tagger, scorer, vocab, relation_table)[0])

print("\n-- rr: retrieve and read --")
idx = build_corpus(kb, dictionary, os.path.join(TOYWORLD, "passages.jsonl"))
hyper.epochs = 100
reader = train_reader(load_reader_data(os.path.join(TOYWORLD, "reader.jsonl")), hyper, vocab)
for q in ("what color is the sky", "what food never spoils"):
    results = search(idx, q, k=1)
    print(f"  {q!r} ->", read(reader, q, results)[0])
