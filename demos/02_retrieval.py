"""Tour of the two-field BM25 index.

Triples are spliced into one-line documents and passages are tagged
with the entities they mention; query terms hitting a document's
subject field count double.
"""

import os

from openqa.kb import build_entity_dictionary, load_triples
from openqa.pipeline import build_corpus
from openqa.retrieval import search

TOYWORLD = os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures", "toyworld")

kb = load_triples(os.path.join(TOYWORLD, "kb.tsv"))
dictionary = build_entity_dictionary(kb)
idx = build_corpus(kb, dictionary, os.path.join(TOYWORLD, "passages.jsonl"))
print(f"indexed {idx.doc_count} documents ({len(kb)} triples + "
      f"{idx.doc_count - len(kb)} passages), {len(idx.postings)} terms")

for query in ("what is the fastest land animal",
              "capital of france",
              "symbol of gold"):
    print(f"\nquery: {query!r}")
    for r in search(idx, query, k=3):
        print(f"  {r.score:6.2f}  [{r.doc.kind:7s}] {r.doc.origin:40s} {r.doc.value_field[:50]}")
