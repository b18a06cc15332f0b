"""Tour of the triple store and the SPARQL subset.

Loads the toy world KB, runs a few queries by hand, and shows how
questions become single-pattern SPARQL.
"""

import os

from openqa.kb import (
    ObjectUnknown, SparqlQuery, SubjectUnknown, build_entity_dictionary, execute_sparql,
    load_triples, serialize_sparql,
)

TOYWORLD = os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures", "toyworld")

kb = load_triples(os.path.join(TOYWORLD, "kb.tsv"))
print(f"loaded {len(kb)} triples, {len(kb.entities)} entities")
print("predicates of 'paris':", kb.predicates_of("paris"))

print("\n-- object-unknown query: who wrote hamlet? --")
query = SparqlQuery("x", ObjectUnknown("hamlet", "author"))
print("query:", serialize_sparql(query))
print("bindings:", execute_sparql(kb, query))

print("\n-- subject-unknown query: which books did shakespeare write? --")
query = SparqlQuery("x", SubjectUnknown("author", "shakespeare"))
print("query:", serialize_sparql(query))
print("bindings:", execute_sparql(kb, query))

print("\n-- filtered query: mountains taller than 8700m --")
query = SparqlQuery("x", ObjectUnknown("everest", "height"), (">", "8700"))
print("query:", serialize_sparql(query))
print("bindings:", execute_sparql(kb, query))
query = SparqlQuery("x", ObjectUnknown("k2", "height"), (">", "8700"))
print("k2 bindings under the same filter:", execute_sparql(kb, query))

print("\n-- entity dictionary --")
dictionary = build_entity_dictionary(kb)
print(f"{len(dictionary.entries)} surface forms, e.g.",
      dict(list(dictionary.entries.items())[:5]))
