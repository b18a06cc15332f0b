"""Tour of the triple store and the SPARQL subset.

Loads the toy world KB, runs a few queries by hand, and shows how
questions become single-pattern SPARQL.
"""

import os

from openqa.kb import (
    ObjectUnknown, SparqlQuery, build_entity_dictionary, execute_sparql,
    load_triples, parse_sparql, serialize_sparql,
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
query = parse_sparql("SELECT ?x WHERE { ?x <author> <shakespeare> . }")
print("query:", serialize_sparql(query))
print("bindings:", execute_sparql(kb, query))

print("\n-- filtered query: mountains taller than 8700m --")
query = parse_sparql("SELECT ?x WHERE { <everest> <height> ?x . FILTER(?x > 8700) }")
print("bindings:", execute_sparql(kb, query))
query = parse_sparql("SELECT ?x WHERE { <k2> <height> ?x . FILTER(?x > 8700) }")
print("k2 bindings under the same filter:", execute_sparql(kb, query))

print("\n-- entity dictionary --")
dictionary = build_entity_dictionary(kb)
print(f"{len(dictionary.entries)} surface forms, e.g.",
      dict(list(dictionary.entries.items())[:5]))
