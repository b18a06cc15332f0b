"""Embedded triple store with a single-pattern SPARQL subset.

The store answers exactly one kind of query: a triple pattern with one
variable, optionally filtered by a comparator on that variable. That is
all the rule-based and neural KB solvers need to fill in the missing
part of a (subject, predicate, object) fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import FilterTypeError, MalformedLine
from .text import EntityDictionary, dictionary_key


@dataclass(frozen=True)
class Triple:
    subject: str
    predicate: str
    object: str

    def __post_init__(self):
        for name in ("subject", "predicate", "object"):
            value = getattr(self, name)
            if not value.strip():
                raise ValueError(f"triple {name} is empty")
            if "\t" in value or "\n" in value:
                raise ValueError(f"triple {name} contains tab/newline")


class KnowledgeBase:
    """Immutable triple collection with (s,p)->objects and (p,o)->subjects indices."""

    def __init__(self, triples: list[Triple]):
        self.triples: list[Triple] = list(dict.fromkeys(triples))  # first occurrence of each, in order

        self.by_subject_predicate: dict[tuple[str, str], list[str]] = {}
        self.by_predicate_object: dict[tuple[str, str], list[str]] = {}
        self.predicates_by_subject: dict[str, list[str]] = {}  # subject -> predicates, first occurrence first
        for t in self.triples:
            objs = self.by_subject_predicate.setdefault((t.subject, t.predicate), [])
            if not objs:
                self.predicates_by_subject.setdefault(t.subject, []).append(t.predicate)
            if t.object not in objs:
                objs.append(t.object)
            subs = self.by_predicate_object.setdefault((t.predicate, t.object), [])
            if t.subject not in subs:
                subs.append(t.subject)

        subjects = {t.subject for t in self.triples}
        self.entities: set[str] = set(subjects)
        self.entities.update(t.object for t in self.triples if t.object in subjects)

    def predicates_of(self, subject: str) -> list[str]:
        """Outgoing predicates of a subject, in first-occurrence order."""
        return list(self.predicates_by_subject.get(subject, ()))

    def __len__(self) -> int:
        return len(self.triples)


def load_triples(path: str) -> KnowledgeBase:
    """Load a UTF-8 TSV file (subject<TAB>predicate<TAB>object per line).

    Blank lines and lines starting with '#' are skipped; duplicate
    triples collapse to one.
    """
    triples: list[Triple] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise MalformedLine(path, lineno, f"expected 3 tab-separated fields, got {len(fields)}")
            try:
                triples.append(Triple(fields[0].strip(), fields[1].strip(), fields[2].strip()))
            except ValueError as exc:
                raise MalformedLine(path, lineno, str(exc)) from exc
    return KnowledgeBase(triples)


COMPARATORS = ("<=", ">=", "!=", "=", "<", ">")
_NUMERIC_COMPARATORS = {"<", ">", "<=", ">="}


@dataclass(frozen=True)
class ObjectUnknown:
    subject: str
    predicate: str


@dataclass(frozen=True)
class SubjectUnknown:
    predicate: str
    object: str


@dataclass(frozen=True)
class SparqlQuery:
    variable: str
    pattern: ObjectUnknown | SubjectUnknown
    filter: Optional[tuple[str, str]] = None  # (comparator, literal)

    def __post_init__(self):
        if self.filter is not None:
            comp, literal = self.filter
            if comp not in COMPARATORS:
                raise ValueError(f"unknown comparator {comp!r}")
            if comp in _NUMERIC_COMPARATORS and _as_number(literal) is None:
                raise ValueError(f"numeric comparator {comp} needs a numeric literal, got {literal!r}")


def _as_number(text: str) -> Optional[float]:
    try:
        return float(text)
    except ValueError:
        return None


def serialize_sparql(q: SparqlQuery) -> str:
    """The query as SPARQL text: the provenance of a KB answer."""
    if isinstance(q.pattern, ObjectUnknown):
        body = f"<{q.pattern.subject}> <{q.pattern.predicate}> ?{q.variable}"
    else:
        body = f"?{q.variable} <{q.pattern.predicate}> <{q.pattern.object}>"
    filt = ""
    if q.filter is not None:
        comp, literal = q.filter
        lit = literal if _as_number(literal) is not None else f'"{literal}"'
        filt = f" FILTER(?{q.variable} {comp} {lit})"
    return f"SELECT ?{q.variable} WHERE {{ {body} .{filt} }}"


def _passes_filter(binding: str, filt: Optional[tuple[str, str]]) -> bool:
    if filt is None:
        return True
    comp, literal = filt
    if comp in _NUMERIC_COMPARATORS:
        left = _as_number(binding)
        if left is None:
            raise FilterTypeError(f"non-numeric binding {binding!r} under comparator {comp}")
        right = float(literal)
        return {"<": left < right, ">": left > right, "<=": left <= right, ">=": left >= right}[comp]
    if comp == "=":
        return binding == literal
    return binding != literal


def execute_sparql(kb: KnowledgeBase, q: SparqlQuery) -> list[str]:
    """All bindings matching the pattern, filtered, first-insertion order."""
    if isinstance(q.pattern, ObjectUnknown):
        candidates = kb.by_subject_predicate.get((q.pattern.subject, q.pattern.predicate), [])
    else:
        candidates = kb.by_predicate_object.get((q.pattern.predicate, q.pattern.object), [])
    out: list[str] = []
    for binding in candidates:
        if _passes_filter(binding, q.filter) and binding not in out:
            out.append(binding)
    return out


def build_entity_dictionary(kb: KnowledgeBase) -> EntityDictionary:
    """Export KB entities keyed by their tokens joined by one space
    (`dictionary_key`), the form `tokenize` merges: "Paris, Texas" is
    keyed "paris texas".

    When two entities have the same key the lexicographically smallest
    canonical string wins.
    """
    entries: dict[str, str] = {}
    for entity in kb.entities:
        key = dictionary_key(entity)
        if not key:
            continue
        if key not in entries or entity < entries[key]:
            entries[key] = entity
    return EntityDictionary(entries)
