"""Correctness checks computed apart from the program.

Each check returns a list of human-readable mismatches; an empty list
means the check passed. Nothing here calls `openqa` to compute an
expected value: BM25 is recomputed from the raw world files with the
documented formula, and expected answers come from the generator.
"""

from __future__ import annotations

import json
import math
import os
import re
from collections import Counter

K1 = 1.2
B = 0.75
SUBJECT_BOOST = 2.0
MAX_SPAN_TOKENS = 15
_TOKEN = re.compile(r"\w+(?:[.'\-]\w+)*")


def tokens(text: str) -> list[str]:
    return [t.lower() for t in _TOKEN.findall(text)]


def same_float(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


class ReferenceBM25:
    """Two-field BM25 over the documents `openqa` indexes, rebuilt from
    kb.tsv and passages.jsonl: one document per distinct triple
    ("subject predicate object", subject field = the subject), then one
    per passage (subject field = the KB subjects it mentions)."""

    def __init__(self, world_dir: str):
        triples: dict[tuple[str, str, str], None] = {}
        with open(os.path.join(world_dir, "kb.tsv"), encoding="utf-8") as fh:
            for line in fh:
                s, p, o = line.rstrip("\n").split("\t")
                triples[(s, p, o)] = None
        subjects = {s for s, _, _ in triples}
        longest = max(len(s.split()) for s in subjects)

        docs: list[tuple[list[str], set[str]]] = []  # (terms, subject terms)
        for s, p, o in triples:
            docs.append((tokens(f"{s} {p} {o}"), set(tokens(s))))
        with open(os.path.join(world_dir, "passages.jsonl"), encoding="utf-8") as fh:
            for line in fh:
                terms = tokens(json.loads(line)["text"])
                mentioned: set[str] = set()
                i = 0
                while i < len(terms):  # longest subject name starting at i
                    for w in range(min(longest, len(terms) - i), 0, -1):
                        name = " ".join(terms[i:i + w])
                        if name in subjects:
                            mentioned.update(terms[i:i + w])
                            i += w
                            break
                    else:
                        i += 1
                docs.append((terms, mentioned))

        self.tf = [Counter(terms) for terms, _ in docs]
        self.subject_terms = [subj for _, subj in docs]
        self.lengths = [len(terms) for terms, _ in docs]
        self.avg = sum(self.lengths) / len(docs)
        self.n = len(docs)
        self.docs_with: dict[str, list[int]] = {}
        for doc_id, tf in enumerate(self.tf):
            for term in tf:
                self.docs_with.setdefault(term, []).append(doc_id)

    def top_k(self, query: str, k: int) -> list[tuple[int, float]]:
        terms = list(dict.fromkeys(tokens(query)))
        matched = {d for t in terms for d in self.docs_with.get(t, ())}
        scored = []
        for d in matched:
            norm = K1 * (1.0 - B + B * self.lengths[d] / self.avg)
            score = 0.0
            for t in terms:
                tf = self.tf[d].get(t, 0)
                if tf == 0:
                    continue
                df = len(self.docs_with[t])
                idf = math.log(1.0 + (self.n - df + 0.5) / (df + 0.5))
                c = idf * tf * (K1 + 1.0) / (tf + norm)
                if t in self.subject_terms[d]:
                    c *= SUBJECT_BOOST
                score += c
            scored.append((-score, d))
        scored.sort()
        return [(d, -s) for s, d in scored[:k]]


def check_search(reference: ReferenceBM25, question: str, results, k: int) -> list[str]:
    """`results` are (doc_id, score) pairs from `openqa.retrieval.search`."""
    expected = reference.top_k(question, k)
    if [d for d, _ in results] != [d for d, _ in expected]:
        return [f"search {question!r}: doc ids {[d for d, _ in results]} != reference {[d for d, _ in expected]}"]
    return [f"search {question!r}: doc {d} score {s} != reference {e}"
            for (d, s), (_, e) in zip(results, expected) if not same_float(s, e)]


def check_rr_spans(question: str, rr_answers: list[str], passages: list[str]) -> list[str]:
    """Every `rr` answer is a run of at most 15 tokens of a retrieved passage."""
    texts = [" ".join(tokens(p)) for p in passages]
    bad = []
    for answer in rr_answers:
        n = len(tokens(answer))
        joined = " ".join(tokens(answer))
        if not 1 <= n <= MAX_SPAN_TOKENS or not any(f" {joined} " in f" {t} " for t in texts):
            bad.append(f"rr answer {answer!r} to {question!r} is not a span of a retrieved passage")
    return bad


def check_answer_from_tops(question: str, response: dict) -> list[str]:
    """The chosen answer is one of the solvers' top candidates."""
    tops = [c[0]["answer"] for c in response["candidates"].values() if c]
    if response["answer"] is None:
        return [] if not tops else [f"{question!r}: no answer despite candidates {tops}"]
    if response["answer"] not in tops:
        return [f"{question!r}: answer {response['answer']!r} is not a solver top {tops}"]
    return []


def check_sp_objects(q: dict, response: dict) -> list[str]:
    """For a template question the `sp` answers are exactly the generator's objects."""
    got = sorted(c["answer"] for c in response["candidates"].get("sp", []))
    if got != sorted(q["objects"]):
        return [f"sp on {q['question']!r}: {got} != generated objects {sorted(q['objects'])}"]
    return []


def check_probabilities(question: str, probabilities, chosen_probability: float, response: dict) -> list[str]:
    total = sum(probabilities)
    bad = []
    if abs(total - 1.0) > 1e-9:
        bad.append(f"{question!r}: selector probabilities sum to {total!r}")
    if not same_float(max(probabilities), chosen_probability) or not same_float(chosen_probability, response["confidence"]):
        bad.append(f"{question!r}: confidence {response['confidence']} is not the chosen probability")
    return bad


def without_timings(response: dict) -> dict:
    return {k: v for k, v in response.items() if k != "timings"}
