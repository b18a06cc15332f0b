"""System orchestration: configuration, building the corpus, the
three-solver ask path, dataset splitting, evaluation, and selector
training-data generation.

`ask` alone runs the solvers (`sp`, `ld`, `rr`, in turn in the calling
thread) and fuses `fusion_input`, their tops. When `sp` parses a question
in full, the KB holds its answer and `ld` and `rr` do not run. `evaluate`
and `make_selector_data` go through `ask`, so the selector learns from the
lists it fuses. `build_corpus` builds the retrieval index from the knowledge
base and the passages, for `System` and `openqa index` alike."""

from __future__ import annotations

import json
import logging
import os
import random
import time
from dataclasses import dataclass, field, fields
from typing import Optional

from . import nn
from .answers import SOLVER_LD, SOLVER_ORDER, SOLVER_RR, SOLVER_SP, AnswerCandidate
from .errors import ConfigError, EmptyDataset, EmptyQuestion, ShapeMismatch
from .hyper import Hyper, require_int, require_positive
from .jsonl import read_json_lines, text_field
from .kb import KnowledgeBase, build_entity_dictionary, load_triples
from .ld_solver import encode_relations, init_relation_scorer, init_tagger, solve_ld
from .reader import init_reader, read
from .retrieval import InvertedIndex, build_index, load_passages, search, splice_triple, tag_passage
from .selector import init_selector, select
from .sp_solver import QuestionTemplate, load_templates, solve_sp
from .text import EntityDictionary, Vocabulary, normalize, split_words

log = logging.getLogger("openqa")

REQUIRED_CONFIG_KEYS = ("kb_path", "passages_path", "templates_path", "vocab_path")
# config slot -> (model kind, the function that builds a model of that kind)
MODEL_KINDS = {"tagger_model": ("tagger", init_tagger), "scorer_model": ("relation_scorer", init_relation_scorer),
               "reader_model": ("reader", init_reader), "selector_model": ("selector", init_selector)}
PATH_KEYS = REQUIRED_CONFIG_KEYS + tuple(MODEL_KINDS)


@dataclass
class SystemConfig:
    kb_path: str
    passages_path: str
    templates_path: str
    vocab_path: str
    tagger_model: Optional[str] = None
    scorer_model: Optional[str] = None
    reader_model: Optional[str] = None
    selector_model: Optional[str] = None
    retrieval_k: int = 10
    hyper: Hyper = field(default_factory=Hyper)
    http_addr: str = "127.0.0.1:8080"
    solver_timeout: float = 5.0

    def __post_init__(self):
        require_int("retrieval_k", self.retrieval_k, 1)
        require_positive("solver_timeout", self.solver_timeout)
        split_addr(self.http_addr)
        for name in PATH_KEYS:
            path = getattr(self, name)
            if path is None and name in MODEL_KINDS:
                continue
            if not isinstance(path, str):
                raise ConfigError(f"{name} must be a path string, got {path!r}")
            if not os.path.exists(path):
                raise ConfigError(f"{name} does not exist: {path}")

    @classmethod
    def load(cls, path: str) -> "SystemConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        missing = [key for key in REQUIRED_CONFIG_KEYS if key not in doc]
        if missing:
            raise ConfigError(f"{path}: missing required key(s): {', '.join(missing)}")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"{path}: unknown key(s): {', '.join(unknown)}")
        base = os.path.dirname(os.path.abspath(path))
        for key in PATH_KEYS:  # an absolute path stays as it is
            if isinstance(doc.get(key), str):
                doc[key] = os.path.join(base, doc[key])
        if "hyper" in doc:
            try:
                doc["hyper"] = Hyper(**doc["hyper"])
            except (TypeError, ConfigError) as exc:
                raise ConfigError(f"{path}: invalid hyper: {exc}") from exc
        return cls(**doc)


def split_addr(addr: str) -> tuple[str, int]:
    """`host:port` -> (host, port); an empty host is 127.0.0.1."""
    host, colon, port = addr.rpartition(":") if isinstance(addr, str) else ("", "", "")
    if not (colon and port.isascii() and port.isdigit() and 1 <= int(port) <= 65535):
        raise ConfigError(f"http_addr must be host:port with a port in 1..65535, got {addr!r}")
    return host or "127.0.0.1", int(port)


@dataclass
class AskResponse:
    answer: Optional[str]
    confidence: float
    solver: str
    candidates: dict[str, list[AnswerCandidate]]
    timings: dict[str, float]  # milliseconds per solver that ran

    def to_dict(self) -> dict:
        candidates = {tag: [{**vars(c)} for c in cands] for tag, cands in self.candidates.items()}
        return {**vars(self), "candidates": candidates}


@dataclass
class EvalReport:
    total: int
    correct: int
    per_solver_hit_rate: dict[str, float]
    oracle_correct: int  # some solver's top is right
    max_confidence_correct: int  # `max_confidence` over the tops is right: what no selector would get
    sp_alone: int  # `sp` answered, and no other solver ran

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0


def build_corpus(kb: KnowledgeBase, dictionary: EntityDictionary, passages_path: str) -> InvertedIndex:
    """Index the KB's triples, spliced into one-line documents, then the
    passages, each tagged with the dictionary entities it mentions; doc
    ids run in that order. Each document's text has one word pass, whose
    words feed both the tagging and the index, and the documents stream
    into `build_index` one at a time."""
    def documents():
        for doc_id, triple in enumerate(kb.triples):
            doc = splice_triple(triple, doc_id)
            yield doc, split_words(doc.value_field)
        for doc_id, (pid, text) in enumerate(load_passages(passages_path), start=len(kb.triples)):
            yield tag_passage(pid, text, dictionary, doc_id)

    return build_index(documents())


class System:
    """All immutable resources plus the configured models."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.kb: KnowledgeBase = load_triples(config.kb_path)
        self.dictionary: EntityDictionary = build_entity_dictionary(self.kb)
        self.templates: list[QuestionTemplate] = load_templates(config.templates_path)
        self.vocab: Vocabulary = Vocabulary.load(config.vocab_path)

        self.index: InvertedIndex = build_corpus(self.kb, self.dictionary, config.passages_path)

        self.tagger, self.scorer, self.reader, self.selector = map(self._load_model, MODEL_KINDS)
        self.relation_table = None  # every KB predicate's relation vectors, encoded once for the loaded scorer
        if self.scorer is not None:
            self.relation_table = encode_relations(self.scorer, dict.fromkeys(t.predicate for t in self.kb.triples))

    def _load_model(self, name: str) -> Optional[nn.Model]:
        """The configured model `name`, bound to the vocabulary it was checked
        against. The checks are its slot, the vocabulary (its size, and for a
        trained model the CRC of its words in id order) and the arch keys,
        parameter names and shapes that its kind's init function gives its
        `arch` (worked out without drawing weights): a mismatch would
        otherwise turn into wrong answers or none, or into an error on every
        question."""
        path = getattr(self.config, name)
        if path is None:
            return None
        try:
            params = nn.ModelParameters.load(path)
        except ValueError as exc:
            raise ConfigError(f"{name} {path}: not a readable model file: {exc}") from exc
        (expected, init), arch = MODEL_KINDS[name], params.arch
        kind, vocab = arch.get("kind"), arch.get("vocab")
        if kind != expected:
            raise ConfigError(f"{name} {path}: a {kind!r} model, expected {expected!r}")
        if vocab != self.vocab.size:
            raise ConfigError(f"{name} {path}: built for a vocabulary of {vocab} words, "
                              f"but {self.config.vocab_path} has {self.vocab.size}")
        if ("vocab_crc" in arch or "epoch_losses" in arch) and arch.get("vocab_crc") != self.vocab.crc:
            raise ConfigError(f"{name} {path}: trained on other words than {self.config.vocab_path} "
                              f"(vocab_crc {arch.get('vocab_crc')}, the vocabulary's is {self.vocab.crc})")
        try:  # a zero model of the recorded arch: its arch keys and shapes are the ones to have
            hyper = Hyper(**{key: arch[key] for key in ("d", "h", "heads", "layers") if key in arch})
            reference = init(vocab, hyper, draw=False)
        except (ValueError, TypeError, ConfigError, ShapeMismatch) as exc:
            raise ConfigError(f"{name} {path}: invalid arch: {exc}") from exc
        lacking = sorted(reference.arch.keys() - arch.keys())
        if lacking:
            raise ConfigError(f"{name} {path}: arch lacks {_listed(lacking)}")
        want = {key: arr.shape for key, arr in reference.entries.items()}
        got = {key: arr.shape for key, arr in params.entries.items()}
        if got != want:
            problems = {"missing": want.keys() - got.keys(), "unexpected": got.keys() - want.keys(),
                        "wrong shape": {key for key in want.keys() & got.keys() if got[key] != want[key]}}
            raise ConfigError(f"{name} {path}: parameters differ from a {kind!r} model of its arch: " + "; ".join(
                f"{problem} {_listed(sorted(keys))}" for problem, keys in problems.items() if keys))
        return nn.Model(params, self.vocab)

    # per-solver entry points; a missing model degrades to an empty list
    def run_sp(self, question: str) -> list[AnswerCandidate]:
        return solve_sp(question, self.kb, self.dictionary, self.templates)

    def run_ld(self, question: str) -> list[AnswerCandidate]:
        if self.tagger is None or self.scorer is None:
            return []
        return solve_ld(question, self.kb, self.dictionary, self.tagger, self.scorer, self.relation_table)

    def run_rr(self, question: str) -> list[AnswerCandidate]:
        if self.reader is None:
            return []
        results = search(self.index, question, self.config.retrieval_k)
        return read(self.reader, question, results)


def _listed(names: list[str], most: int = 3) -> str:
    return ", ".join(names[:most]) + (f" and {len(names) - most} more" if len(names) > most else "")


def fusion_input(candidates: dict[str, list[AnswerCandidate]]) -> list[AnswerCandidate]:
    """Each solver's top candidate, in SOLVER_ORDER: what `ask` fuses, and
    what `make_selector_data` writes for the selector to learn from."""
    return [candidates[tag][0] for tag in SOLVER_ORDER if candidates[tag]]


def max_confidence(tops: list[AnswerCandidate]) -> AnswerCandidate:
    """The fusion rule without a selector: the most confident top, ties
    going to the earlier solver in SOLVER_ORDER."""
    return max(tops, key=lambda c: (c.confidence, -SOLVER_ORDER.index(c.solver)))


def ask(system: System, question: str) -> AskResponse:
    """Run sp, then ld and rr, in turn in the calling thread; fuse their tops, return the winner.

    When `sp` parses the question in full (`SpAnswers.full_parse`: a
    template's capture is a dictionary key and its query has bindings), the
    KB holds the answer, and `ld` and `rr` do not run. `solver_timeout` is
    the question's budget: a solver starts only while less than that many
    seconds have passed since this call began. A running solver is not
    interrupted, so `ask` can overrun the budget by the time of the last
    solver started. A solver that did not run, or failed, contributes an
    empty list; a failure or a budget skip is logged on one line. `timings`
    holds each solver's own milliseconds, for the solvers that ran. The
    selector fuses `fusion_input`; without one, `max_confidence` picks.
    """
    if not normalize(question):
        raise EmptyQuestion("question is empty after normalization")
    solvers = {SOLVER_SP: system.run_sp, SOLVER_LD: system.run_ld, SOLVER_RR: system.run_rr}
    budget = system.config.solver_timeout
    started = time.perf_counter()
    candidates: dict[str, list[AnswerCandidate]] = {tag: [] for tag in solvers}
    timings: dict[str, float] = {}
    for tag, run in solvers.items():
        if getattr(candidates[SOLVER_SP], "full_parse", False):
            break  # the KB's own fact for the parsed subject and predicate
        begin = time.perf_counter()
        if begin - started >= budget:
            log.warning("solver %s skipped on %r: the %gs budget is spent", tag, question, budget)
            continue
        try:
            candidates[tag] = run(question)
        except Exception as exc:  # one line per failure, no traceback
            log.error("solver %s failed on %r: %s: %s", tag, question, type(exc).__name__, exc)
        timings[tag] = (time.perf_counter() - begin) * 1000.0

    tops = fusion_input(candidates)
    if not tops:
        fused = None, 0.0, "none"
    elif system.selector is None:  # cold start
        best = max_confidence(tops)
        fused = best.answer, best.confidence, best.solver
    elif len(tops) == 1:  # the softmax of one score is exactly 1.0: no transformer run
        fused = tops[0].answer, 1.0, "selector"
    else:
        result = select(system.selector, question, tops)
        fused = result.answer.answer, result.probabilities[result.chosen], "selector"
    return AskResponse(*fused, candidates, timings)


def sp_alone(response: AskResponse) -> bool:
    """Whether `sp` answered and was the only solver that ran."""
    return bool(response.candidates[SOLVER_SP]) and response.timings.keys() == {SOLVER_SP}


def split_dataset(pairs: list[tuple[str, str]], train_fraction: float = 0.7, seed: int = 0) -> tuple[list, list]:
    """Seeded shuffle; train gets round(fraction * n) items."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    shuffled = list(pairs)
    random.Random(seed).shuffle(shuffled)
    cut = round(train_fraction * len(shuffled))
    return shuffled[:cut], shuffled[cut:]


def load_qa_pairs(path: str) -> list[tuple[str, str]]:
    """JSON Lines {"question": str, "answer": str}, neither empty after normalization."""
    def qa_field(obj: dict, key: str) -> str:
        value = text_field(obj, key)
        if not normalize(value):
            raise ValueError(f"field {key!r} is empty after normalization, got {json.dumps(value)}")
        return value

    return read_json_lines(path, lambda obj: (qa_field(obj, "question"), qa_field(obj, "answer")))


def evaluate(system: System, dataset: list[tuple[str, str]]) -> EvalReport:
    """Exact-match accuracy after normalization, per-solver hit rates, the
    oracle and max-confidence accuracies, and how often `sp` answered alone."""
    if not dataset:
        raise EmptyDataset("evaluation dataset is empty")
    correct = oracle = by_confidence = alone = 0
    hits = {tag: 0 for tag in SOLVER_ORDER}
    for question, gold in dataset:
        response = ask(system, question)
        gold_norm = normalize(gold)
        if response.answer is not None and normalize(response.answer) == gold_norm:
            correct += 1
        tops = fusion_input(response.candidates)
        right = [top for top in tops if normalize(top.answer) == gold_norm]
        for top in right:
            hits[top.solver] += 1
        oracle += bool(right)
        by_confidence += bool(tops) and max_confidence(tops) in right
        alone += sp_alone(response)
    rates = {tag: hits[tag] / len(dataset) for tag in SOLVER_ORDER}
    return EvalReport(total=len(dataset), correct=correct, per_solver_hit_rate=rates,
                      oracle_correct=oracle, max_confidence_correct=by_confidence, sp_alone=alone)


def make_selector_data(system: System, dataset: list[tuple[str, str]], out_path: str) -> tuple[int, int, int]:
    """Write selector training lines; returns (written, skipped, skipped
    because `sp` answered alone).

    A line's candidates are the answers of `fusion_input` on the question's
    `ask` response, written when there are two or more and one matches the
    gold answer; the gold index is the first matching candidate.
    """
    if not dataset:
        raise EmptyDataset("dataset is empty")
    written = skipped = alone = 0
    with open(out_path, "w", encoding="utf-8") as fh:
        for question, gold in dataset:
            response = ask(system, question)
            tops = fusion_input(response.candidates)
            gold_norm = normalize(gold)
            matches = [i for i, c in enumerate(tops) if normalize(c.answer) == gold_norm]
            if len(tops) >= 2 and matches:
                fh.write(json.dumps({
                    "question": question,
                    "candidates": [c.answer for c in tops],
                    "gold": matches[0],
                }) + "\n")
                written += 1
            else:
                skipped += 1
                alone += sp_alone(response)
    return written, skipped, alone
