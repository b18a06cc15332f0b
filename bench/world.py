"""Seeded synthetic worlds for the benchmark.

A world is the set of files `openqa` reads (KB triples, passages,
templates, vocabulary, four seeded untrained models at d=h=32, a config),
plus what only the benchmark reads: the question list with its ground
truth.

Run as a script it writes one world and the questions drawn from SEED,
then exits, so that the process that generates a world is never the one
whose memory the benchmark reports:

    python3 bench/world.py kb SEED OUT_DIR [--small]
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys

# name -> (template regex, question format, paraphrase format, object kind)
PREDICATES = {
    "author": ("^who wrote (.+)$", "who wrote {s}", "tell me who wrote {s}", "entity"),
    "founder": ("^who founded (.+)$", "who founded {s}", "do you know who founded {s}", "entity"),
    "birthplace": ("^where was (.+) born$", "where was {s} born", "tell me where {s} was born", "entity"),
    "capital": ("^what is the capital of (.+)$", "what is the capital of {s}", "name the capital city of {s}", "entity"),
    "spouse": ("^who is married to (.+)$", "who is married to {s}", "i wonder who {s} married", "entity"),
    "located_in": ("^where is (.+) located$", "where is {s} located", "in which place is {s}", "entity"),
    "population": ("^what is the population of (.+)$", "what is the population of {s}", "how many people live in {s}", "number"),
    "height": ("^how tall is (.+)$", "how tall is {s}", "what height does {s} have", "number"),
    "genre": ("^what genre is (.+)$", "what genre is {s}", "tell me the genre of {s}", "word"),
    "language": ("^what language is spoken in (.+)$", "what language is spoken in {s}", "which tongue do people speak in {s}", "word"),
}
WORD_VALUES = ["drama", "comedy", "epic", "satire", "fable", "elegy", "saga", "ballad",
               "nordic", "latin", "tamil", "basque", "welsh", "greek", "hindi", "swahili"]
# facts that only passages state, so only the retrieve-and-read solver answers them
PASSAGE_ATTRIBUTES = ["motto", "emblem", "colour", "anthem", "mascot", "symbol"]

COMMON_WORDS = ["the", "of", "is", "a", "and", "in", "what"]
CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"

# world make-up per kind; sizes chosen so one question costs ~0.1 s
SCALES = {
    # large entity dictionary, few passages: entity linking dominates
    "kb": {"entities": 1000, "two_token_share": 0.15, "passages": 100, "passage_tokens": 30,
           "filler_words": 400, "rounds": 64},
    # many long passages, small KB: BM25 search and span reading dominate
    "passages": {"entities": 300, "two_token_share": 0.15, "passages": 1000, "passage_tokens": 60,
                 "filler_words": 2000, "rounds": 3},
}
# the questions of one round: (kind, count)
MIX = {
    "kb": [("template", 8), ("paraphrase", 4), ("typo", 4)],
    "passages": [("passage", 9), ("template", 4), ("paraphrase", 2)],
}
# the models' seed is fixed; --seed varies the world and its questions
HYPER = {"d": 32, "h": 32, "heads": 2, "layers": 1, "lr": 0.05, "epochs": 1, "seed": 13}


def _syllables(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(n))


def _reserved_words() -> set[str]:
    texts = [fmt for _, fmt, para, _ in PREDICATES.values() for fmt in (fmt, para)]
    texts += WORD_VALUES + PASSAGE_ATTRIBUTES + COMMON_WORDS
    return {w for t in texts for w in t.split()}


def _entity_names(rng: random.Random, count: int, two_token_share: float) -> list[str]:
    """Distinct names. Single-token names end in a vowel and two-token
    names are built from words ending in 'n', so no name is a token of
    another and dictionary matching is unambiguous. No name is a word of
    a question template, so the only entity in a question is its subject."""
    names: list[str] = []
    seen: set[str] = _reserved_words()
    while len(names) < count:
        if rng.random() < two_token_share:
            name = f"{_syllables(rng, 2)}n {_syllables(rng, 2)}n"
        else:
            name = _syllables(rng, rng.choice((2, 3, 3)))
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def _typo(rng: random.Random, name: str, taken: set[str]) -> str:
    """One edit (substitute, insert or delete a letter) that hits no other name."""
    while True:
        i = rng.randrange(len(name))
        if name[i] == " ":
            continue
        op = rng.choice(("sub", "ins", "del"))
        letter = rng.choice(CONSONANTS + VOWELS)
        if op == "sub":
            out = name[:i] + letter + name[i + 1:]
        elif op == "ins":
            out = name[:i] + letter + name[i:]
        else:
            out = name[:i] + name[i + 1:]
        if out != name and out not in taken and " " not in (out[0], out[-1]) and "  " not in out:
            return out


def _filler(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        w = _syllables(rng, rng.choice((1, 2))) + rng.choice("xyw")
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


def _zipf_cum_weights(n: int) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank + 1) for rank in range(n)))


def generate(kind: str, seed: int, small: bool = False) -> dict:
    """Build a world in memory: files' contents plus the ground truth.
    The world itself is the same for every seed, so set-up figures
    compare across runs; `seed` draws the questions. `small` divides
    every size by ten, for a quick smoke run."""
    scale = {k: max(1, int(v / 10)) if small and k != "two_token_share" else v
             for k, v in SCALES[kind].items()}
    rng = random.Random(f"{kind}:world")
    names = _entity_names(rng, scale["entities"], scale["two_token_share"])
    taken = set(names)
    preds = list(PREDICATES)

    triples: list[tuple[str, str, str]] = []
    facts: dict[tuple[str, str], list[str]] = {}
    for s in names:
        for p in rng.sample(preds, rng.choice((2, 3, 3))):
            kind_o = PREDICATES[p][3]
            n_obj = 2 if rng.random() < 0.1 else 1
            objs: list[str] = []
            while len(objs) < n_obj:
                if kind_o == "entity":
                    o = rng.choice(names)
                elif kind_o == "number":
                    o = str(rng.randrange(10, 10_000_000))
                else:
                    o = rng.choice(WORD_VALUES)
                if o not in objs and o != s:
                    objs.append(o)
            facts[(s, p)] = objs
            triples.extend((s, p, o) for o in objs)

    filler = _filler(rng, scale["filler_words"], set(taken) | set(WORD_VALUES))
    cum_weights = _zipf_cum_weights(len(filler))
    passages: list[tuple[str, str]] = []
    passage_facts: list[tuple[str, str, str]] = []  # (subject, attribute, value)
    for i in range(scale["passages"]):
        s = rng.choice(names)
        attr = rng.choice(PASSAGE_ATTRIBUTES)
        value = rng.choice(filler)
        words = [f"the {attr} of {s} is {value}"]
        n = len(words[0].split())
        while n < scale["passage_tokens"]:
            r = rng.random()
            if r < 0.08:
                w = rng.choice(names)
            elif r < 0.3:
                w = rng.choice(COMMON_WORDS)
            else:
                w = rng.choices(filler, cum_weights=cum_weights)[0]
            words.append(w)
            n += len(w.split())
        rng.shuffle(words)
        passages.append((f"p{i:05d}", " ".join(words)))
        passage_facts.append((s, attr, value))

    # predicates and passage attributes go round-robin, so every seed asks
    # the same mix of question shapes; only subjects and names vary
    subjects_of: dict[str, list[str]] = {p: [] for p in preds}
    for s, p in facts:
        subjects_of[p].append(s)
    by_attr: dict[str, list[tuple[str, str, str]]] = {a: [] for a in PASSAGE_ATTRIBUTES}
    for fact in passage_facts:
        by_attr[fact[1]].append(fact)
    attrs = [a for a in PASSAGE_ATTRIBUTES if by_attr[a]]
    templates = [{"pattern": PREDICATES[p][0], "predicate": p, "subject_group": 1} for p in preds]

    rng = random.Random(f"{kind}:{seed}")
    questions: list[dict] = []  # whole rounds, each shuffled
    turn = 0
    for _ in range(scale["rounds"]):
        block = []
        for qkind, count in MIX[kind]:
            for _ in range(count):
                turn += 1
                if qkind == "passage":
                    s, attr, _ = rng.choice(by_attr[attrs[turn % len(attrs)]])
                    block.append({"kind": qkind, "question": f"what is the {attr} of {s}", "subject": s})
                    continue
                p = preds[turn % len(preds)]
                s = rng.choice(subjects_of[p])
                _, fmt, para, _ = PREDICATES[p]
                q = {"kind": qkind, "subject": s, "predicate": p, "objects": facts[(s, p)]}
                if qkind == "template":
                    q["question"] = fmt.format(s=s)
                elif qkind == "paraphrase":
                    q["question"] = para.format(s=s)
                else:
                    q["question"] = fmt.format(s=_typo(rng, s, taken))
                block.append(q)
        rng.shuffle(block)
        questions.extend(block)
    return {"triples": triples, "passages": passages, "templates": templates, "questions": questions}


def _vocabulary(world: dict) -> list[str]:
    """Every token of the world; a misspelt name is out of vocabulary. The words of the question shapes come
    first, so they have the same ids, and with the fixed model seed the
    same embeddings, in every world."""
    from openqa.text import tokenize

    texts = [fmt for _, fmt, para, _ in PREDICATES.values() for fmt in (fmt, para)]
    texts += [p.replace("_", " ") for p in PREDICATES] + COMMON_WORDS + PASSAGE_ATTRIBUTES + WORD_VALUES
    texts += [f"{s} {p} {o}" for s, p, o in world["triples"]]
    texts += [t for _, t in world["passages"]]
    tokens: dict[str, None] = {}
    for text in texts:
        tokens.update(dict.fromkeys(tokenize(text.replace("{s}", " ")).tokens))
    return list(tokens)


def write(kind: str, seed: int, out: str, small: bool = False) -> None:
    from openqa.hyper import Hyper
    from openqa.ld_solver import init_relation_scorer, init_tagger
    from openqa.reader import init_reader
    from openqa.selector import init_selector
    from openqa.text import Vocabulary

    world = generate(kind, seed, small)
    os.makedirs(out, exist_ok=True)

    def path(name):
        return os.path.join(out, name)

    def jsonl(name, rows):
        with open(path(name), "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in rows)

    with open(path("kb.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{s}\t{p}\t{o}\n" for s, p, o in world["triples"])
    jsonl("passages.jsonl", [{"id": pid, "text": text} for pid, text in world["passages"]])
    jsonl("templates.jsonl", world["templates"])
    jsonl("questions.jsonl", world["questions"])

    vocab = Vocabulary(_vocabulary(world))
    vocab.save(path("vocab.txt"))
    hyper = Hyper(**HYPER)
    init_tagger(vocab.size, hyper).save(path("tagger.json"))
    init_relation_scorer(vocab.size, hyper).save(path("scorer.json"))
    init_reader(vocab.size, hyper).save(path("reader.json"))
    init_selector(vocab.size, hyper).save(path("selector.json"))
    config = {
        "kb_path": "kb.tsv", "passages_path": "passages.jsonl",
        "templates_path": "templates.jsonl", "vocab_path": "vocab.txt",
        "tagger_model": "tagger.json", "scorer_model": "scorer.json",
        "reader_model": "reader.json", "selector_model": "selector.json",
        "retrieval_k": 10, "hyper": hyper.__dict__,
    }
    with open(path("config.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)


if __name__ == "__main__":
    write(sys.argv[1], int(sys.argv[2]), sys.argv[3], small="--small" in sys.argv[4:])
