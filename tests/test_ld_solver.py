"""Neural KBQA solver: BIO tagging, entity linking, relation detection."""

import json
import os
import random

import pytest

from openqa import ld_solver, nn, text
from openqa.hyper import Hyper
from openqa.errors import BadExample, MalformedLine, ShapeMismatch
from openqa.kb import KnowledgeBase, Triple, build_entity_dictionary, load_triples
from openqa.ld_solver import (
    MAX_LINK_DISTANCE, PLACEHOLDER, TAGS,
    EntityCandidate, RelationScore, TagSequence,
    encode_relations, extract_mention, init_relation_scorer,
    link_entity, load_scorer_data, load_tagger_data,
    repair_bio, score_relation, solve_ld, tag_entities, train_relation_scorer,
)
from openqa.text import EntityDictionary, normalize, tokenize

from oracles import detect_relation, score_from_scratch


class TestBio:
    @pytest.mark.parametrize("tags,repaired", [
        (["O", "B", "I", "O"], ["O", "B", "I", "O"]),
        (["I", "O", "O"], ["B", "O", "O"]),
        (["O", "I", "I"], ["O", "B", "I"]),
        (["I", "O", "I", "I", "B"], ["B", "O", "B", "I", "B"]),
        ([], []),
    ])
    def test_repair(self, tags, repaired):
        assert repair_bio(tags) == repaired

    def test_extract_mention_takes_longest_run(self):
        tags = TagSequence(("B", "O", "B", "I", "O"))
        assert extract_mention(tags, ["a", "b", "c", "d", "e"]) == "c d"

    def test_extract_mention_all_outside(self):
        assert extract_mention(TagSequence(("O", "O")), ["a", "b"]) == ""

    def test_extract_mention_misaligned_names_both_lengths(self):
        with pytest.raises(ShapeMismatch, match=r"^2 tags for 3 tokens$"):
            extract_mention(TagSequence(("O", "B")), ["a", "b", "c"])


def _scan(mention, dictionary, max_distance, levenshtein):
    """Every dictionary key, one scalar distance at a time: the linker's oracle."""
    norm = normalize(mention)
    out = [EntityCandidate(c, levenshtein(norm, k), mention) for k, c in dictionary.entries.items()
           if levenshtein(norm, k) <= max_distance]
    return sorted(out, key=lambda c: (c.distance, -len(c.entity), c.entity))


class TestLinking:
    def test_exact_match_distance_zero(self):
        d = EntityDictionary({"hamlet": "hamlet"})
        assert link_entity("hamlet", d) == [EntityCandidate("hamlet", 0, "hamlet")]

    def test_typo_within_max_distance(self):
        d = EntityDictionary({"hamlet": "hamlet", "macbeth": "macbeth"})
        out = link_entity("hamlat", d)
        assert [c.entity for c in out] == ["hamlet"]
        assert out[0].distance == 1

    def test_beyond_max_distance_is_empty(self):
        d = EntityDictionary({"hamlet": "hamlet"})
        assert link_entity("xyzzy", d) == []
        just_beyond = "x" * (MAX_LINK_DISTANCE + 1) + "hamlet"[MAX_LINK_DISTANCE + 1:]
        assert link_entity(just_beyond, d) == []

    def test_sorted_by_distance_then_entity(self):
        d = EntityDictionary({"mars": "mars", "marx": "marx", "mar": "mar"})
        out = link_entity("mars", d)
        assert out[0].entity == "mars" and out[0].distance == 0
        assert [c.distance for c in out] == sorted(c.distance for c in out)

    def test_length_pruning_equals_full_scan(self, scalar_levenshtein, monkeypatch):
        rng = random.Random(17)

        def word(lo, hi):
            return "".join(rng.choice("abc") for _ in range(rng.randint(lo, hi)))

        for _ in range(60):
            d = EntityDictionary({word(1, 8): word(1, 6) for _ in range(rng.randint(1, 30))})
            for _ in range(5):
                mention, max_distance = word(1, 9), rng.randint(0, 3)
                monkeypatch.setattr(ld_solver, "MAX_LINK_DISTANCE", max_distance)
                assert link_entity(mention, d) == _scan(mention, d, max_distance, scalar_levenshtein)

    def test_batched_dp_equals_scalar_scan(self, scalar_levenshtein, monkeypatch):
        rng = random.Random(23)
        alphabet = "abü😀"

        def word(n):
            return "".join(rng.choice(alphabet) for _ in range(n))

        for _ in range(80):
            m = rng.randint(1, 6)
            # key lengths span the mention's length +-3; some keys hold a space
            keys = [word(rng.randint(max(m - 3, 1), m + 3)) for _ in range(rng.randint(1, 25))]
            keys += [word(rng.randint(1, 3)) + " " + word(rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
            d = EntityDictionary({k: word(rng.randint(1, 4)) for k in keys})
            for mention in (word(m), word(m).upper() + "?", word(m + 3) + " " + word(m + 3)):
                for max_distance in range(-1, 4):
                    monkeypatch.setattr(ld_solver, "MAX_LINK_DISTANCE", max_distance)
                    expected = _scan(mention, d, max_distance, scalar_levenshtein)
                    assert link_entity(mention, d) == expected, (mention, keys)
                    assert link_entity(mention, EntityDictionary()) == []


class TestModels:
    def test_tagger_trains_to_perfect_tags(self, fx, vocab, toy):
        tagger = nn.ModelParameters.load(toy["models"]["tagger"])
        for question, gold in load_tagger_data(os.path.join(fx, "tagger.jsonl")):
            assert list(tag_entities(tagger, vocab, tokenize(question).tokens).tags) == gold

    def test_scorer_ranks_gold_first(self, fx, vocab, toy):
        scorer = nn.ModelParameters.load(toy["models"]["scorer"])
        for pattern, gold, negatives in load_scorer_data(os.path.join(fx, "scorer.jsonl")):
            assert detect_relation(scorer, vocab, pattern, [gold] + negatives) == gold

    def test_score_relation_components(self, vocab, toy):
        scorer = nn.ModelParameters.load(toy["models"]["scorer"])
        pattern = ["who", "wrote", PLACEHOLDER]
        p_vectors = ld_solver._encode_side(scorer, [vocab.id_of(t) for t in pattern])[:2]
        score = score_relation("author", p_vectors, encode_relations(scorer, vocab, ["author"])["author"])
        assert isinstance(score, RelationScore)
        assert -1.0 <= score.cnn_score <= 1.0
        assert -1.0 <= score.gru_score <= 1.0
        assert score.combined == pytest.approx(0.5 * score.cnn_score + 0.5 * score.gru_score)

    def test_detect_relation_deterministic(self, vocab):
        scorer = init_relation_scorer(vocab.size, Hyper(d=8, h=8, seed=3))
        candidates = ["author", "birthplace", "capital"]
        first = detect_relation(scorer, vocab, ["who", "wrote", PLACEHOLDER], candidates)
        assert first in candidates
        assert detect_relation(scorer, vocab, ["who", "wrote", PLACEHOLDER], candidates) == first


@pytest.fixture(scope="module")
def world(fx, toy):
    kb = load_triples(os.path.join(fx, "kb.tsv"))
    return (kb, build_entity_dictionary(kb),
            nn.ModelParameters.load(toy["models"]["tagger"]),
            nn.ModelParameters.load(toy["models"]["scorer"]))


def _relation_table(scorer, vocab, kb):
    """`encode_relations` over the KB's predicates, as `System` builds it."""
    return encode_relations(scorer, vocab, dict.fromkeys(t.predicate for t in kb.triples))


class TestSolve:
    def test_answers_trained_question(self, world, vocab):
        kb, d, tagger, scorer = world
        out = solve_ld("who wrote hamlet", kb, d, tagger, scorer, vocab, _relation_table(scorer, vocab, kb))
        assert out[0].answer == "shakespeare"
        assert 0.0 < out[0].confidence <= 1.0
        assert out[0].solver == "ld"

    def test_survives_typo_via_linking(self, world, vocab):
        kb, d, tagger, scorer = world
        table = _relation_table(scorer, vocab, kb)
        out = solve_ld("who wrote hamlit", kb, d, tagger, scorer, vocab, table)
        assert out and out[0].answer == "shakespeare"
        # distance-1 link halves nothing but does shrink confidence
        exact = solve_ld("who wrote hamlet", kb, d, tagger, scorer, vocab, table)
        assert out[0].confidence < exact[0].confidence

    def test_unknown_entity_is_empty(self, world, vocab):
        kb, d, tagger, scorer = world
        assert solve_ld("who wrote ulysses", kb, d, tagger, scorer, vocab, _relation_table(scorer, vocab, kb)) == []

    def test_relation_without_tokens_is_not_scored(self, world, vocab):
        _, _, tagger, scorer = world
        kb = KnowledgeBase([Triple("hamlet", "author", "shakespeare"), Triple("hamlet", "_", "x")])
        table = _relation_table(scorer, vocab, kb)
        out = solve_ld("who wrote hamlet", kb, build_entity_dictionary(kb), tagger, scorer, vocab, table)
        assert [c.answer for c in out] == ["shakespeare"]
        assert table.keys() == {"author"}
        with pytest.raises(BadExample, match=r"^example 1: relation '_' has no tokens$"):
            train_relation_scorer([(["who", "wrote", PLACEHOLDER], "author", ["capital"]),
                                   (["who", "wrote", PLACEHOLDER], "author", ["_"])], Hyper(d=4, h=4, epochs=1), vocab)

    def test_question_is_split_into_words_once(self, world, vocab, monkeypatch):
        """The tagger tags the tokens solve_ld has already taken from the question."""
        class CountingPattern:
            def __init__(self, pattern):
                self.pattern, self.runs = pattern, 0

            def findall(self, text):
                self.runs += 1
                return self.pattern.findall(text)

        kb, d, tagger, scorer = world
        table = _relation_table(scorer, vocab, kb)
        pattern = CountingPattern(text._TOKEN_RE)
        monkeypatch.setattr(text, "_TOKEN_RE", pattern)
        out = solve_ld("who wrote hamlet", kb, d, tagger, scorer, vocab, table)
        assert out[0].provenance.startswith("mention='hamlet' ")
        assert pattern.runs == 1

    def test_each_relation_scored_once(self, world, vocab, monkeypatch):
        kb, d, tagger, scorer = world
        calls = []

        def counting(*args):
            calls.append(args[0])
            return score_relation(*args)

        monkeypatch.setattr(ld_solver, "score_relation", counting)
        out = solve_ld("who wrote hamlet", kb, d, tagger, scorer, vocab, _relation_table(scorer, vocab, kb))
        assert sorted(calls) == sorted(kb.predicates_of("hamlet"))
        # exact link (distance 0): confidence is the winner's combined score mapped to [0, 1]
        combined = score_from_scratch(scorer, vocab, ["who", "wrote", PLACEHOLDER], "author").combined
        assert out[0].confidence == (combined + 1.0) / 2.0


class TestData:
    def test_tagger_data_aligned(self, fx):
        data = load_tagger_data(os.path.join(fx, "tagger.jsonl"))
        assert len(data) == 20
        for question, tags in data:
            assert len(tokenize(question)) == len(tags)
            assert set(tags) <= set(TAGS)

    def test_scorer_data_has_placeholder(self, fx):
        data = load_scorer_data(os.path.join(fx, "scorer.jsonl"))
        assert len(data) == 20
        for pattern, gold, negatives in data:
            assert PLACEHOLDER in pattern
            assert gold not in negatives

    @pytest.mark.parametrize("loader,row,field,value", [
        (load_tagger_data, {"question": "who wrote hamlet", "tags": ["O", "O", "B"]}, "question", 5),
        (load_tagger_data, {"question": "who wrote hamlet", "tags": ["O", "O", "B"]}, "tags", "OOB"),
        (load_tagger_data, {"question": "who wrote hamlet", "tags": ["O", "O", "B"]}, "tags", ["O", 1, "B"]),
        (load_scorer_data, {"pattern": ["who", "wrote", PLACEHOLDER], "gold": "author", "negatives": ["capital"]},
         "pattern", "who wrote"),
        (load_scorer_data, {"pattern": ["who", "wrote", PLACEHOLDER], "gold": "author", "negatives": ["capital"]},
         "gold", ["author"]),
        (load_scorer_data, {"pattern": ["who", "wrote", PLACEHOLDER], "gold": "author", "negatives": ["capital"]},
         "negatives", None),
    ])
    def test_field_of_the_wrong_type_is_malformed(self, tmp_path, loader, row, field, value):
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(row) + "\n" + json.dumps({**row, field: value}) + "\n")
        with pytest.raises(MalformedLine) as info:
            loader(str(path))
        kind = "an array of strings" if isinstance(row[field], list) else "a string"
        assert str(info.value) == f"{path}: malformed line 2: field {field!r} must be {kind}, got {json.dumps(value)}"


class TestRelationTable:
    def test_table_scores_equal_scoring_from_scratch(self, vocab):
        """Scores from the pattern's vectors and `encode_relations`' table are
        `score_from_scratch`'s combined scores to the bit, on seeded random
        scorers, patterns and relations (some without tokens, some out of
        vocabulary)."""
        rng = random.Random(31)
        words = [vocab.token_of(i) for i in range(4, vocab.size)] + ["zorp", "blix"]
        for seed in range(4):
            scorer = init_relation_scorer(vocab.size, Hyper(d=8, h=6, seed=seed))
            relations = ["_".join(rng.sample(words, rng.randint(1, 3))) for _ in range(8)] + ["_", "author"]
            table = encode_relations(scorer, vocab, relations)
            assert set(table) == set(relations) - {"_"}
            for _ in range(5):
                pattern = rng.sample(words, rng.randint(0, 4)) + [PLACEHOLDER]
                rng.shuffle(pattern)
                p_vectors = ld_solver._encode_side(scorer, [vocab.id_of(t) for t in pattern])[:2]
                for rel in table:
                    want = score_from_scratch(scorer, vocab, pattern, rel)
                    got = score_relation(rel, p_vectors, table[rel])
                    assert got == want and got.combined == want.combined
