"""Acceptance gate: ten criteria, each printing one PASS/FAIL line.

Every criterion checks the implementation against an independent oracle
or a stated property, within a wall-clock budget.
"""

import json
import math
import os
import random
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from openqa import nn
from openqa.answers import AnswerCandidate
from openqa.cli import main as cli_main
from openqa.errors import FilterTypeError
from openqa.hyper import Hyper
from openqa.kb import KnowledgeBase, ObjectUnknown, SparqlQuery, SubjectUnknown, Triple, execute_sparql
from openqa.ld_solver import (
    load_scorer_data, load_tagger_data, tag_entities,
    train_relation_scorer, train_tagger,
)
from openqa.pipeline import System, SystemConfig, ask, evaluate, split_dataset
from openqa.reader import MAX_SPAN_LEN, load_reader_data, train_reader
from openqa.retrieval import IndexedDocument, KIND_PASSAGE, build_index, search
from openqa.selector import (
    build_sequence, init_selector, select, train_selector,
)
from openqa.service import make_server
from openqa.text import Vocabulary, code_matrix, edit_distances, encode, split_words, tokenize

from conftest import FIXTURES
from oracles import detect_relation, enumerate_spans, predict_logits, score_sequence


def report(capsys, n: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# 1. SPARQL vs brute-force scan
# ---------------------------------------------------------------------------

def _oracle_filter(binding: str, filt):
    if filt is None:
        return True
    comp, literal = filt
    if comp in ("<", "<=", ">", ">="):
        try:
            left = float(binding)
        except ValueError:
            raise FilterTypeError(binding)
        right = float(literal)
        return {"<": left < right, "<=": left <= right,
                ">": left > right, ">=": left >= right}[comp]
    return (binding == literal) if comp == "=" else (binding != literal)


def _oracle_scan(triples, query):
    """Brute-force list scan, independent of the KB indices."""
    seen = []
    for s, p, o in triples:
        if isinstance(query.pattern, ObjectUnknown):
            if s == query.pattern.subject and p == query.pattern.predicate:
                binding = o
            else:
                continue
        else:
            if p == query.pattern.predicate and o == query.pattern.object:
                binding = s
            else:
                continue
        if _oracle_filter(binding, query.filter) and binding not in seen:
            seen.append(binding)
    return seen


def test_criterion_01_sparql_oracle(capsys):
    rng = random.Random(101)
    started = time.perf_counter()
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 50)
        subjects = [f"e{i}" for i in range(rng.randint(1, 8))]
        predicates = [f"p{i}" for i in range(rng.randint(1, 4))]
        triples = []
        for _ in range(n):
            s = rng.choice(subjects)
            p = rng.choice(predicates)
            o = str(rng.randint(0, 30)) if rng.random() < 0.5 else rng.choice(subjects)
            triples.append((s, p, o))
        kb = KnowledgeBase([Triple(*t) for t in triples])
        for _ in range(5):
            if rng.random() < 0.5:
                pattern = ObjectUnknown(rng.choice(subjects), rng.choice(predicates))
            else:
                o = str(rng.randint(0, 30)) if rng.random() < 0.5 else rng.choice(subjects)
                pattern = SubjectUnknown(rng.choice(predicates), o)
            filt = None
            if rng.random() < 0.5:
                comp = rng.choice(["<", "<=", ">", ">=", "=", "!="])
                literal = str(rng.randint(0, 30))
                filt = (comp, literal)
            query = SparqlQuery("x", pattern, filt)
            try:
                got = execute_sparql(kb, query)
                got_err = None
            except FilterTypeError:
                got, got_err = None, "filter-type"
            # the oracle scans the deduplicated triple list the KB holds
            kept = [(t.subject, t.predicate, t.object) for t in kb.triples]
            try:
                want = _oracle_scan(kept, query)
                want_err = None
            except FilterTypeError:
                want, want_err = None, "filter-type"
            assert got_err == want_err and got == want, (query, got, want)
            checked += 1
    elapsed = time.perf_counter() - started
    report(capsys, 1, elapsed < 5.0,
           f"{checked} random queries over 200 KBs match the brute-force oracle in {elapsed:.2f}s (< 5s)")


# ---------------------------------------------------------------------------
# 2. Levenshtein vs full-matrix DP
# ---------------------------------------------------------------------------

def _oracle_levenshtein(a: str, b: str) -> int:
    m, n = len(a), len(b)
    dp = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        dp[i][0] = i
    for j in range(n + 1):
        dp[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dp[i][j] = min(dp[i - 1][j] + 1, dp[i][j - 1] + 1, dp[i - 1][j - 1] + cost)
    return dp[m][n]


def test_criterion_02_levenshtein_oracle(capsys):
    rng = random.Random(202)
    alphabet = "abcdef"

    def word():
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))

    started = time.perf_counter()
    for _ in range(50):  # 50 strings, each against 10 random strings in one code matrix: 500 pairs
        a, bs = word(), [word() for _ in range(10)]
        got = edit_distances(a, code_matrix(bs), np.array([len(b) for b in bs]))
        assert got.tolist() == [_oracle_levenshtein(a, b) for b in bs], (a, bs)
    elapsed = time.perf_counter() - started
    report(capsys, 2, elapsed < 2.0,
           f"500 random pairs match the full-matrix DP oracle in {elapsed:.2f}s (< 2s)")


# ---------------------------------------------------------------------------
# 3. BM25 vs exhaustive scoring
# ---------------------------------------------------------------------------

def _oracle_bm25(doc_texts, subject_fields, query_terms, doc_id):
    """Independent BM25 with the k1=1.2 / b=0.75 / 2x-subject-boost formula."""
    k1, b, boost = 1.2, 0.75, 2.0
    n = len(doc_texts)
    lengths = [len(t.split()) for t in doc_texts]
    avg_len = sum(lengths) / n
    subject_terms = [set(" ".join(sf).split()) for sf in subject_fields]
    score = 0.0
    for term in dict.fromkeys(query_terms):
        df = sum(1 for t in doc_texts if term in t.split())
        if term not in doc_texts[doc_id].split():
            continue
        tf = doc_texts[doc_id].split().count(term)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        contribution = idf * tf * (k1 + 1.0) / (tf + k1 * (1 - b + b * lengths[doc_id] / avg_len))
        if term in subject_terms[doc_id]:
            contribution *= boost
        score += contribution
    return score


def test_criterion_03_bm25_oracle(capsys):
    rng = random.Random(303)
    terms_pool = [f"w{i}" for i in range(15)]
    started = time.perf_counter()
    for _ in range(50):
        n_docs = rng.randint(2, 20)
        doc_texts, subject_fields, docs = [], [], []
        for i in range(n_docs):
            words = [rng.choice(terms_pool) for _ in range(rng.randint(2, 10))]
            subjects = tuple(rng.sample(words, rng.randint(0, min(2, len(words)))))
            doc_texts.append(" ".join(words))
            subject_fields.append(subjects)
            docs.append(IndexedDocument(i, subjects, " ".join(words), KIND_PASSAGE, str(i)))
        idx = build_index((doc, split_words(doc.value_field)) for doc in docs)
        for _ in range(4):
            query_terms = [rng.choice(terms_pool) for _ in range(rng.randint(1, 4))]
            k = rng.randint(1, n_docs)
            got = search(idx, " ".join(query_terms), k)
            scored = []
            for i in range(n_docs):
                if any(t in doc_texts[i].split() for t in query_terms):
                    scored.append((i, _oracle_bm25(doc_texts, subject_fields, query_terms, i)))
            scored.sort(key=lambda pair: (-pair[1], pair[0]))
            want = scored[:k]
            assert [r.doc.doc_id for r in got] == [i for i, _ in want]
            for r, (_, s) in zip(got, want):
                assert r.score == pytest.approx(s, rel=1e-12)
    elapsed = time.perf_counter() - started
    report(capsys, 3, elapsed < 5.0,
           f"top-k on 50 random corpora matches exhaustive scoring in {elapsed:.2f}s (< 5s)")


# ---------------------------------------------------------------------------
# 4. Gradient checks for every differentiable layer
# ---------------------------------------------------------------------------

def _check(name, loss_fn, params, worst, threshold=1e-4):
    err = nn.grad_check(loss_fn, params)
    worst[name] = err
    assert err < threshold, f"{name}: rel err {err:.2e}"


def test_criterion_04_gradient_checks(capsys):
    rng = np.random.default_rng(404)
    started = time.perf_counter()
    worst: dict[str, float] = {}

    # linear
    p = nn.ModelParameters(rng_seed=1)
    p.add("W", (3, 4)); p.add_zeros("b", (3,))
    x = rng.normal(size=(2, 4))
    R = rng.normal(size=(2, 3))

    def linear_loss(p):
        y, cache = nn.linear_forward(p["W"], p["b"], x)
        gW, gb, _ = nn.linear_backward(R, cache)
        return float((y * R).sum()), {"W": gW, "b": gb}

    _check("linear", linear_loss, p, worst)

    # embedding (with a repeated id to exercise scatter-add)
    p = nn.ModelParameters(rng_seed=2)
    p.add("emb", (9, 5))
    ids = [3, 7, 3, 0]
    R = rng.normal(size=(4, 5))

    def emb_loss(p):
        y = nn.embedding_lookup(p["emb"], ids)
        return float((y * R).sum()), {"emb": nn.embedding_backward(R, ids, 9)}

    _check("embedding", emb_loss, p, worst)

    # conv1d
    p = nn.ModelParameters(rng_seed=3)
    p.add("F", (4, 3, 4))
    x = rng.normal(size=(6, 4))
    R = rng.normal(size=(6, 4))

    def conv_loss(p):
        y, cache = nn.conv1d_forward(p["F"], x)
        gF, _ = nn.conv1d_backward(R, cache)
        return float((y * R).sum()), {"F": gF}

    _check("conv1d", conv_loss, p, worst)

    # bidirectional GRU and LSTM encoders over a 3-step sequence, nonzero biases
    x = rng.normal(size=(3, 4))
    R = rng.normal(size=(3, 6))
    for seed, kind in ((4, "gru"), (5, "lstm")):
        p = nn.ModelParameters(rng_seed=seed)
        nn.init_bidirectional(p, "c.", kind, d=4, h=3)
        p["c.b"][:] = rng.normal(size=p["c.b"].shape)

        def cell_loss(p, kind=kind):
            states, cache = nn.bidirectional_encode(kind, p, "c.", x)
            return float((states * R).sum()), nn.bidirectional_backward(p, cache, R)[0]

        _check(kind, cell_loss, p, worst)

    # scaled dot-product attention (inputs as parameters)
    p = nn.ModelParameters(rng_seed=6)
    p.add("q", (4,)); p.add("K", (5, 4)); p.add("V", (5, 4))
    R = rng.normal(size=4)

    def attn_loss(p):
        ctx, _, cache = nn.attention(p["q"], p["K"], p["V"])
        dq, dK, dV = nn.attention_backward(cache, R)
        return float((ctx * R).sum()), {"q": dq, "K": dK, "V": dV}

    _check("attention", attn_loss, p, worst)

    # transformer encoder layer
    p = nn.ModelParameters(rng_seed=7)
    nn.init_transformer_layer(p, "t.", d=6, heads=2)
    x = rng.normal(size=(4, 6))
    R = rng.normal(size=(4, 6))

    def transformer_loss(p):
        y, cache = nn.transformer_encoder_layer(p, "t.", x, heads=2)
        grads, _ = nn.transformer_encoder_layer_backward(p, cache, R)
        return float((y * R).sum()), grads

    _check("transformer", transformer_loss, p, worst)

    # selector head (full model: embeddings through the scoring head)
    from openqa.selector import _backward as sel_backward, _forward as sel_forward
    vocab = Vocabulary(["alpha", "beta", "gamma"])
    p = init_selector(vocab.size, Hyper(d=6, h=6, heads=2, layers=1, seed=8))
    sel_ids = build_sequence(encode(vocab, ["alpha", "beta"]), encode(vocab, ["gamma"]))

    def selector_loss(p_):
        scores, cache = sel_forward(p_, [sel_ids])
        return float(scores[0]), sel_backward(p_, cache, np.ones(1))

    _check("selector head", selector_loss, p, worst)

    # reader scorers (question encoder, passage encoder, bilinear heads)
    from openqa.reader import _backward as rd_backward, _forward as rd_forward, init_reader
    p = init_reader(vocab.size, Hyper(d=5, h=4, seed=9))
    q_ids = [4, 5]
    p_ids = [5, 6, 4]
    Rs = rng.normal(size=3); Re = rng.normal(size=3)

    def reader_loss(p_):
        s_logits, e_logits, cache = rd_forward(p_, q_ids, [p_ids])
        loss = float((s_logits[0] * Rs).sum() + (e_logits[0] * Re).sum())
        return loss, rd_backward(p_, cache, Rs[None], Re[None])

    _check("reader scorers", reader_loss, p, worst)

    elapsed = time.perf_counter() - started
    worst_name = max(worst, key=worst.get)
    report(capsys, 4, elapsed < 60.0,
           f"all {len(worst)} layer checks < 1e-4 (worst {worst[worst_name]:.2e} in {worst_name}) "
           f"in {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 5. Overfit sanity at d = h = 32
# ---------------------------------------------------------------------------

def test_criterion_05_overfit(capsys):
    vocab = Vocabulary.load(os.path.join(FIXTURES, "vocab.txt"))

    def hyper(epochs, lr=0.1):
        return Hyper(d=32, h=32, heads=2, layers=1, lr=lr, epochs=epochs, seed=11)

    started = time.perf_counter()

    tagger_data = load_tagger_data(os.path.join(FIXTURES, "tagger.jsonl"))
    tagger = nn.Model(train_tagger(tagger_data, hyper(120), vocab), vocab)
    tagger_acc = sum(list(tag_entities(tagger, tokenize(q).tokens)) == gold
                     for q, gold in tagger_data) / len(tagger_data)

    scorer_data = load_scorer_data(os.path.join(FIXTURES, "scorer.jsonl"))
    scorer = nn.Model(train_relation_scorer(scorer_data, hyper(40), vocab), vocab)
    scorer_acc = sum(detect_relation(scorer, pattern, [gold] + negs) == gold
                     for pattern, gold, negs in scorer_data) / len(scorer_data)

    reader_data = load_reader_data(os.path.join(FIXTURES, "reader.jsonl"))
    reader = train_reader(reader_data, hyper(120), vocab)
    reader_hits = 0
    for question, passage, gs, ge in reader_data:
        tokens = list(tokenize(passage).tokens)
        s_logits, e_logits = predict_logits(reader, question, tokens)
        best = enumerate_spans(s_logits, e_logits, MAX_SPAN_LEN, 0, tokens)[0]
        reader_hits += (best.start, best.end) == (gs, ge)
    reader_acc = reader_hits / len(reader_data)

    # synthetic selection set: each question pairs one good and one bad answer
    selector_data = [
        ("who wrote hamlet", ["shakespeare", "stratford"], 0),
        ("who wrote dune", ["tacoma", "herbert"], 1),
        ("what is the capital of france", ["paris", "h2o"], 0),
        ("what is the capital of germany", ["nacl", "berlin"], 1),
        ("what color is the sky", ["blue", "cheetah"], 0),
        ("what food never spoils", ["pacific", "honey"], 1),
        ("how many moons does mars have", ["2", "95"], 0),
        ("what is the symbol of gold", ["fe", "au"], 1),
    ]
    selector = train_selector(selector_data, hyper(150), vocab)
    selector_acc = sum(
        select(selector, q, [AnswerCandidate(a, 0.5, "sp") for a in answers]).chosen == gold
        for q, answers, gold in selector_data) / len(selector_data)

    elapsed = time.perf_counter() - started
    ok = (tagger_acc, scorer_acc, reader_acc, selector_acc) == (1.0, 1.0, 1.0, 1.0) and elapsed < 300
    report(capsys, 5, ok,
           f"train accuracy tagger {tagger_acc:.0%}, scorer {scorer_acc:.0%}, "
           f"reader {reader_acc:.0%}, selector {selector_acc:.0%} at d=h=32 "
           f"in {elapsed:.0f}s (< 300s)")


# ---------------------------------------------------------------------------
# 6. Cross-passage argmax property
# ---------------------------------------------------------------------------

def test_criterion_06_cross_passage_argmax(capsys):
    rng = np.random.default_rng(606)
    started = time.perf_counter()
    for _ in range(100):
        n_passages = int(rng.integers(1, 5))
        per_passage_best = []
        union = []
        for doc_id in range(n_passages):
            length = int(rng.integers(2, 9))
            tokens = [f"t{i}" for i in range(length)]
            start_logits = rng.normal(size=length)
            end_logits = rng.normal(size=length)
            spans = enumerate_spans(start_logits, end_logits, 15, doc_id, tokens)
            per_passage_best.append(spans[0])
            union.extend(spans)
        global_best = max(per_passage_best, key=lambda s: s.raw_score)
        exhaustive = max(union, key=lambda s: s.raw_score)
        key = (global_best.passage_doc_id, global_best.start, global_best.end)
        assert key == (exhaustive.passage_doc_id, exhaustive.start, exhaustive.end)
    elapsed = time.perf_counter() - started
    report(capsys, 6, elapsed < 2.0,
           f"global argmax equals exhaustive union argmax on 100 random logit sets "
           f"in {elapsed:.2f}s (< 2s)")


# ---------------------------------------------------------------------------
# 7. End-to-end toy world
# ---------------------------------------------------------------------------

def test_criterion_07_end_to_end(capsys, toy, tmp_path):
    started = time.perf_counter()
    full = evaluate(toy["system"], toy["pairs"])
    eval_seconds = time.perf_counter() - started
    total_seconds = toy["train_seconds"] + eval_seconds

    assert full.accuracy == 1.0, f"accuracy {full.accuracy}"

    models = toy["models"]
    # drop the ld solver's models (tagger + scorer)
    no_ld = System(SystemConfig.load(toy["write_config"](
        str(tmp_path / "no_ld.json"),
        {"reader_model": models["reader"], "selector_model": models["selector"]})))
    # drop the rr solver's model (reader)
    no_rr = System(SystemConfig.load(toy["write_config"](
        str(tmp_path / "no_rr.json"),
        {"tagger_model": models["tagger"], "scorer_model": models["scorer"],
         "selector_model": models["selector"]})))

    report_no_ld = evaluate(no_ld, toy["pairs"])   # totality: no exceptions
    report_no_rr = evaluate(no_rr, toy["pairs"])

    assert report_no_ld.per_solver_hit_rate["ld"] == 0.0
    assert report_no_ld.per_solver_hit_rate["sp"] == full.per_solver_hit_rate["sp"]
    assert report_no_ld.per_solver_hit_rate["rr"] == full.per_solver_hit_rate["rr"]
    assert report_no_rr.per_solver_hit_rate["rr"] == 0.0
    assert report_no_rr.per_solver_hit_rate["sp"] == full.per_solver_hit_rate["sp"]
    assert report_no_rr.per_solver_hit_rate["ld"] == full.per_solver_hit_rate["ld"]
    # ask stays total even with no models at all
    bare = System(SystemConfig.load(toy["write_config"](str(tmp_path / "bare.json"), {})))
    assert ask(bare, "what color is the sky").answer is None

    ok = total_seconds < 30.0
    report(capsys, 7, ok,
           f"25/25 exact match; per-solver degradation isolated; "
           f"{total_seconds:.1f}s including training (< 30s)")


# ---------------------------------------------------------------------------
# 8. Selector properties
# ---------------------------------------------------------------------------

def test_criterion_08_selector_properties(capsys):
    vocab = Vocabulary.load(os.path.join(FIXTURES, "vocab.txt"))
    model = nn.Model(init_selector(vocab.size, Hyper(d=16, h=16, heads=2, layers=1, seed=88)), vocab)
    with open(os.path.join(FIXTURES, "vocab.txt"), encoding="utf-8") as fh:
        words = fh.read().split()
    rng = random.Random(808)
    started = time.perf_counter()
    for _ in range(100):
        question = " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))
        k = rng.randint(1, 4)
        answers = rng.sample(words, k)
        cands = [AnswerCandidate(a, 0.5, "sp") for a in answers]
        result = select(model, question, cands)

        assert abs(sum(result.probabilities) - 1.0) < 1e-9
        if k == 1:
            assert result.probabilities == (1.0,)

        perm = list(range(k))
        rng.shuffle(perm)
        permuted = select(model, question, [cands[i] for i in perm])
        for new_pos, old_pos in enumerate(perm):
            assert permuted.probabilities[new_pos] == pytest.approx(
                result.probabilities[old_pos], abs=1e-9)
        assert permuted.answer.answer == result.answer.answer

        # shift invariance: adding a constant to every score leaves the
        # softmax unchanged; select() must agree with the shifted softmax
        q_ids = encode(vocab, tokenize(question).tokens)
        scores = np.array([score_sequence(model, build_sequence(q_ids, encode(vocab, tokenize(a).tokens)))
                           for a in answers])
        shifted = np.exp(scores + 37.5 - (scores + 37.5).max())
        shifted /= shifted.sum()
        assert np.allclose(result.probabilities, shifted, atol=1e-9)
    elapsed = time.perf_counter() - started
    report(capsys, 8, elapsed < 5.0,
           f"normalization, permutation equivariance, shift invariance, singleton "
           f"probability on 100 random cases in {elapsed:.2f}s (< 5s)")


# ---------------------------------------------------------------------------
# 9. Split contract
# ---------------------------------------------------------------------------

def test_criterion_09_split_contract(capsys):
    for n, want in ((10, 7), (100, 70), (1000, 700)):
        pairs = [(f"q{i}", f"a{i}") for i in range(n)]
        train, test = split_dataset(pairs, 0.7, seed=42)
        assert len(train) == want and len(test) == n - want
        assert sorted(train + test) == sorted(pairs)
        assert not set(train) & set(test)
        again = split_dataset(pairs, 0.7, seed=42)
        assert (train, test) == again
    report(capsys, 9, True, "round(0.7·n) train sizes 7/70/700, deterministic, disjoint union")


# ---------------------------------------------------------------------------
# 10. Service vs CLI
# ---------------------------------------------------------------------------

def test_criterion_10_service_contract(capsys, toy):
    srv = make_server(toy["system"], "127.0.0.1", 0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{srv.server_address[1]}"
    try:
        for question, _ in toy["pairs"]:
            body = json.dumps({"question": question}).encode()
            req = urllib.request.Request(f"{base}/ask", data=body,
                                         headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(req, timeout=10) as resp:
                assert resp.status == 200
                http_doc = json.load(resp)

            assert cli_main(["--config", toy["config"], "ask", question, "--json"]) == 0
            cli_doc = json.loads(capsys.readouterr().out)

            http_doc.pop("timings"); cli_doc.pop("timings")
            assert http_doc == cli_doc, question

        body = json.dumps({"question": "   "}).encode()
        req = urllib.request.Request(f"{base}/ask", data=body,
                                     headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        with err.value as resp:
            assert resp.code == 400
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)
    report(capsys, 10, True,
           "POST /ask equals CLI ask --json on all 25 questions; empty question is 400")
