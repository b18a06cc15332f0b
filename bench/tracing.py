"""Per-layer tracing from outside the program.

`Tracer.install()` replaces module-level functions of `openqa` (and the
three `System.run_*` solver entry points) with wrappers that record, per
call, the wall time and the calling thread's CPU time
(`time.thread_time()`), keyed by question. Work counts are derived from
public data only: posting-list lengths, `dictionary.entries`, the kinds
of retrieved documents. `uninstall()` puts the originals back, so one
process can alternate traced and untraced rounds.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import Counter, defaultdict

import openqa.ld_solver
import openqa.nn
import openqa.pipeline
import openqa.reader
from checks import tokens

SOLVERS = ("sp", "ld", "rr")


class Tracer:
    def __init__(self):
        self.wall: dict[str, list[float]] = defaultdict(list)  # span -> ms per call
        self.cpu: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, Counter] = defaultdict(Counter)  # count -> question -> total
        self.asks: Counter = Counter()  # question -> traced asks
        self.ask_ms: dict[str, list[float]] = defaultdict(list)  # question -> server-side ask ms
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._pending: list[tuple] = []  # (count hook, question, args, result)

    # -- recording --------------------------------------------------------
    def _question(self) -> str:
        return getattr(self._local, "question", "")

    def _record(self, span: str, wall_ms: float, cpu_ms: float) -> None:
        with self._lock:
            self.wall[span].append(wall_ms)
            self.cpu[span].append(cpu_ms)

    def _timed(self, span: str, fn, after=None, question_arg: int | None = None):
        tracer = self

        def wrapper(*args, **kwargs):
            if question_arg is not None:
                tracer._local.question = args[question_arg]
            w, c = time.perf_counter(), time.thread_time()
            result = fn(*args, **kwargs)
            tracer._record(span, (time.perf_counter() - w) * 1e3, (time.thread_time() - c) * 1e3)
            if after is not None:  # counted at dump time, outside the traced call
                with tracer._lock:
                    tracer._pending.append((after, tracer._question(), args, result))
            return result

        return wrapper

    # -- count hooks (public data only); each returns {count: n} ---------------
    @staticmethod
    def _link_counts(args, result) -> dict:
        return {"link_calls": 1, "dictionary_keys": len(args[1].entries), "link_hits": 1 if result else 0}

    @staticmethod
    def _search_counts(args, result) -> dict:
        index, question = args[0], args[1]
        postings = [index.postings.get(t, []) for t in dict.fromkeys(tokens(question))]
        return {"postings_len": sum(len(p) for p in postings),
                "docs_matched": len({d for p in postings for d, _ in p}),
                "results": len(result),
                "passages_retrieved": sum(1 for r in result if r.doc.kind == "passage")}

    @staticmethod
    def _read_counts(args, result) -> dict:
        passages = [r for r in args[2] if r.doc.kind == "passage"][:openqa.reader.TOP_K_PASSAGES]
        return {"passages_read": len(passages),
                "passage_tokens": sum(len(tokens(r.doc.value_field)) for r in passages)}

    @staticmethod
    def _select_counts(args, result) -> dict:
        return {"select_calls": 1, "candidates": len(args[2])}

    @staticmethod
    def _score_counts(args, result) -> dict:
        return {"relations_scored": 1}

    def _ask(self, fn):
        tracer = self

        def wrapper(system, question):
            tracer._local.question = question
            w = time.perf_counter()
            try:
                return fn(system, question)
            finally:
                with tracer._lock:
                    tracer.asks[question] += 1
                    tracer.ask_ms[question].append((time.perf_counter() - w) * 1e3)

        return wrapper

    # -- patching ---------------------------------------------------------
    def _patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self, service_module=None) -> None:
        P, L = openqa.pipeline, openqa.ld_solver
        for tag in SOLVERS:
            self._patch(P.System, f"run_{tag}", self._timed(f"pipeline.{tag}", getattr(P.System, f"run_{tag}"), question_arg=1))
        self._patch(P, "solve_sp", self._timed("sp_solver.solve", P.solve_sp))
        self._patch(P, "search", self._timed("retrieval.search", P.search, self._search_counts))
        self._patch(P, "read", self._timed("reader.read", P.read, self._read_counts))
        self._patch(P, "select", self._timed("selector.select", P.select, self._select_counts))
        self._patch(L, "tag_entities", self._timed("ld_solver.tag", L.tag_entities))
        self._patch(L, "link_entity", self._timed("ld_solver.link", L.link_entity, self._link_counts))
        self._patch(L, "score_relation", self._timed("ld_solver.relation", L.score_relation, self._score_counts))
        # set-up
        self._patch(P, "load_triples", self._timed("kb.load", P.load_triples))
        self._patch(P, "build_entity_dictionary", self._timed("kb.dictionary", P.build_entity_dictionary))
        self._patch(P, "tag_passage", self._timed("retrieval.tag", P.tag_passage))
        self._patch(P, "build_index", self._timed("retrieval.index", P.build_index))
        params = openqa.nn.ModelParameters
        self._patch(params, "load", classmethod(self._timed("nn.load", params.load.__func__)))
        self._patch(P, "ask", self._ask(P.ask))
        if service_module is not None:
            self._patch(service_module, "ask", self._ask(service_module.ask))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- reporting --------------------------------------------------------
    def dump(self) -> dict:
        with self._lock:
            pending, self._pending = self._pending, []
        for hook, question, args, result in pending:
            for name, n in hook(args, result).items():
                self.counts[name][question] += n
        return {"wall": dict(self.wall), "cpu": dict(self.cpu),
                "counts": {k: dict(v) for k, v in self.counts.items()},
                "asks": dict(self.asks), "ask_ms": dict(self.ask_ms)}


def layer_metrics(data: dict, count_questions: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a `Tracer.dump()`: times are medians per call
    over every traced call; counts are means per question over
    `count_questions`, a fixed set for a given seed, so they repeat exactly."""
    out: dict[str, tuple[float, str]] = {}
    wall, cpu, counts, asks = data["wall"], data["cpu"], data["counts"], data["asks"]

    def median(span, source=wall):
        return statistics.median(source[span])

    names = {
        "ld_solver.link": "ld_solver.link_ms", "ld_solver.tag": "ld_solver.tag_ms",
        "ld_solver.relation": "ld_solver.relation_ms", "retrieval.search": "retrieval.search_ms",
        "reader.read": "reader.read_ms", "sp_solver.solve": "sp_solver.solve_ms",
        "selector.select": "selector.select_ms", "kb.load": "kb.load_ms",
        "kb.dictionary": "kb.dictionary_ms", "retrieval.tag": "retrieval.tag_ms",
        "retrieval.index": "retrieval.index_ms", "nn.load": "nn.load_ms",
    }
    for span, metric in names.items():
        if wall.get(span):
            out[metric] = (median(span), "ms")
    for tag in SOLVERS:
        span = f"pipeline.{tag}"
        if wall.get(span):
            out[f"pipeline.{tag}_busy_ms"] = (median(span, cpu), "ms")
            out[f"pipeline.{tag}_wait_ms"] = (statistics.median(w - c for w, c in zip(wall[span], cpu[span])), "ms")

    qs = [q for q in dict.fromkeys(count_questions) if asks.get(q)]

    def total(name):  # per-ask total summed over the fixed questions
        per = counts.get(name, {})
        return sum(per.get(q, 0) / asks[q] for q in qs)

    if qs:
        for name, metric in (("dictionary_keys", "ld_solver.dictionary_keys"),
                             ("relations_scored", "ld_solver.relations_scored"),
                             ("docs_matched", "retrieval.docs_matched"),
                             ("postings_len", "retrieval.postings_len"),
                             ("passages_read", "reader.passages_read"),
                             ("passage_tokens", "reader.passage_tokens")):
            out[metric] = (total(name) / len(qs), "count")
        for part, whole, metric, unit in (("link_hits", "link_calls", "ld_solver.link_hit_share", "ratio"),
                                          ("passages_retrieved", "results", "retrieval.passage_share", "ratio"),
                                          ("candidates", "select_calls", "selector.candidates", "count")):
            if total(whole):
                out[metric] = (total(part) / total(whole), unit)
    return out


# -- openqa.nn layers, forward + backward at d = h = 32 ------------------------

def nn_microbench(seconds_per_layer: float = 0.3) -> dict[str, tuple[float, str]]:
    """Median microseconds per forward+backward of each `openqa.nn` layer."""
    import numpy as np

    nn = openqa.nn
    d = h = 32
    steps = 20
    rng = np.random.default_rng(0)
    x = rng.standard_normal((steps, d))
    params = nn.ModelParameters(0)
    nn.init_bidirectional(params, "lstm.", "lstm", d, h)
    nn.init_bidirectional(params, "gru.", "gru", d, h)
    nn.init_transformer_layer(params, "enc.", d, 2)
    filters = params.add("F", (d, 3, d))
    query = params.add("q", (d,), fan_in=d, fan_out=d)

    def bi(kind):
        def run():
            states, cache = nn.bidirectional_encode(kind, params, f"{kind}.", x)
            nn.bidirectional_backward(params, cache, np.ones_like(states))
        return run

    def conv():
        y, cache = nn.conv1d_forward(filters, x)
        nn.conv1d_backward(np.ones_like(y), cache)

    def att():
        ctx, _, cache = nn.attention(query, x, x)
        nn.attention_backward(cache, np.ones_like(ctx))

    def transformer():
        y, cache = nn.transformer_encoder_layer(params, "enc.", x, 2)
        nn.transformer_encoder_layer_backward(params, cache, np.ones_like(y))

    out = {}
    for name, fn in (("nn.bilstm_us", bi("lstm")), ("nn.bigru_us", bi("gru")), ("nn.conv1d_us", conv),
                     ("nn.attention_us", att), ("nn.transformer_us", transformer)):
        fn()
        samples = []
        end = time.perf_counter() + seconds_per_layer
        while time.perf_counter() < end:
            t = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - t) * 1e6)
        out[name] = (statistics.median(samples), "us")
    return out
