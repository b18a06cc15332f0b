"""The two workloads. Each returns a `Result`; none prints.

- kb: one in-process caller asks in a closed loop on a KB-heavy world.
- passages-http: two clients post to `openqa serve` on a passage-heavy world.

Traced, both also train the four toy models for a few epochs between
rounds (the training probe), for the per-epoch training times.
"""

from __future__ import annotations

import functools
import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import openqa.pipeline
import openqa.retrieval
import openqa.selector
from openqa.hyper import Hyper
from openqa.ld_solver import load_scorer_data, load_tagger_data, train_relation_scorer, train_tagger
from openqa.pipeline import System, SystemConfig, load_qa_pairs
from openqa.reader import TOP_K_PASSAGES, load_reader_data, train_reader
from openqa.selector import train_selector

import checks
from tracing import Tracer, layer_metrics, nn_microbench

BENCH = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 9  # at least; one fresh-process set-up sample per round, spread over the run
MIN_QUESTIONS = 100  # so latency_p90_ms has ten samples beyond it
HTTP_CLIENTS = 2
# bodies that are valid JSON but not a question; the same in every run
MALFORMED = (b"[1,2]", b'{"question": 5}', b'{"question": null}')
MALFORMED_AT = 7  # position of the one malformed request in each round
PROBE_EPOCHS = 3  # per model and step of the training probe
PROBE_STEPS = 3  # at least, per traced run


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    errors: list = field(default_factory=list)  # correctness-check mismatches
    failures: list = field(default_factory=list)  # what the failed operations returned

    def metric(self, name, value, unit):
        self.metrics[name] = (value, unit)


def peak_rss_mb(pid="self") -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found")


def latency_metrics(result: Result, latencies_s: list[float], round_rates: list[float]) -> None:
    """Percentiles over every question; throughput is the median over
    rounds of questions answered per second of asking, so a burst of load
    from outside the run that slows a few rounds does not move it."""
    ms = [x * 1e3 for x in latencies_s]
    result.metric("latency_p50_ms", statistics.median(ms), "ms")
    result.metric("latency_p90_ms", statistics.quantiles(ms, n=10)[8], "ms")
    result.metric("throughput_qps", statistics.median(round_rates), "1/s")


def fresh_build(root: str, config: str, traced: bool, spans: dict) -> float:
    """Build `System` once in a fresh process, as a user's first build is;
    returns the seconds and, traced, adds the set-up spans to `spans`."""
    cmd = [sys.executable, os.path.join(BENCH, "build.py"), config] + (["--trace"] if traced else [])
    out = subprocess.run(cmd, env=child_env(root), stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    for kind in ("wall", "cpu") if traced else ():
        for span, values in doc["trace"][kind].items():
            spans.setdefault(kind, {}).setdefault(span, []).extend(values)
    return doc["seconds"]


def make_world(root: str, kind: str, seed: int, out: str, small: bool) -> None:
    """Generate a world in a child process, so its memory is not ours."""
    cmd = [sys.executable, os.path.join(BENCH, "world.py"), kind, str(seed), out] + (["--small"] if small else [])
    subprocess.run(cmd, check=True, env=child_env(root), timeout=120)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), BENCH])
    return env


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def rounds_of(questions: list[dict], size: int) -> list[list[dict]]:
    return [questions[i:i + size] for i in range(0, len(questions), size)]


def keep_going(start: float, seconds: float, rounds_done: int, min_rounds: int, answered: int, traced: bool) -> bool:
    """Whole rounds only: the deadline is checked between rounds. An
    untraced run goes on until it has MIN_QUESTIONS latencies."""
    return (time.perf_counter() - start < seconds or rounds_done < min_rounds
            or (not traced and answered < MIN_QUESTIONS))


# -- checks shared by the serving workloads -----------------------------------

def check_responses(system: System, world: str, generated: list[dict], responses) -> list[str]:
    """`responses` holds (question, AskResponse) pairs; `generated` is the
    generator's question list. Search is checked once per distinct
    question, everything else on every response."""
    reference = checks.ReferenceBM25(world)
    asked = {q["question"]: q for q in generated}
    k = system.config.retrieval_k
    bad: list[str] = []
    retrieved = {}
    for question in dict.fromkeys(q for q, _ in responses):
        results = openqa.retrieval.search(system.index, question, k)
        bad += checks.check_search(reference, question, [(r.doc.doc_id, r.score) for r in results], k)
        retrieved[question] = [r.doc.value_field for r in results if r.doc.kind == "passage"][:TOP_K_PASSAGES]
    for question, response in responses:
        d = response.to_dict()
        bad += checks.check_answer_from_tops(question, d)
        if asked[question]["kind"] == "template":
            bad += checks.check_sp_objects(asked[question], d)
        tops = [c[0] for c in response.candidates.values() if c]
        if tops and system.selector is not None:
            sel = openqa.selector.select(system.selector, question, tops)
            bad += checks.check_probabilities(question, sel.probabilities, sel.probabilities[sel.chosen], d)
        rr = [c["answer"] for c in d["candidates"].get("rr", [])]
        bad += checks.check_rr_spans(question, rr, retrieved[question])
    return bad


def trace_report(result: Result, tracer_data: dict, count_questions, traced_lat, untraced_lat) -> None:
    for name, (value, unit) in layer_metrics(tracer_data, count_questions).items():
        result.metric(name, value, unit)
    for name, (value, unit) in nn_microbench().items():
        result.metric(name, value, unit)
    traced, untraced = statistics.median(traced_lat) * 1e3, statistics.median(untraced_lat) * 1e3
    result.metric("trace.latency_p50_ms", traced, "ms")
    result.metric("trace.untraced_latency_p50_ms", untraced, "ms")
    result.metric("trace.overhead_ms", traced - untraced, "ms")


class ServingRun:
    """What the two serving workloads share: the world and a loop of whole
    rounds. Each round asks one round of questions and takes one set-up
    sample. With tracing, odd rounds are traced and even ones are not, and
    every other round also takes one step of the training probe."""

    def __init__(self, root: str, work: str, kind: str, seed: int, traced: bool, small: bool,
                 round_size: int, min_rounds: int):
        self.world = os.path.join(work, "world")
        make_world(root, kind, seed, self.world, small)
        self.config = os.path.join(self.world, "config.json")
        self.questions = read_jsonl(os.path.join(self.world, "questions.jsonl"))
        self.rounds = rounds_of(self.questions, round_size)
        self.traced = traced
        self.min_rounds = 4 if traced else min_rounds
        self.tracer = Tracer()
        self.root = root
        self.setup: list[float] = []
        self.setup_spans: dict = {}
        self.system = System(SystemConfig.load(self.config))
        self.latencies: dict[bool, list] = {False: [], True: []}  # traced? -> [(question, s)]
        self.round_rates: list[float] = []  # untraced rounds: questions answered per second
        self.probe = TrainingProbe(root) if traced else None

    def run(self, seconds: float, ask_round) -> None:
        """`ask_round(questions, r, traced)` asks one round."""
        start = time.perf_counter()
        r = 0
        while keep_going(start, seconds, r, self.min_rounds, len(self.latencies[False]), self.traced):
            trace_round = self.traced and r % 2 == 1
            answered, t = len(self.latencies[trace_round]), time.perf_counter()
            # traced, each set of questions is asked untraced, then traced
            questions = self.rounds[(r // 2 if self.traced else r) % len(self.rounds)]
            ask_round(questions, r, trace_round)
            if not trace_round:
                self.round_rates.append((len(self.latencies[False]) - answered) / (time.perf_counter() - t))
            self.setup.append(fresh_build(self.root, self.config, self.traced, self.setup_spans))
            if self.probe is not None and r % 2 == 1:
                self.probe.step()
            r += 1
        while len(self.setup) < SETUP_REPEATS:
            self.setup.append(fresh_build(self.root, self.config, self.traced, self.setup_spans))
        while self.probe is not None and self.probe.steps < PROBE_STEPS:
            self.probe.step()

    def count_questions(self) -> list[str]:
        """The questions of the first two traced rounds: fixed for a seed."""
        return [q["question"] for i in (0, 1) for q in self.rounds[i % len(self.rounds)]]

    def report(self, result: Result, rss: float, tracer_data: dict | None) -> None:
        lat = {k: [s for _, s in v] for k, v in self.latencies.items()}
        if self.traced:
            for kind in ("wall", "cpu"):
                tracer_data[kind].update(self.setup_spans[kind])
            trace_report(result, tracer_data, self.count_questions(), lat[True], lat[False])
            self.probe.report(result)
        else:
            result.metric("setup_s", statistics.median(self.setup), "s")
            latency_metrics(result, lat[False], self.round_rates)
            result.metric("peak_rss_mb", rss, "MB")


# -- kb -------------------------------------------------------------------------

def run_kb(root: str, work: str, seed: int, seconds: float, traced: bool, small: bool,
           server_cpu: int) -> Result:
    result = Result()
    run = ServingRun(root, work, "kb", seed, traced, small, round_size=16, min_rounds=1)
    responses = []

    def ask_round(questions, r, trace_round):
        if trace_round:
            run.tracer.install()
        for q in questions:
            result.attempted += 1
            t = time.perf_counter()
            try:
                response = openqa.pipeline.ask(run.system, q["question"])
            except Exception as exc:  # a failed operation, counted
                result.failed += 1
                result.failures.append(f"ask {q['question']!r}: {exc!r}")
                continue
            run.latencies[trace_round].append((q["question"], time.perf_counter() - t))
            responses.append((q["question"], response))
        run.tracer.uninstall()

    run.run(seconds, ask_round)
    rss = peak_rss_mb()
    if traced:
        measure_service_overhead(root, run.config, work, run.count_questions(), result, server_cpu)
    run.report(result, rss, run.tracer.dump())
    result.errors += check_responses(run.system, run.world, run.questions, responses)
    return result


# -- passages-http ----------------------------------------------------------------

def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """`openqa serve` in its own process, started through bench/serve.py and
    confined to `cpu`, so that its threads hand work to each other on one CPU."""

    def __init__(self, root: str, config: str, work: str, trace_dump: str | None, cpu: int):
        self.port = free_port()
        self.log_path = os.path.join(work, "server.log")
        cmd = [sys.executable, os.path.join(BENCH, "serve.py"), config, f"127.0.0.1:{self.port}"]
        if trace_dump:
            cmd.append(trace_dump)
        self.log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=self.log, stderr=subprocess.STDOUT,
                                     preexec_fn=functools.partial(os.sched_setaffinity, 0, {cpu}))
        try:
            self._wait_healthy(time.monotonic() + 120)
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self, deadline: float) -> None:
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}; see {self.log_path}")
            try:
                if self.request("GET", "/health", None)[0] == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server did not become healthy in 120 s")
            time.sleep(0.05)

    def request(self, method: str, path: str, body: bytes | None) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request(method, path, body, {"Content-Type": "application/json"} if body else {})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def signal(self, signum) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def run_clients(server: Server, requests, result: Result, latencies: list, responses: list) -> None:
    """HTTP_CLIENTS threads, each posting its next request after the last reply."""
    lock = threading.Lock()

    def client():
        while True:
            with lock:
                item = next(requests, None)
            if item is None:
                return
            question, body = item
            t = time.perf_counter()
            try:
                status, payload = server.request("POST", "/ask", body)
            except (OSError, http.client.HTTPException) as exc:
                status, payload = None, repr(exc).encode()
            latency = time.perf_counter() - t
            with lock:
                result.attempted += 1
                if question is None:  # malformed: the right outcome is a 4xx with a JSON error
                    ok = status is not None and 400 <= status < 500 and b'"error"' in payload
                    if not ok:
                        result.failed += 1
                        result.failures.append(f"malformed {body!r}: {status} {payload[:80]!r}")
                elif status == 200:
                    latencies.append((question, latency))
                    responses.append((question, json.loads(payload)))
                else:
                    result.failed += 1
                    result.failures.append(f"ask {question!r}: {status} {payload[:200]!r}")

    threads = [threading.Thread(target=client) for _ in range(HTTP_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def service_overhead(latencies: list[tuple[str, float]], server_trace: dict) -> float:
    """Median over questions of the mean client round trip (seconds, from
    `latencies`) minus the mean server-side `ask` of the same question (ms,
    from the server's trace), in ms."""
    client: dict[str, list[float]] = {}
    for question, latency in latencies:
        client.setdefault(question, []).append(latency * 1e3)
    return statistics.median(statistics.mean(v) - statistics.mean(server_trace["ask_ms"][q]) for q, v in client.items())


def measure_service_overhead(root: str, config: str, work: str, questions: list[str], result: Result,
                             server_cpu: int) -> None:
    """`service.overhead_ms` for a traced `kb` run, which asks in-process:
    `openqa serve` on the same config, traced, each question posted once by
    one client. A reply other than 200 is a check failure."""
    dump = os.path.join(work, "service_trace.json")
    server = Server(root, config, work, dump, server_cpu)
    latencies = []
    try:
        server.signal(signal.SIGUSR1)
        time.sleep(0.1)
        for question in questions:
            t = time.perf_counter()
            status, payload = server.request("POST", "/ask", json.dumps({"question": question}).encode())
            if status == 200:
                latencies.append((question, time.perf_counter() - t))
            else:
                result.errors.append(f"served ask {question!r}: {status} {payload[:200]!r}")
        server.signal(signal.SIGUSR1)
        time.sleep(0.1)
    finally:
        server.stop()
    with open(dump, encoding="utf-8") as fh:
        result.metric("service.overhead_ms", service_overhead(latencies, json.load(fh)), "ms")


def http_round(questions: list[dict], r: int) -> list[tuple]:
    items = [(q["question"], json.dumps({"question": q["question"]}).encode()) for q in questions]
    items.insert(MALFORMED_AT, (None, MALFORMED[r % len(MALFORMED)]))
    return items


def run_passages_http(root: str, work: str, seed: int, seconds: float, traced: bool, small: bool,
                      server_cpu: int) -> Result:
    """Set-up samples run in this process while the server is idle between
    rounds; the server traces itself, switched on and off by SIGUSR1."""
    result = Result()
    # every question of the pool is asked at least once
    run = ServingRun(root, work, "passages", seed, traced, small, round_size=15, min_rounds=3)
    responses = []
    dump = os.path.join(work, "server_trace.json") if traced else None
    server = Server(root, run.config, work, dump, server_cpu)

    def ask_round(questions, r, trace_round):
        if trace_round:
            server.signal(signal.SIGUSR1)
            time.sleep(0.1)
        run_clients(server, iter(http_round(questions, r)), result, run.latencies[trace_round], responses)
        if trace_round:
            server.signal(signal.SIGUSR1)
            time.sleep(0.1)

    try:
        run.run(seconds, ask_round)
        rss = peak_rss_mb(server.proc.pid)
    finally:
        server.stop()

    data = None
    if traced:
        with open(dump, encoding="utf-8") as fh:
            data = json.load(fh)
        result.metric("service.overhead_ms", service_overhead(run.latencies[True], data), "ms")
    run.report(result, rss, data)

    # parity: every HTTP answer equals an in-process ask, timings aside
    local = {q: openqa.pipeline.ask(run.system, q) for q in dict.fromkeys(q for q, _ in responses)}
    for question, payload in responses:
        if checks.without_timings(payload) != checks.without_timings(local[question].to_dict()):
            result.errors.append(f"HTTP answer to {question!r} differs from in-process ask")
    result.errors += check_responses(run.system, run.world, run.questions, list(local.items()))
    return result


# -- training probe -----------------------------------------------------------------

class TrainingProbe:
    """The per-epoch training times of a traced run: the four models
    trained from their seeds on the checked-in toy data, PROBE_EPOCHS
    epochs each, between serving rounds. The selector's examples pair each
    toy question's gold answer with another one, gold first on even lines
    and second on odd ones, so its gradient is not zero. Each model's time
    is the median over steps, so one slowed step does not move it."""

    NAMES = {"tagger": "ld_solver.tagger_epoch_ms", "scorer": "ld_solver.scorer_epoch_ms",
             "reader": "reader.epoch_ms", "selector": "selector.epoch_ms"}

    def __init__(self, root: str):
        fixtures = os.path.join(root, "tests", "fixtures", "toyworld")
        base = SystemConfig.load(os.path.join(fixtures, "config.json"))
        self.hyper = Hyper(**{**vars(base.hyper), "epochs": PROBE_EPOCHS})
        self.vocab = System(base).vocab
        self.data = {
            "tagger": load_tagger_data(os.path.join(fixtures, "tagger.jsonl")),
            "scorer": load_scorer_data(os.path.join(fixtures, "scorer.jsonl")),
            "reader": load_reader_data(os.path.join(fixtures, "reader.jsonl")),
            "selector": [],
        }
        pairs = load_qa_pairs(os.path.join(fixtures, "qa.jsonl"))
        golds = list(dict.fromkeys(gold for _, gold in pairs))
        for i, (question, gold) in enumerate(pairs):
            other = golds[(golds.index(gold) + 1) % len(golds)]
            self.data["selector"].append((question, [gold, other], 0) if i % 2 == 0 else (question, [other, gold], 1))
        self.seconds: dict[str, list[float]] = {name: [] for name in self.NAMES}
        self.errors: list[str] = []

    @property
    def steps(self) -> int:
        return len(self.seconds["tagger"])

    def step(self) -> None:
        """Train each model once from its seed; a loss that does not fall is a check failure."""
        trainers = {
            "tagger": lambda: train_tagger(self.data["tagger"], self.hyper, self.vocab),
            "scorer": lambda: train_relation_scorer(self.data["scorer"], self.hyper, self.vocab),
            "reader": lambda: train_reader(self.data["reader"], self.hyper, self.vocab).params,
            "selector": lambda: train_selector(self.data["selector"], self.hyper, self.vocab).params,
        }
        for name, train in trainers.items():
            start = time.perf_counter()
            losses = train().arch["epoch_losses"]
            self.seconds[name].append(time.perf_counter() - start)
            if not losses[-1] < losses[0]:
                self.errors.append(f"{name}: last epoch loss {losses[-1]} is not below the first {losses[0]}")

    def report(self, result: Result) -> None:
        for name, seconds in self.seconds.items():
            result.metric(self.NAMES[name], statistics.median(seconds) * 1e3 / PROBE_EPOCHS, "ms")
        result.errors += self.errors


WORKLOADS = {"kb": run_kb, "passages-http": run_passages_http}
