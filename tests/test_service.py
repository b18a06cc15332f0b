"""HTTP service contract."""

import http.client
import json
import logging
import os
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from openqa import service
from openqa.service import MAX_BODY_BYTES, make_server


@pytest.fixture(scope="module")
def server(toy):
    srv = make_server(toy["system"], "127.0.0.1", 0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{srv.server_address[1]}"
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)


@pytest.fixture
def start_server(toy):
    """Start a server on a free port after the test's monkeypatching; stopped at teardown."""
    started = []

    def start():
        srv = make_server(toy["system"], "127.0.0.1", 0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        started.append((srv, thread))
        return srv.server_address[1]

    yield start
    for srv, thread in started:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def raw_exchange(port: int, request: bytes, close_write: bool = False) -> tuple[str, bytes]:
    """Send `request` bytes as they are; (status line, body) of the reply."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        if close_write:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0].decode("latin-1"), body


def post_ask(base: str, body: bytes, content_type="application/json"):
    req = urllib.request.Request(f"{base}/ask", data=body,
                                 headers={"Content-Type": content_type})
    return urllib.request.urlopen(req, timeout=10)


class TestHealth:
    def test_health(self, server):
        with urllib.request.urlopen(f"{server}/health", timeout=10) as resp:
            assert resp.status == 200
            assert json.load(resp) == {"status": "ok"}


class TestAsk:
    def test_answers_question(self, server):
        body = json.dumps({"question": "who wrote hamlet"}).encode()
        with post_ask(server, body) as resp:
            assert resp.status == 200
            doc = json.load(resp)
        assert doc["answer"] == "shakespeare"
        assert set(doc) >= {"answer", "confidence", "solver", "candidates", "timings"}

    def test_empty_question_is_400(self, server):
        body = json.dumps({"question": "   "}).encode()
        with pytest.raises(urllib.error.HTTPError) as err:
            post_ask(server, body)
        with err.value as resp:
            assert resp.code == 400

    def test_missing_question_field_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            post_ask(server, json.dumps({"q": "hi"}).encode())
        with err.value as resp:
            assert resp.code == 400

    def test_invalid_json_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            post_ask(server, b"not json {")
        with err.value as resp:
            assert resp.code == 400

    @pytest.mark.parametrize("body, error", [
        (b"[1,2]", "body must be a JSON object"),
        (b'{"question": 5}', "question must be a string"),
        (b'{"question": null}', "question must be a string"),
    ])
    def test_wrong_json_shape_is_400(self, server, body, error):
        with pytest.raises(urllib.error.HTTPError) as err:
            post_ask(server, body)
        with err.value as resp:
            assert resp.code == 400
            assert json.load(resp) == {"error": error}

    @pytest.mark.parametrize("length, status", [
        ("-5", 400),
        ("abc", 400),
        (str(MAX_BODY_BYTES + 1), 413),
    ])
    def test_bad_content_length(self, server, length, status):
        # headers only: the server must answer without reading a body
        conn = http.client.HTTPConnection("127.0.0.1", urllib.parse.urlsplit(server).port, timeout=10)
        try:
            conn.putrequest("POST", "/ask")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == status
            assert "error" in json.load(resp)
        finally:
            conn.close()

    def test_question_of_9000_bytes_is_413(self, server):
        """A question is a sentence: a body this long is refused unread, before `ask` runs."""
        body = json.dumps({"question": "who wrote " + "x" * 8974}).encode("utf-8")
        assert len(body) == 9000
        with pytest.raises(urllib.error.HTTPError) as err:
            post_ask(server, body)
        with err.value as resp:
            assert resp.code == 413
            assert json.load(resp) == {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}

    def test_short_body_is_408(self, start_server, monkeypatch):
        # Content-Length promises more bytes than the client ever sends
        monkeypatch.setattr(service, "READ_TIMEOUT_S", 0.2)
        conn = http.client.HTTPConnection("127.0.0.1", start_server(), timeout=10)
        try:
            conn.putrequest("POST", "/ask")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", "100")
            conn.endheaders()
            conn.send(b'{"question": ')
            resp = conn.getresponse()
            assert resp.status == 408
            assert "error" in json.load(resp)
        finally:
            conn.close()

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{server}/nope", timeout=10)
        with err.value as resp:
            assert resp.code == 404

    def test_concurrent_requests(self, server):
        answers = []
        def hit():
            body = json.dumps({"question": "who wrote dune"}).encode()
            with post_ask(server, body) as resp:
                answers.append(json.load(resp)["answer"])
        threads = [threading.Thread(target=hit) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert answers == ["herbert"] * 6


class TestAskThread:
    """Every ask runs on the server's one ask thread; connection threads only
    read requests and write replies."""

    def test_one_thread_runs_every_ask_and_stops_with_the_server(self, toy, monkeypatch):
        ask_threads, handler_threads = [], []
        real_ask = service.ask

        def recording_ask(system, question):
            ask_threads.append(threading.current_thread())
            return real_ask(system, question)

        monkeypatch.setattr(service, "ask", recording_ask)
        srv = make_server(toy["system"], "127.0.0.1", 0)
        real_handle = srv.RequestHandlerClass.handle

        def recording_handle(handler):
            handler_threads.append(threading.current_thread())
            return real_handle(handler)

        monkeypatch.setattr(srv.RequestHandlerClass, "handle", recording_handle)
        serving = threading.Thread(target=srv.serve_forever, daemon=True)
        serving.start()
        base = f"http://127.0.0.1:{srv.server_address[1]}"
        answers = []

        def hit():
            with post_ask(base, json.dumps({"question": "who wrote dune"}).encode()) as resp:
                answers.append(json.load(resp)["answer"])

        try:
            clients = [threading.Thread(target=hit) for _ in range(6)]
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            srv.shutdown()
            srv.server_close()
            serving.join(timeout=10)
        assert not serving.is_alive()
        assert answers == ["herbert"] * 6
        assert len(ask_threads) == 6 and len(set(ask_threads)) == 1
        assert len(handler_threads) == 6 and ask_threads[0] not in handler_threads
        assert not ask_threads[0].is_alive()  # server_close() ended the ask thread

    def test_health_does_not_wait_for_a_running_ask(self, start_server, monkeypatch):
        started, release = threading.Event(), threading.Event()
        real_ask = service.ask

        def blocking_ask(system, question):
            started.set()
            release.wait(timeout=30)
            return real_ask(system, question)

        monkeypatch.setattr(service, "ask", blocking_ask)
        port = start_server()
        statuses = []

        def post():
            status_line, body = raw_exchange(port, b"POST /ask HTTP/1.0\r\nContent-Length: 30\r\n\r\n"
                                                   b'{"question": "who wrote dune"}')
            statuses.append((status_line, json.loads(body)["answer"]))

        asking = threading.Thread(target=post)
        asking.start()
        try:
            assert started.wait(timeout=30)
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/health", timeout=5) as resp:
                assert resp.status == 200
                assert json.load(resp) == {"status": "ok"}
            assert asking.is_alive()  # the ask is still held
        finally:
            release.set()
            asking.join(timeout=30)
        assert not asking.is_alive()
        assert statuses == [("HTTP/1.0 200 OK", "herbert")]


def header_lines(n: int) -> bytes:
    return b"".join(b"X-%d: y\r\n" % i for i in range(n))


class TestFrontEnd:
    """Each malformed request gets a status line and a JSON error body."""

    @pytest.mark.parametrize("request_bytes, status", [
        (b"GARBAGE\r\n\r\n", 400),
        (b"\r\n", 400),
        (b"GET /health\r\n\r\n", 400),
        (b"GET /health HTTP/1.0 extra\r\n\r\n", 400),
        (b"GET /health HTTP/x\r\n\r\n", 400),
        (b"GET /health HTTP/1.0\r\nno colon\r\n\r\n", 400),
        (b"GET /health HTTP/1.0\r\n folded: value\r\n\r\n", 400),
        (b"PUT /ask HTTP/1.0\r\n\r\n", 501),
        (b"HEAD /health HTTP/1.0\r\n\r\n", 501),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.0\r\n\r\n", 414),
        (b"GET /health HTTP/1.0\r\nX: " + b"a" * 70_000 + b"\r\n\r\n", 431),
        (b"GET /" + b"a" * 8984 + b" HTTP/1.0\r\n\r\n", 414),  # lines of 9000 bytes, line ending included
        (b"GET /health HTTP/1.0\r\nX: " + b"a" * 8995 + b"\r\n\r\n", 431),
        (b"GET /health HTTP/1.0\r\n" + header_lines(101) + b"\r\n", 431),
        (b"GET /health HTTP/9.9\r\n\r\n", 505),
        (b"GET /health HTTP/0.9\r\n\r\n", 505),
    ], ids=["garbage", "blank-line", "no-version", "four-words", "bad-version", "header-without-colon",
            "folded-header", "put", "head", "long-request-line", "long-header-line", "request-line-of-9000-bytes",
            "header-line-of-9000-bytes", "101-headers", "http-9.9", "http-0.9"])
    def test_malformed_request_gets_status_and_json_error(self, server, request_bytes, status):
        status_line, body = raw_exchange(urllib.parse.urlsplit(server).port, request_bytes)
        assert status_line.startswith(f"HTTP/1.0 {status} ")
        assert set(json.loads(body)) == {"error"}

    @pytest.mark.parametrize("request_bytes, status", [
        (b"GET /health HTTP/1.0\r\n" + header_lines(100) + b"\r\n", 200),
        (b"GET /health HTTP/1.1\r\nhost: x\r\n\r\n", 200),
        (b"GET /health HTTP/1.0\n\n", 200),
        (b"GET /health HTTP/1.0\r\nX: " + b"a" * 8187 + b"\r\n\r\n", 200),  # a line of 8192 bytes
    ], ids=["100-headers", "http-1.1", "bare-newlines", "header-line-of-8192-bytes"])
    def test_well_formed_edge_cases_are_served(self, server, request_bytes, status):
        status_line, body = raw_exchange(urllib.parse.urlsplit(server).port, request_bytes)
        assert status_line.startswith(f"HTTP/1.0 {status} ")
        assert json.loads(body) == {"status": "ok"}

    def test_body_shorter_than_content_length_is_400(self, server):
        request = b"POST /ask HTTP/1.0\r\nContent-Length: 100\r\n\r\n" + b'{"question": "x"}'
        status_line, body = raw_exchange(urllib.parse.urlsplit(server).port, request, close_write=True)
        assert status_line == "HTTP/1.0 400 Bad Request"
        assert json.loads(body) == {"error": "body ended after 17 of 100 bytes"}

    @pytest.mark.parametrize("partial", [b"GET /hea", b"GET /health HTTP/1.0\r\nX: y\r\n"],
                             ids=["request-line", "headers"])
    def test_stalled_request_is_408(self, start_server, monkeypatch, partial):
        monkeypatch.setattr(service, "READ_TIMEOUT_S", 0.2)
        status_line, body = raw_exchange(start_server(), partial)
        assert status_line == "HTTP/1.0 408 Request Timeout"
        assert json.loads(body) == {"error": "request not received within 0.2 s"}

    def test_failing_ask_is_500_with_one_error_line(self, server, monkeypatch, caplog, capfd):
        def failing_ask(system, question):
            raise RuntimeError("boom")

        monkeypatch.setattr(service, "ask", failing_ask)
        with caplog.at_level(logging.WARNING, logger="openqa"):
            with pytest.raises(urllib.error.HTTPError) as err:
                post_ask(server, json.dumps({"question": "who wrote hamlet"}).encode())
            with err.value as resp:
                assert resp.code == 500
                assert json.load(resp) == {"error": "internal error"}
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert [r.getMessage() for r in errors] == ["ask failed on 'who wrote hamlet': RuntimeError: boom"]
        assert errors[0].exc_info is None
        assert capfd.readouterr().err == ""

    def test_cli_import_loads_no_http_client_stack(self):
        # http.server pulls in http.client, ssl, email and html; the service needs none of them
        src = os.path.dirname(os.path.dirname(service.__file__))
        code = ("import sys, openqa.cli; "
                "print(sorted(m for m in ('ssl', 'http.client', 'http.server', 'email', 'html') if m in sys.modules))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
