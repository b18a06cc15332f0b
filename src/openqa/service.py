"""Minimal threaded HTTP/1.0 front end: POST /ask and GET /health.

One request per connection, answered with an HTTP/1.0 status line and a
JSON body. Every refusal, a malformed request included, is a 4xx or 5xx
status with {"error": message}; the connection is never dropped unanswered.

A thread per connection reads the request and writes the reply; the asks
themselves run one at a time, in arrival order, on the server's one ask
thread, so every ask allocates from the same malloc arena and GET /health
never waits behind one.
"""

from __future__ import annotations

import json
import logging
import re
import socketserver
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus

from .errors import EmptyQuestion
from .pipeline import System, ask

MAX_BODY_BYTES = 8192  # a question is a sentence; anything larger is refused unread
READ_TIMEOUT_S = 10.0  # a client that stalls mid-request must not hold a server thread forever
MAX_LINE_BYTES = 8192  # per request line and per header line
MAX_HEADERS = 100

log = logging.getLogger("openqa")


class Refused(Exception):
    """A request answered with `status` and {"error": message}."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class Server(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler):
        # made before the socket is bound: a failed bind calls server_close()
        self.asker = ThreadPoolExecutor(max_workers=1)
        super().__init__(address, handler)

    def server_close(self):
        super().server_close()
        self.asker.shutdown()


def make_server(system: System, host: str, port: int) -> Server:
    class Handler(socketserver.StreamRequestHandler):
        timeout = READ_TIMEOUT_S

        def handle(self):
            try:
                answer = self._answer()
            except Refused as exc:
                answer = exc.status, {"error": str(exc)}
            except TimeoutError:
                answer = 408, {"error": f"request not received within {self.timeout:g} s"}
            except OSError:
                return  # the client has gone
            if answer is not None:
                self._send(*answer)

        def _send(self, status: int, payload: dict):
            body = json.dumps(payload).encode("utf-8")
            head = (f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\n"
                    f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
            try:
                self.wfile.write(head.encode("ascii") + body)
            except OSError:
                pass  # the client has gone

        def _line(self, status: int, what: str) -> bytes:
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                raise Refused(status, f"{what} exceeds {MAX_LINE_BYTES} bytes")
            return line

        def _head(self) -> tuple[str, str, dict[str, str]] | None:
            """(method, path, headers by lower-case name), or None if the
            client closed the connection without sending a request line."""
            line = self._line(414, "request line")
            if not line:
                return None
            words = line.decode("latin-1").split()
            if len(words) != 3:
                raise Refused(400, "malformed request line")
            method, path, version = words
            match = re.fullmatch(r"HTTP/(\d+)\.\d+", version)
            if match is None:
                raise Refused(400, f"malformed HTTP version {version!r}")
            if int(match[1]) != 1:
                raise Refused(505, f"HTTP version {version} not supported")
            if method not in ("GET", "POST"):
                raise Refused(501, f"method {method} not supported")
            headers: dict[str, str] = {}
            for _ in range(MAX_HEADERS + 1):
                line = self._line(431, "header line")
                if line in (b"\r\n", b"\n", b""):
                    return method, path, headers
                name, colon, value = line.decode("latin-1").partition(":")
                if not colon or not name or name != name.strip():
                    raise Refused(400, "malformed header line")
                headers.setdefault(name.lower(), value.strip())
            raise Refused(431, f"more than {MAX_HEADERS} headers")

        def _body(self, headers: dict[str, str]) -> bytes:
            length_text = headers.get("content-length", "0")
            if not (length_text.isascii() and length_text.isdigit()):
                raise Refused(400, "Content-Length must be a non-negative integer")
            length = int(length_text)
            if length > MAX_BODY_BYTES:
                raise Refused(413, f"body exceeds {MAX_BODY_BYTES} bytes")
            body = self.rfile.read(length)
            if len(body) < length:
                raise Refused(400, f"body ended after {len(body)} of {length} bytes")
            return body

        def _answer(self) -> tuple[int, dict] | None:
            head = self._head()
            if head is None:
                return None
            method, path, headers = head
            if method == "GET":
                return (200, {"status": "ok"}) if path == "/health" else (404, {"error": "not found"})
            if path != "/ask":
                return 404, {"error": "not found"}
            body = self._body(headers)
            try:
                doc = json.loads(body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                return 400, {"error": "invalid JSON body"}
            if not isinstance(doc, dict):
                return 400, {"error": "body must be a JSON object"}
            question = doc.get("question", "")
            if not isinstance(question, str):
                return 400, {"error": "question must be a string"}
            try:
                response = self.server.asker.submit(ask, system, question).result()
            except EmptyQuestion:
                return 400, {"error": "question is empty"}
            except Exception as exc:  # one log line, no traceback, and the client still gets an answer
                log.error("ask failed on %r: %s: %s", question, type(exc).__name__, exc)
                return 500, {"error": "internal error"}
            return 200, response.to_dict()

    return Server((host, port), Handler)
