"""Minimal threaded HTTP front end: POST /ask and GET /health."""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .errors import EmptyQuestion
from .pipeline import System, ask, split_addr

MAX_BODY_BYTES = 1 << 20  # a question is a sentence; anything larger is refused unread
READ_TIMEOUT_S = 10.0  # a client that stalls mid-request must not hold a server thread forever


def make_server(system: System, host: str, port: int) -> ThreadingHTTPServer:
    class Handler(BaseHTTPRequestHandler):
        timeout = READ_TIMEOUT_S

        def _send(self, status: int, payload: dict):
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path == "/health":
                self._send(200, {"status": "ok"})
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            if self.path != "/ask":
                self._send(404, {"error": "not found"})
                return
            length_text = self.headers.get("Content-Length", "0").strip()
            if not (length_text.isascii() and length_text.isdigit()):
                self._send(400, {"error": "Content-Length must be a non-negative integer"})
                return
            length = int(length_text)
            if length > MAX_BODY_BYTES:
                self._send(413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"})
                return
            try:
                body = self.rfile.read(length)
            except TimeoutError:
                self._send(408, {"error": f"body not received within {self.timeout:g} s"})
                return
            try:
                doc = json.loads(body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self._send(400, {"error": "invalid JSON body"})
                return
            if not isinstance(doc, dict):
                self._send(400, {"error": "body must be a JSON object"})
                return
            question = doc.get("question", "")
            if not isinstance(question, str):
                self._send(400, {"error": "question must be a string"})
                return
            try:
                response = ask(system, question)
            except EmptyQuestion:
                self._send(400, {"error": "question is empty"})
                return
            self._send(200, response.to_dict())

        def log_message(self, fmt, *args):  # quiet by default
            pass

    return ThreadingHTTPServer((host, port), Handler)


def serve(system: System, addr: str) -> None:
    server = make_server(system, *split_addr(addr))
    try:
        server.serve_forever()
    finally:
        server.server_close()
