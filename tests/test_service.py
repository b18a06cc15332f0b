"""HTTP service contract."""

import http.client
import json
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
        assert err.value.code == 400

    def test_missing_question_field_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            post_ask(server, json.dumps({"q": "hi"}).encode())
        assert err.value.code == 400

    def test_invalid_json_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            post_ask(server, b"not json {")
        assert err.value.code == 400

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

    def test_short_body_is_408(self, toy, monkeypatch):
        # Content-Length promises more bytes than the client ever sends
        monkeypatch.setattr(service, "READ_TIMEOUT_S", 0.2)
        srv = make_server(toy["system"], "127.0.0.1", 0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        conn = http.client.HTTPConnection("127.0.0.1", srv.server_address[1], timeout=10)
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
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{server}/nope", timeout=10)
        assert err.value.code == 404

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
