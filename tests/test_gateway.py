from __future__ import annotations

import base64
import gc
import http.client
import json
import os
import re
import socket
import socketserver
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import MappingProxyType

import pytest

from askplan import gateway
from askplan.gateway import (
    DecodeParams,
    GatewayTimeout,
    HttpGateway,
    HttpGatewayConfig,
    MalformedReply,
    OracleScript,
    ProviderRejected,
    ProviderUnreachable,
    ScriptEntry,
    ScriptMiss,
    ScriptedGateway,
    echo_text,
    load_script,
    parse_script,
    request_text,
)
from askplan.engine import EpisodeConfig, run_episode
from askplan.inputs import MAX_JSON_INT, MalformedInput
from askplan.prompting import RenderedPrompt
from conftest import shallowest_refused_depth

PROMPT = RenderedPrompt("system text", "please plan: heated slice of bread")
SCENE = "Zone: kitchen\nVisible objects:\n- fridge (closed)"


# -- scripts ------------------------------------------------------------------


def test_contains_all_matching():
    script = OracleScript((
        ScriptEntry(reply="qa", contains_all=("heated slice of bread",)),
    ))
    gw = ScriptedGateway(script)
    assert gw.complete(PROMPT, DecodeParams()) == "qa"


def test_entries_matched_in_order_first_wins():
    script = OracleScript((
        ScriptEntry(reply="first", contains_all=("plan",)),
        ScriptEntry(reply="second", contains_all=("plan",)),
    ))
    assert ScriptedGateway(script).complete(PROMPT, DecodeParams()) == "first"


def test_strict_mode_miss():
    script = OracleScript((ScriptEntry(reply="x", exact="something else"),))
    with pytest.raises(ScriptMiss):
        ScriptedGateway(script).complete(PROMPT, DecodeParams())


def test_fallback_mode_reply():
    script = OracleScript((ScriptEntry(reply="x", exact="nope"),), fallback_reply="fb")
    assert ScriptedGateway(script).complete(PROMPT, DecodeParams()) == "fb"


def test_multimodal_appends_scene_to_request():
    script = OracleScript((
        ScriptEntry(reply="saw the fridge", contains_all=("fridge (closed)",)),
    ))
    gw = ScriptedGateway(script)
    assert gw.complete_multimodal(PROMPT, SCENE, DecodeParams()) == "saw the fridge"
    # text-only call must not match the scene-keyed entry
    with pytest.raises(ScriptMiss):
        gw.complete(PROMPT, DecodeParams())


def test_scripted_deterministic_and_latency_free():
    script = OracleScript((ScriptEntry(reply="r", contains_all=("plan",)),))
    gw = ScriptedGateway(script)
    first = gw.complete_multimodal(PROMPT, SCENE, DecodeParams())
    second = gw.complete_multimodal(PROMPT, SCENE, DecodeParams())
    assert first == second


def test_empty_scene_request_is_well_formed():
    empty = "Zone: cellar\nVisible objects: none"
    assert "Visible objects: none" in request_text(PROMPT, empty)


def test_load_script_fixture():
    from askplan import asset_path

    script = load_script(asset_path("scripts/bread_recovery.json"))
    assert len(script.entries) == 5
    assert script.fallback_reply is None


def test_load_script_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(MalformedInput, match=f"^{re.escape(str(path))}: not valid JSON "):
        load_script(path)


def test_parse_script_rejects_bad_entries():
    with pytest.raises(MalformedInput, match="script needs a non-empty 'entries' list"):
        parse_script({"entries": []})
    with pytest.raises(MalformedInput, match="exactly one of 'exact' or 'contains_all'"):
        parse_script({"entries": [{"reply": "r"}]})
    with pytest.raises(MalformedInput, match="exactly one of 'exact' or 'contains_all'"):
        parse_script({"entries": [{"reply": "r", "exact": "a", "contains_all": ["b"]}]})
    with pytest.raises(MalformedInput, match="script entry 0 lacks the field 'reply'"):
        parse_script({"entries": [{"exact": "a"}]})
    with pytest.raises(MalformedInput, match="unknown script mode 'chaotic'"):
        parse_script({"mode": "chaotic", "entries": [{"reply": "r", "exact": "a"}]})


def test_duplicate_exact_keys_first_wins():
    script = parse_script({"entries": [
        {"exact": "same", "reply": "one"},
        {"exact": "same", "reply": "two"},
    ]})
    assert script.reply_for("same") == "one"


def test_llm_log_as_exact_entries_replays_its_episode(mini7):
    # A trace's llm_log is the session record: its req/res pairs, written as
    # exact entries, make a script that reruns the episode to the same record.
    from askplan import asset_path

    bread = next(s for s in mini7.scenarios if s.id == "heat_bread")
    runs = [(scenario, "mini7", EpisodeConfig(seed=42)) for scenario in mini7.scenarios]
    runs += [(bread, name, EpisodeConfig(seed=seed, noise_override=0.15))
             for name in ("bread_recovery", "bread_noisy") for seed in range(40)]
    decisions = set()
    for scenario, name, cfg in runs:
        live = ScriptedGateway(load_script(asset_path(f"scripts/{name}.json")))
        record = run_episode(scenario, live, cfg).to_record()
        log = record["llm_log"]
        script = parse_script({"entries": [{"exact": req["text"], "reply": res["text"]}
                                           for req, res in zip(log[::2], log[1::2])]})
        rerun = run_episode(scenario, ScriptedGateway(script), cfg).to_record()
        assert rerun == record, (scenario.id, name, cfg.seed)
        decisions |= {step["decision"] for step in record["steps"]}
    assert {"redo", "replan"} <= decisions


# -- decode params ------------------------------------------------------------


def test_default_decode_profile_biases_vocab():
    params = DecodeParams.for_vocab({"bread", "knife"})
    assert params.temperature == 0.0
    assert params.token_bias == {"bread": 0.1, "knife": 0.1}


def test_decode_params_validated():
    with pytest.raises(ValueError):
        DecodeParams(temperature=-1.0)
    with pytest.raises(ValueError):
        DecodeParams(temperature=float("nan"))
    with pytest.raises(ValueError):
        DecodeParams(max_tokens=0)
    assert DecodeParams(max_tokens=1).max_tokens == 1


@pytest.mark.parametrize("temperature, bias", [
    (float("inf"), 0.1), (10**400, 0.1),
    (0.0, float("nan")), (0.0, float("inf")), (0.0, float("-inf")), (0.0, 10**400),
], ids=["temperature-inf", "temperature-huge-int", "bias-nan", "bias-inf", "bias-minus-inf",
        "bias-huge-int"])
def test_decode_params_reject_a_number_that_is_not_finite(temperature, bias):
    with pytest.raises(ValueError, match="must be finite"):
        DecodeParams(temperature=temperature, token_bias={"bread": 0.1, "knife": bias})


def test_max_tokens_and_failure_budget_are_at_most_the_largest_exact_json_integer():
    assert DecodeParams(max_tokens=MAX_JSON_INT).max_tokens == 2**53 - 1
    assert EpisodeConfig(failure_budget=MAX_JSON_INT).failure_budget == 2**53 - 1
    for value in (MAX_JSON_INT + 1, 10**400):
        with pytest.raises(ValueError, match="max_tokens must be in"):
            DecodeParams(max_tokens=value)
        with pytest.raises(ValueError, match="failure_budget must be in"):
            EpisodeConfig(failure_budget=value)


def test_decode_params_take_a_large_finite_number():
    params = DecodeParams(temperature=10**300, token_bias={"bread": -1e308})
    assert params.temperature == 10**300


def plain_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def test_a_profile_echo_is_built_once_around_its_own_bias_map_with_its_text():
    params = DecodeParams(temperature=0.5, token_bias={"caf\u00e9": 0.1, "knife": -2},
                          max_tokens=64)
    echo = params.echo
    assert echo == {"max_tokens": 64, "temperature": 0.5,
                    "token_bias": {"caf\u00e9": 0.1, "knife": -2}}
    assert params.echo is echo and echo["token_bias"] is params.token_bias
    assert echo_text(echo) == plain_json(echo)  # non-ASCII escaped, as a trace line has it
    assert echo_text(dict(echo)) is None  # a copy is no profile's echo
    assert echo_text(None) is None


def test_the_echo_of_a_bias_mapping_that_is_no_dict_holds_a_dict_copy():
    bias = MappingProxyType({"bread": 0.1})
    params = DecodeParams(token_bias=bias)
    echo = params.echo
    assert type(echo["token_bias"]) is dict and echo["token_bias"] == {"bread": 0.1}
    assert echo_text(echo) == plain_json(echo)


def test_an_echo_counts_only_while_its_profile_lives_and_keeps_it():
    params = DecodeParams.for_vocab({"bread"})
    first = params.echo
    object.__setattr__(params, "_echo", None)  # as when a second thread builds it at once
    second = params.echo
    assert first == second and first is not second
    assert echo_text(first) is None and echo_text(second) == plain_json(second)
    profile = weakref.ref(params)
    del params
    gc.collect()
    assert profile() is None
    assert echo_text(second) is None
    assert id(first) not in gateway._PROFILES and id(second) not in gateway._PROFILES


# -- http gateway against a local stub ----------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    fail_first = 0
    requests: list[dict] = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).requests.append(body)
        if type(self).fail_first > 0:
            type(self).fail_first -= 1
            self.send_response(500)
            self.end_headers()
            self.wfile.write(b"boom")
            return
        payload = {"model": "stub-model",
                   "choices": [{"message": {"content": "stub reply"}}]}
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@contextmanager
def _serving(handler):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    # a short poll interval keeps shutdown() from waiting up to 0.5 s
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture()
def stub_server():
    _StubHandler.fail_first = 0
    _StubHandler.requests = []
    with _serving(_StubHandler) as endpoint:
        yield endpoint


def _replying(body: bytes, status: int = 200):
    """A stub handler that answers every request with ``body`` and ``status``
    (a redirect points back at the request's path) and records each request's
    target and headers."""
    class Handler(_StubHandler):
        requests: list[dict] = []

        def do_POST(self):
            type(self).requests.append({"path": self.path, "headers": dict(self.headers)})
            self.send_response(status)
            if 300 <= status < 400:
                self.send_header("Location", self.path)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
    return Handler


@pytest.fixture(autouse=True)
def _short_backoff(monkeypatch):
    # the retry tests wait 10 ms before a first retry, not 250
    monkeypatch.setattr(gateway, "BACKOFF_S", 0.01)


def _gateway(endpoint: str, retries: int = 2) -> HttpGateway:
    return HttpGateway(HttpGatewayConfig(
        endpoint=endpoint, model="stub-model", retries=retries, timeout_s=5.0))


def test_http_request_carries_decode_params(stub_server):
    gw = _gateway(stub_server)
    params = DecodeParams(temperature=0.0, token_bias={"bread": 0.1}, max_tokens=64)
    assert gw.complete(PROMPT, params) == "stub reply"
    body = _StubHandler.requests[-1]
    assert body["temperature"] == 0.0
    assert body["logit_bias"] == {"bread": 0.1}
    assert body["max_tokens"] == 64
    assert body["messages"][0] == {"role": "system", "content": "system text"}
    assert body["messages"][1]["content"] == PROMPT.user_text


def test_http_multimodal_sends_scene_text(stub_server):
    gw = _gateway(stub_server)
    gw.complete_multimodal(PROMPT, SCENE, DecodeParams())
    body = _StubHandler.requests[-1]
    assert "fridge (closed)" in body["messages"][1]["content"]


def test_http_retries_transient_500(stub_server):
    _StubHandler.fail_first = 1
    gw = _gateway(stub_server, retries=2)
    assert gw.complete(PROMPT, DecodeParams()) == "stub reply"
    assert len(_StubHandler.requests) == 2


def test_http_unreachable_after_retry_exhaustion():
    gw = _gateway("http://127.0.0.1:9/v1/chat", retries=2)
    with pytest.raises(ProviderUnreachable) as err:
        gw.complete(PROMPT, DecodeParams())
    assert "3 attempts" in str(err.value)


def test_http_4xx_rejected_without_retry():
    class Reject(_StubHandler):
        requests: list[dict] = []

        def do_POST(self):
            type(self).requests.append({})
            self.send_response(401)
            self.end_headers()
            self.wfile.write(b"no key")

    with _serving(Reject) as endpoint:
        with pytest.raises(ProviderRejected):
            _gateway(endpoint).complete(PROMPT, DecodeParams())
    assert len(Reject.requests) == 1


@pytest.mark.parametrize("body", [
    b"<html>busy</html>",
    b'{"choices": []}',
    b'[1]',
    b'{"choices": [{"message": {"content": null}}]}',
    # a chat completion, but NaN and Infinity are no JSON numbers
    b'{"choices": [{"message": {"content": "ok"}}], "usage": {"total_tokens": NaN}}',
    b'{"choices": [{"message": {"content": "ok"}}], "usage": {"total_tokens": -Infinity}}',
])
def test_http_malformed_reply_is_not_retried(body):
    handler = _replying(body)
    with _serving(handler) as endpoint:
        with pytest.raises(MalformedReply):
            _gateway(endpoint, retries=2).complete(PROMPT, DecodeParams())
    assert len(handler.requests) == 1


def test_http_reply_nested_past_the_decoders_limit_is_malformed():
    # a chat completion with a field nested 100 000 levels deep, and one at
    # the shallowest depth the decoder refuses
    class Nested(_StubHandler):
        depth = 0

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            nested = "[" * self.depth + "]" * self.depth
            body = ('{"choices": [{"message": {"content": "ok"}}], "extra": %s}'
                    % nested).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    def refused(depth: int) -> bool:
        Nested.depth = depth
        try:
            gateway.complete(PROMPT, DecodeParams())
        except MalformedReply as exc:
            assert str(exc).startswith("reply is not a chat completion: "), exc
            return True
        return False

    with _serving(Nested) as endpoint:
        gateway = _gateway(endpoint, retries=0)
        try:
            assert 1 < shallowest_refused_depth(refused) < 100_000
        finally:
            gateway.close()


def test_http_malformed_reply_is_a_recorded_outcome(bread_scenario):
    with _serving(_replying(b"<html>busy</html>")) as endpoint:
        record = run_episode(bread_scenario, _gateway(endpoint),
                             EpisodeConfig(seed=1)).to_record()
    assert record["outcome"] == "plan_exhausted"
    assert "not a chat completion" in record["abort_reason"]
    assert record["config"]["gateway"]["kind"] == "http"
    assert record["config"]["seed"] == 1
    assert [(e["direction"], e["stage"]) for e in record["llm_log"]] == [("req", "decompose")]


def test_http_describe_never_contains_key(monkeypatch, stub_server):
    monkeypatch.setenv("ASKPLAN_API_KEY", "sekrit")
    gw = _gateway(stub_server)
    gw.complete(PROMPT, DecodeParams())
    description = json.dumps(gw.describe())
    assert "sekrit" not in description
    assert gw.describe()["api_key_env"] == "ASKPLAN_API_KEY"


def test_http_timeout_error():
    # the handler answers nothing: it waits until the client has given up,
    # so no reply is written to a socket the client has closed
    arrived = threading.Semaphore(0)
    released = threading.Event()

    class Silent(_StubHandler):
        def do_POST(self):
            arrived.release()
            released.wait(5)

    with _serving(Silent) as endpoint:
        gw = HttpGateway(HttpGatewayConfig(
            endpoint=endpoint, model="stub-model", retries=1, timeout_s=0.1))
        try:
            with pytest.raises(GatewayTimeout, match="after 2 attempts"):
                gw.complete(PROMPT, DecodeParams())
        finally:
            released.set()
    assert arrived.acquire(timeout=5) and arrived.acquire(timeout=5)
    assert not arrived.acquire(blocking=False)


def test_http_concurrent_calls_all_complete(stub_server):
    gw = _gateway(stub_server, retries=0)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(
            lambda _: gw.complete(PROMPT, DecodeParams()), range(8)))
    assert results == ["stub reply"] * 8


def _answering_raw(reply: bytes):
    """A stub handler that reads each request, writes ``reply`` as the whole
    response (``b""`` for none) and closes the connection."""
    class Handler(_StubHandler):
        requests: list[dict] = []

        def do_POST(self):
            type(self).requests.append({})
            self.rfile.read(int(self.headers["Content-Length"]))
            self.wfile.write(reply)
    return Handler


@pytest.mark.parametrize("reply", [b"", b"garbage\r\n\r\n"], ids=["hang-up", "garbled-status"])
def test_http_broken_reply_is_retried_then_a_recorded_outcome(reply, bread_scenario):
    handler = _answering_raw(reply)
    with _serving(handler) as endpoint:
        with pytest.raises(ProviderUnreachable) as err:
            _gateway(endpoint, retries=2).complete(PROMPT, DecodeParams())
        assert "3 attempts" in str(err.value)
        assert len(handler.requests) == 3
        record = run_episode(bread_scenario, _gateway(endpoint, retries=1),
                             EpisodeConfig(seed=1)).to_record()
    assert len(handler.requests) == 5
    assert record["outcome"] == "plan_exhausted"
    assert "gave up after 2 attempts" in record["abort_reason"]
    assert record["config"]["gateway"]["kind"] == "http"


def test_http_connect_timeout_is_a_gateway_timeout(monkeypatch):
    def connect_timeout(conn):
        raise TimeoutError("timed out")

    monkeypatch.setattr(http.client.HTTPConnection, "connect", connect_timeout)
    with pytest.raises(GatewayTimeout):
        _gateway("http://127.0.0.1:9/v1/chat", retries=1).complete(PROMPT, DecodeParams())


def _scripted_handler(script: OracleScript):
    """A kept-alive stub that answers each chat request with the script's
    reply to its user message, and a script miss with a 404. It records each
    user message."""
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        texts: list[str] = []

        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            text = body["messages"][-1]["content"]
            self.texts.append(text)
            try:
                status, payload = 200, {"choices": [{"message": {"content": script.reply_for(text)}}]}
            except ScriptMiss as exc:
                status, payload = 404, {"error": str(exc)}
            data = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass
    return Handler


@pytest.mark.parametrize("parallel", [1, 4])
@pytest.mark.parametrize("script_name, only", [("mini7", None), ("bread_recovery", "heat_bread")])
def test_http_gateway_writes_the_scripted_records(mini7, script_name, only, parallel, tmp_path):
    # Both gateway kinds see the same request text, so an HTTP run against a
    # stub that serves the script writes the scripted run's records, apart
    # from the gateway echo.
    from askplan import asset_path
    from askplan.cli import RunConfig, TaskSet, read_traces, run_bench

    script = load_script(asset_path(f"scripts/{script_name}.json"))
    tasks = TaskSet(mini7.name, mini7.version,
                    [s for s in mini7.scenarios if only in (None, s.id)])

    def records(gateway, out: str, parallelism: int) -> list[dict]:
        try:
            path = run_bench(tasks, RunConfig(EpisodeConfig(), gateway, 42, tmp_path / out,
                                              parallelism))
        finally:
            gateway.close()
        return [{**record, "config": {key: value for key, value in record["config"].items()
                                      if key != "gateway"}} for record in read_traces(path)]

    scripted = records(ScriptedGateway(script), "scripted", 1)
    handler = _scripted_handler(script)
    with _serving(handler) as endpoint:
        http = records(_gateway(endpoint), "http", parallel)
    assert http == scripted
    # what went over the wire is the request text the log records
    assert sorted(handler.texts) == sorted(entry["text"] for record in scripted
                                           for entry in record["llm_log"][::2])
    if script_name == "bread_recovery":
        assert any(step["decision"] for step in scripted[0]["steps"])


def test_http_endpoint_without_scheme_is_unreachable():
    with pytest.raises(ProviderUnreachable):
        _gateway("127.0.0.1/v1/chat").complete(PROMPT, DecodeParams())


def test_http_endpoint_that_does_not_split_is_unreachable():
    # urlsplit itself raises on an unclosed IPv6 bracket
    with pytest.raises(ProviderUnreachable, match="Invalid IPv6 URL"):
        _gateway("http://[::1/v1/chat").complete(PROMPT, DecodeParams())


def test_http_4xx_rejection_carries_a_body_excerpt():
    body = ("quota exceeded – " + "x" * 300).encode()

    class Reject(_StubHandler):
        def do_POST(self):
            self.send_response(429)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    with _serving(Reject) as endpoint:
        with pytest.raises(ProviderRejected) as err:
            _gateway(endpoint).complete(PROMPT, DecodeParams())
    assert str(err.value) == \
        f"provider rejected the request (HTTP 429): {body.decode()[:200]}"


@pytest.mark.parametrize("status, error, requests", [
    (302, ProviderRejected, 1),
    (307, ProviderRejected, 1),
    (599, ProviderUnreachable, 2),  # a 5xx, retried until the attempts run out
    (600, ProviderRejected, 1),
])
def test_http_redirects_are_rejected_and_only_5xx_retried(status, error, requests):
    handler = _replying(b"", status)
    with _serving(handler) as endpoint:
        with pytest.raises(error, match=f"HTTP {status}"):
            _gateway(endpoint, retries=1).complete(PROMPT, DecodeParams())
    assert len(handler.requests) == requests


def _clear_proxy_variables(monkeypatch):
    for key in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(key, raising=False)
        monkeypatch.delenv(key.upper(), raising=False)


def test_http_endpoint_behind_a_proxy_sends_the_absolute_url(monkeypatch, stub_server):
    proxy = _replying(b'{"choices": [{"message": {"content": "via the proxy"}}]}')
    _clear_proxy_variables(monkeypatch)
    with _serving(proxy) as proxy_endpoint:
        monkeypatch.setenv("HTTP_PROXY", f"http://user:p%40ss@{proxy_endpoint.split('/')[2]}")
        with closing(_gateway(stub_server, retries=0)) as gw:
            assert gw.complete(PROMPT, DecodeParams()) == "via the proxy"
        (request,) = proxy.requests
        assert request["path"] == stub_server
        assert request["headers"]["Host"] == stub_server.split("/")[2]
        assert request["headers"]["Proxy-Authorization"] == \
            "Basic " + base64.b64encode(b"user:p@ss").decode("ascii")
        assert _StubHandler.requests == []

        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        with closing(_gateway(stub_server, retries=0)) as gw:
            assert gw.complete(PROMPT, DecodeParams()) == "stub reply"
    assert len(proxy.requests) == 1
    assert len(_StubHandler.requests) == 1


# -- kept-alive connections ---------------------------------------------------


def _keep_alive(hang_up: bool = False):
    """An HTTP/1.1 stub handler that keeps connections open and counts them
    and the requests. It replies ``re: <user text>``; the text ``reject``
    gets a 404, and ``slow`` waits until ``late`` is set. With ``hang_up``
    it closes every connection after one reply, without saying so."""
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        lock = threading.Lock()
        connections = 0
        requests = 0
        late = threading.Event()

        def setup(self):
            super().setup()
            # the head and the body go out in two writes
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self.lock:
                type(self).connections += 1

        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            with self.lock:
                type(self).requests += 1
            text = body["messages"][1]["content"]
            if text == "slow":
                self.late.wait(5)
                # the client has given up: read nothing more from it
                self.close_connection = True
            data = json.dumps({"choices": [{"message": {"content": f"re: {text}"}}]}).encode()
            try:
                self.send_response(404 if text == "reject" else 200)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
            except OSError:  # the late reply to a closed connection
                pass
            if hang_up:
                self.close_connection = True

        def log_message(self, *args):
            pass
    return Handler


def _ask(gw: HttpGateway, text: str) -> str:
    return gw.complete(RenderedPrompt("system text", text), DecodeParams())


def test_http_sequential_calls_share_one_connection():
    handler = _keep_alive()
    with _serving(handler) as endpoint:
        with closing(_gateway(endpoint, retries=0)) as gw:
            assert [_ask(gw, f"call {i}") for i in range(20)] == \
                [f"re: call {i}" for i in range(20)]
    assert (handler.connections, handler.requests) == (1, 20)


def test_http_concurrent_calls_open_at_most_one_connection_each():
    handler = _keep_alive()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _serving(handler) as endpoint:
            with closing(_gateway(endpoint, retries=0)) as gw, \
                    ThreadPoolExecutor(max_workers=8) as pool:
                replies = list(pool.map(
                    lambda worker: [_ask(gw, f"{worker}.{i}") for i in range(5)], range(8)))
    finally:
        sys.setswitchinterval(interval)
    assert replies == [[f"re: {worker}.{i}" for i in range(5)] for worker in range(8)]
    assert handler.requests == 40
    assert 1 <= handler.connections <= 8


def test_http_connection_closed_by_the_server_is_reopened_within_the_attempt():
    handler = _keep_alive(hang_up=True)
    with _serving(handler) as endpoint:
        with closing(_gateway(endpoint, retries=0)) as gw:
            assert [_ask(gw, f"call {i}") for i in range(5)] == \
                [f"re: call {i}" for i in range(5)]
    assert (handler.connections, handler.requests) == (5, 5)


def test_http_late_reply_after_a_timeout_is_never_read_as_the_next_reply():
    handler = _keep_alive()
    with _serving(handler) as endpoint:
        gw = HttpGateway(HttpGatewayConfig(
            endpoint=endpoint, model="stub-model", retries=0, timeout_s=0.2))
        with closing(gw):
            try:
                with pytest.raises(GatewayTimeout):
                    _ask(gw, "slow")
            finally:
                handler.late.set()
            assert _ask(gw, "fast") == "re: fast"
    assert (handler.connections, handler.requests) == (2, 2)


def test_http_4xx_leaves_the_connection_reusable():
    handler = _keep_alive()
    with _serving(handler) as endpoint:
        with closing(_gateway(endpoint, retries=0)) as gw:
            with pytest.raises(ProviderRejected, match="HTTP 404"):
                _ask(gw, "reject")
            assert _ask(gw, "accept") == "re: accept"
    assert (handler.connections, handler.requests) == (1, 2)


@contextmanager
def _tunnelling_proxy(seen: list[tuple[bytes, bytes]]):
    """A stub forward proxy: for each connection it records the request head
    and, after answering a CONNECT with 200, the first bytes sent through the
    tunnel; then it hangs up, which fails the TLS handshake."""
    class Handler(socketserver.BaseRequestHandler):
        def handle(self):
            self.request.settimeout(5)
            head = b""
            while b"\r\n\r\n" not in head:
                chunk = self.request.recv(4096)
                if not chunk:
                    break
                head += chunk
            tunnelled = b""
            if head.startswith(b"CONNECT "):
                self.request.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
                try:
                    tunnelled = self.request.recv(4096)
                except OSError:
                    pass
            seen.append((head, tunnelled))

    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_https_retries_through_a_proxy_stay_inside_tls():
    # urllib reads the proxy variables once per process, so the gateway runs
    # in a child process that sees only the stub proxy
    seen: list[tuple[bytes, bytes]] = []
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {key: value for key, value in os.environ.items()
           if key.lower() not in ("http_proxy", "https_proxy", "all_proxy", "no_proxy")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env["ASKPLAN_API_KEY"] = "sekrit"
    code = (
        "from askplan import gateway\n"
        "from askplan.gateway import *\n"
        "from askplan.prompting import RenderedPrompt\n"
        "gateway.BACKOFF_S = 0.01\n"
        "gw = HttpGateway(HttpGatewayConfig(endpoint='https://askplan.invalid/v1/chat',"
        " model='m', retries=2, timeout_s=5.0))\n"
        "try:\n"
        "    gw.complete(RenderedPrompt('s', 'u'), DecodeParams())\n"
        "except GatewayError as exc:\n"
        "    print(type(exc).__name__)\n")
    with _tunnelling_proxy(seen) as proxy:
        env["HTTPS_PROXY"] = proxy
        outcome = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True, timeout=60).stdout
    assert outcome.strip() == "ProviderUnreachable"
    assert len(seen) == 3
    for head, tunnelled in seen:
        assert head.startswith(b"CONNECT askplan.invalid:443 ")
        assert tunnelled.startswith(b"\x16\x03")  # a TLS handshake record
        assert b"sekrit" not in head + tunnelled
        assert b"Authorization" not in head + tunnelled


def test_https_proxy_credentials_go_with_the_connect_only(monkeypatch):
    seen: list[tuple[bytes, bytes]] = []
    _clear_proxy_variables(monkeypatch)
    with _tunnelling_proxy(seen) as proxy:
        monkeypatch.setenv("HTTPS_PROXY", proxy.replace("http://", "http://user:p%40ss@"))
        with pytest.raises(ProviderUnreachable):
            _gateway("https://askplan.invalid/v1/chat", retries=0).complete(
                PROMPT, DecodeParams())
    ((head, tunnelled),) = seen
    assert head.startswith(b"CONNECT askplan.invalid:443 ")
    assert b"\r\nProxy-Authorization: Basic " + base64.b64encode(b"user:p@ss") + b"\r\n" \
        in head
    assert tunnelled.startswith(b"\x16\x03")


def test_importing_the_cli_does_not_load_requests():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, askplan.cli; print('requests' in sys.modules)"],
        env=env, check=True, capture_output=True, text=True, timeout=60).stdout
    assert loaded.strip() == "False"
