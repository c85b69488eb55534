from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from askplan.gateway import (
    DecodeParams,
    GatewayTimeout,
    HttpGateway,
    HttpGatewayConfig,
    MalformedReply,
    MalformedScript,
    OracleScript,
    ProviderRejected,
    ProviderUnreachable,
    RecordingGateway,
    ScriptEntry,
    ScriptMiss,
    ScriptedGateway,
    load_script,
    parse_script,
    request_text,
)
from askplan.engine import EpisodeConfig, run_episode
from askplan.prompting import RenderedPrompt
from askplan.world import SceneSnapshot

PROMPT = RenderedPrompt("system text", "please plan: heated slice of bread")
SCENE = SceneSnapshot("Zone: kitchen\nVisible objects:\n- fridge (closed)",
                      frozenset({"fridge"}))


# -- scripts ------------------------------------------------------------------


def test_contains_all_matching():
    script = OracleScript((
        ScriptEntry(reply="qa", contains_all=("heated slice of bread",)),
    ))
    gw = ScriptedGateway(script)
    assert gw.complete(PROMPT, DecodeParams()).text == "qa"


def test_entries_matched_in_order_first_wins():
    script = OracleScript((
        ScriptEntry(reply="first", contains_all=("plan",)),
        ScriptEntry(reply="second", contains_all=("plan",)),
    ))
    assert ScriptedGateway(script).complete(PROMPT, DecodeParams()).text == "first"


def test_strict_mode_miss():
    script = OracleScript((ScriptEntry(reply="x", exact="something else"),))
    with pytest.raises(ScriptMiss):
        ScriptedGateway(script).complete(PROMPT, DecodeParams())


def test_fallback_mode_reply():
    script = OracleScript((ScriptEntry(reply="x", exact="nope"),), fallback_reply="fb")
    assert ScriptedGateway(script).complete(PROMPT, DecodeParams()).text == "fb"


def test_multimodal_appends_scene_to_request():
    script = OracleScript((
        ScriptEntry(reply="saw the fridge", contains_all=("fridge (closed)",)),
    ))
    gw = ScriptedGateway(script)
    completion = gw.complete_multimodal(PROMPT, SCENE, DecodeParams())
    assert completion.text == "saw the fridge"
    # text-only call must not match the scene-keyed entry
    with pytest.raises(ScriptMiss):
        gw.complete(PROMPT, DecodeParams())


def test_scripted_deterministic_and_latency_free():
    script = OracleScript((ScriptEntry(reply="r", contains_all=("plan",)),))
    gw = ScriptedGateway(script)
    first = gw.complete_multimodal(PROMPT, SCENE, DecodeParams())
    second = gw.complete_multimodal(PROMPT, SCENE, DecodeParams())
    assert first == second
    assert first.latency_ms == 0


def test_empty_scene_request_is_well_formed():
    empty = SceneSnapshot("Zone: cellar\nVisible objects: none", frozenset())
    assert "Visible objects: none" in request_text(PROMPT, empty)


def test_load_script_fixture():
    from askplan import asset_path

    script = load_script(asset_path("scripts/bread_recovery.json"))
    assert len(script.entries) == 5
    assert script.fallback_reply is None


def test_load_script_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(MalformedScript):
        load_script(path)


def test_parse_script_rejects_bad_entries():
    with pytest.raises(MalformedScript):
        parse_script({"entries": []})
    with pytest.raises(MalformedScript):
        parse_script({"entries": [{"reply": "r"}]})
    with pytest.raises(MalformedScript):
        parse_script({"entries": [{"reply": "r", "exact": "a", "contains_all": ["b"]}]})
    with pytest.raises(MalformedScript):
        parse_script({"entries": [{"exact": "a"}]})
    with pytest.raises(MalformedScript):
        parse_script({"mode": "chaotic", "entries": [{"reply": "r", "exact": "a"}]})


def test_duplicate_exact_keys_first_wins():
    script = parse_script({"entries": [
        {"exact": "same", "reply": "one"},
        {"exact": "same", "reply": "two"},
    ]})
    assert script.reply_for("same") == "one"


def test_recording_round_trip():
    inner = ScriptedGateway(OracleScript(
        (ScriptEntry(reply="canned", contains_all=("plan",)),)))
    recorder = RecordingGateway(inner)
    recorder.complete(PROMPT, DecodeParams())
    recorder.complete_multimodal(PROMPT, SCENE, DecodeParams())
    replayed = ScriptedGateway(recorder.to_script())
    assert replayed.complete(PROMPT, DecodeParams()).text == "canned"
    assert replayed.complete_multimodal(PROMPT, SCENE, DecodeParams()).text == "canned"


def test_recording_save_is_loadable(tmp_path):
    inner = ScriptedGateway(OracleScript(
        (ScriptEntry(reply="canned", contains_all=("plan",)),)))
    recorder = RecordingGateway(inner)
    recorder.complete(PROMPT, DecodeParams())
    path = tmp_path / "recorded.json"
    recorder.save(path)
    assert load_script(path).reply_for(request_text(PROMPT)) == "canned"


# -- decode params ------------------------------------------------------------


def test_default_decode_profile_biases_vocab():
    params = DecodeParams.for_vocab({"bread", "knife"})
    assert params.temperature == 0.0
    assert params.token_bias == {"bread": 0.1, "knife": 0.1}


def test_decode_params_validated():
    with pytest.raises(ValueError):
        DecodeParams(temperature=-1.0)
    with pytest.raises(ValueError):
        DecodeParams(max_tokens=0)


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


def _replying(body: bytes):
    """A stub handler that answers every request with ``body`` and status 200."""
    class Handler(_StubHandler):
        requests: list[dict] = []

        def do_POST(self):
            type(self).requests.append({})
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
    return Handler


def _gateway(endpoint: str, retries: int = 2) -> HttpGateway:
    return HttpGateway(HttpGatewayConfig(
        endpoint=endpoint, model="stub-model", retries=retries,
        timeout_s=5.0, backoff_s=0.01))


def test_http_request_carries_decode_params(stub_server):
    gw = _gateway(stub_server)
    params = DecodeParams(temperature=0.0, token_bias={"bread": 0.1}, max_tokens=64)
    completion = gw.complete(PROMPT, params)
    assert completion.text == "stub reply"
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
    assert gw.complete(PROMPT, DecodeParams()).text == "stub reply"
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
])
def test_http_malformed_reply_is_not_retried(body):
    handler = _replying(body)
    with _serving(handler) as endpoint:
        with pytest.raises(MalformedReply):
            _gateway(endpoint, retries=2).complete(PROMPT, DecodeParams())
    assert len(handler.requests) == 1


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
    class Slow(_StubHandler):
        def do_POST(self):
            time.sleep(0.6)
            super().do_POST()

    with _serving(Slow) as endpoint:
        gw = HttpGateway(HttpGatewayConfig(
            endpoint=endpoint, model="stub-model", retries=1, timeout_s=0.1,
            backoff_s=0.01))
        with pytest.raises(GatewayTimeout):
            gw.complete(PROMPT, DecodeParams())


def test_http_concurrent_calls_all_complete(stub_server):
    gw = _gateway(stub_server, retries=0)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(
            lambda _: gw.complete(PROMPT, DecodeParams()).text, range(8)))
    assert results == ["stub reply"] * 8
