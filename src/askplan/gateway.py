"""Chat-completion gateway: a remote HTTP provider client and a deterministic
scripted stand-in, both subclasses of one ``Gateway`` base. The base writes
the two call shapes, ``complete`` and the scene-conditioned
``complete_multimodal``, once; each kind implements only ``_send`` and
``describe``.

The HTTP client is the standard library's ``urllib.request``, so proxies,
TLS verification and redirects follow urllib's rules.

Scene-conditioned calls append the textual scene rendering to the user
message, so both gateway kinds see the same request text. Scripted replies
are matched against that request text, entry by entry in order, which makes
whole episodes replayable bit-for-bit.
"""

from __future__ import annotations

import http.client
import json
import os
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional

from .inputs import MalformedInput, checked_field, read_json, reject_unknown_keys
from .prompting import RenderedPrompt


class GatewayError(Exception):
    pass


class ProviderUnreachable(GatewayError):
    pass


class ProviderRejected(GatewayError):
    def __init__(self, status: int, body_excerpt: str):
        super().__init__(f"provider rejected the request (HTTP {status}): {body_excerpt}")


class GatewayTimeout(GatewayError):
    pass


class MalformedReply(GatewayError):
    """A 200 reply whose body is not a chat completion; never retried."""


class ScriptMiss(GatewayError):
    pass


@dataclass(frozen=True)
class DecodeParams:
    temperature: float = 0.0
    token_bias: Mapping[str, float] = field(default_factory=dict)
    max_tokens: int = 512

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")

    @staticmethod
    def for_vocab(vocab: Iterable[str]) -> "DecodeParams":
        """Default decode profile: greedy decoding with a small positive bias
        on every object name the scenario admits."""
        return DecodeParams(token_bias={token: 0.1 for token in sorted(set(vocab))})


@dataclass(frozen=True)
class Completion:
    text: str
    provider_id: str
    latency_ms: int
    token_counts: tuple[int, int]  # (request words, reply words)


@dataclass(frozen=True)
class ScriptEntry:
    reply: str
    exact: Optional[str] = None
    contains_all: tuple[str, ...] = ()

    def matches(self, request_text: str) -> bool:
        if self.exact is not None:
            return request_text == self.exact
        return all(needle in request_text for needle in self.contains_all)


@dataclass(frozen=True)
class OracleScript:
    """Ordered matchers over request text; first match wins. Without a
    fallback reply, an unmatched request is an error (strict mode)."""

    entries: tuple[ScriptEntry, ...]
    fallback_reply: Optional[str] = None

    def reply_for(self, request_text: str) -> str:
        for entry in self.entries:
            if entry.matches(request_text):
                return entry.reply
        if self.fallback_reply is not None:
            return self.fallback_reply
        raise ScriptMiss(f"no script entry matches request: {request_text[:120]!r}...")


def parse_script(data: object) -> OracleScript:
    """Build a script from its JSON form; raises MalformedInput naming the
    first field that is missing, ill-typed or out of place."""
    mode = checked_field(data, "mode", str, "script", "strict")
    if mode not in ("strict", "fallback"):
        raise MalformedInput(f"unknown script mode {mode!r}")
    reject_unknown_keys(data, {"mode", "entries", "fallback_reply"} if mode == "fallback"
                        else {"mode", "entries"}, "script")
    raw_entries = checked_field(data, "entries", list, "script")
    if not raw_entries:
        raise MalformedInput("script needs a non-empty 'entries' list")
    entries = []
    for index, raw in enumerate(raw_entries):
        where = f"script entry {index}"
        reject_unknown_keys(raw, {"reply", "exact", "contains_all"}, where)
        reply = checked_field(raw, "reply", str, where)
        exact = checked_field(raw, "exact", str, where, None)
        needles = checked_field(raw, "contains_all", [str], where, None)
        if (exact is None) == (needles is None):
            raise MalformedInput(f"{where}: exactly one of 'exact' or 'contains_all' required")
        if needles == []:
            raise MalformedInput(f"{where}: 'contains_all' must not be empty")
        entries.append(ScriptEntry(reply, exact, tuple(needles or ())))
    fallback = checked_field(data, "fallback_reply", str, "script", "") \
        if mode == "fallback" else None
    return OracleScript(tuple(entries), fallback)


def load_script(path: str | Path) -> OracleScript:
    """Read and parse a script file; raises MalformedInput naming the file."""
    data = read_json(path)  # names the file itself
    try:
        return parse_script(data)
    except MalformedInput as exc:
        raise MalformedInput(f"{path}: {exc}") from exc


def request_text(prompt: RenderedPrompt, scene: Optional[str] = None) -> str:
    """The canonical text a gateway call carries (and scripts match against);
    ``scene`` is the rendered scene description."""
    if scene is None:
        return prompt.user_text
    return f"{prompt.user_text}\n\nCurrent scene:\n{scene}"


class Gateway:
    """Both call shapes, written once: each formats its request text with
    ``request_text`` and hands it to the gateway kind's ``_send``."""

    def complete(self, prompt: RenderedPrompt, params: DecodeParams) -> Completion:
        return self._send(prompt.system_text, request_text(prompt), params)

    def complete_multimodal(self, prompt: RenderedPrompt, scene: str,
                            params: DecodeParams) -> Completion:
        return self._send(prompt.system_text, request_text(prompt, scene), params)

    def _send(self, system_text: str, user_text: str, params: DecodeParams) -> Completion:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


class ScriptedGateway(Gateway):
    """Deterministic oracle: same request text, same reply, no clock, no RNG."""

    def __init__(self, script: OracleScript, script_path: Optional[str] = None):
        self.script = script
        self.script_path = script_path

    def _send(self, system_text: str, user_text: str, params: DecodeParams) -> Completion:
        reply = self.script.reply_for(user_text)
        return Completion(reply, "scripted", 0, (len(user_text.split()), len(reply.split())))

    def describe(self) -> dict:
        return {"kind": "scripted", "script": self.script_path}


@dataclass(frozen=True)
class HttpGatewayConfig:
    endpoint: str
    model: str
    api_key_env: str = "ASKPLAN_API_KEY"
    timeout_s: float = 60.0
    retries: int = 3
    backoff_s: float = 0.25


class HttpGateway(Gateway):
    """Chat-completion client over a provider's HTTP endpoint.

    The request body carries model, messages, temperature, logit_bias and
    max_tokens; the bias map is keyed by surface strings and left to the
    provider to map onto its tokenizer. Transient failures (connection
    errors, timeouts, garbled replies, 5xx) are retried with exponential
    backoff; any other status but 200 is rejected immediately, and a 200
    reply that is not a chat completion raises MalformedReply. The API key is
    read from the configured environment variable at call time and never
    stored.
    """

    def __init__(self, config: HttpGatewayConfig):
        self.config = config

    def _send(self, system_text: str, user_text: str, params: DecodeParams) -> Completion:
        body = {
            "model": self.config.model,
            "messages": [
                {"role": "system", "content": system_text},
                {"role": "user", "content": user_text},
            ],
            "temperature": params.temperature,
            "logit_bias": dict(params.token_bias),
            "max_tokens": params.max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        data = json.dumps(body).encode()

        attempts = 1 + max(0, self.config.retries)
        last_error: Optional[Exception] = None
        started = time.monotonic()
        for attempt in range(attempts):
            if attempt:
                time.sleep(self.config.backoff_s * 2 ** (attempt - 1))
            try:
                status, raw = self._post(data, headers)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            excerpt = raw.decode("utf-8", "replace")[:200]
            if 500 <= status < 600:
                last_error = ProviderRejected(status, excerpt)
                continue
            if status != 200:
                raise ProviderRejected(status, excerpt)
            try:
                payload = json.loads(raw)
                text = payload["choices"][0]["message"]["content"]
            except (ValueError, LookupError, TypeError) as exc:
                raise MalformedReply(f"reply is not a chat completion: {excerpt!r}") from exc
            if not isinstance(text, str):
                raise MalformedReply(f"reply content is not text: {text!r}")
            latency_ms = int(1000 * (time.monotonic() - started))
            return Completion(text, payload.get("model", self.config.model), latency_ms,
                              (len(user_text.split()), len(text.split())))
        # a connect timeout comes wrapped in URLError.reason
        if isinstance(getattr(last_error, "reason", last_error), TimeoutError):
            raise GatewayTimeout(
                f"no response within {self.config.timeout_s}s after {attempts} attempts")
        raise ProviderUnreachable(
            f"gave up after {attempts} attempts: {last_error}")

    def _post(self, data: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """One attempt: the reply's status and body, whatever the status.
        Transport failures raise OSError or http.client.HTTPException.

        The request is built anew for every attempt: urllib's proxy handling
        rewrites a request in place, and a reused https request would be sent
        as plain http by the third attempt through a proxy."""
        try:
            request = urllib.request.Request(self.config.endpoint, data, headers, method="POST")
        except ValueError as exc:  # no scheme, e.g. "example.com/v1"
            raise ProviderUnreachable(f"endpoint is not a URL: {exc}") from exc
        try:
            with urllib.request.urlopen(request, timeout=self.config.timeout_s) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:  # outside 2xx, and not a followed redirect
            with exc:
                return exc.code, exc.read()

    def describe(self) -> dict:
        return {
            "kind": "http",
            "endpoint": self.config.endpoint,
            "model": self.config.model,
            "api_key_env": self.config.api_key_env,
        }
