"""Chat-completion gateway: a remote HTTP provider client and a deterministic
scripted stand-in, behind one call shape.

Scene-conditioned calls append the textual scene rendering to the user
message, so both gateway kinds see the same request text. Scripted replies
are matched against that request text, entry by entry in order, which makes
whole episodes replayable bit-for-bit. A recording wrapper can capture a live
session into a script for offline replay.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional, Protocol

import requests

from .prompting import RenderedPrompt
from .world import SceneSnapshot


class GatewayError(Exception):
    pass


class ProviderUnreachable(GatewayError):
    pass


class ProviderRejected(GatewayError):
    def __init__(self, status: int, body_excerpt: str):
        super().__init__(f"provider rejected the request (HTTP {status}): {body_excerpt}")
        self.status = status
        self.body_excerpt = body_excerpt


class GatewayTimeout(GatewayError):
    pass


class MalformedReply(GatewayError):
    """A 200 reply whose body is not a chat completion; never retried."""


class ScriptMiss(GatewayError):
    pass


class MalformedScript(ValueError):
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
    def for_vocab(vocab: Iterable[str], bias: float = 0.1,
                  max_tokens: int = 512) -> "DecodeParams":
        """Default decode profile: greedy decoding with a small positive bias
        on every object name the scenario admits."""
        return DecodeParams(
            temperature=0.0,
            token_bias={token: bias for token in sorted(set(vocab))},
            max_tokens=max_tokens,
        )


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

    def to_dict(self) -> dict:
        entries = []
        for entry in self.entries:
            item: dict = {"reply": entry.reply}
            if entry.exact is not None:
                item["exact"] = entry.exact
            else:
                item["contains_all"] = list(entry.contains_all)
            entries.append(item)
        out: dict = {"mode": "strict" if self.fallback_reply is None else "fallback",
                     "entries": entries}
        if self.fallback_reply is not None:
            out["fallback_reply"] = self.fallback_reply
        return out


def parse_script(data: dict) -> OracleScript:
    if not isinstance(data, dict):
        raise MalformedScript("script root must be a JSON object")
    raw_entries = data.get("entries")
    if not isinstance(raw_entries, list) or not raw_entries:
        raise MalformedScript("script needs a non-empty 'entries' list")
    entries = []
    for index, raw in enumerate(raw_entries):
        if not isinstance(raw, dict) or "reply" not in raw:
            raise MalformedScript(f"entry {index}: missing 'reply'")
        has_exact = "exact" in raw
        has_contains = "contains_all" in raw
        if has_exact == has_contains:
            raise MalformedScript(
                f"entry {index}: exactly one of 'exact' or 'contains_all' required")
        if has_exact:
            entries.append(ScriptEntry(reply=str(raw["reply"]), exact=str(raw["exact"])))
        else:
            needles = raw["contains_all"]
            if not isinstance(needles, list) or not needles:
                raise MalformedScript(f"entry {index}: 'contains_all' must be a non-empty list")
            entries.append(ScriptEntry(reply=str(raw["reply"]),
                                       contains_all=tuple(str(n) for n in needles)))
    mode = data.get("mode", "strict")
    if mode == "strict":
        fallback = None
    elif mode == "fallback":
        fallback = str(data.get("fallback_reply", ""))
    else:
        raise MalformedScript(f"unknown mode {mode!r}")
    return OracleScript(tuple(entries), fallback)


def load_script(path: str | Path) -> OracleScript:
    """Parse and validate a script file; raises MalformedScript with detail."""
    try:
        data = json.loads(Path(path).read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise MalformedScript(f"{path}: not valid JSON ({exc})") from exc
    try:
        return parse_script(data)
    except MalformedScript as exc:
        raise MalformedScript(f"{path}: {exc}") from exc


def request_text(prompt: RenderedPrompt, scene: Optional[SceneSnapshot] = None) -> str:
    """The canonical text a gateway call carries (and scripts match against)."""
    if scene is None:
        return prompt.user_text
    return f"{prompt.user_text}\n\nCurrent scene:\n{scene.description}"


class Gateway(Protocol):
    def complete(self, prompt: RenderedPrompt, params: DecodeParams) -> Completion: ...

    def complete_multimodal(self, prompt: RenderedPrompt, scene: SceneSnapshot,
                            params: DecodeParams) -> Completion: ...

    def describe(self) -> dict: ...


class ScriptedGateway:
    """Deterministic oracle: same request text, same reply, no clock, no RNG."""

    def __init__(self, script: OracleScript, script_path: Optional[str] = None):
        self.script = script
        self.script_path = script_path

    def complete(self, prompt: RenderedPrompt, params: DecodeParams) -> Completion:
        return self._reply(request_text(prompt))

    def complete_multimodal(self, prompt: RenderedPrompt, scene: SceneSnapshot,
                            params: DecodeParams) -> Completion:
        return self._reply(request_text(prompt, scene))

    def _reply(self, text: str) -> Completion:
        reply = self.script.reply_for(text)
        return Completion(reply, "scripted", 0, (len(text.split()), len(reply.split())))

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


class HttpGateway:
    """Chat-completion client over a provider's HTTP endpoint.

    The request body carries model, messages, temperature, logit_bias and
    max_tokens; the bias map is keyed by surface strings and left to the
    provider to map onto its tokenizer. Transient failures (connection
    errors, timeouts, 5xx) are retried with exponential backoff; 4xx responses
    are rejected immediately, and a 200 reply that is not a chat completion
    raises MalformedReply. The API key is read from the configured
    environment variable at call time and never stored.
    """

    def __init__(self, config: HttpGatewayConfig):
        self.config = config

    def complete(self, prompt: RenderedPrompt, params: DecodeParams) -> Completion:
        return self._request(prompt.system_text, request_text(prompt), params)

    def complete_multimodal(self, prompt: RenderedPrompt, scene: SceneSnapshot,
                            params: DecodeParams) -> Completion:
        return self._request(prompt.system_text, request_text(prompt, scene), params)

    def _request(self, system_text: str, user_text: str, params: DecodeParams) -> Completion:
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

        attempts = 1 + max(0, self.config.retries)
        last_error: Optional[Exception] = None
        started = time.monotonic()
        for attempt in range(attempts):
            if attempt:
                time.sleep(self.config.backoff_s * 2 ** (attempt - 1))
            try:
                response = requests.post(self.config.endpoint, json=body,
                                         headers=headers, timeout=self.config.timeout_s)
            except requests.RequestException as exc:
                last_error = exc
                continue
            if 500 <= response.status_code < 600:
                last_error = ProviderRejected(response.status_code, response.text[:200])
                continue
            if response.status_code != 200:
                raise ProviderRejected(response.status_code, response.text[:200])
            try:
                payload = response.json()
                text = payload["choices"][0]["message"]["content"]
            except (ValueError, LookupError, TypeError) as exc:
                raise MalformedReply(
                    f"reply is not a chat completion: {response.text[:200]!r}") from exc
            if not isinstance(text, str):
                raise MalformedReply(f"reply content is not text: {text!r}")
            latency_ms = int(1000 * (time.monotonic() - started))
            return Completion(text, payload.get("model", self.config.model), latency_ms,
                              (len(user_text.split()), len(text.split())))
        if isinstance(last_error, requests.Timeout):
            raise GatewayTimeout(
                f"no response within {self.config.timeout_s}s after {attempts} attempts")
        raise ProviderUnreachable(
            f"gave up after {attempts} attempts: {last_error}")

    def describe(self) -> dict:
        return {
            "kind": "http",
            "endpoint": self.config.endpoint,
            "model": self.config.model,
            "api_key_env": self.config.api_key_env,
        }


class RecordingGateway:
    """Wraps any gateway and captures (request, reply) pairs so a live session
    can be replayed later as a script (exact-match entries, first wins)."""

    def __init__(self, inner: Gateway):
        self.inner = inner
        self.exchanges: list[tuple[str, str]] = []

    def complete(self, prompt: RenderedPrompt, params: DecodeParams) -> Completion:
        completion = self.inner.complete(prompt, params)
        self.exchanges.append((request_text(prompt), completion.text))
        return completion

    def complete_multimodal(self, prompt: RenderedPrompt, scene: SceneSnapshot,
                            params: DecodeParams) -> Completion:
        completion = self.inner.complete_multimodal(prompt, scene, params)
        self.exchanges.append((request_text(prompt, scene), completion.text))
        return completion

    def describe(self) -> dict:
        return self.inner.describe()

    def to_script(self) -> OracleScript:
        return OracleScript(tuple(
            ScriptEntry(reply=reply, exact=request)
            for request, reply in self.exchanges
        ))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_script().to_dict(), indent=2) + "\n", "utf-8")
