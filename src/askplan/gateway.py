"""Chat-completion gateway: a remote HTTP provider client and a deterministic
scripted stand-in, both subclasses of one ``Gateway`` base. The base writes
the two call shapes, ``complete`` and the scene-conditioned
``complete_multimodal``, once; each kind implements only ``_send`` and
``describe``. A call returns the reply text.

The HTTP client is the standard library's ``http.client``. Each HTTP
gateway keeps its connections alive and reuses them from one call to the
next; proxies and TLS verification follow urllib's rules, and redirects are
not followed.

Scene-conditioned calls append the textual scene rendering to the user
message, so both gateway kinds see the same request text. Scripted replies
are matched against that request text, entry by entry in order, which makes
whole episodes replayable bit-for-bit.
"""

from __future__ import annotations

import base64
import http.client
import json
import math
import os
import ssl
import threading
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional

from . import __version__
from .inputs import (MAX_JSON_INT, MalformedInput, checked_field, parse_json, read_json,
                     reject_unknown_keys)
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
    """Decoding settings sent with every call. The temperature and every
    token bias must be finite: NaN, an infinity and an integer beyond the
    range of a double are rejected, since none of them has a JSON number a
    provider reads as that value. For the same reason ``max_tokens`` is at
    most ``MAX_JSON_INT``, 2**53 - 1."""

    temperature: float = 0.0
    token_bias: Mapping[str, float] = field(default_factory=dict)
    max_tokens: int = 512

    def __post_init__(self) -> None:
        try:
            finite = math.isfinite(self.temperature) \
                and all(map(math.isfinite, self.token_bias.values()))
        except OverflowError:  # an integer beyond the range of a double
            finite = False
        if not finite:
            raise ValueError("temperature and token biases must be finite")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not 1 <= self.max_tokens <= MAX_JSON_INT:
            raise ValueError(f"max_tokens must be in [1, {MAX_JSON_INT}]")

    @staticmethod
    def for_vocab(vocab: Iterable[str]) -> "DecodeParams":
        """Default decode profile: greedy decoding with a small positive bias
        on every object name the scenario admits."""
        return DecodeParams(token_bias={token: 0.1 for token in sorted(set(vocab))})


@dataclass(frozen=True)
class ScriptEntry:
    reply: str
    exact: Optional[str] = None
    contains_all: tuple[str, ...] = ()

    def matches(self, request_text: str) -> bool:
        if self.exact is not None:
            return request_text == self.exact
        for needle in self.contains_all:
            if needle not in request_text:
                return False
        return True


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

    def complete(self, prompt: RenderedPrompt, params: DecodeParams) -> str:
        return self._send(prompt.system_text, request_text(prompt), params)

    def complete_multimodal(self, prompt: RenderedPrompt, scene: str,
                            params: DecodeParams) -> str:
        return self._send(prompt.system_text, request_text(prompt, scene), params)

    def _send(self, system_text: str, user_text: str, params: DecodeParams) -> str:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the gateway keeps between calls; it stays usable."""


class ScriptedGateway(Gateway):
    """Deterministic oracle: same request text, same reply, no clock, no RNG."""

    def __init__(self, script: OracleScript, script_path: Optional[str] = None):
        self.script = script
        self.script_path = script_path

    def _send(self, system_text: str, user_text: str, params: DecodeParams) -> str:
        return self.script.reply_for(user_text)

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


def endpoint_parts(endpoint: str) -> urllib.parse.SplitResult:
    """The parts of an endpoint URL: an http or https scheme, a host, and a
    port, if one is given, in [0, 65535]. Raises ValueError otherwise."""
    try:
        parts = urllib.parse.urlsplit(endpoint)
        parts.port  # raises on a port that is not a number in range
    except ValueError as exc:
        raise ValueError(f"endpoint is not a URL: {exc}") from None
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"endpoint is not a URL: {endpoint!r}")
    return parts


@dataclass(frozen=True)
class _Route:
    """How requests reach an endpoint, worked out once per gateway.

    Without a proxy a connection goes to the endpoint's host. Behind a proxy
    (from ``HTTP_PROXY``, ``HTTPS_PROXY`` and ``NO_PROXY``, as urllib reads
    them) it goes to the proxy: an https endpoint asks it for a CONNECT
    tunnel, an http endpoint sends it the absolute URL. The proxy URL's
    userinfo becomes a Basic ``Proxy-Authorization`` header, sent with the
    CONNECT or with each plain-http request."""

    address: str  # host[:port] the socket connects to
    target: str  # the request line's target
    headers: Mapping[str, str]  # added to every request
    tls: Optional[ssl.SSLContext]  # None for plain http
    tunnel: Optional[str]  # host[:port] of the CONNECT
    tunnel_headers: Mapping[str, str]

    @staticmethod
    def resolve(endpoint: str) -> "_Route":
        try:
            parts = endpoint_parts(endpoint)
        except ValueError as exc:
            raise ProviderUnreachable(str(exc)) from exc
        netloc = parts.netloc.rpartition("@")[2]
        target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
        # one context per gateway: building one loads the trust store
        tls = ssl.create_default_context() if parts.scheme == "https" else None
        proxy = urllib.request.getproxies().get(parts.scheme)
        if not proxy or urllib.request.proxy_bypass(netloc):
            return _Route(netloc, target, {}, tls, None, {})
        proxy_parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        auth = {}
        if proxy_parts.username and proxy_parts.password:
            credentials = (f"{urllib.parse.unquote(proxy_parts.username)}:"
                           f"{urllib.parse.unquote(proxy_parts.password)}")
            auth["Proxy-Authorization"] = \
                "Basic " + base64.b64encode(credentials.encode()).decode("ascii")
        address = proxy_parts.netloc.rpartition("@")[2]
        if tls is not None:
            return _Route(address, target, {}, tls, netloc, auth)
        return _Route(address, f"http://{netloc}{target}", auth, None, None, {})

    def connection(self, timeout_s: float) -> http.client.HTTPConnection:
        """A new, not yet connected connection; it connects on its first
        request and reconnects on the first request after ``close``."""
        if self.tls is None:
            return http.client.HTTPConnection(self.address, timeout=timeout_s)
        conn = http.client.HTTPSConnection(self.address, timeout=timeout_s, context=self.tls)
        if self.tunnel is not None:
            conn.set_tunnel(self.tunnel, headers=dict(self.tunnel_headers))
        return conn


class HttpGateway(Gateway):
    """Chat-completion client over a provider's HTTP endpoint.

    The request body carries model, messages, temperature, logit_bias and
    max_tokens; the bias map is keyed by surface strings and left to the
    provider to map onto its tokenizer. Transient failures (connection
    errors, timeouts, garbled replies, 5xx) are retried with exponential
    backoff; any other status but 200, a redirect included, is rejected
    immediately, and a 200 reply that is not a chat completion, or whose
    JSON holds ``NaN`` or ``Infinity``, raises MalformedReply. The API key
    is read from the configured environment variable at call time and never
    stored.

    Connections are kept alive in a pool the gateway owns: a call takes an
    idle connection or opens one, and puts it back only after reading the
    whole reply, and only when the server keeps it open. So the pool grows to
    the most calls that ran at once, and a connection whose exchange failed
    is closed, never reused, so a late reply cannot be read as the next
    call's. ``close`` closes the idle connections.
    """

    def __init__(self, config: HttpGatewayConfig):
        self.config = config
        self._lock = threading.Lock()
        self._route: Optional[_Route] = None
        self._idle: list[http.client.HTTPConnection] = []

    def _send(self, system_text: str, user_text: str, params: DecodeParams) -> str:
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
        headers = {"Content-Type": "application/json", "User-Agent": f"askplan/{__version__}"}
        api_key = os.environ.get(self.config.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        data = json.dumps(body, allow_nan=False).encode()

        attempts = 1 + max(0, self.config.retries)
        last_error: Optional[Exception] = None
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
                payload = parse_json(raw.decode("utf-8"))  # RFC 8259 JSON is UTF-8
                text = payload["choices"][0]["message"]["content"]
            except (ValueError, LookupError, TypeError) as exc:
                raise MalformedReply(f"reply is not a chat completion: {excerpt!r}") from exc
            if not isinstance(text, str):
                raise MalformedReply(f"reply content is not text: {text!r}")
            return text
        if isinstance(last_error, TimeoutError):
            raise GatewayTimeout(
                f"no response within {self.config.timeout_s}s after {attempts} attempts")
        raise ProviderUnreachable(
            f"gave up after {attempts} attempts: {last_error}")

    def _post(self, data: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """One attempt: the reply's status and body, whatever the status.
        Transport failures raise OSError or http.client.HTTPException.

        A kept-alive connection the server has since closed fails before any
        byte of the reply arrives; the request is then sent once more at once
        on a new connection, which is not another attempt."""
        conn, reused = self._take()
        route = self._route
        headers = {**headers, **route.headers}
        try:
            try:
                conn.request("POST", route.target, data, headers)
                response = conn.getresponse()
            except (BrokenPipeError, ConnectionResetError):  # RemoteDisconnected too
                if not reused:
                    raise
                conn.close()
                conn.request("POST", route.target, data, headers)
                response = conn.getresponse()
            with response:
                raw = response.read()
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        return response.status, raw

    def _take(self) -> tuple[http.client.HTTPConnection, bool]:
        """An idle connection (reused: True) or a new one."""
        with self._lock:
            if self._route is None:
                self._route = _Route.resolve(self.config.endpoint)
            if self._idle:
                return self._idle.pop(), True
            return self._route.connection(self.config.timeout_s), False

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def describe(self) -> dict:
        return {
            "kind": "http",
            "endpoint": self.config.endpoint,
            "model": self.config.model,
            "api_key_env": self.config.api_key_env,
        }
