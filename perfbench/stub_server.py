"""Loopback chat-completion stub for the ``http-loopback`` workload.

It answers OpenAI-style ``POST <route>`` requests by calling
``OracleScript.reply_for`` on the last message's content, after a fixed
delay. Each route serves one oracle script. ``GET /stats`` returns the
connections that carried a chat request, the chat requests, and the time the
stub spent serving them (delay included).

Every response goes out in one write on a socket with ``TCP_NODELAY`` set.
When headers and body leave in separate writes, a keep-alive client waits on
delayed ACK for about 40 ms per call, which would make connection reuse look
like a regression.

    python3 perfbench/stub_server.py --delay-ms 4 \\
        --route /mini7=src/askplan/scripts/mini7.json

It binds 127.0.0.1 on a free port and prints ``PORT <n>`` once it listens.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from askplan.gateway import ScriptMiss, load_script  # noqa: E402


class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = 0
        self.service_s = 0.0

    def add(self, new_connection: bool, service_s: float) -> None:
        with self.lock:
            self.connections += new_connection
            self.requests += 1
            self.service_s += service_s

    def to_dict(self) -> dict:
        with self.lock:
            return {"connections": self.connections, "requests": self.requests,
                    "service_ms": 1000 * self.service_s}


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self) -> None:
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.served = False

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
        self.wfile.write(head + body)

    def do_POST(self) -> None:
        started = time.perf_counter()
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        script = self.server.scripts.get(self.path)
        try:
            if script is None:
                raise ScriptMiss(f"no script is routed at {self.path}")
            reply = script.reply_for(request["messages"][-1]["content"])
        except ScriptMiss as exc:
            status, payload = 404, {"error": str(exc)}
        else:
            status, payload = 200, {"model": request["model"], "choices": [
                {"index": 0, "message": {"role": "assistant", "content": reply}}]}
        time.sleep(self.server.delay_s)
        self._send(status, payload)
        self.server.stats.add(not self.served, time.perf_counter() - started)
        self.served = True

    def do_GET(self) -> None:
        if self.path == "/stats":
            self._send(200, self.server.stats.to_dict())
        else:
            self._send(404, {"error": f"unknown path {self.path}"})

    def log_message(self, format: str, *args) -> None:
        pass


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay-ms", type=float, required=True)
    parser.add_argument("--route", action="append", required=True,
                        help="PATH=SCRIPT, e.g. /mini7=src/askplan/scripts/mini7.json")
    args = parser.parse_args()
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.delay_s = args.delay_ms / 1000
    server.stats = Stats()
    server.scripts = {}
    for route in args.route:
        path, _, script = route.partition("=")
        server.scripts[path] = load_script(script)
    print(f"PORT {server.server_address[1]}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
