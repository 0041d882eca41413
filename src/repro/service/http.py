"""Dependency-free HTTP console for a running :class:`StreamService`.

Stdlib ``http.server`` only — the container constraint rules out real web
frameworks, and an operations read-path doesn't need one. Endpoints:

* ``GET /health``      — liveness + run summary (ordinal, incidents, breakers)
  and a ``resident`` block: what the process holds, as lengths and counters
* ``GET /metrics``     — the full MetricsRegistry snapshot
* ``GET /incidents``   — the incident log
* ``GET /rules/<id>``  — one rule's placement, health, and fired items
* ``GET /series``      — recent metric samples (``?n=`` bounds the tail; a
  value that is not a non-negative integer answers 400)

All responses are JSON. The server runs on a daemon thread
(:class:`ThreadingHTTPServer`) and its handlers run on request threads,
unlocked, beside the batch loop. They must therefore call nothing that
writes: every view method builds a fresh document from plain reads, and
``/rules/<id>`` reads the rule's one match-store column rather than
the executor's view (``fired_map()`` / ``fired_fingerprint()`` /
``fired_pairs`` patch that view in place before answering, so they
belong to the batch loop's thread). A request racing the batch loop sees a
consistent-enough operational snapshot — or, if a container it iterates
changes size under it, answers 500 — and never perturbs the run (the
identity contract lives in the logs and the checkpoint, not here).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.service.daemon import StreamService


class _ConsoleHandler(BaseHTTPRequestHandler):
    service: StreamService  # injected by serve()

    # Silence per-request stderr lines; the daemon owns the terminal.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def _send_json(self, payload: Any, status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True, indent=2).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        service = self.service
        try:
            if route == "/health":
                self._send_json(service.status())
            elif route == "/metrics":
                self._send_json(service.obs.metrics.snapshot())
            elif route == "/incidents":
                self._send_json(service.incidents_view())
            elif route == "/series":
                raw = parse_qs(parsed.query).get("n", ["60"])[0]
                try:
                    count = int(raw)
                except ValueError:
                    count = -1
                if count < 0:
                    self._send_json(
                        {"error": f"n must be a non-negative integer, got {raw!r}"}, 400
                    )
                else:
                    self._send_json(service.series.tail(count))
            elif route.startswith("/rules/"):
                rule_id = route[len("/rules/"):]
                view = service.rule_view(rule_id)
                if view is None:
                    self._send_json({"error": f"unknown rule {rule_id!r}"}, 404)
                else:
                    self._send_json(view)
            elif route == "/":
                self._send_json({
                    "service": "repro-stream-service",
                    "endpoints": [
                        "/health", "/metrics", "/incidents",
                        "/rules/<rule_id>", "/series?n=60",
                    ],
                })
            else:
                self._send_json({"error": f"no route {route!r}"}, 404)
        except Exception as error:  # surface, don't kill the server thread
            self._send_json({"error": f"{type(error).__name__}: {error}"}, 500)


class ServiceHttpServer:
    """A ThreadingHTTPServer bound to a service, running on a daemon thread."""

    def __init__(self, service: StreamService, host: str = "127.0.0.1", port: int = 0):
        handler = type("BoundHandler", (_ConsoleHandler,), {"service": service})
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[0], self.httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServiceHttpServer":
        if self.thread is not None:
            raise RuntimeError("server already started")
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-serve", daemon=True
        )
        self.thread.start()
        return self

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self.thread is not None:
            self.thread.join(timeout=5)
            self.thread = None

    def __enter__(self) -> "ServiceHttpServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve(
    service: StreamService, host: str = "127.0.0.1", port: int = 0
) -> ServiceHttpServer:
    """Start the operations console for ``service``; returns the server."""
    return ServiceHttpServer(service, host=host, port=port).start()
