"""The ``/metrics`` + ``/healthz`` exposition endpoint.

A stdlib-only HTTP server on a daemon thread, opt-in via ``repro sweep
--serve-metrics PORT``.  It serves:

* ``GET /metrics`` — the fleet metrics of the attached
  :class:`~repro.obsv.progress.FleetAggregator` in Prometheus text
  exposition format;
* ``GET /healthz`` — a small JSON liveness document (status, uptime,
  sweep progress), always ``200`` while the thread is alive.

This is deliberately the seed of the ROADMAP's simulation-as-a-service
front-end: the aggregator is already the shared state a submit/stream
service needs, and the endpoint gives sweeps a scrapeable surface
today without any new dependencies.

Every page is rendered under the aggregator's lock discipline
(:meth:`~repro.obsv.progress.FleetAggregator.snapshot` copies), so
handler threads never observe a half-updated fleet.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional

from .progress import FleetAggregator
from .promexpo import CONTENT_TYPE, render_exposition

__all__ = ["MetricsServer"]


class _Handler(BaseHTTPRequestHandler):
    #: set by MetricsServer.start()
    server_ref: "MetricsServer"

    # quiet: request logging would interleave with the CLI's output
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802  (http.server API)
        owner = self.server_ref
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            try:
                body = owner.render_metrics().encode("utf-8")
            except Exception as exc:  # never take the sweep down
                self._respond(500, "text/plain; charset=utf-8",
                              f"metrics render failed: {exc!r}\n"
                              .encode("utf-8"))
                return
            self._respond(200, CONTENT_TYPE, body)
        elif path == "/healthz":
            body = (json.dumps(owner.health(), sort_keys=True) + "\n"
                    ).encode("utf-8")
            self._respond(200, "application/json", body)
        else:
            self._respond(404, "text/plain; charset=utf-8",
                          b"not found; try /metrics or /healthz\n")

    def _respond(self, status: int, content_type: str,
                 body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class MetricsServer:
    """Serve an aggregator's fleet metrics on a daemon thread.

    Parameters
    ----------
    aggregator:
        The fleet state to expose.
    port:
        TCP port; ``0`` binds an ephemeral port (read :attr:`port`
        after :meth:`start`).
    host:
        Bind address (default loopback: the endpoint is operational
        telemetry, not a public API).
    """

    def __init__(self, aggregator: FleetAggregator, port: int = 0,
                 host: str = "127.0.0.1") -> None:
        self.aggregator = aggregator
        self._requested = (host, port)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started_at = 0.0

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            raise RuntimeError("server already started")
        handler = type("BoundHandler", (_Handler,), {"server_ref": self})
        self._httpd = ThreadingHTTPServer(self._requested, handler)
        self._httpd.daemon_threads = True
        self._started_at = time.monotonic()
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-metrics",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral pick)."""
        if self._httpd is None:
            return self._requested[1]
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self._requested[0]}:{self.port}"

    # -- pages -------------------------------------------------------------
    def render_metrics(self) -> str:
        return render_exposition(self.aggregator.snapshot())

    def health(self) -> Dict[str, Any]:
        snapshot = self.aggregator.snapshot()
        return {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "sweep": {
                "total": snapshot.total,
                "completed": snapshot.completed,
                "failed": snapshot.counts.get("failed", 0),
                "finished": snapshot.finished,
            },
        }

    def __repr__(self) -> str:
        state = "up" if self._httpd is not None else "down"
        return f"<MetricsServer {state} {self.url}>"
