"""Wire schema v2 for the run event stream and result documents.

Everything a client sees over the WebSocket (``WS
/runs/<digest>/stream``) or in a ``GET /runs/<digest>`` body is built
here, so the byte-level contract lives in exactly one place:

* every stream frame is a JSON object carrying ``"v": 2`` — the
  stream schema version, bumped only on breaking changes
  (docs/service.md documents the frame kinds).  v2 is additive over
  v1: heartbeat frames may now carry ``period_s`` (the batched
  engine's detected frame-wave period), elided when absent, so a v1
  client that ignores unknown keys keeps working;
* the result document is serialised with :func:`canonical_json` — the
  same sorted-keys/compact serialisation the cache digest uses — so a
  cold run, a warm cache hit and a coalesced subscriber all receive
  **byte-identical** bodies for the same digest.  Path metadata (which
  route produced the bytes) travels in the ``X-Repro-Source`` response
  header, never in the body.
"""

from __future__ import annotations

from typing import Any, Dict

from ..exec.cache import result_to_cache_dict
from ..exec.hashing import canonical_json
from ..obsv.progress import ProgressEvent
from ..pipeline.metrics import RunResult

__all__ = ["WS_SCHEMA", "STREAM_END_KINDS", "event_to_wire",
           "hello_frame", "result_frame", "error_frame", "result_document",
           "result_body", "is_stream_end"]

#: stream schema version; present in every frame as ``"v"``
WS_SCHEMA = 2

#: frame kinds that terminate a stream (the server closes after one)
STREAM_END_KINDS = ("result", "error")


def event_to_wire(event: ProgressEvent) -> Dict[str, Any]:
    """One :class:`ProgressEvent` as a stream frame.

    Field names match the event dataclass so the offline event log and
    the streamed sequence line up 1:1 in the identity tests; zero-value
    optional fields are elided to keep frames small.
    """
    doc: Dict[str, Any] = {"v": WS_SCHEMA, "kind": event.kind,
                           "worker": event.worker, "index": event.index,
                           "digest": event.digest}
    if event.state:
        doc["state"] = event.state
    if event.frames_done:
        doc["frames_done"] = event.frames_done
    if event.frames_total:
        doc["frames_total"] = event.frames_total
    if event.error:
        doc["error"] = event.error
    if event.verdict:
        doc["verdict"] = event.verdict
    if event.period_s:
        doc["period_s"] = event.period_s
    return doc


def hello_frame(digest: str, replayed: int) -> Dict[str, Any]:
    """First frame on every stream: schema version + replay depth."""
    return {"v": WS_SCHEMA, "kind": "hello", "digest": digest,
            "replayed": replayed}


def result_document(digest: str, result: RunResult) -> Dict[str, Any]:
    """The ``GET /runs/<digest>`` 200 document (path-independent)."""
    return {"digest": digest, "result": result_to_cache_dict(result)}


def result_body(digest: str, result: RunResult) -> bytes:
    """The canonical (byte-stable) serialisation of the result doc."""
    return (canonical_json(result_document(digest, result))
            + "\n").encode("utf-8")


def result_frame(digest: str, result: RunResult,
                 cached: bool) -> Dict[str, Any]:
    """Terminal stream frame carrying the full result."""
    return {"v": WS_SCHEMA, "kind": "result", "digest": digest,
            "cached": cached, "result": result_to_cache_dict(result)}


def error_frame(digest: str, code: str, detail: str) -> Dict[str, Any]:
    """Terminal stream frame for a failed/timed-out/cancelled run."""
    return {"v": WS_SCHEMA, "kind": "error", "digest": digest,
            "error": code, "detail": detail}


def is_stream_end(doc: Dict[str, Any]) -> bool:
    """Does this frame terminate the stream?"""
    return doc.get("kind") in STREAM_END_KINDS
