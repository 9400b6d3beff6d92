"""RFC 6455 WebSocket framing: server-side helpers and a test client.

No third-party WebSocket library ships in the container, so the
protocol lives here, shared by both ends:

* the **server** side (used by :mod:`repro.service.app`): the
  ``Sec-WebSocket-Accept`` handshake digest, async frame reading off an
  :class:`asyncio.StreamReader` (client→server frames must be masked,
  per the RFC) and unmasked frame encoding for responses;
* the **client** side (:class:`WSClient`): a small *blocking* client
  over a plain socket, used by the test suite and the load harness from
  worker threads — including :meth:`WSClient.abort`, which slams the
  TCP socket shut mid-stream to drive the server's disconnect fault
  path.

Only single-fragment text/close/ping/pong frames are spoken; a peer
that fragments or sends binary gets a ``1002`` protocol-error close.
That is the entire vocabulary the event-stream schema
(docs/service.md) needs, and a smaller protocol surface is a smaller
fault surface.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import os
import socket
import struct
from typing import Any, Dict, Optional, Tuple

__all__ = ["GUID", "OP_TEXT", "OP_CLOSE", "OP_PING", "OP_PONG",
           "WSProtocolError", "WSClosed", "accept_key", "encode_frame",
           "read_frame", "close_payload", "parse_close", "WSClient"]

GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

_CONTROL_OPS = (OP_CLOSE, OP_PING, OP_PONG)

#: refuse frames larger than this (both directions)
MAX_FRAME_BYTES = 1 << 20


class WSProtocolError(Exception):
    """The peer violated the framing rules (close with 1002)."""


class WSClosed(Exception):
    """The peer closed the connection."""

    def __init__(self, code: int = 1005, reason: str = "") -> None:
        super().__init__(f"websocket closed ({code}) {reason}".strip())
        self.code = code
        self.reason = reason


def accept_key(key: str) -> str:
    """The ``Sec-WebSocket-Accept`` digest for a client's key."""
    digest = hashlib.sha1((key + GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def encode_frame(opcode: int, payload: bytes, mask: bool = False) -> bytes:
    """One complete (FIN) frame.  Clients must set ``mask=True``."""
    if len(payload) > MAX_FRAME_BYTES:
        raise WSProtocolError(f"frame of {len(payload)} bytes exceeds cap")
    head = bytearray([0x80 | (opcode & 0x0F)])
    mask_bit = 0x80 if mask else 0x00
    length = len(payload)
    if length < 126:
        head.append(mask_bit | length)
    elif length < (1 << 16):
        head.append(mask_bit | 126)
        head += struct.pack(">H", length)
    else:
        head.append(mask_bit | 127)
        head += struct.pack(">Q", length)
    if mask:
        key = os.urandom(4)
        head += key
        payload = _apply_mask(payload, key)
    return bytes(head) + payload


def _apply_mask(payload: bytes, key: bytes) -> bytes:
    # XOR with the key repeated; int.from_bytes keeps it O(n) in C.
    if not payload:
        return payload
    repeated = key * (len(payload) // 4 + 1)
    return bytes(a ^ b for a, b in zip(payload, repeated))


def close_payload(code: int, reason: str = "") -> bytes:
    return struct.pack(">H", code) + reason.encode("utf-8")[:120]


def parse_close(payload: bytes) -> Tuple[int, str]:
    if len(payload) < 2:
        return 1005, ""
    code = struct.unpack(">H", payload[:2])[0]
    return code, payload[2:].decode("utf-8", "replace")


async def read_frame(reader: asyncio.StreamReader,
                     require_mask: bool = True) -> Tuple[int, bytes]:
    """Read one complete frame; returns ``(opcode, payload)``.

    Raises :class:`WSClosed` on EOF, :class:`WSProtocolError` on
    fragmentation, an oversized frame, or (when ``require_mask``) an
    unmasked client frame.
    """
    try:
        b0, b1 = await reader.readexactly(2)
    except asyncio.IncompleteReadError:
        raise WSClosed(1006, "connection dropped") from None
    if not b0 & 0x80 or (b0 & 0x0F) == OP_CONT:
        raise WSProtocolError("fragmented frames are not supported")
    opcode = b0 & 0x0F
    masked = bool(b1 & 0x80)
    if require_mask and not masked:
        raise WSProtocolError("client frames must be masked")
    length = b1 & 0x7F
    try:
        if length == 126:
            length = struct.unpack(">H", await reader.readexactly(2))[0]
        elif length == 127:
            length = struct.unpack(">Q", await reader.readexactly(8))[0]
        if length > MAX_FRAME_BYTES:
            raise WSProtocolError(f"frame of {length} bytes exceeds cap")
        if opcode in _CONTROL_OPS and length > 125:
            raise WSProtocolError("control frame payload exceeds 125 bytes")
        key = await reader.readexactly(4) if masked else b""
        payload = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise WSClosed(1006, "connection dropped mid-frame") from None
    if masked:
        payload = _apply_mask(payload, key)
    return opcode, payload


class WSClient:
    """Blocking WebSocket client for tests and the load harness.

    Performs the HTTP upgrade on a plain socket, then exchanges frames
    synchronously.  Incoming pings are answered transparently inside
    :meth:`recv_json`.
    """

    def __init__(self, host: str, port: int, path: str,
                 headers: Optional[Dict[str, str]] = None,
                 timeout: float = 10.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.settimeout(timeout)
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        lines = [f"GET {path} HTTP/1.1",
                 f"Host: {host}:{port}",
                 "Upgrade: websocket",
                 "Connection: Upgrade",
                 f"Sec-WebSocket-Key: {key}",
                 "Sec-WebSocket-Version: 13"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        self.sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode("ascii"))
        status_line, response_headers = self._read_http_head()
        self.handshake_status = int(status_line.split(" ", 2)[1])
        self.handshake_headers = response_headers
        if self.handshake_status != 101:
            # Keep the error body readable for asserts, then bail.
            length = int(response_headers.get("content-length", "0"))
            self.handshake_body = (self._read_exact(length)
                                   if length else b"")
            self.sock.close()
            return
        expected = accept_key(key)
        got = response_headers.get("sec-websocket-accept", "")
        if got != expected:
            self.sock.close()
            raise WSProtocolError(f"bad accept key {got!r}")
        self.handshake_body = b""

    # -- plumbing ----------------------------------------------------------
    def _read_http_head(self) -> Tuple[str, Dict[str, str]]:
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = self.sock.recv(4096)
            if not chunk:
                raise WSClosed(1006, "EOF during handshake")
            data += chunk
            if len(data) > 65536:
                raise WSProtocolError("handshake response too large")
        head, _, rest = data.partition(b"\r\n\r\n")
        self._buffer = rest
        lines = head.decode("latin-1").split("\r\n")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return lines[0], headers

    def _read_exact(self, n: int) -> bytes:
        data = self._buffer
        while len(data) < n:
            chunk = self.sock.recv(n - len(data))
            if not chunk:
                raise WSClosed(1006, "connection dropped")
            data += chunk
        self._buffer = data[n:]
        return data[:n]

    # -- frames ------------------------------------------------------------
    def recv_frame(self) -> Tuple[int, bytes]:
        """One frame (opcode, payload); server frames arrive unmasked."""
        b0, b1 = self._read_exact(2)
        opcode = b0 & 0x0F
        masked = bool(b1 & 0x80)
        length = b1 & 0x7F
        if length == 126:
            length = struct.unpack(">H", self._read_exact(2))[0]
        elif length == 127:
            length = struct.unpack(">Q", self._read_exact(8))[0]
        key = self._read_exact(4) if masked else b""
        payload = self._read_exact(length) if length else b""
        if masked:
            payload = _apply_mask(payload, key)
        return opcode, payload

    def recv_json(self) -> Dict[str, Any]:
        """The next text frame parsed as JSON.

        Pings are ponged and skipped; a close frame raises
        :class:`WSClosed` with the peer's code after echoing the close.
        """
        while True:
            opcode, payload = self.recv_frame()
            if opcode == OP_TEXT:
                doc = json.loads(payload.decode("utf-8"))
                assert isinstance(doc, dict)
                return doc
            if opcode == OP_PING:
                self.send_frame(OP_PONG, payload)
                continue
            if opcode == OP_PONG:
                continue
            if opcode == OP_CLOSE:
                code, reason = parse_close(payload)
                try:
                    self.send_frame(OP_CLOSE, payload)
                except OSError:
                    pass
                raise WSClosed(code, reason)
            raise WSProtocolError(f"unexpected opcode {opcode:#x}")

    def send_frame(self, opcode: int, payload: bytes = b"") -> None:
        self.sock.sendall(encode_frame(opcode, payload, mask=True))

    def close(self, code: int = 1000, reason: str = "") -> None:
        """Polite close: send the close frame, then drop the socket."""
        try:
            self.send_frame(OP_CLOSE, close_payload(code, reason))
        except OSError:
            pass
        self.sock.close()

    def abort(self) -> None:
        """Hard drop: reset the TCP connection with no close frame —
        the mid-stream disconnect the fault-injection tests drive."""
        try:
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                 struct.pack("ii", 1, 0))
        except OSError:
            pass
        self.sock.close()

    def __enter__(self) -> "WSClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
