"""Length-prefixed JSON framing for the multi-process transport.

Wire format: a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  The same codec serves three roles:

* the driver (:mod:`repro.transport.proccluster`) talking to workers,
* workers (:mod:`repro.transport.procnode`) talking to their peers for
  replica-update propagation and liveness pings,
* tests speaking to a live worker directly.

The helpers here operate on plain blocking sockets on both sides: a
client calls :func:`request`; a worker's connection thread reads with
:func:`read_frame` and answers with :func:`write_frame`.
:func:`body_length` enforces :data:`MAX_FRAME`, so a corrupt or hostile
length header cannot trigger an unbounded allocation.

Connections are long-lived: :func:`request` borrows an idle socket to
``(host, port)`` from a process-wide pool (or connects), exchanges one
frame each way and returns the socket to the pool, so a frame costs a
frame and not a TCP handshake.  The rules that keep this safe:

* **checkout / checkin** — a socket is owned by exactly one thread from
  checkout to checkin; the pool lock covers only the idle-stack pop and
  push, never ``connect``/``sendall``/``recv``.  Concurrent requests to
  one peer therefore use distinct sockets and cannot interleave frames.
* **only a clean exchange is reused** — any error, timeout or malformed
  reply closes the socket: a late reply on a timed-out socket would be
  read as the answer to the *next* request.
* **staleness is checked before reuse** — an idle socket with EOF, a
  reset or stray bytes pending means the peer died or restarted
  (``kill -9`` + respawn on the same port); it is dropped and a fresh
  connect decides reachability.
* **at most once** — a request is never re-sent.  The staleness check
  runs before the first byte is written; once bytes may have reached a
  live peer, a failure is reported, not retried, so an ``invoke`` can
  never be applied twice.

There is no pool-size or keep-alive setting: the number of idle sockets
per peer is bounded by the number of threads that talk to it at once
(the driver's client threads; a worker's probe and connection threads),
and they live until the peer dies or :func:`close_idle` is called.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import Any

HEADER = struct.Struct(">I")

#: Upper bound on a single frame body; a full worker state dump of the
#: demo workloads is a few kilobytes, so 16 MiB is generous headroom.
MAX_FRAME = 16 * 1024 * 1024


class FrameError(RuntimeError):
    """Malformed frame on the wire (bad length, bad JSON, overflow)."""


class FrameClosed(FrameError):
    """Peer closed the connection mid-frame."""


def encode_frame(payload: dict[str, Any]) -> bytes:
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise FrameError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> dict[str, Any]:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame body: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameError(f"frame body must be a JSON object, got {type(payload).__name__}")
    return payload


def body_length(header: bytes) -> int:
    """The body length a frame header announces; refused beyond MAX_FRAME."""
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME:
        raise FrameError(f"announced frame of {length} bytes exceeds MAX_FRAME")
    return length


# ----------------------------------------------------------------------
# synchronous (blocking socket) side
# ----------------------------------------------------------------------
def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise FrameClosed(f"connection closed with {remaining} bytes outstanding")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> dict[str, Any]:
    length = body_length(_recv_exact(sock, HEADER.size))
    return decode_body(_recv_exact(sock, length))


def write_frame(sock: socket.socket, payload: dict[str, Any]) -> None:
    sock.sendall(encode_frame(payload))


def _stale(sock: socket.socket) -> bool:
    """Whether an idle socket has EOF, a reset or stray bytes pending.

    An idle connection of this protocol has nothing to read: the peer
    only ever answers a request.  Anything readable is therefore the
    peer's death notice (or a desynchronised stream).
    """
    sock.settimeout(0)
    try:
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return False
    except OSError:
        pass
    return True


class ConnectionPool:
    """Idle persistent client connections, one stack per peer address."""

    def __init__(self) -> None:
        # Covers the idle map only; never held across socket I/O.
        self._pool_lock = threading.Lock()
        self._idle: dict[tuple[str, int], list[socket.socket]] = {}  # guarded-by: _pool_lock

    def checkout(self, host: str, port: int, timeout: float) -> socket.socket:
        """A connected socket owned by the caller until :meth:`checkin`.

        Most recently used idle socket first; stale ones are closed on
        the way.  Only a fresh connect decides that a peer is down.
        """
        while True:
            with self._pool_lock:
                stack = self._idle.get((host, port))
                sock = stack.pop() if stack else None
            if sock is None:
                break
            if not _stale(sock):
                sock.settimeout(timeout)
                return sock
            sock.close()
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def checkin(self, host: str, port: int, sock: socket.socket) -> None:
        """Return a socket whose last exchange completed cleanly."""
        with self._pool_lock:
            self._idle.setdefault((host, port), []).append(sock)

    def close_idle(self, host: str | None = None, port: int | None = None) -> None:
        """Close idle sockets to matching peers (``None`` matches any)."""
        with self._pool_lock:
            doomed = [
                key
                for key in self._idle
                if host in (None, key[0]) and port in (None, key[1])
            ]
            sockets = [sock for key in doomed for sock in self._idle.pop(key)]
        for sock in sockets:
            sock.close()


_POOL = ConnectionPool()


def request(
    host: str,
    port: int,
    payload: dict[str, Any],
    timeout: float = 2.0,
) -> dict[str, Any]:
    """One request/response exchange with a frame server.

    Sends one frame and reads one frame back on a pooled connection to
    ``(host, port)``, connecting only when no live idle socket exists.
    Raises ``OSError`` (refused/reset/timeout) or :class:`FrameError`
    when the peer is down or misbehaves — callers translate that into
    unreachability.  The request is never re-sent (see module docstring).
    """
    sock = _POOL.checkout(host, port, timeout)
    try:
        write_frame(sock, payload)
        reply = read_frame(sock)
    except BaseException:
        # Mid-exchange the stream position is unknown — even on
        # KeyboardInterrupt the socket must not serve another request.
        sock.close()
        raise
    _POOL.checkin(host, port, sock)
    return reply


def close_idle(host: str | None = None, port: int | None = None) -> None:
    """Close this process's idle pooled sockets to matching peers."""
    _POOL.close_idle(host, port)
