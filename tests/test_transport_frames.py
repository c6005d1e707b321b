"""The frame layer on its own: codec, limits, and the connection pool.

Everything else reaches ``repro.transport.frames`` through a whole
worker cluster; these tests pin the substrate's contract directly,
against an in-test blocking frame server whose accepts, deliveries and
deaths the test controls:

* the codec round-trips, and rejects oversize / non-object / truncated
  frames with the documented exception types;
* ``request`` reuses one connection per peer, never shares a socket
  between threads, detects a dead or restarted peer before reuse, never
  reuses a socket after a timeout, and never re-sends a request;
* a live worker process drops a connection that sends anything but
  whole frames, and only that connection: its other clients, and the
  next one to connect, are served as before — also while a half-open
  client sits on a partial header.
"""

from __future__ import annotations

import socket
import sys
import threading
import time

import pytest

from repro.transport import frames
from repro.transport.proccluster import ProcessCluster

HOST = "127.0.0.1"


# ------------------------------------------------------------------ codec


def socket_pair():
    left, right = socket.socketpair()
    left.settimeout(2.0)
    right.settimeout(2.0)
    return left, right


class TestCodec:
    def test_round_trip(self):
        payload = {"kind": "invoke", "args": [1, "zwölf", None], "nested": {"b": 2, "a": 1}}
        wire = frames.encode_frame(payload)
        (length,) = frames.HEADER.unpack(wire[: frames.HEADER.size])
        assert length == len(wire) - frames.HEADER.size
        assert frames.decode_body(wire[frames.HEADER.size :]) == payload

    def test_round_trip_over_a_socket(self):
        left, right = socket_pair()
        with left, right:
            frames.write_frame(left, {"n": 1})
            frames.write_frame(left, {"n": 2})
            assert frames.read_frame(right) == {"n": 1}
            assert frames.read_frame(right) == {"n": 2}

    def test_oversize_announced_length_is_refused_before_reading_a_body(self):
        left, right = socket_pair()
        with left, right:
            # Header only: were the reader to trust the length it would
            # block for 16 MiB that never arrive and time out instead.
            left.sendall(frames.HEADER.pack(frames.MAX_FRAME + 1))
            with pytest.raises(frames.FrameError) as excinfo:
                frames.read_frame(right)
            assert not isinstance(excinfo.value, frames.FrameClosed)
            assert "exceeds MAX_FRAME" in str(excinfo.value)

    def test_oversize_payload_is_refused_on_encode(self, monkeypatch):
        monkeypatch.setattr(frames, "MAX_FRAME", 8)
        with pytest.raises(frames.FrameError):
            frames.encode_frame({"blob": "x" * 32})

    @pytest.mark.parametrize("body", [b"[1,2]", b'"text"', b"7", b"{not json", b"\xff\xfe"])
    def test_non_object_or_undecodable_body(self, body):
        with pytest.raises(frames.FrameError):
            frames.decode_body(body)
        left, right = socket_pair()
        with left, right:
            left.sendall(frames.HEADER.pack(len(body)) + body)
            with pytest.raises(frames.FrameError):
                frames.read_frame(right)

    @pytest.mark.parametrize(
        "wire",
        [
            b"\x00\x00",  # truncated header
            frames.HEADER.pack(10) + b"{\"a",  # truncated body
            b"",  # closed before a header
        ],
    )
    def test_truncated_frame_is_frame_closed(self, wire):
        left, right = socket_pair()
        with right:
            left.sendall(wire)
            left.close()
            with pytest.raises(frames.FrameClosed):
                frames.read_frame(right)


# ------------------------------------------------------------------- pool


class FrameServer:
    """A blocking echo server that records what reaches it.

    Replies ``{"echo": <payload>, "conn": <accept ordinal>}``.  A payload
    with ``"delay"`` sleeps that long before replying; one with ``"die"``
    is recorded and then the connection is closed without a reply.
    """

    def __init__(self, port: int = 0) -> None:
        self._listener = socket.socket()
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((HOST, port))
        self._listener.listen(16)
        self.port = self._listener.getsockname()[1]
        self._lock = threading.Lock()
        self.accepts = 0
        self.delivered: list[dict] = []
        self.errors: list[Exception] = []
        self._connections: list[socket.socket] = []
        self._threads = [threading.Thread(target=self._accept_loop, daemon=True)]
        self._threads[0].start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._lock:
                self.accepts += 1
                ordinal = self.accepts
                self._connections.append(conn)
                thread = threading.Thread(
                    target=self._serve, args=(conn, ordinal), daemon=True
                )
                self._threads.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket, ordinal: int) -> None:
        try:
            while True:
                payload = frames.read_frame(conn)
                with self._lock:
                    self.delivered.append(payload)
                if payload.get("die"):
                    return
                if payload.get("delay"):
                    time.sleep(payload["delay"])
                frames.write_frame(conn, {"echo": payload, "conn": ordinal})
        except frames.FrameClosed:
            pass  # client hung up between frames
        except (OSError, frames.FrameError) as exc:
            with self._lock:
                self.errors.append(exc)
        finally:
            conn.close()

    def stop(self) -> None:
        # shutdown() wakes the blocked accept(); close() alone does not.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        with self._lock:
            connections, threads = list(self._connections), list(self._threads)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its serving thread
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()


@pytest.fixture
def server():
    server = FrameServer()
    yield server
    server.stop()
    frames.close_idle(HOST, server.port)


def idle_sockets(port: int) -> list[socket.socket]:
    pool = frames._POOL
    with pool._pool_lock:
        return list(pool._idle.get((HOST, port), []))


class TestConnectionPool:
    def test_sequential_requests_share_one_connection(self, server):
        for n in range(25):
            reply = frames.request(HOST, server.port, {"n": n})
            assert reply == {"echo": {"n": n}, "conn": 1}
        assert server.accepts == 1
        assert len(idle_sockets(server.port)) == 1

    def test_new_connections_disable_nagle(self, server):
        frames.request(HOST, server.port, {"n": 0})
        (sock,) = idle_sockets(server.port)
        assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_concurrent_threads_never_share_a_socket(self, server):
        rounds = 300
        failures: list[str] = []

        def client(tag: str) -> None:
            for n in range(rounds):
                reply = frames.request(HOST, server.port, {"tag": tag, "n": n})
                if reply["echo"] != {"tag": tag, "n": n}:
                    failures.append(f"{tag}#{n} got {reply}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(tag,)) for tag in ("x", "y")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert server.errors == []  # every frame arrived whole
        assert len(server.delivered) == 2 * rounds
        assert server.accepts <= 2
        assert 1 <= len(idle_sockets(server.port)) <= 2

    def test_restarted_peer_gets_a_fresh_connection(self, server):
        frames.request(HOST, server.port, {"n": 1})
        (old,) = idle_sockets(server.port)
        server.stop()
        reborn = FrameServer(server.port)
        try:
            reply = frames.request(HOST, server.port, {"n": 2})
            assert reply == {"echo": {"n": 2}, "conn": 1}
            assert reborn.accepts == 1
            assert old.fileno() == -1, "stale socket must be closed, not leaked"
            (fresh,) = idle_sockets(server.port)
            assert fresh is not old
        finally:
            reborn.stop()

    def test_dead_peer_is_unreachable_not_retried(self, server):
        frames.request(HOST, server.port, {"n": 1})
        server.stop()
        with pytest.raises(OSError):
            frames.request(HOST, server.port, {"n": 2}, timeout=0.5)
        assert idle_sockets(server.port) == []
        assert server.delivered == [{"n": 1}]

    def test_timed_out_socket_is_never_reused(self, server):
        frames.request(HOST, server.port, {"n": 1})
        with pytest.raises(OSError):
            frames.request(HOST, server.port, {"slow": True, "delay": 0.4}, timeout=0.1)
        assert idle_sockets(server.port) == []
        # The late reply to the slow request is in flight on connection 1;
        # the next request must not read it as its own answer.
        reply = frames.request(HOST, server.port, {"n": 2})
        assert reply == {"echo": {"n": 2}, "conn": 2}
        assert server.accepts == 2

    def test_peer_dying_mid_request_is_an_error_and_one_delivery(self, server):
        frames.request(HOST, server.port, {"n": 1})  # warm pooled socket
        with pytest.raises((OSError, frames.FrameError)):
            frames.request(HOST, server.port, {"write": 7, "die": True})
        # At most once: no reconnect-and-resend behind the caller's back.
        assert server.delivered.count({"write": 7, "die": True}) == 1
        assert server.accepts == 1
        assert idle_sockets(server.port) == []

    def test_malformed_reply_closes_the_socket(self):
        listener = socket.socket()
        listener.bind((HOST, 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def bad_peer() -> None:
            conn, _ = listener.accept()
            with conn:
                frames.read_frame(conn)
                conn.sendall(frames.HEADER.pack(5) + b"[1,2]")
                conn.recv(1)  # hold the connection until the client closes it

        thread = threading.Thread(target=bad_peer, daemon=True)
        thread.start()
        try:
            with pytest.raises(frames.FrameError):
                frames.request(HOST, port, {"n": 1})
            assert idle_sockets(port) == []
        finally:
            thread.join(timeout=5)
            listener.close()
        assert not thread.is_alive()

    def test_close_idle_matches_by_address(self, server):
        other = FrameServer()
        try:
            frames.request(HOST, server.port, {"n": 1})
            frames.request(HOST, other.port, {"n": 1})
            (sock,) = idle_sockets(server.port)
            frames.close_idle(HOST, server.port)
            assert sock.fileno() == -1
            assert idle_sockets(server.port) == []
            assert len(idle_sockets(other.port)) == 1
            frames.close_idle()
            assert idle_sockets(other.port) == []
        finally:
            other.stop()


# ------------------------------------------------------------ live worker


@pytest.fixture(scope="module")
def worker():
    """One worker process with no peers: its own primary, never dialling out."""
    with ProcessCluster(("a",)) as cluster:
        created = cluster.create("a", "Flight", "F1", {"flight_number": "F1", "seats": 10**6})
        assert created["ok"], created
        yield cluster


def raw_connection(cluster: ProcessCluster) -> socket.socket:
    sock = socket.create_connection((HOST, cluster.ports["a"]), timeout=2.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def exchange(sock: socket.socket, payload: dict) -> dict:
    frames.write_frame(sock, payload)
    return frames.read_frame(sock)


def sell_one(cluster: ProcessCluster) -> dict:
    reply = cluster.invoke("a", "Flight", "F1", "sell_tickets", 1)
    assert reply["ok"] and reply["served_by"] == "a", reply
    return reply


class TestLiveWorker:
    @pytest.mark.parametrize(
        "wire, hang_up",
        [
            (b"", True),  # clean EOF before a header
            (b"\x00\x00", True),  # truncated header
            (frames.HEADER.pack(10) + b'{"a', True),  # truncated body
            (frames.HEADER.pack(frames.MAX_FRAME + 1), False),  # header above MAX_FRAME
            (frames.HEADER.pack(9) + b"{not json", False),  # undecodable body
            (frames.HEADER.pack(5) + b"[1,2]", False),  # JSON, but not an object
        ],
        ids=["eof", "short-header", "short-body", "oversize", "undecodable", "not-an-object"],
    )
    def test_a_bad_connection_is_dropped_alone(self, worker, wire, hang_up):
        bystander = raw_connection(worker)
        bad = raw_connection(worker)
        with bystander, bad:
            assert exchange(bystander, {"kind": "ping"})["kind"] == "pong"
            bad.sendall(wire)
            if hang_up:
                bad.shutdown(socket.SHUT_WR)
            # The worker closes the connection without an answer, and does
            # not wait for the 16 MiB an oversized header announces.
            assert bad.recv(1) == b""
            assert exchange(bystander, {"kind": "ping"})["kind"] == "pong"
        assert worker.ping("a")
        before = sell_one(worker)["result"]
        assert sell_one(worker)["result"] == before + 1

    def test_a_half_open_client_holds_up_nobody(self, worker):
        sell_one(worker)  # the pooled connection exists before the stall
        with raw_connection(worker) as stalled:
            stalled.sendall(b"\x00\x00")  # two header bytes, then silence
            time.sleep(0.05)
            started = time.monotonic()
            sell_one(worker)
            assert time.monotonic() - started < 0.1
            with raw_connection(worker) as fresh:
                started = time.monotonic()
                reply = exchange(
                    fresh,
                    {"kind": "invoke", "cls": "Flight", "oid": "F1", "method": "get_sold", "args": []},
                )
                assert reply["ok"] and time.monotonic() - started < 0.1
