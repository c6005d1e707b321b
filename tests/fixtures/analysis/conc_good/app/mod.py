"""Clean concurrency fixture: every CONC rule's happy path.

Guarded fields are touched under their lock (locally or provably via
every caller), blocking work is pushed through executors, locks nest in
one global order, nothing is held across network I/O or an await, and
lazy init happens inside the lock.
"""

import asyncio
import socket
import threading
import time


class Disciplined:
    def __init__(self):
        self._outer = threading.Lock()
        self._inner = threading.Lock()
        self._state = {}  # guarded-by: _inner
        self._table = None

    def update(self, key, value):
        with self._outer:
            with self._inner:  # one global order: _outer then _inner
                self._state[key] = value

    def read(self, key):
        with self._inner:
            return self._read_locked(key)

    def _read_locked(self, key):
        return self._state.get(key)  # every caller holds _inner

    def table(self):
        with self._inner:
            if self._table is None:
                self._table = {}
            return self._table

    def send(self, sock, data):
        payload = self._render()
        sock.sendall(payload + data)  # no lock held here

    def _render(self):
        with self._inner:
            return repr(sorted(self._state)).encode()

    async def pump(self):
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._slow)
        await asyncio.sleep(0)

    def _slow(self):
        time.sleep(0.01)  # runs on an executor thread only

    def dial(self, host):
        conn = socket.create_connection((host, 9))
        conn.shutdown(0)


class Pool:
    """Checkout/checkin: the lock covers the idle list, never the I/O."""

    def __init__(self):
        self._pool_lock = threading.Lock()
        self._idle = []  # guarded-by: _pool_lock

    def checkout(self, host):
        with self._pool_lock:
            conn = self._idle.pop() if self._idle else None
        if conn is None:
            conn = socket.create_connection((host, 9))  # lock released
        return conn

    def checkin(self, conn):
        with self._pool_lock:
            self._idle.append(conn)


_POOL = Pool()


def exchange(host):
    conn = _POOL.checkout(host)
    _POOL.checkin(conn)
