"""Planted CONC004: locks held across remote operations.

Two shapes: direct socket I/O under a lock, and a call whose callee
transitively reaches network I/O.
"""

import socket
import threading


class Sender:
    def __init__(self):
        self._lock = threading.Lock()

    def send_locked(self, sock, data):
        with self._lock:
            sock.sendall(data)  # BUG: direct network I/O under _lock

    def relay(self, host):
        with self._lock:
            self._dial(host)  # BUG: _dial reaches create_connection

    def _dial(self, host):
        conn = socket.create_connection((host, 9))
        conn.shutdown(0)
