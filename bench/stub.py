"""In-process HTTP language-model stub for the ``learn-remote`` workload.

Speaks the ``RemoteModel`` wire protocol over HTTP/1.1 keep-alive and answers
each request after a fixed sleep, standing in for a remote LM whose latency
is known. Each connection gets its own handler thread, so the client's
in-flight bound, not the stub, sets concurrency. Replies go out in a single
write with Nagle disabled: a reply split into a header write and a body
write stalls on delayed ACKs and would measure ~40 ms per request instead of
the client.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from pdfa_forge import Pdfa


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        self.server.stub._connected(self.connection)

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.server.stub._disconnected(self.connection)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        stub = self.server.stub
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        stub._count_request()
        time.sleep(stub.delay_s)
        dist = stub.target.distribution_after(tuple(body["tokens"]))
        data = json.dumps({"probs": dist.as_dict()}).encode()
        head = (
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + data)

    def log_message(self, *args) -> None:
        pass


class LmStub:
    """Serves one target PDFA at a time; counts requests and connections.

    The closed-loop benchmark swaps ``target`` only between learning runs,
    when no request is in flight.
    """

    def __init__(self, target: Pdfa, delay_s: float):
        self.target = target
        self.delay_s = delay_s
        self._lock = threading.Lock()
        self._open: set[socket.socket] = set()
        self.requests = 0
        self.peak_connections = 0
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._httpd.daemon_threads = False
        self._httpd.stub = self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05}
        )
        self._thread.start()

    @property
    def endpoint(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}"

    def _count_request(self) -> None:
        with self._lock:
            self.requests += 1

    def _connected(self, conn: socket.socket) -> None:
        with self._lock:
            self._open.add(conn)
            self.peak_connections = max(self.peak_connections, len(self._open))

    def _disconnected(self, conn: socket.socket) -> None:
        with self._lock:
            self._open.discard(conn)

    def close(self) -> None:
        """Stop serving, drop open keep-alive connections, join every thread."""
        self._httpd.shutdown()
        self._thread.join()
        with self._lock:
            for conn in self._open:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        self._httpd.server_close()  # joins the handler threads
