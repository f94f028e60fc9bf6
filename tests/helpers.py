"""Shared test helpers: fixture automata, random generators, HTTP LM stub."""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from pdfa_forge import Alphabet, Distribution, Pdfa

UNARY = Alphabet(("a",))


def unary_dist(p_continue: float) -> Distribution:
    return Distribution(UNARY, (p_continue, 1.0 - p_continue))


def random_distribution(rng: random.Random, alphabet: Alphabet) -> Distribution:
    weights = [rng.random() + 1e-3 for _ in alphabet.extended]
    total = sum(weights)
    return Distribution(alphabet, tuple(w / total for w in weights))


def random_pdfa(
    rng: random.Random,
    max_states: int = 8,
    max_symbols: int = 3,
    palette_size: int | None = None,
    min_states: int = 1,
    min_symbols: int = 1,
) -> Pdfa:
    """Random reachable PDFA; a small emission palette forces state collisions.

    ``min_states`` bounds the drawn state count; pruning unreachable states
    can leave fewer.
    """
    n = rng.randint(min_states, max_states)
    alphabet = Alphabet(("a", "b", "c")[: rng.randint(min_symbols, max_symbols)])
    n_palette = palette_size if palette_size is not None else rng.randint(1, n)
    palette = [random_distribution(rng, alphabet) for _ in range(n_palette)]
    emissions = [rng.choice(palette) for _ in range(n)]
    transitions = [[rng.randrange(n) for _ in alphabet.symbols] for _ in range(n)]

    reachable = {0}
    frontier = [0]
    while frontier:
        q = frontier.pop()
        for t in transitions[q]:
            if t not in reachable:
                reachable.add(t)
                frontier.append(t)
    keep = sorted(reachable)
    remap = {old: new for new, old in enumerate(keep)}
    return Pdfa(
        alphabet=alphabet,
        initial=0,
        emissions=tuple(emissions[q] for q in keep),
        transitions=tuple(tuple(remap[t] for t in transitions[q]) for q in keep),
    )


class _LmHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        self.server.owner._opened(self.connection)

    def do_POST(self):  # noqa: N802 (http.server API)
        owner = self.server.owner
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        truncate = owner._record(self.path, body)
        time.sleep(owner.delay_s)
        status, payload = owner.behavior(self.path, body)
        data = json.dumps(payload).encode()
        head = (
            f"HTTP/1.1 {status} X\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n"
        ).encode("ascii")
        if truncate:
            data = data[: len(data) // 2]
        # One write; closing without a "Connection: close" header is what a
        # server dropping an idle keep-alive connection looks like.
        self.wfile.write(head + data)
        self.close_connection = truncate or owner.close_after_reply

    def log_message(self, *args):  # keep test output quiet
        pass


class _LmHttpd(ThreadingHTTPServer):
    daemon_threads = False

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.owner._closed(request)

    def handle_error(self, request, client_address):
        pass  # a client that timed out leaves a reset socket behind


class LmServer:
    """In-process HTTP/1.1 keep-alive language-model stub.

    The behavior maps ``(path, body)`` to ``(status, payload)`` and is
    swappable. ``delay_s`` delays every reply, ``truncated_replies`` cuts the
    body of that many next replies short and closes, and
    ``close_after_reply`` closes every connection after its reply. The
    server counts connections: ``closed`` lets a test wait until a close
    has happened. ``close()`` (or leaving a ``with`` block) joins every
    handler thread.
    """

    def __init__(self):
        self.behavior = lambda path, body: (500, {})
        self.delay_s = 0.0
        self.truncated_replies = 0
        self.close_after_reply = False
        self.requests = []
        self.connections = 0
        self.peak_connections = 0
        self.closed = 0
        self._open = set()
        self._lock = threading.Lock()
        self._httpd = _LmHttpd(("127.0.0.1", 0), _LmHandler)
        self._httpd.owner = self
        # A short poll interval keeps shutdown() from waiting up to 0.5 s.
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.01}
        )
        self._thread.start()

    @property
    def endpoint(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}"

    def set_behavior(self, fn) -> None:
        self.behavior = fn
        self.requests.clear()

    def serve_pdfa(self, pdfa: Pdfa) -> None:
        def behavior(path, body):
            dist = pdfa.distribution_after(tuple(body["tokens"]))
            return 200, {"probs": dist.as_dict()}

        self.set_behavior(behavior)

    def wait_closed(self, count: int, timeout: float = 5.0) -> None:
        deadline = time.monotonic() + timeout
        while self.closed < count:
            assert time.monotonic() < deadline, f"{self.closed} of {count} connections closed"
            time.sleep(0.001)

    def _record(self, path, body) -> bool:
        with self._lock:
            self.requests.append((path, body))
            truncate = self.truncated_replies > 0
            self.truncated_replies -= truncate
            return truncate

    def _opened(self, conn) -> None:
        with self._lock:
            self._open.add(conn)
            self.connections += 1
            self.peak_connections = max(self.peak_connections, len(self._open))

    def _closed(self, conn) -> None:
        with self._lock:
            self._open.discard(conn)
            self.closed += 1

    def close(self) -> None:
        """Stop serving, drop idle keep-alive connections, join every thread."""
        self._httpd.shutdown()
        self._thread.join()
        with self._lock:
            for conn in self._open:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        self._httpd.server_close()  # joins the handler threads

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
