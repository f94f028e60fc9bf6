"""Shared test helpers: fixture automata, random generators, HTTP LM stub."""

from __future__ import annotations

import json
import random
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

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
    def do_POST(self):  # noqa: N802 (http.server API)
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        self.server.requests.append((self.path, body))
        status, payload = self.server.behavior(self.path, body)
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # keep test output quiet
        pass


class LmServer:
    """In-process HTTP language-model stub with a swappable behavior."""

    def __init__(self):
        self._httpd = HTTPServer(("127.0.0.1", 0), _LmHandler)
        self._httpd.requests = []
        self._httpd.behavior = lambda path, body: (500, {})
        # A short poll interval keeps shutdown() from waiting up to 0.5 s.
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self._thread.start()

    @property
    def endpoint(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}"

    @property
    def requests(self) -> list:
        return self._httpd.requests

    def set_behavior(self, fn) -> None:
        self._httpd.behavior = fn
        self._httpd.requests.clear()

    def serve_pdfa(self, pdfa: Pdfa) -> None:
        def behavior(path, body):
            dist = pdfa.distribution_after(tuple(body["tokens"]))
            return 200, {"probs": dist.as_dict()}

        self.set_behavior(behavior)

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
