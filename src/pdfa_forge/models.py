"""Language models: total maps from words to next-symbol distributions.

These are the membership-query targets. Backends: a PDFA, synthetic unary
definitions, or a remote HTTP service speaking the wire protocol documented
in the README. A caching wrapper memoizes queries and counts hits/misses so
learners can report their query complexity.
"""

from __future__ import annotations

import abc
import json
import math
import os
import select
import socket
import ssl
import threading
import time
import weakref
from collections import deque
from typing import Callable, Iterable, Mapping
from urllib.parse import urlsplit

from .automata import Pdfa, _walk
from .distributions import (
    Alphabet,
    AlphabetMismatch,
    Distribution,
    InvalidDistribution,
)
from .words import Word

TIMEOUT_ENV_VAR = "PDFA_FORGE_LM_TIMEOUT_MS"
DISTRIBUTION_ENDPOINT = "/next_token_distribution"

#: Remote responses may deviate from sum 1 by at most this before rejection.
REMOTE_SUM_TOLERANCE = 1e-6


class LanguageModel(abc.ABC):
    """Total, deterministic word -> distribution oracle."""

    @property
    @abc.abstractmethod
    def alphabet(self) -> Alphabet: ...

    @abc.abstractmethod
    def query(self, word: Word) -> Distribution:
        """Next-symbol distribution after reading ``word``."""

    def query_many(self, words: Iterable[Word]) -> list[Distribution]:
        """The answers to ``words``, in order; a model with a faster batch
        path overrides this loop."""
        return [self.query(word) for word in words]

    def _check_word(self, word: Word) -> None:
        alphabet = self.alphabet
        if not alphabet.spells(word):
            symbol = next(s for s in word if s not in alphabet)
            raise AlphabetMismatch(f"symbol {symbol!r} not in model alphabet")


class PdfaLanguageModel(LanguageModel):
    """The language model induced by a PDFA: query = emission after the run."""

    def __init__(self, pdfa: Pdfa):
        self.pdfa = pdfa

    @property
    def alphabet(self) -> Alphabet:
        return self.pdfa.alphabet

    def query(self, word: Word) -> Distribution:
        pdfa = self.pdfa
        return pdfa.emissions[_walk(pdfa.alphabet, pdfa.transitions, pdfa.initial, word)]


# ---------------------------------------------------------------------------
# Synthetic unary models
# ---------------------------------------------------------------------------

def is_triangular(n: int) -> bool:
    """Membership in {1, 3, 6, 10, 15, 21, ...} (consecutive-gap lengths grow)."""
    if n < 1:
        return False
    root = math.isqrt(8 * n + 1)
    return root * root == 8 * n + 1


_UNARY_ALPHABET = Alphabet(("a",))


class AlternatingUnaryModel(LanguageModel):
    """Unary model flipping between two distributions on a sparse length set.

    Lengths satisfying the predicate map to {a:0.4, $:0.6}, all others to
    {a:0.6, $:0.4}. With the default triangular-number predicate the marked
    lengths have strictly growing gaps, which makes this the canonical model
    that is tolerance-close to a one-state PDFA yet admits no finite clique
    congruence.
    """

    LOW = Distribution(_UNARY_ALPHABET, (0.4, 0.6))
    HIGH = Distribution(_UNARY_ALPHABET, (0.6, 0.4))

    def __init__(self, marked_length: Callable[[int], bool] = is_triangular):
        self.marked_length = marked_length

    @property
    def alphabet(self) -> Alphabet:
        return _UNARY_ALPHABET

    def query(self, word: Word) -> Distribution:
        self._check_word(word)
        return self.LOW if self.marked_length(len(word)) else self.HIGH


class UniformUnaryModel(LanguageModel):
    """Unary model answering {a:0.5, $:0.5} for every word."""

    HALF = Distribution(_UNARY_ALPHABET, (0.5, 0.5))

    @property
    def alphabet(self) -> Alphabet:
        return _UNARY_ALPHABET

    def query(self, word: Word) -> Distribution:
        self._check_word(word)
        return self.HALF


_BUILTIN_FACTORIES: dict[str, Callable[[], LanguageModel]] = {
    "m1": AlternatingUnaryModel,
    "m1_alternating": AlternatingUnaryModel,
    "alternating-unary": AlternatingUnaryModel,
    "m2": UniformUnaryModel,
    "m2_uniform": UniformUnaryModel,
    "uniform-unary": UniformUnaryModel,
}


def synthetic_model(name: str) -> LanguageModel:
    """Built-in models by name; see the CLI's ``builtin:`` model source."""
    try:
        return _BUILTIN_FACTORIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown builtin model {name!r}; choose from {sorted(_BUILTIN_FACTORIES)}"
        ) from None


# ---------------------------------------------------------------------------
# Caching wrapper
# ---------------------------------------------------------------------------

class CachedModel(LanguageModel):
    """Memoizes an inner model; exposes hit/miss counters.

    Returns the identical Distribution objects the inner model produced.
    Thread-safe for concurrent read-only use.

    ``prefetch`` hands words the caller is about to query to the inner
    model's batch path in one call. ``query`` then answers each of them as
    it would have, counting a miss, so counts and the words the inner model
    sees, in their order, do not depend on prefetching. ``batches`` tells
    whether the inner model has a batch path of its own, so callers can
    skip building a batch that ``prefetch`` would ignore.
    """

    def __init__(self, inner: LanguageModel):
        self.inner = inner
        self.batches = type(inner).query_many is not LanguageModel.query_many
        self._cache: dict[Word, Distribution] = {}
        self._prefetched: dict[Word, Distribution] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @property
    def alphabet(self) -> Alphabet:
        return self.inner.alphabet

    def query(self, word: Word) -> Distribution:
        word = tuple(word)
        # Dict lookups and pops are atomic; the lock guards the counters and
        # the insertion only.
        cached = self._cache.get(word)
        if cached is not None:
            with self._lock:
                self.hits += 1
            return cached
        result = self._prefetched.pop(word, None)
        if result is None:
            result = self.inner.query(word)
        with self._lock:
            self.misses += 1
            return self._cache.setdefault(word, result)

    def prefetch(self, words: Iterable[Word]) -> None:
        """Ask the inner model's ``query_many`` once for the distinct words
        that are neither cached nor prefetched yet.

        Does nothing when the inner model has no batch path of its own. A
        failure propagates: it is the error that querying the words one by
        one would raise first.
        """
        if not self.batches:
            return
        cache, ready = self._cache, self._prefetched
        todo = [w for w in dict.fromkeys(map(tuple, words)) if w not in cache and w not in ready]
        if todo:
            ready.update(zip(todo, self.inner.query_many(todo)))


def cached(model: LanguageModel) -> CachedModel:
    """Wrap in a cache; reuse the wrapper if the model already is one."""
    return model if isinstance(model, CachedModel) else CachedModel(model)


# ---------------------------------------------------------------------------
# Remote HTTP model
# ---------------------------------------------------------------------------

#: Most requests a batch keeps outstanding on its connection; each takes one
#: in-flight slot.
PIPELINE_DEPTH = 16
#: Longest status, header or chunk-size line (CRLF included) and most header
#: lines per response, as ``http.client`` enforces them.
_MAX_LINE = 65536
_MAX_HEADERS = 100
_HEX_DIGITS = frozenset(b"0123456789abcdefABCDEF")


class RemoteModelError(RuntimeError):
    """The remote language-model service failed or answered out of contract."""


class RemoteModel(LanguageModel):
    """Client for an HTTP next-token-distribution service.

    POSTs ``{"tokens": [...]}`` to ``<endpoint>/next_token_distribution`` and
    expects ``{"probs": {symbol-or-"$": float, ...}}`` with status 200; any
    path in the endpoint is kept as a prefix. The endpoint must be an
    ``http`` or ``https`` URL with a host and no query, fragment or
    credentials; ``https`` is verified against the system trust store.
    Proxy variables are ignored and redirects are not followed (a 3xx is an
    unexpected status).

    ``query_many`` pipelines a batch on one HTTP/1.1 keep-alive connection
    (RFC 9112 §9.3.2), with at most ``min(max_in_flight, 16)`` requests
    outstanding; ``query`` is a batch of one. A batch takes one in-flight
    slot per outstanding request, so in-flight requests across threads
    never exceed ``max_in_flight``, and each thread holds one connection.
    Responses are read strictly: at most 100 header lines of at most 64 KiB
    each, a body framed by ``Content-Length`` or chunked, ``Connection:
    close`` and HTTP/1.0 honoured, 1xx responses skipped. Idle connections
    are reused; one the server has closed is replaced without costing an
    attempt, and so are requests left unanswered when the server closes a
    connection after answering earlier ones. ``close()``, or collecting the
    model, closes the idle connections.

    Transient failures of a word's own request (connection errors,
    timeouts, truncated or malformed replies, 5xx) are retried up to
    ``max_attempts`` times. Responses are validated, not repaired: a
    probability sum off by more than 1e-6 is an error unless
    ``renormalize`` is set. Limits are validated at construction:
    ``max_in_flight`` and ``max_attempts`` must be at least 1, the timeout
    positive and the retry backoff non-negative. A malformed endpoint raises
    ``ValueError``.
    """

    def __init__(
        self,
        endpoint: str,
        alphabet: Alphabet,
        timeout: float = 10.0,
        *,
        renormalize: bool = False,
        max_in_flight: int = 4,
        max_attempts: int = 3,
        max_query_length: int | None = None,
        retry_backoff: float = 0.2,
    ):
        self.endpoint = endpoint.rstrip("/")
        self._alphabet = alphabet
        env_ms = os.environ.get(TIMEOUT_ENV_VAR)
        self.timeout = float(env_ms) / 1000.0 if env_ms else timeout
        if not self.timeout > 0:
            source = f"{TIMEOUT_ENV_VAR}={env_ms}" if env_ms else f"timeout={timeout!r}"
            raise ValueError(f"the request timeout must be positive, got {source}")
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be at least 1, got {max_in_flight!r}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be at least 1, got {max_attempts!r}")
        if not retry_backoff >= 0:
            raise ValueError(f"retry_backoff must be non-negative, got {retry_backoff!r}")
        self.renormalize = renormalize
        self.max_attempts = max_attempts
        self.max_query_length = max_query_length
        self.retry_backoff = retry_backoff
        self._url = self.endpoint + DISTRIBUTION_ENDPOINT
        self._tls, self._host, self._port, path, host_header = _split_endpoint(self.endpoint)
        self._head = (
            f"POST {path} HTTP/1.1\r\nHost: {host_header}\r\n"
            "Accept-Encoding: identity\r\nContent-Type: application/json\r\n"
            "Content-Length: "
        ).encode("ascii")
        self._ssl_context: ssl.SSLContext | None = None
        self._depth = min(max_in_flight, PIPELINE_DEPTH)
        self._slots = threading.BoundedSemaphore(max_in_flight)
        # A batch takes its slots under this lock, so two batches never wait
        # for each other's half-taken slots.
        self._slots_lock = threading.Lock()
        # Idle keep-alive connections, closed with the model rather than
        # left to the garbage collector.
        self._idle: list[_Connection] = []
        self._idle_lock = threading.Lock()
        weakref.finalize(self, _close_all, self._idle)

    @property
    def alphabet(self) -> Alphabet:
        return self._alphabet

    def query(self, word: Word) -> Distribution:
        return self.query_many((word,))[0]

    def query_many(self, words: Iterable[Word]) -> list[Distribution]:
        """The answers to ``words``, in order, pipelined on one connection.

        Each distinct word is sent once. Raises what ``query`` raises for
        the first word that fails for good; up to the pipeline depth of
        words after it may have been sent by then.
        """
        requests: list[bytes] = []
        position: dict[Word, int] = {}
        order: list[int] = []
        rejected: Exception | None = None
        for word in words:
            word = tuple(word)
            i = position.get(word)
            if i is None:
                try:
                    request = self._request(word)
                except (AlphabetMismatch, RemoteModelError) as exc:
                    rejected = exc
                    break
                i = position[word] = len(requests)
                requests.append(request)
            order.append(i)
        answers = self._exchange(requests)
        if rejected is not None:
            raise rejected
        return [answers[i] for i in order]

    def _request(self, word: Word) -> bytes:
        self._check_word(word)
        if self.max_query_length is not None and len(word) > self.max_query_length:
            raise RemoteModelError(
                f"query length {len(word)} exceeds the configured limit "
                f"{self.max_query_length}"
            )
        body = json.dumps({"tokens": list(word)}).encode()
        return b"%s%d\r\n\r\n%s" % (self._head, len(body), body)

    def _exchange(self, requests: list[bytes]) -> list[Distribution]:
        """Send ``requests`` pipelined on one connection; answers in order."""
        if not requests:
            return []
        depth = min(self._depth, len(requests))
        with self._slots_lock:
            for _ in range(depth):
                self._slots.acquire()
        try:
            return self._pipeline(requests, depth)
        finally:
            for _ in range(depth):
                self._slots.release()

    def _pipeline(self, requests: list[bytes], depth: int) -> list[Distribution]:
        """Keep ``depth`` requests outstanding until every one is answered.

        Responses come back in request order. A failure is charged to the
        request whose response was being read; the requests written after it
        are sent again at no cost. Once a word fails for good, no later word
        is sent, and the words before it are still finished, so the error
        raised is the first one ``query`` would meet.
        """
        n = len(requests)
        answers: list = [None] * n
        attempts = [0] * n
        todo = deque(range(n))  # to write, in order
        sent: deque[int] = deque()  # written, answered in this order
        first_failed, failure = n, None

        def give_up(i: int, exc: Exception) -> None:
            nonlocal first_failed, failure
            if i < first_failed:
                first_failed, failure = i, exc
                kept = [j for j in todo if j < i]
                todo.clear()
                todo.extend(kept)

        def charge(i: int, cause: object) -> None:
            attempts[i] += 1
            if attempts[i] < self.max_attempts:
                todo.appendleft(i)
            else:
                give_up(i, RemoteModelError(
                    f"request to {self._url} failed after {self.max_attempts} attempts: {cause}"
                ))

        def resend_unanswered() -> None:
            todo.extendleft(j for j in reversed(sent) if j < first_failed)
            sent.clear()

        conn: _Connection | None = None
        try:
            while todo or sent:
                if conn is None:
                    try:
                        conn = self._connection()
                    except OSError as exc:
                        charge(todo.popleft(), exc)
                        continue
                    answered = 0
                batch = []
                while todo and len(sent) < depth:
                    i = todo.popleft()
                    if attempts[i]:
                        time.sleep(self.retry_backoff * attempts[i])
                    batch.append(requests[i])
                    sent.append(i)
                try:
                    if batch:
                        conn.send(b"".join(batch))
                    status, body, keep_alive = conn.read_response()
                except (OSError, _ProtocolError) as exc:
                    conn.close()
                    conn = None
                    i = sent.popleft()
                    resend_unanswered()
                    if i >= first_failed:
                        pass
                    elif isinstance(exc, _Unanswered) and answered:
                        todo.appendleft(i)  # the server closed between responses
                    else:
                        charge(i, exc)
                    continue
                answered += 1
                i = sent.popleft()
                if not keep_alive:
                    conn.close()
                    conn = None
                    resend_unanswered()
                if i >= first_failed:
                    continue
                if 500 <= status < 600:
                    charge(i, f"server error {status} from {self._url}")
                elif status != 200:
                    give_up(i, RemoteModelError(f"unexpected status {status} from {self._url}"))
                else:
                    try:
                        answers[i] = self._parse(body)
                    except RemoteModelError as exc:
                        give_up(i, exc)
        except BaseException:
            if conn is not None:
                conn.close()
            raise
        if conn is not None:
            with self._idle_lock:
                self._idle.append(conn)
        if failure is not None:
            raise failure
        return answers

    def _connection(self) -> _Connection:
        """An idle connection the server has not closed, or a new one."""
        with self._idle_lock:
            conn = self._idle.pop() if self._idle else None
        if conn is not None:
            # An idle socket turns readable when the server closed it (or
            # sent bytes out of turn).
            if not _readable(conn.sock):
                return conn
            conn.close()
        sock = socket.create_connection((self._host, self._port), self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls:
                if self._ssl_context is None:
                    self._ssl_context = ssl.create_default_context()
                sock = self._ssl_context.wrap_socket(sock, server_hostname=self._host)
            return _Connection(sock)
        except BaseException:
            sock.close()
            raise

    def close(self) -> None:
        """Close the idle connections; a later query opens new ones."""
        with self._idle_lock:
            _close_all(self._idle)

    def _parse(self, body: bytes) -> Distribution:
        try:
            probs = json.loads(body)["probs"]
        except (ValueError, KeyError, TypeError) as exc:
            raise RemoteModelError(f"malformed response body: {exc}") from None
        if not isinstance(probs, Mapping):
            raise RemoteModelError(f"'probs' must be an object, got {type(probs).__name__}")
        expected = set(self._alphabet.extended)
        if set(probs) != expected:
            raise RemoteModelError(
                f"response symbols {sorted(probs)} do not match alphabet "
                f"{sorted(expected)}"
            )
        for sym, p in probs.items():
            # JSON numbers arrive as int or float; float() would also take
            # strings such as "0.5" and the booleans true and false.
            if isinstance(p, bool) or not isinstance(p, (int, float)):
                raise RemoteModelError(
                    f"probability of {sym!r} must be a number, got {type(p).__name__}"
                )
        values = {sym: float(p) for sym, p in probs.items()}
        if any(p < 0 for p in values.values()):
            raise RemoteModelError(f"negative probability in response: {values}")
        total = sum(values.values())
        if abs(total - 1.0) > REMOTE_SUM_TOLERANCE and not self.renormalize:
            raise RemoteModelError(
                f"probabilities sum to {total!r}; pass renormalize to accept"
            )
        if total <= 0:
            raise RemoteModelError("probabilities sum to zero; cannot renormalize")
        scaled = {sym: p / total for sym, p in values.items()}
        try:
            return Distribution.from_map(self._alphabet, scaled)
        except InvalidDistribution as exc:
            raise RemoteModelError(f"invalid distribution in response: {exc}") from None


def _split_endpoint(endpoint: str) -> tuple[bool, str, int, str, str]:
    """Whether TLS is used, host, port, request path and ``Host`` header."""
    try:
        parts = urlsplit(endpoint)
        port = parts.port
    except ValueError as exc:
        raise ValueError(f"invalid endpoint {endpoint!r}: {exc}") from None
    if parts.scheme not in ("http", "https"):
        raise ValueError(f"endpoint {endpoint!r} must be an http:// or https:// URL")
    if not parts.hostname:
        raise ValueError(f"endpoint {endpoint!r} has no host")
    if parts.query or parts.fragment:
        raise ValueError(f"endpoint {endpoint!r} must not have a query or fragment")
    if parts.username is not None:
        raise ValueError(f"endpoint {endpoint!r} must not carry credentials")
    # The path goes on the request line as is: it must be ASCII without spaces.
    if not parts.path.isascii() or any(c <= " " or c == "\x7f" for c in parts.path):
        raise ValueError(f"endpoint {endpoint!r} has a path that needs escaping")
    host = parts.hostname
    try:
        host_header = host.encode("idna").decode("ascii")
    except UnicodeError as exc:
        raise ValueError(f"invalid endpoint {endpoint!r}: {exc}") from None
    if ":" in host:
        host_header = f"[{host_header}]"
    tls = parts.scheme == "https"
    default_port = 443 if tls else 80
    if port is not None and port != default_port:
        host_header = f"{host_header}:{port}"
    return (
        tls,
        host,
        default_port if port is None else port,
        parts.path + DISTRIBUTION_ENDPOINT,
        host_header,
    )


class _ProtocolError(Exception):
    """A reply that breaks HTTP/1.1 framing; the connection is unusable."""


class _Unanswered(_ProtocolError):
    """The connection closed before any byte of the next response."""


class _Connection:
    """A keep-alive HTTP/1.1 client connection with a strict response reader."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._file = sock.makefile("rb")

    def close(self) -> None:
        self._file.close()
        self.sock.close()

    def send(self, data: bytes) -> None:
        try:
            self.sock.sendall(data)
        except ConnectionError as exc:
            raise _Unanswered(f"connection closed: {exc}") from None

    def read_response(self) -> tuple[int, bytes, bool]:
        """The next final response: status, body, and whether the
        connection stays open."""
        try:
            line = self._file.readline(_MAX_LINE + 1)
        except ConnectionError as exc:
            raise _Unanswered(f"connection closed: {exc}") from None
        if not line:
            raise _Unanswered("remote end closed connection without response")
        while True:
            version, status = _status_line(self._complete(line))
            headers = self._headers()
            if status >= 200:
                break
            if status == 101:  # the connection would stop speaking HTTP
                raise _ProtocolError("unrequested 101 Switching Protocols")
            line = self._file.readline(_MAX_LINE + 1)  # after an interim reply
        connection = {
            token.strip().lower() for v in headers.get(b"connection", ()) for token in v.split(b",")
        }
        keep_alive = b"close" not in connection and (
            version == b"HTTP/1.1" or b"keep-alive" in connection
        )
        codings = headers.get(b"transfer-encoding")
        lengths = headers.get(b"content-length")
        if status in (204, 304):
            body = b""
        elif codings is not None:
            if lengths is not None:
                raise _ProtocolError("both Transfer-Encoding and Content-Length")
            if [c.strip().lower() for v in codings for c in v.split(b",")] != [b"chunked"]:
                raise _ProtocolError(f"unsupported transfer coding {b', '.join(codings)!r}")
            body = self._chunked()
        elif lengths is not None:
            values = {c.strip() for v in lengths for c in v.split(b",")}
            length = values.pop() if len(values) == 1 else b""
            if not length.isdigit():
                raise _ProtocolError(f"malformed Content-Length {b', '.join(lengths)!r}")
            body = self._exactly(int(length))
        else:  # the body runs to the end of the connection
            body = self._file.read()
            keep_alive = False
        return status, body, keep_alive

    def _complete(self, line: bytes) -> bytes:
        if len(line) > _MAX_LINE:
            raise _ProtocolError(f"response line longer than {_MAX_LINE} bytes")
        if not line.endswith(b"\n"):
            raise _ProtocolError("connection closed mid-response")
        return line

    def _headers(self) -> dict[bytes, list[bytes]]:
        headers: dict[bytes, list[bytes]] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = self._complete(self._file.readline(_MAX_LINE + 1))
            if line in (b"\r\n", b"\n"):
                return headers
            name, colon, value = line.partition(b":")
            if not colon or not name or name.strip() != name:
                raise _ProtocolError(f"malformed header line {line[:80]!r}")
            headers.setdefault(name.lower(), []).append(value.strip())
        raise _ProtocolError(f"more than {_MAX_HEADERS} header lines")

    def _exactly(self, n: int) -> bytes:
        data = self._file.read(n)
        if len(data) < n:
            raise _ProtocolError(f"connection closed after {len(data)} of {n} body bytes")
        return data

    def _chunked(self) -> bytes:
        chunks = []
        while True:
            line = self._complete(self._file.readline(_MAX_LINE + 1))
            size = line.split(b";", 1)[0].strip()
            if not size or not _HEX_DIGITS.issuperset(size):
                raise _ProtocolError(f"malformed chunk size line {line[:80]!r}")
            if not int(size, 16):
                break
            chunk = self._exactly(int(size, 16) + 2)
            if chunk[-2:] != b"\r\n":
                raise _ProtocolError("chunk data not followed by CRLF")
            chunks.append(chunk[:-2])
        self._headers()  # the trailer section
        return b"".join(chunks)


def _status_line(line: bytes) -> tuple[bytes, int]:
    parts = line.split(None, 2)
    if (
        len(parts) < 2
        or parts[0] not in (b"HTTP/1.0", b"HTTP/1.1")
        or len(parts[1]) != 3
        or not parts[1].isdigit()
        or parts[1] < b"100"
    ):
        raise _ProtocolError(f"malformed status line {line[:80]!r}")
    return parts[0], int(parts[1])


def _close_all(connections: list[_Connection]) -> None:
    while connections:
        connections.pop().close()


def _readable(sock) -> bool:
    """Whether ``sock`` has data or end-of-file waiting, without blocking."""
    # select() cannot watch descriptors above FD_SETSIZE (1024 on Linux);
    # poll() can, but does not exist on Windows.
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])
