"""Language models: total maps from words to next-symbol distributions.

These are the membership-query targets. Backends: a PDFA, synthetic unary
definitions, or a remote HTTP service speaking the wire protocol documented
in the README. A caching wrapper memoizes queries and counts hits/misses so
learners can report their query complexity.
"""

from __future__ import annotations

import abc
import io
import json
import math
import select
import socket
import ssl
import threading
import time
import weakref
from typing import Callable, Iterable, Mapping
from urllib.parse import urlsplit

from .automata import Pdfa, _walk, decode_json
from .distributions import (
    Alphabet,
    Distribution,
    InvalidDistribution,
    require_limit,
)
from .words import Word

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
            raise alphabet._mismatch(next(s for s in word if s not in alphabet))


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

    Triangular lengths (``marked_length``) map to {a:0.4, $:0.6}, all others
    to {a:0.6, $:0.4}. The marked lengths have strictly growing gaps, which
    makes this the canonical model that is tolerance-close to a one-state
    PDFA yet admits no finite clique congruence.
    """

    LOW = Distribution(_UNARY_ALPHABET, (0.4, 0.6))
    HIGH = Distribution(_UNARY_ALPHABET, (0.6, 0.4))

    marked_length = staticmethod(is_triangular)

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
    "m2": UniformUnaryModel,
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
    Thread-safe for concurrent read-only use, and ``query`` takes no lock:
    dict ``get``, ``pop`` and ``setdefault`` on word tuples are atomic, and
    each querying thread counts into its own ``[hits, misses]`` tally, so
    no count is lost. ``hits`` and ``misses`` sum the tallies when read.
    Two threads missing the same word at once both ask the inner model and
    both count a miss; both get the answer cached first.

    ``prefetch`` hands words the caller is about to query to the inner
    model's batch path in one call. ``query`` then answers each of them as
    it would have, counting a miss, so counts and the words the inner model
    sees, in their order, do not depend on prefetching. ``batches`` tells
    whether the inner model has a batch path of its own; without one,
    ``prefetch`` does nothing. ``peek`` reads a cached answer without
    counting it, so a caller that keeps the words it queried needs no store
    of its own.
    """

    def __init__(self, inner: LanguageModel):
        self.inner = inner
        self.batches = type(inner).query_many is not LanguageModel.query_many
        self._cache: dict[Word, Distribution] = {}
        self._prefetched: dict[Word, Distribution] = {}
        # One [hits, misses] list per thread that has queried; only that
        # thread writes it, and the lock guards the list of tallies.
        self._local = threading.local()
        self._tallies: list[list[int]] = []
        self._tallies_lock = threading.Lock()

    @property
    def alphabet(self) -> Alphabet:
        return self.inner.alphabet

    @property
    def hits(self) -> int:
        """Queries answered from the cache, over all threads."""
        with self._tallies_lock:
            return sum(tally[0] for tally in self._tallies)

    @property
    def misses(self) -> int:
        """Queries passed on to the inner model (or its prefetched answers)."""
        with self._tallies_lock:
            return sum(tally[1] for tally in self._tallies)

    def _tally(self) -> list[int]:
        """Register the calling thread's first query."""
        tally = self._local.tally = [0, 0]
        with self._tallies_lock:
            self._tallies.append(tally)
        return tally

    def query(self, word: Word) -> Distribution:
        word = tuple(word)
        try:
            tally = self._local.tally
        except AttributeError:
            tally = self._tally()
        cached = self._cache.get(word)
        if cached is not None:
            tally[0] += 1
            return cached
        ready = self._prefetched
        result = ready.pop(word, None) if ready else None
        if result is None:
            result = self.inner.query(word)
        tally[1] += 1
        return self._cache.setdefault(word, result)

    def peek(self, word: Word) -> Distribution:
        """The cached answer to ``word``, counted neither as a hit nor as a
        miss; ``KeyError`` when ``word`` was never queried."""
        return self._cache[word]

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

#: Attempts a word's request gets before its failure is final.
MAX_ATTEMPTS = 3
#: Most bytes a reply body may hold, checked before it is read; a JSON map
#: of a thousand symbols takes a few dozen KiB.
MAX_REPLY_BYTES = 1 << 20
#: Seconds slept before a word's retry, times the attempts it has spent.
RETRY_BACKOFF_S = 0.2
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

    ``query_many`` sends a batch one request at a time on one HTTP/1.1
    keep-alive connection: each reply is read in full before the next word
    goes out. ``query`` is a batch of one. The model holds at most one
    connection: a batch holds the model's lock from its first request to
    its last answer, so threads are safe and take turns. Responses are read
    strictly: at most 100 header lines of at most 64 KiB each, a body of
    at most ``MAX_REPLY_BYTES`` framed by ``Content-Length``, chunked or
    the connection's close, ``Connection: close`` and HTTP/1.0 honoured,
    1xx responses skipped. The idle connection is reused; a request that
    finds it closed by the server before any byte of its reply goes out
    again on a new connection without costing an attempt.
    ``close()``, or collecting the model, closes the idle connection.

    Transient failures of a word's request (connection errors, timeouts,
    truncated or malformed replies, 5xx) are retried up to
    ``MAX_ATTEMPTS`` times. Responses are validated, not repaired: a
    probability sum off by more than 1e-6 is an error unless
    ``renormalize`` is set. Limits are validated at construction:
    ``max_query_length`` must be ``None`` or a non-negative ``int`` and the
    timeout a positive number (no ``bool``) of at most
    ``threading.TIMEOUT_MAX`` seconds, the most a socket can wait. A
    malformed endpoint raises ``ValueError``.
    """

    def __init__(
        self,
        endpoint: str,
        alphabet: Alphabet,
        timeout: float = 10.0,
        *,
        renormalize: bool = False,
        max_query_length: int | None = None,
    ):
        self.endpoint = endpoint.rstrip("/")
        self._alphabet = alphabet
        if isinstance(timeout, bool) or not 0 < timeout <= threading.TIMEOUT_MAX:
            raise ValueError(
                "the request timeout must be a positive number of seconds up to "
                f"{threading.TIMEOUT_MAX:.0f}, got timeout={timeout!r}"
            )
        self.timeout = timeout
        if max_query_length is not None:
            require_limit("max_query_length", max_query_length, 0)
        self.renormalize = renormalize
        self.max_query_length = max_query_length
        self._url = self.endpoint + DISTRIBUTION_ENDPOINT
        self._tls, self._host, self._port, path, host_header = _split_endpoint(self.endpoint)
        self._head = (
            f"POST {path} HTTP/1.1\r\nHost: {host_header}\r\n"
            "Accept-Encoding: identity\r\nContent-Type: application/json\r\n"
            "Content-Length: "
        ).encode("ascii")
        self._ssl_context: ssl.SSLContext | None = None
        self._lock = threading.Lock()
        # The idle keep-alive connection, if any, closed with the model
        # rather than left to the garbage collector.
        self._idle: list[_Connection] = []
        weakref.finalize(self, _close_all, self._idle)

    @property
    def alphabet(self) -> Alphabet:
        return self._alphabet

    def query(self, word: Word) -> Distribution:
        return self.query_many((word,))[0]

    def query_many(self, words: Iterable[Word]) -> list[Distribution]:
        """The answers to ``words``, in order, one request at a time.

        Each word is sent as given, so a repeated word is sent again;
        ``CachedModel.prefetch`` passes distinct words. Raises what
        ``query`` raises for the first word that fails for good, once the
        words before it are answered; no later word is sent.
        """
        words = [tuple(word) for word in words]  # read outside the lock
        with self._lock:
            return [self._exchange(self._request(word)) for word in words]

    def _request(self, word: Word) -> bytes:
        self._check_word(word)
        if self.max_query_length is not None and len(word) > self.max_query_length:
            raise RemoteModelError(
                f"query length {len(word)} exceeds the configured limit "
                f"{self.max_query_length}"
            )
        body = json.dumps({"tokens": list(word)}).encode()
        return b"%s%d\r\n\r\n%s" % (self._head, len(body), body)

    def _exchange(self, request: bytes) -> Distribution:
        """The answer to ``request``, retried as the class says; the caller
        holds the model's lock."""
        attempts = 0
        while True:
            conn, reused = None, False
            try:
                conn, reused = self._connection()
                conn.send(request)
                status, body, keep_alive = conn.read_response()
            except BaseException as exc:
                if conn is not None:
                    conn.close()
                if not isinstance(exc, (OSError, _ProtocolError)):
                    raise
                if reused and isinstance(exc, _Unanswered):
                    continue  # the server dropped the idle connection
                failure = exc
            else:
                if keep_alive:
                    self._idle.append(conn)
                else:
                    conn.close()
                if status == 200:
                    return self._parse(body)
                if not 500 <= status < 600:
                    raise RemoteModelError(f"unexpected status {status} from {self._url}")
                failure = f"server error {status} from {self._url}"
            attempts += 1
            if attempts == MAX_ATTEMPTS:
                raise RemoteModelError(
                    f"request to {self._url} failed after {MAX_ATTEMPTS} attempts: {failure}"
                )
            time.sleep(RETRY_BACKOFF_S * attempts)

    def _connection(self) -> tuple[_Connection, bool]:
        """The idle connection if the server has not closed it, or a new
        one; and whether it is the idle one."""
        conn = self._idle.pop() if self._idle else None
        if conn is not None:
            # An idle socket turns readable when the server closed it (or
            # sent bytes out of turn).
            if not _readable(conn.sock):
                return conn, True
            conn.close()
        sock = socket.create_connection((self._host, self._port), self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls:
                if self._ssl_context is None:
                    self._ssl_context = ssl.create_default_context()
                sock = self._ssl_context.wrap_socket(sock, server_hostname=self._host)
            return _Connection(sock), False
        except BaseException:
            sock.close()
            raise

    def close(self) -> None:
        """Close the idle connection; a later query opens a new one."""
        with self._lock:
            _close_all(self._idle)

    def _parse(self, body: bytes) -> Distribution:
        try:
            probs = decode_json(body)["probs"]
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise RemoteModelError(f"malformed response body: {exc}") from None
        if not isinstance(probs, Mapping):
            raise RemoteModelError(f"'probs' must be an object, got {type(probs).__name__}")
        expected = set(self._alphabet.extended)
        if set(probs) != expected:
            raise RemoteModelError(
                f"response symbols {sorted(probs)} do not match alphabet "
                f"{sorted(expected)}"
            )
        values = {}
        for sym, p in probs.items():
            # JSON numbers arrive as int or float; float() would also take
            # strings such as "0.5" and the booleans true and false.
            if isinstance(p, bool) or not isinstance(p, (int, float)):
                raise RemoteModelError(
                    f"probability of {sym!r} must be a number, got {type(p).__name__}"
                )
            try:
                values[sym] = float(p)
            except OverflowError:  # an integer beyond the float range
                raise RemoteModelError(f"probability of {sym!r} is too large for a float") from None
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
    """The connection closed before any byte of the response."""


class _DeadlineReader(io.RawIOBase):
    """The receiving side of a socket, each receive of which waits only
    until ``deadline`` (a ``time.monotonic`` reading)."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.deadline = 0.0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("timed out")  # the socket's own message
        self.sock.settimeout(left)
        return self.sock.recv_into(buffer)


class _Connection:
    """A keep-alive HTTP/1.1 client connection with a strict response reader.

    The socket's timeout when the connection is made bounds each send and
    each response as a whole, from the start of its reading to its last
    byte, however the server spaces its bytes.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._timeout = sock.gettimeout()
        self._reader = _DeadlineReader(sock)
        self._file = io.BufferedReader(self._reader)

    def close(self) -> None:
        self._file.close()
        self.sock.close()

    def send(self, data: bytes) -> None:
        self.sock.settimeout(self._timeout)  # a read leaves it at its time left
        try:
            self.sock.sendall(data)
        except ConnectionError as exc:
            raise _Unanswered(f"connection closed: {exc}") from None

    def read_response(self) -> tuple[int, bytes, bool]:
        """The next final response: status, body, and whether the
        connection stays open."""
        self._reader.deadline = time.monotonic() + self._timeout
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
            # int() refuses over 4,300 digits; one digit past the cap's width
            # is already over it.
            digits = length.lstrip(b"0")[: len(str(MAX_REPLY_BYTES)) + 1] or b"0"
            body = self._exactly(_within_cap(int(digits)))
        else:  # the body runs to the end of the connection
            body = self._file.read(MAX_REPLY_BYTES + 1)
            _within_cap(len(body))
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
        total = 0
        while True:
            line = self._complete(self._file.readline(_MAX_LINE + 1))
            digits = line.split(b";", 1)[0].strip()
            if not digits or not _HEX_DIGITS.issuperset(digits):
                raise _ProtocolError(f"malformed chunk size line {line[:80]!r}")
            size = int(digits, 16)
            if not size:
                break
            total = _within_cap(total + size)
            chunk = self._exactly(size + 2)
            if chunk[-2:] != b"\r\n":
                raise _ProtocolError("chunk data not followed by CRLF")
            chunks.append(chunk[:-2])
        self._headers()  # the trailer section
        return b"".join(chunks)


def _within_cap(size: int) -> int:
    """``size``, if a reply body of that many bytes is allowed."""
    if size > MAX_REPLY_BYTES:
        raise _ProtocolError(f"reply body longer than {MAX_REPLY_BYTES} bytes")
    return size


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
