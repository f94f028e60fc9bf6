"""Language models: total maps from words to next-symbol distributions.

These are the membership-query targets. Backends: a PDFA, synthetic unary
definitions, or a remote HTTP service speaking the wire protocol documented
in the README. A caching wrapper memoizes queries and counts hits/misses so
learners can report their query complexity.
"""

from __future__ import annotations

import abc
import http.client
import json
import math
import os
import select
import threading
import time
import weakref
from typing import Callable, Mapping
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
    """

    def __init__(self, inner: LanguageModel):
        self.inner = inner
        self._cache: dict[Word, Distribution] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @property
    def alphabet(self) -> Alphabet:
        return self.inner.alphabet

    def query(self, word: Word) -> Distribution:
        word = tuple(word)
        # A dict lookup is atomic; the lock guards the counters and the
        # insertion only.
        cached = self._cache.get(word)
        if cached is not None:
            with self._lock:
                self.hits += 1
            return cached
        result = self.inner.query(word)
        with self._lock:
            self.misses += 1
            return self._cache.setdefault(word, result)


def cached(model: LanguageModel) -> CachedModel:
    """Wrap in a cache; reuse the wrapper if the model already is one."""
    return model if isinstance(model, CachedModel) else CachedModel(model)


# ---------------------------------------------------------------------------
# Remote HTTP model
# ---------------------------------------------------------------------------

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
    unexpected status). Connections are kept alive and reused, at most one
    per in-flight slot; an idle connection the server has closed is replaced
    without costing an attempt. ``close()``, or collecting the model, closes
    the idle connections. Transient failures (connection errors,
    timeouts, truncated replies, 5xx) are retried up to ``max_attempts``
    times. Responses are validated, not repaired: a probability sum off by
    more than 1e-6 is an error unless ``renormalize`` is set. In-flight
    requests are bounded by a semaphore. Limits are validated at
    construction: ``max_in_flight`` and ``max_attempts`` must be at least 1,
    the timeout positive and the retry backoff non-negative. A malformed
    endpoint raises ``ValueError``.
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
        self._connection_class, self._host, self._port, self._path = _split_endpoint(
            self.endpoint
        )
        self._slots = threading.BoundedSemaphore(max_in_flight)
        # Idle keep-alive connections; at most one per slot is ever created.
        # They are closed with the model, not left to the garbage collector.
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()
        weakref.finalize(self, _close_all, self._idle)

    @property
    def alphabet(self) -> Alphabet:
        return self._alphabet

    def query(self, word: Word) -> Distribution:
        self._check_word(word)
        if self.max_query_length is not None and len(word) > self.max_query_length:
            raise RemoteModelError(
                f"query length {len(word)} exceeds the configured limit "
                f"{self.max_query_length}"
            )
        payload = json.dumps({"tokens": list(word)}).encode()
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(self.retry_backoff * attempt)
            try:
                with self._slots:
                    status, body = self._post(payload)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            if 500 <= status < 600:
                last_error = RemoteModelError(f"server error {status} from {self._url}")
                continue
            if status != 200:
                raise RemoteModelError(f"unexpected status {status} from {self._url}")
            return self._parse(body)
        raise RemoteModelError(
            f"request to {self._url} failed after {self.max_attempts} attempts: {last_error}"
        )

    def _post(self, payload: bytes) -> tuple[int, bytes]:
        """One POST on an idle connection or a new one; the body is read whole."""
        with self._idle_lock:
            conn = self._idle.pop() if self._idle else None
        if conn is None:
            conn = self._connection_class(self._host, self._port, timeout=self.timeout)
        elif conn.sock is not None and _readable(conn.sock):
            # An idle socket turns readable when the server closed it (or sent
            # bytes out of turn); request() then opens a fresh one.
            conn.close()
        try:
            conn.request("POST", self._path, payload, _JSON_HEADERS)
            response = conn.getresponse()
            body = response.read()
        except BaseException:
            conn.close()
            raise
        with self._idle_lock:
            self._idle.append(conn)
        return response.status, body

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


_JSON_HEADERS = {"Content-Type": "application/json"}


def _split_endpoint(endpoint: str) -> tuple[type[http.client.HTTPConnection], str, int, str]:
    """Connection class, host, port and request path for an endpoint URL."""
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
    # http.client sends the path as is: it must be ASCII without spaces.
    if not parts.path.isascii() or any(c <= " " or c == "\x7f" for c in parts.path):
        raise ValueError(f"endpoint {endpoint!r} has a path that needs escaping")
    if parts.scheme == "https":
        connection_class = http.client.HTTPSConnection
    else:
        connection_class = http.client.HTTPConnection
    return (
        connection_class,
        parts.hostname,
        connection_class.default_port if port is None else port,
        parts.path + DISTRIBUTION_ENDPOINT,
    )


def _close_all(connections: list[http.client.HTTPConnection]) -> None:
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
