"""Language models: total maps from words to next-symbol distributions.

These are the membership-query targets. Backends: a PDFA, synthetic unary
definitions, or a remote HTTP service speaking the wire protocol documented
in the README. A caching wrapper memoizes queries and counts hits/misses so
learners can report their query complexity.
"""

from __future__ import annotations

import abc
import math
import os
import threading
import time
from typing import Callable, Mapping

import requests

from .automata import Pdfa
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
        for symbol in word:
            if symbol not in self.alphabet:
                raise AlphabetMismatch(f"symbol {symbol!r} not in model alphabet")


class PdfaLanguageModel(LanguageModel):
    """The language model induced by a PDFA: query = emission after the run."""

    def __init__(self, pdfa: Pdfa):
        self.pdfa = pdfa

    @property
    def alphabet(self) -> Alphabet:
        return self.pdfa.alphabet

    def query(self, word: Word) -> Distribution:
        return self.pdfa.distribution_after(word)


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
        with self._lock:
            cached = self._cache.get(word)
            if cached is not None:
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
    expects ``{"probs": {symbol-or-"$": float, ...}}`` with status 200.
    Transient failures (connection errors, timeouts, 5xx) are retried up to
    ``max_attempts`` times. Responses are validated, not repaired: a
    probability sum off by more than 1e-6 is an error unless ``renormalize``
    is set. In-flight requests are bounded by a semaphore. Limits are
    validated at construction: ``max_in_flight`` and ``max_attempts`` must be
    at least 1, the timeout positive and the retry backoff non-negative.
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
        self._session = requests.Session()
        self._slots = threading.BoundedSemaphore(max_in_flight)

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
        payload = {"tokens": list(word)}
        url = self.endpoint + DISTRIBUTION_ENDPOINT
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(self.retry_backoff * attempt)
            try:
                with self._slots:
                    response = self._session.post(url, json=payload, timeout=self.timeout)
            except (requests.ConnectionError, requests.Timeout) as exc:
                last_error = exc
                continue
            if 500 <= response.status_code < 600:
                last_error = RemoteModelError(
                    f"server error {response.status_code} from {url}"
                )
                continue
            if response.status_code != 200:
                raise RemoteModelError(f"unexpected status {response.status_code} from {url}")
            return self._parse(response)
        raise RemoteModelError(
            f"request to {url} failed after {self.max_attempts} attempts: {last_error}"
        )

    def _parse(self, response: requests.Response) -> Distribution:
        try:
            probs = response.json()["probs"]
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
