"""Language models: total maps from words to next-symbol distributions.

These are the membership-query targets. Backends: a PDFA and synthetic unary
definitions here, and a remote HTTP service in ``remote``. A caching wrapper
memoizes queries and counts hits/misses so learners can report their query
complexity.
"""

from __future__ import annotations

import abc
import math
import threading
from typing import Callable

from .automata import Pdfa, _walk
from .distributions import Alphabet, Distribution
from .words import Word


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
    dict ``get`` and ``setdefault`` on word tuples are atomic, and
    each querying thread counts into its own ``[hits, misses]`` tally, so
    no count is lost. ``hits`` and ``misses`` sum the tallies when read.
    Two threads missing the same word at once both ask the inner model and
    both count a miss; both get the answer cached first.

    ``peek`` reads a cached answer without counting it, so a caller that
    keeps the words it queried needs no store of its own.
    """

    def __init__(self, inner: LanguageModel):
        self.inner = inner
        self._cache: dict[Word, Distribution] = {}
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
        """Queries passed on to the inner model."""
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
        result = self.inner.query(word)
        tally[1] += 1
        return self._cache.setdefault(word, result)

    def peek(self, word: Word) -> Distribution:
        """The cached answer to ``word``, counted neither as a hit nor as a
        miss; ``KeyError`` when ``word`` was never queried."""
        return self._cache[word]


def cached(model: LanguageModel) -> CachedModel:
    """Wrap in a cache; reuse the wrapper if the model already is one."""
    return model if isinstance(model, CachedModel) else CachedModel(model)
