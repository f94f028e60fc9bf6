"""Probability distributions over a terminal-extended alphabet.

An alphabet is an ordered set of plain symbols; the terminal symbol ``$``
is implicit and always last. A distribution assigns a probability to every
symbol including the terminal. Both types are immutable values, so they are
safe to share between threads and to use as dictionary keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

TERMINAL = "$"

#: |sum(probs) - 1| must stay below this for a vector to count as a distribution.
SUM_TOLERANCE = 1e-9

#: Probabilities above this count as support membership (LM outputs carry float noise).
SUPPORT_EPS = 1e-9


class AlphabetMismatch(ValueError):
    """Operands disagree on their alphabet."""


class InvalidDistribution(ValueError):
    """A probability vector violates the distribution invariants."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered, duplicate-free symbols; ordering breaks ranking ties.

    The ordering is total and fixed for the lifetime of the alphabet.
    ``columns`` maps each plain symbol (not ``$``) to its column in a
    transition table; automata read it when they walk a word.
    """

    symbols: tuple[str, ...]
    columns: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)
    _index: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)
    _symbol_set: frozenset[str] = field(init=False, repr=False, compare=False, hash=False)

    def __init__(self, symbols: Iterable[str]):
        object.__setattr__(self, "symbols", tuple(symbols))
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError(f"duplicate symbols in alphabet: {self.symbols!r}")
        if TERMINAL in self.symbols:
            raise ValueError(f"the terminal symbol {TERMINAL!r} is implicit and cannot be listed")
        for sym in self.symbols:
            if not isinstance(sym, str) or not sym:
                raise ValueError(f"symbols must be non-empty strings, got {sym!r}")
        object.__setattr__(self, "columns", {sym: i for i, sym in enumerate(self.symbols)})
        object.__setattr__(self, "_index", {**self.columns, TERMINAL: len(self.symbols)})
        object.__setattr__(self, "_symbol_set", frozenset(self.symbols))

    @property
    def extended(self) -> tuple[str, ...]:
        """All symbols including the terminal, in order."""
        return self.symbols + (TERMINAL,)

    def index(self, symbol: str) -> int:
        """Position of ``symbol`` in the extended ordering."""
        try:
            return self._index[symbol]
        except KeyError:
            raise self._mismatch(symbol) from None

    def _mismatch(self, symbol: str) -> AlphabetMismatch:
        return AlphabetMismatch(f"symbol {symbol!r} not in alphabet {self.symbols!r}")

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._symbol_set

    def spells(self, word: Iterable[str]) -> bool:
        """Whether every symbol of ``word`` belongs to the alphabet (``$`` does not)."""
        return self._symbol_set.issuperset(word)

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)


@dataclass(frozen=True)
class Distribution:
    """Probability vector over an alphabet's extended symbols, in alphabet order.

    The hash is computed once, at construction, from the probabilities only:
    equal distributions have equal probabilities, and memo lookups then
    neither rehash the tuple nor call the alphabet's Python-level hash.
    """

    alphabet: Alphabet
    probs: tuple[float, ...]
    _hash: int = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        probs = tuple(self.probs)
        extended = self.alphabet.extended
        if len(probs) != len(extended):
            raise InvalidDistribution(
                f"expected {len(extended)} probabilities (one per symbol incl. {TERMINAL!r}), "
                f"got {len(probs)}"
            )
        # float() would parse a string and take a bool as 0 or 1.
        for sym, p in zip(extended, probs):
            if p is None or isinstance(p, (str, bytes, bytearray, bool)):
                raise InvalidDistribution(f"probability of {sym!r} is not a number: {p!r}")
        object.__setattr__(self, "probs", tuple(map(float, probs)))
        for sym, p in zip(extended, self.probs):
            if not -SUM_TOLERANCE <= p <= 1.0 + SUM_TOLERANCE:
                raise InvalidDistribution(f"probability of {sym!r} out of [0,1]: {p!r}")
        total = sum(self.probs)
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise InvalidDistribution(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "_hash", hash(self.probs))

    @classmethod
    def from_map(cls, alphabet: Alphabet, probs: Mapping[str, float]) -> "Distribution":
        """Build from a symbol->probability mapping, normalizing entry order.

        The mapping must cover every symbol of the extended alphabet exactly.
        """
        expected = set(alphabet.extended)
        given = set(probs)
        if given != expected:
            missing = sorted(expected - given)
            extra = sorted(given - expected)
            raise InvalidDistribution(
                f"probability map does not match alphabet (missing {missing}, extra {extra})"
            )
        return cls(alphabet, tuple(probs[sym] for sym in alphabet.extended))

    def __hash__(self) -> int:
        return self._hash

    def prob(self, symbol: str) -> float:
        return self.probs[self.alphabet.index(symbol)]

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.alphabet.extended, self.probs))

    def support(self, eps: float = SUPPORT_EPS) -> frozenset[str]:
        """Symbols with probability above ``eps``."""
        return frozenset(s for s, p in zip(self.alphabet.extended, self.probs) if p > eps)

    def __repr__(self) -> str:
        inner = ", ".join(f"{s}:{p:g}" for s, p in zip(self.alphabet.extended, self.probs))
        return f"Distribution({{{inner}}})"


def require_same_alphabet(d1: Distribution, d2: Distribution) -> None:
    if d1.alphabet != d2.alphabet:
        raise AlphabetMismatch(
            f"distributions over different alphabets: {d1.alphabet.symbols!r} vs {d2.alphabet.symbols!r}"
        )
