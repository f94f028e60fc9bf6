"""Finite words over an alphabet: ordering, enumeration, affixes.

Words are tuples of symbols; the empty tuple is the empty word.
All enumeration and tie-breaking in the package uses length-lexicographic
order with symbols compared by their alphabet position.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .distributions import Alphabet

Word = tuple[str, ...]

EMPTY: Word = ()


def word_key(alphabet: Alphabet, word: Word) -> tuple[int, tuple[int, ...]]:
    """Sort key realizing length-lexicographic order.

    A symbol outside the alphabet, the terminal ``$`` included, raises
    ``AlphabetMismatch``.
    """
    try:
        return (len(word), tuple(map(alphabet.columns.__getitem__, word)))
    except KeyError as missing:
        raise alphabet._mismatch(missing.args[0]) from None


def shortlex_rank(n_symbols: int, key: tuple[int, tuple[int, ...]]) -> int:
    """A word's position in length-lexicographic order, from its ``word_key``.

    ``rank(ε) = 0`` and ``rank(w·aᵢ) = k·rank(w) + i + 1`` over ``k``
    symbols (bijective base-``k`` numeration), so ranks order words exactly
    as their keys do; Python ints never overflow.
    """
    rank = 0
    for i in key[1]:
        rank = n_symbols * rank + i + 1
    return rank


def iter_words(alphabet: Alphabet, max_len: int) -> Iterator[Word]:
    """All words of length <= max_len in length-lexicographic order."""
    for length in range(max_len + 1):
        yield from itertools.product(alphabet.symbols, repeat=length)


def count_words(n_symbols: int, max_len: int) -> int:
    """Number of words of length <= max_len over n_symbols symbols."""
    if n_symbols == 0:
        return 1
    if n_symbols == 1:
        return max_len + 1
    return (n_symbols ** (max_len + 1) - 1) // (n_symbols - 1)


def prefixes(word: Word) -> list[Word]:
    """All prefixes of ``word`` including the empty word and ``word`` itself."""
    return [word[:i] for i in range(len(word) + 1)]


def format_word(word: Word) -> str:
    """Human-readable form; empty string for the empty word.

    Single-character symbols concatenate; longer symbols are space-joined
    to keep the rendering unambiguous.
    """
    if all(len(s) == 1 for s in word):
        return "".join(word)
    return " ".join(word)
