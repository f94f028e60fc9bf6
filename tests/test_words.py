"""Word enumeration, ordering, and rendering helpers."""

import random

import pytest

from pdfa_forge import Alphabet, AlphabetMismatch
from pdfa_forge.words import (
    count_words,
    format_word,
    iter_words,
    prefixes,
    shortlex_rank,
    word_key,
)

AB = Alphabet(("a", "b"))


def test_iter_words_is_length_lexicographic():
    words = list(iter_words(AB, 2))
    assert words == [
        (), ("a",), ("b",),
        ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"),
    ]


def test_word_key_orders_by_length_then_alphabet():
    words = [("b",), (), ("a", "a"), ("a",)]
    ordered = sorted(words, key=lambda w: word_key(AB, w))
    assert ordered == [(), ("a",), ("b",), ("a", "a")]


def test_word_key_refuses_the_terminal():
    # ``$`` has the extended-alphabet index 2 over {a, b}, which would give
    # ("$",) the rank of ("a", "a").
    for word in [("$",), ("a", "$")]:
        with pytest.raises(AlphabetMismatch, match="'\\$' not in alphabet"):
            word_key(AB, word)


def check_ranks(alphabet, words):
    """Ranks sort ``words`` as ``word_key`` does, and each continuation of a
    word of rank ``r`` by the ``i``-th symbol has rank ``k·r + i + 1``."""
    k = len(alphabet.symbols)
    rank = {w: shortlex_rank(k, word_key(alphabet, w)) for w in words}
    assert sorted(words, key=rank.__getitem__) == sorted(words, key=lambda w: word_key(alphabet, w))
    assert len(set(rank.values())) == len(words)
    for w in words:
        for i, symbol in enumerate(alphabet.symbols):
            assert shortlex_rank(k, word_key(alphabet, w + (symbol,))) == k * rank[w] + i + 1
    return rank


def test_shortlex_rank_is_the_position_in_length_lexicographic_order():
    for k in (1, 2, 3):
        alphabet = Alphabet(("a", "b", "c")[:k])
        words = list(iter_words(alphabet, 6))
        random.Random(k).shuffle(words)
        rank = check_ranks(alphabet, words)
        assert sorted(rank.values()) == list(range(len(words)))
        assert rank[()] == 0


def test_shortlex_rank_is_exact_far_beyond_64_bits():
    alphabet = Alphabet([f"s{i}" for i in range(1000)])
    rng = random.Random(5)
    words = [tuple(rng.choice(alphabet.symbols) for _ in range(50)) for _ in range(200)]
    # Shared prefixes, words one symbol shorter, and neighbours in the last symbol.
    words += [w[:49] for w in words[:50]] + [w[:49] + (alphabet.symbols[0],) for w in words[:50]]
    words = list(dict.fromkeys(words))
    rank = check_ranks(alphabet, words)
    assert min(rank.values()) > 2**64 * 1000**40


def test_count_words_matches_enumeration():
    for n_symbols, max_len in [(1, 5), (2, 6), (3, 4)]:
        alphabet = Alphabet(("a", "b", "c")[:n_symbols])
        assert count_words(n_symbols, max_len) == len(list(iter_words(alphabet, max_len)))


def test_count_words_degenerate_alphabet():
    assert count_words(0, 7) == 1  # only the empty word


def test_prefixes_include_both_ends():
    assert prefixes(("a", "b")) == [(), ("a",), ("a", "b")]
    assert prefixes(()) == [()]


def test_format_word_concatenates_single_char_symbols():
    assert format_word(()) == ""
    assert format_word(("a", "b", "a")) == "aba"


def test_format_word_separates_multi_char_symbols():
    assert format_word(("tok", "a")) == "tok a"
