"""Alphabet/Distribution invariants and the ranking primitives."""

import re

import pytest

from pdfa_forge import (
    Alphabet,
    AlphabetMismatch,
    Distribution,
    InvalidDistribution,
    clipped_ranking,
    ranking,
    top_ranked,
)

from pdfa_forge import distributions as distributions_module

from helpers import UNARY, copy_of, unary_dist

AB = Alphabet(("a", "b"))


class TestAlphabet:
    def test_ordering_is_fixed_and_terminal_last(self):
        assert AB.extended == ("a", "b", "$")
        assert AB.index("a") == 0 and AB.index("$") == 2

    @pytest.mark.parametrize("symbols, message", [
        (("a", "a"), "duplicate symbols in alphabet"),
        (("a", "$"), "the terminal symbol '$' is implicit"),
        (("a", ""), "symbols must be non-empty strings, got ''"),
        (("a", 1), "symbols must be non-empty strings, got 1"),
    ], ids=["duplicate", "terminal", "empty", "not-a-string"])
    def test_rejects_bad_symbols(self, symbols, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Alphabet(symbols)

    def test_unknown_symbol(self):
        with pytest.raises(AlphabetMismatch):
            AB.index("z")


class TestDistribution:
    def test_from_map_normalizes_entry_order(self):
        d1 = Distribution.from_map(AB, {"$": 0.5, "b": 0.3, "a": 0.2})
        d2 = Distribution.from_map(AB, {"a": 0.2, "b": 0.3, "$": 0.5})
        assert d1 == d2
        assert d1.probs == (0.2, 0.3, 0.5)

    def test_every_symbol_required(self):
        with pytest.raises(InvalidDistribution):
            Distribution.from_map(AB, {"a": 0.5, "$": 0.5})

    def test_no_extra_entries(self):
        with pytest.raises(InvalidDistribution):
            Distribution.from_map(AB, {"a": 0.2, "b": 0.3, "c": 0.0, "$": 0.5})

    @pytest.mark.parametrize("value, rest", [("0.5", 0.5), (b"0.5", 0.5), (True, 0), (None, 1)])
    def test_probabilities_must_be_numbers(self, value, rest):
        # float() would parse the string and bytes and take True as 1, so
        # all but None would load as a valid distribution.
        message = re.escape(f"probability of 'a' is not a number: {value!r}")
        with pytest.raises(InvalidDistribution, match=message):
            Distribution(UNARY, (value, rest))
        with pytest.raises(InvalidDistribution, match="not a number"):
            Distribution.from_map(UNARY, {"a": value, "$": rest})

    def test_integers_and_float_subclasses_are_numbers(self):
        class Prob(float):
            pass

        assert Distribution(UNARY, (1, 0)).probs == (1.0, 0.0)
        assert Distribution(UNARY, (Prob(0.25), 0.75)).probs == (0.25, 0.75)

    @pytest.mark.parametrize("probs", [(0.5, 0.5), (0.25, 0.25, 0.25, 0.25)])
    def test_one_probability_per_symbol(self, probs):
        message = f"expected 3 probabilities (one per symbol incl. '$'), got {len(probs)}"
        with pytest.raises(InvalidDistribution, match=re.escape(message)):
            Distribution(AB, probs)

    def test_sum_must_be_one(self):
        with pytest.raises(InvalidDistribution):
            Distribution(AB, (0.5, 0.3, 0.3))

    def test_range_check(self):
        with pytest.raises(InvalidDistribution):
            Distribution(AB, (1.2, -0.2, 0.0))

    def test_hash_is_the_hash_of_the_probabilities(self):
        d = Distribution.from_map(AB, {"a": 0.2, "b": 0.3, "$": 0.5})
        assert hash(d) == hash(copy_of(d)) == hash(d.probs)
        # The class's own method, not one generated by the dataclass, which
        # would hash the alphabet too.
        own = vars(Distribution)["__hash__"]
        assert own.__code__.co_filename == distributions_module.__file__

    def test_hash_is_computed_once_at_construction(self):
        d = Distribution.from_map(AB, {"a": 0.2, "b": 0.3, "$": 0.5})
        assert vars(d)["_hash"] == hash(d.probs)
        # Hashing reads the stored value: a changed one shows through.
        object.__setattr__(d, "_hash", 12345)
        assert hash(d) == 12345
        assert "_hash" not in repr(d) and d == copy_of(d)

    def test_signed_zeros_hash_and_compare_equal(self):
        zero = Distribution(AB, (0.0, 0.5, 0.5))
        negative_zero = Distribution(AB, (-0.0, 0.5, 0.5))
        assert zero == negative_zero
        assert hash(zero) == hash(negative_zero)


class TestRanking:
    def test_two_symbol_no_ties(self):
        assert ranking(unary_dist(0.6)) == {"a": 1, "$": 2}

    def test_tie_broken_by_alphabet_order(self):
        d = Distribution.from_map(AB, {"a": 0.3, "b": 0.3, "$": 0.4})
        assert ranking(d) == {"$": 1, "a": 2, "b": 3}

    def test_all_ties_follow_alphabet_order(self):
        third = 1.0 / 3.0
        d = Distribution.from_map(AB, {"a": third, "b": third, "$": third})
        assert ranking(d) == {"a": 1, "b": 2, "$": 3}

    def test_ranking_is_injective(self):
        d = Distribution.from_map(AB, {"a": 0.25, "b": 0.25, "$": 0.5})
        values = list(ranking(d).values())
        assert sorted(values) == [1, 2, 3]


class TestTopRanked:
    def test_argmax_singleton(self):
        assert top_ranked(unary_dist(0.6), 1) == {"a"}

    def test_r_at_least_alphabet_returns_all(self):
        assert top_ranked(unary_dist(0.6), 2) == {"a", "$"}

    def test_terminal_can_win(self):
        assert top_ranked(unary_dist(0.4), 1) == {"$"}

    def test_cardinality(self):
        d = Distribution.from_map(AB, {"a": 0.5, "b": 0.3, "$": 0.2})
        for r in (1, 2, 3, 5):
            assert len(top_ranked(d, r)) == min(r, 3)

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            top_ranked(unary_dist(0.5), 0)


class TestClippedRanking:
    def test_clip_inactive_when_r_covers_all(self):
        assert clipped_ranking(unary_dist(0.6), 1) == {"a": 1, "$": 2}

    def test_below_top_clipped(self):
        d = Distribution.from_map(AB, {"a": 0.5, "b": 0.3, "$": 0.2})
        assert clipped_ranking(d, 1) == {"a": 1, "b": 2, "$": 2}

    def test_clip_boundary(self):
        d = Distribution.from_map(AB, {"a": 0.5, "b": 0.3, "$": 0.2})
        assert clipped_ranking(d, 2) == {"a": 1, "b": 2, "$": 3}


def test_distributions_usable_in_sets():
    assert len({unary_dist(0.5), unary_dist(0.5), unary_dist(0.4)}) == 2


def test_unary_fixture_helper():
    d = unary_dist(0.6)
    assert d.alphabet == UNARY
    assert d.prob("a") == pytest.approx(0.6)
    assert d.prob("$") == pytest.approx(0.4)
