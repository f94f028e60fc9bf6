"""Similarity values, equivalence signatures, spec grammar, and the
relation-level properties (quantization bound, WER/top and NDCG/rank
correspondences), with an independent straight-line NDCG oracle."""

import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfa_forge import (
    Alphabet,
    AlphabetMismatch,
    Distribution,
    EquivalenceSpec,
    SimilaritySpec,
    clipped_ranking,
    equivalent,
    ndcg_distance,
    parse_equivalence,
    parse_similarity,
    quantization_bucket,
    ranking,
    signature,
    similar,
    similarity_value,
    support_difference_rate,
    top_ranked,
    variation_distance,
    word_error_rate,
)

from helpers import UNARY, random_distribution, unary_dist

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))


# ---------------------------------------------------------------------------
# Independent oracle: straight-line NDCG per the defining sums
# ---------------------------------------------------------------------------

def oracle_ndcg(x: Distribution, y: Distribution, r: int) -> float:
    syms = x.alphabet.extended

    def rank_map(d):
        order = sorted(syms, key=lambda s: (-d.prob(s), syms.index(s)))
        return {s: i + 1 for i, s in enumerate(order)}

    def rank_clip(d):
        return {s: (k if k <= r else r + 1) for s, k in rank_map(d).items()}

    def dcg(dprime, d):
        inv = {k: s for s, k in rank_map(dprime).items()}
        clip = rank_clip(d)
        return sum(
            (r - clip[inv[k]] + 1) / math.log2(k + 1)
            for k in range(1, min(r, len(syms)) + 1)
        )

    norm = sum((r - k + 1) / math.log2(k + 1) for k in range(1, min(r, len(syms)) + 1))
    return 1.0 - (dcg(y, x) / norm + dcg(x, y) / norm) / 2.0


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

def distribution_over(alphabet: Alphabet):
    n = len(alphabet.extended)
    return (
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
        .filter(lambda w: sum(w) > 1e-6)
        .map(lambda w: Distribution(alphabet, tuple(x / sum(w) for x in w)))
    )


def alphabet_and_pair():
    return st.integers(min_value=1, max_value=3).flatmap(
        lambda k: st.tuples(
            distribution_over(Alphabet(("a", "b", "c")[:k])),
            distribution_over(Alphabet(("a", "b", "c")[:k])),
        )
    )


# ---------------------------------------------------------------------------
# Variation distance
# ---------------------------------------------------------------------------

class TestVariationDistance:
    def test_direct_value(self):
        assert variation_distance(unary_dist(0.5), unary_dist(0.4)) == pytest.approx(0.1)

    def test_identity(self):
        d = unary_dist(0.37)
        assert variation_distance(d, d) == 0.0

    def test_swapped_pair(self):
        assert variation_distance(unary_dist(0.4), unary_dist(0.6)) == pytest.approx(0.2)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            variation_distance(unary_dist(0.5), Distribution(AB, (0.5, 0.3, 0.2)))


class TestSupportDifferenceRate:
    def test_half_support_gap(self):
        assert support_difference_rate(unary_dist(1.0), unary_dist(0.5)) == pytest.approx(0.5)

    def test_identity(self):
        d = Distribution(AB, (0.2, 0.3, 0.5))
        assert support_difference_rate(d, d) == 0.0

    def test_disjoint_supports(self):
        assert support_difference_rate(unary_dist(1.0), unary_dist(0.0)) == pytest.approx(1.0)

    def test_support_uses_noise_floor(self):
        d = Distribution(AB, (1.0 - 5e-10, 5e-10, 0.0))
        point = Distribution(AB, (1.0, 0.0, 0.0))
        assert support_difference_rate(d, point) == 0.0
        assert signature(d, parse_equivalence("supp")) == b'["supp",[0]]'


class TestWordErrorRate:
    def test_flipped_top1(self):
        assert word_error_rate(unary_dist(0.6), unary_dist(0.4), 1) == pytest.approx(1.0)

    def test_identity(self):
        d = Distribution(AB, (0.5, 0.3, 0.2))
        for r in (1, 2, 3):
            assert word_error_rate(d, d, r) == 0.0

    def test_partial_top2_overlap(self):
        d1 = Distribution.from_map(AB, {"a": 0.5, "b": 0.3, "$": 0.2})
        d2 = Distribution.from_map(AB, {"a": 0.5, "b": 0.2, "$": 0.3})
        assert word_error_rate(d1, d2, 2) == pytest.approx(0.5)


class TestNdcgDistance:
    def test_identity_is_exactly_zero(self):
        d = Distribution(AB, (0.5, 0.3, 0.2))
        for r in (1, 2, 3):
            assert ndcg_distance(d, d, r) == 0.0

    def test_flipped_top1_positive(self):
        value = ndcg_distance(unary_dist(0.6), unary_dist(0.4), 1)
        assert value == pytest.approx(1.0)
        assert value > 0.0

    def test_tail_swap_frozen_value(self):
        # Frozen from the straight-line oracle ahead of the implementation.
        d1 = Distribution.from_map(AB, {"a": 0.5, "b": 0.3, "$": 0.2})
        d2 = Distribution.from_map(AB, {"a": 0.5, "b": 0.2, "$": 0.3})
        expected = 0.02749550955358082
        assert oracle_ndcg(d1, d2, 3) == pytest.approx(expected, abs=1e-15)
        assert ndcg_distance(d1, d2, 3) == pytest.approx(expected, abs=1e-12)
        assert ndcg_distance(d1, d2, 3) > 0.0

    def test_matches_oracle_on_random_pairs(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            alphabet = Alphabet(("a", "b", "c")[: rng.randint(1, 3)])
            d1 = random_distribution(rng, alphabet)
            d2 = random_distribution(rng, alphabet)
            r = rng.randint(1, len(alphabet.extended))
            assert ndcg_distance(d1, d2, r) == pytest.approx(
                oracle_ndcg(d1, d2, r), abs=1e-12
            )


# ---------------------------------------------------------------------------
# Similarity predicate and spec parsing
# ---------------------------------------------------------------------------

class TestSimilar:
    def test_close_pair_within_threshold(self):
        spec = SimilaritySpec("vd", threshold=0.15)
        assert similar(unary_dist(0.5), unary_dist(0.4), spec)

    def test_far_pair_beyond_threshold(self):
        spec = SimilaritySpec("vd", threshold=0.15)
        assert not similar(unary_dist(0.4), unary_dist(0.6), spec)

    @pytest.mark.parametrize(
        "spec",
        [
            SimilaritySpec("vd", 0.0),
            SimilaritySpec("sdr", 0.0),
            SimilaritySpec("wer", 0.0, r=2),
            SimilaritySpec("ndcg", 0.0, r=2),
        ],
    )
    def test_reflexive_for_every_kind(self, spec):
        d = Distribution(AB, (0.5, 0.3, 0.2))
        assert similar(d, d, spec)

    @pytest.mark.parametrize("kind, threshold, r, message", [
        ("sdr", 1.5, None, "sdr threshold must lie in [0,1], got 1.5"),
        ("wer", 0.5, None, "wer r must be an int, got None"),
        ("kl", 0.5, None, "unknown similarity kind 'kl'"),
        ("vd", 0.5, 2, "vd takes no r parameter"),
    ])
    def test_spec_validation(self, kind, threshold, r, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SimilaritySpec(kind, threshold, r)

    def test_vd_threshold_may_exceed_one(self):
        assert SimilaritySpec("vd", threshold=2.0).threshold == 2.0

    @pytest.mark.parametrize("kind, r", [("vd", None), ("sdr", None), ("wer", 2), ("ndcg", 2)])
    def test_nan_threshold_is_rejected(self, kind, r):
        # NaN compares false with everything, so "< 0" and "> 1" both miss it.
        with pytest.raises(ValueError, match="threshold must be >= 0, got nan"):
            SimilaritySpec(kind, threshold=math.nan, r=r)
        with pytest.raises(ValueError):
            parse_similarity(f"{kind}:{r}:nan" if r else f"{kind}:nan")


class TestSpecGrammar:
    @pytest.mark.parametrize(
        "text",
        ["quant:3", "rank:2", "top:1", "supp", "exact", "combo:quant:4+supp",
         "combo:top:2+rank:1+exact"],
    )
    def test_equivalence_round_trip(self, text):
        assert parse_equivalence(text).spec_string() == text

    @pytest.mark.parametrize("text", ["vd:0.15", "sdr:0.5", "wer:1:0.2", "ndcg:3:0.01"])
    def test_similarity_round_trip(self, text):
        assert parse_similarity(text).spec_string() == text

    @pytest.mark.parametrize(
        "text", ["quant", "quant:0", "rank:-1", "blah:3", "combo:", "combo:combo:supp", ""]
    )
    def test_bad_equivalence_specs(self, text):
        with pytest.raises(ValueError):
            parse_equivalence(text)

    @pytest.mark.parametrize("text", ["vd", "wer:0.2", "ndcg:2", "vd:x", "sdr:2.0"])
    def test_bad_similarity_specs(self, text):
        with pytest.raises(ValueError):
            parse_similarity(text)

    def test_similarity_dispatch(self):
        d1, d2 = unary_dist(0.6), unary_dist(0.4)
        assert similarity_value(d1, d2, parse_similarity("vd:1")) == pytest.approx(0.2)
        assert similarity_value(d1, d2, parse_similarity("sdr:1")) == 0.0
        assert similarity_value(d1, d2, parse_similarity("wer:1:1")) == 1.0
        assert similarity_value(d1, d2, parse_similarity("ndcg:1:1")) == 1.0


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

class TestSignatures:
    def test_quant3_buckets_from_running_example(self):
        # 0.4 and 0.6 share the middle third, so both land in bucket 1.
        payload = json.loads(signature(unary_dist(0.4), parse_equivalence("quant:3")))
        assert payload == ["quant", 3, [1, 1]]

    def test_quant7_separates_the_three_levels(self):
        spec = parse_equivalence("quant:7")
        assert json.loads(signature(unary_dist(0.4), spec))[2] == [2, 4]
        assert json.loads(signature(unary_dist(0.5), spec))[2] == [3, 3]
        assert json.loads(signature(unary_dist(0.6), spec))[2] == [4, 2]

    def test_top1_signature_is_argmax(self):
        payload = json.loads(signature(unary_dist(0.6), parse_equivalence("top:1")))
        assert payload == ["top", 1, [0]]

    def test_bucket_arithmetic_has_no_float_flap(self):
        assert quantization_bucket(0.6, 5) == 3
        assert quantization_bucket(0.4, 3) == 1
        assert quantization_bucket(1.0, 4) == 3
        assert quantization_bucket(0.0, 4) == 0
        assert quantization_bucket(0.599999999, 5) == 2

    def test_exact_rounds_to_nine_decimals(self):
        spec = parse_equivalence("exact")
        d1 = Distribution(UNARY, (0.5, 0.5))
        d2 = Distribution(UNARY, (0.5 + 2e-10, 0.5 - 2e-10))
        assert signature(d1, spec) == signature(d2, spec)

    def test_tolerated_negative_shares_the_zero_bucket(self):
        spec = parse_equivalence("quant:10")
        noisy = Distribution(UNARY, (1.0 + 1e-10, -1e-10))
        assert quantization_bucket(-1e-10, 10) == 0
        assert signature(noisy, spec) == signature(Distribution(UNARY, (1.0, 0.0)), spec)

    def test_exact_folds_negative_zero(self):
        spec = parse_equivalence("exact")
        positive = signature(Distribution(UNARY, (1.0, 0.0)), spec)
        assert signature(Distribution(UNARY, (1.0, -0.0)), spec) == positive
        assert positive == b'["exact",[1.0,0.0]]'

    @pytest.mark.parametrize("text", ["rank:3", "top:2"])
    def test_rank_ties_survive_float_noise(self, text):
        spec = parse_equivalence(text)
        clean = Distribution(ABC, (0.3, 0.3, 0.4, 0.0))
        noisy = Distribution(ABC, (0.3, 0.30000000000000004, 0.39999999999999997, 0.0))
        assert signature(clean, spec) == signature(noisy, spec)

    def test_combo_is_conjunction(self):
        spec = parse_equivalence("combo:top:1+supp")
        d1 = Distribution(UNARY, (0.6, 0.4))
        d2 = Distribution(UNARY, (0.7, 0.3))
        d3 = Distribution(UNARY, (1.0, 0.0))
        assert equivalent(d1, d2, spec)
        assert not equivalent(d1, d3, spec)  # same top-1, different support

    def test_signature_equality_is_an_equivalence(self):
        rng = random.Random(7)
        spec = parse_equivalence("quant:4")
        dists = [random_distribution(rng, AB) for _ in range(30)]
        sigs = [signature(d, spec) for d in dists]
        for i, a in enumerate(sigs):
            assert a == a
            for j, b in enumerate(sigs):
                assert (a == b) == (b == a)
                for c in sigs:
                    if a == b and b == c:
                        assert a == c

    @pytest.mark.parametrize("kind, param, members, message", [
        ("quant", 0, (), "quant parameter must be >= 1, got 0"),
        ("combo", None, (), "combo needs at least one member"),
        ("supp", 3, (), "supp takes no parameter"),
        ("md5", None, (), "unknown equivalence kind 'md5'"),
        ("exact", None, (EquivalenceSpec("supp"),), "exact takes no members"),
    ])
    def test_param_validation(self, kind, param, members, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            EquivalenceSpec(kind, param, members)

    @pytest.mark.parametrize("kind, value", [
        ("quant", 2.5), ("quant", True), ("rank", 1.5), ("top", 2.0), ("wer", 1.5), ("ndcg", True),
    ])
    def test_parameters_that_are_not_ints_are_rejected(self, kind, value):
        # Their spec strings (quant:2.5, ...) would not parse back, so a
        # quotient document labelled with one would skip its signature check.
        with pytest.raises(ValueError, match="must be an int"):
            if kind in ("wer", "ndcg"):
                SimilaritySpec(kind, 0.5, r=value)
            else:
                EquivalenceSpec(kind, value)


RANK_DEPTH_FUNCTIONS = {
    "top_ranked": top_ranked,
    "clipped_ranking": clipped_ranking,
    "word_error_rate": lambda d, r: word_error_rate(d, d, r),
    "ndcg_distance": lambda d, r: ndcg_distance(d, d, r),
}


@pytest.mark.parametrize("r", [0, 1.5, True, None])
@pytest.mark.parametrize("name", RANK_DEPTH_FUNCTIONS)
def test_rank_depth_must_be_a_positive_int(name, r):
    d = Distribution.from_map(AB, {"a": 0.5, "b": 0.3, "$": 0.2})
    with pytest.raises(ValueError, match=r"^r must be"):
        RANK_DEPTH_FUNCTIONS[name](d, r)


# ---------------------------------------------------------------------------
# Relation-level properties
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(alphabet_and_pair())
def test_z_functions_are_symmetric_and_zero_on_diagonal(pair):
    d1, d2 = pair
    n = len(d1.alphabet.extended)
    checks = [
        (variation_distance(d1, d2), variation_distance(d2, d1)),
        (support_difference_rate(d1, d2), support_difference_rate(d2, d1)),
    ]
    for r in range(1, n + 1):
        checks.append((word_error_rate(d1, d2, r), word_error_rate(d2, d1, r)))
        checks.append((ndcg_distance(d1, d2, r), ndcg_distance(d2, d1, r)))
    for forward, backward in checks:
        assert forward == pytest.approx(backward, abs=1e-12)
        assert -1e-12 <= forward <= 1.0 + 1e-12
    assert variation_distance(d1, d1) == 0.0
    assert support_difference_rate(d1, d1) == 0.0


@settings(max_examples=200, deadline=None)
@given(alphabet_and_pair(), st.integers(min_value=1, max_value=10))
def test_quantization_implies_vd_bound(pair, k):
    d1, d2 = pair
    spec = EquivalenceSpec("quant", param=k)
    if signature(d1, spec) == signature(d2, spec):
        assert variation_distance(d1, d2) <= 1.0 / k + 1e-12


@settings(max_examples=300, deadline=None)
@given(alphabet_and_pair(), st.integers(min_value=1, max_value=4))
def test_wer_zero_iff_equal_top_sets(pair, r):
    d1, d2 = pair
    assert (word_error_rate(d1, d2, r) == 0.0) == (top_ranked(d1, r) == top_ranked(d2, r))


@settings(max_examples=300, deadline=None)
@given(alphabet_and_pair(), st.integers(min_value=1, max_value=4))
def test_ndcg_zero_iff_equal_clipped_rankings(pair, r):
    d1, d2 = pair
    same_rank = clipped_ranking(d1, r) == clipped_ranking(d2, r)
    assert (abs(ndcg_distance(d1, d2, r)) <= 1e-12) == same_rank


NOISE_SPECS = [
    parse_equivalence(text)
    for text in ("quant:3", "quant:7", "quant:10", "rank:1", "rank:3", "top:2", "supp",
                 "exact", "combo:quant:5+rank:2+supp")
]


@st.composite
def grid_distribution_and_noise(draw):
    """A distribution on the 1e-6 grid and a copy moved by at most 1e-13 per entry.

    Grid values sit far from every border the signatures round at (the
    1e-12 grid of quant and rank, the 9 decimals of exact, the support
    threshold), so no signature may change. Zero entries may turn into -0.0
    or a tolerated negative.
    """
    n = len(ABC.extended)
    cuts = sorted(draw(st.lists(st.integers(0, 10**6), min_size=n - 1, max_size=n - 1)))
    steps = [b - a for a, b in zip([0] + cuts, cuts + [10**6])]
    noise = draw(st.lists(st.floats(-1e-13, 1e-13), min_size=n, max_size=n))
    signed_zero = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    clean = [step / 10**6 for step in steps]
    noisy = [
        -0.0 if p == 0 and flip else p + e
        for p, e, flip in zip(clean, noise, signed_zero)
    ]
    return Distribution(ABC, tuple(clean)), Distribution(ABC, tuple(noisy))


@settings(max_examples=300, deadline=None)
@given(grid_distribution_and_noise())
def test_signatures_ignore_noise_below_the_grid(pair):
    clean, noisy = pair
    for spec in NOISE_SPECS:
        assert signature(noisy, spec) == signature(clean, spec), spec.spec_string()


@st.composite
def twelve_decimal_distribution_and_ulp_noise(draw):
    """A distribution with at most 12 decimals and a copy moved by 1 ulp per entry.

    Entries are drawn in 1e-12 steps and lean toward multiples of 500 steps:
    the half borders of exact's 9 decimals and, at 1000 steps, the support
    threshold. Each entry moves up or down by one ulp or stays; a zero may
    turn into -0.0 instead.
    """
    remaining, steps = 10**12, []
    for _ in range(len(ABC.extended) - 1):
        step = draw(st.one_of(
            st.integers(0, 8).map(lambda k: 500 * k),
            st.integers(0, remaining // 500).map(lambda k: 500 * k),
            st.integers(0, remaining),
        ))
        steps.append(min(step, remaining))
        remaining -= steps[-1]
    clean = [step / 10**12 for step in draw(st.permutations(steps + [remaining]))]
    moves = draw(st.lists(st.sampled_from(["up", "down", "stay", "sign"]),
                          min_size=len(clean), max_size=len(clean)))
    noisy = [
        -0.0 if p == 0 and move == "sign"
        else math.nextafter(p, 2.0) if move == "up"
        else math.nextafter(p, -1.0) if move == "down"
        else p
        for p, move in zip(clean, moves)
    ]
    return Distribution(ABC, tuple(clean)), Distribution(ABC, tuple(noisy))


@settings(max_examples=500, deadline=None)
@given(twelve_decimal_distribution_and_ulp_noise())
def test_signatures_ignore_one_ulp_on_twelve_decimals(pair):
    clean, noisy = pair
    for spec in NOISE_SPECS:
        assert signature(noisy, spec) == signature(clean, spec), spec.spec_string()


@settings(max_examples=200, deadline=None)
@given(distribution_over(Alphabet(("a", "b", "c"))))
def test_ranking_always_injective(d):
    assert sorted(ranking(d).values()) == list(range(1, len(d.alphabet.extended) + 1))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="quantropksexcdwrng0123456789:+. -", max_size=30))
def test_parsers_never_crash_unexpectedly(text):
    # Arbitrary input either parses to a spec that round-trips through its
    # string form, or raises ValueError; nothing else escapes.
    for parser in (parse_equivalence, parse_similarity):
        try:
            spec = parser(text)
        except ValueError:
            continue
        assert parser(spec.spec_string()) == spec
