"""Tolerances on words, clique partitions, clique quotients, and the
recognizable-but-not-clique-regular demonstration."""

import random

import pytest

from pdfa_forge import (
    AlternatingUnaryModel,
    CliqueInstability,
    CliquePartition,
    Distribution,
    ExactOracle,
    PdfaLanguageModel,
    Pdfa,
    UniformUnaryModel,
    build_clique_pdfa,
    demo_recognizable_not_regular,
    enumerate_clique_partitions,
    learn,
    parse_equivalence,
    parse_similarity,
    quotient_by_cliques,
    realize,
    similar,
    string_pair_tolerant,
    string_tolerant,
)
from pdfa_forge.automata import refine_partition, state_congruence
from pdfa_forge.relations import signature

from helpers import UNARY, random_pdfa, unary_dist

VD15 = parse_similarity("vd:0.15")

FIG3_DISTS = (unary_dist(0.5), unary_dist(0.4), unary_dist(0.6))


class TestStringTolerant:
    def test_alternating_close_to_uniform(self):
        assert string_tolerant(AlternatingUnaryModel(), UniformUnaryModel(), VD15, 25) is None

    def test_tight_threshold_fails_at_the_empty_word(self):
        spec = parse_similarity("vd:0.05")
        witness = string_tolerant(AlternatingUnaryModel(), UniformUnaryModel(), spec, 1)
        assert witness == ()

    def test_reflexive(self):
        model = AlternatingUnaryModel()
        assert string_tolerant(model, model, VD15, 10) is None


@pytest.mark.parametrize("limit", [-1, 1.5, True, None])
def test_length_limits_must_be_ints_of_at_least_zero(limit):
    # A negative limit would certify tolerance over no words at all.
    model = AlternatingUnaryModel()
    with pytest.raises(ValueError, match="^max_len must be"):
        string_tolerant(model, UniformUnaryModel(), VD15, limit)
    with pytest.raises(ValueError, match="^max_cont must be"):
        string_pair_tolerant(model, ("a",), ("a", "a", "a"), VD15, limit)


class TestStringPairTolerant:
    def test_marked_words_are_separated(self):
        model = AlternatingUnaryModel()
        witness = string_pair_tolerant(model, ("a",), ("a",) * 3, VD15, 10)
        # two steps shift length 1 onto the marked 3 and length 3 onto 5
        assert witness == ("a", "a")

    def test_constant_model_never_separates(self):
        model = UniformUnaryModel()
        assert string_pair_tolerant(model, (), ("a",) * 4, VD15, 8) is None

    def test_equal_words_never_separate(self):
        model = AlternatingUnaryModel()
        assert string_pair_tolerant(model, ("a",), ("a",), VD15, 8) is None


class TestEnumerateCliquePartitions:
    def test_exactly_the_three_expected_partitions(self):
        partitions = enumerate_clique_partitions(FIG3_DISTS, VD15)
        found = {p.index_sets() for p in partitions}
        assert found == {
            frozenset({frozenset({0}), frozenset({1}), frozenset({2})}),
            frozenset({frozenset({0, 1}), frozenset({2})}),
            frozenset({frozenset({0, 2}), frozenset({1})}),
        }
        assert len(partitions) == 3

    def test_partitions_are_not_unique(self):
        assert len(enumerate_clique_partitions(FIG3_DISTS, VD15)) > 1

    def test_pairwise_unrelated_gives_singletons_only(self):
        dists = (unary_dist(0.1), unary_dist(0.5), unary_dist(0.9))
        partitions = enumerate_clique_partitions(dists, VD15)
        assert len(partitions) == 1
        assert partitions[0].index_sets() == frozenset(
            {frozenset({0}), frozenset({1}), frozenset({2})}
        )

    def test_all_similar_gives_bell_number_many(self):
        def bell(n):
            row = [1]
            for _ in range(n - 1):
                nxt = [row[-1]]
                for value in row:
                    nxt.append(nxt[-1] + value)
                row = nxt
            return row[-1]

        dists = tuple(unary_dist(0.4 + 0.01 * i) for i in range(4))
        loose = parse_similarity("vd:0.5")
        assert len(enumerate_clique_partitions(dists, loose)) == bell(4)

    def test_every_block_reverified_as_clique(self):
        rng = random.Random(8)
        dists = tuple(unary_dist(round(rng.uniform(0.2, 0.8), 3)) for _ in range(6))
        for partition in enumerate_clique_partitions(dists, VD15):
            for block in partition.blocks:
                members = sorted(block)
                for i, x in enumerate(members):
                    for y in members[i + 1 :]:
                        assert similar(dists[x], dists[y], VD15)

    def test_matches_brute_force_partition_filter(self):
        # Independent oracle: generate every set partition, keep those whose
        # blocks are cliques, compare as sets of index sets.
        def all_partitions(items):
            if not items:
                yield []
                return
            head, rest = items[0], items[1:]
            for partial in all_partitions(rest):
                for i in range(len(partial)):
                    yield partial[:i] + [partial[i] | {head}] + partial[i + 1:]
                yield partial + [{head}]

        rng = random.Random(17)
        for _ in range(10):
            dists = tuple(
                unary_dist(round(rng.uniform(0.2, 0.8), 2)) for _ in range(rng.randint(1, 6))
            )
            expected = set()
            for blocks in all_partitions(list(range(len(dists)))):
                if all(
                    similar(dists[i], dists[j], VD15)
                    for block in blocks
                    for i in block
                    for j in block
                ):
                    expected.add(frozenset(frozenset(b) for b in blocks))
            partitions = enumerate_clique_partitions(dists, VD15)
            assert {p.index_sets() for p in partitions} == expected
            # The enumerator skips the checks; the public constructor agrees.
            for p in partitions:
                assert p == CliquePartition(p.distributions, p.blocks, p.similarity)

    def test_size_guard(self):
        dists = tuple(unary_dist(0.3 + 0.001 * i) for i in range(13))
        with pytest.raises(ValueError, match="12"):
            enumerate_clique_partitions(dists, VD15)

    def test_blocks_must_be_cliques(self):
        with pytest.raises(ValueError, match="clique"):
            CliquePartition(FIG3_DISTS, (frozenset({0, 1, 2}),), VD15)

    def test_blocks_must_partition(self):
        with pytest.raises(ValueError):
            CliquePartition(FIG3_DISTS, (frozenset({0, 1}),), VD15)

    def test_an_empty_block_is_named(self):
        with pytest.raises(ValueError, match="block 0 is empty"):
            CliquePartition(FIG3_DISTS, (frozenset(), frozenset({0, 1})), VD15)

    def test_the_first_listed_copy_decides_the_block(self):
        half = unary_dist(0.5)
        dists = (unary_dist(0.4), half, unary_dist(0.5))
        partition = CliquePartition(dists, (frozenset({0, 2}), frozenset({1})), VD15)
        assert partition.block_of(half) == 1
        partition = CliquePartition(dists, (frozenset({0, 1}), frozenset({2})), VD15)
        assert partition.block_of(half) == 0

    def test_block_of_an_unlisted_distribution_names_it(self):
        partition = CliquePartition(FIG3_DISTS, ({0}, {1}, {2}), VD15)
        with pytest.raises(ValueError, match=r"Distribution\(\{a:0\.7, \$:0\.3\}\)"):
            partition.block_of(unary_dist(0.7))


def partition_by_index_sets(index_sets) -> CliquePartition:
    return CliquePartition(FIG3_DISTS, tuple(frozenset(s) for s in index_sets), VD15)


SINGLETONS = [{0}, {1}, {2}]
HALF_WITH_LOW = [{0, 1}, {2}]
HALF_WITH_HIGH = [{0, 2}, {1}]


class TestQuotientByCliques:
    @pytest.mark.parametrize(
        "index_sets,expected_states",
        [(SINGLETONS, 3), (HALF_WITH_LOW, 3), (HALF_WITH_HIGH, 2)],
    )
    def test_state_counts_per_partition(self, fig3a, index_sets, expected_states):
        partition = partition_by_index_sets(index_sets)
        assert quotient_by_cliques(fig3a, partition).n_states == expected_states

    def test_singleton_partition_matches_exact_congruence(self, fig3a):
        # fig3a's emissions are all distinct; the random targets repeat theirs.
        rng = random.Random(24)
        targets = []
        while len(targets) < 20:
            target = random_pdfa(rng, palette_size=2, min_states=3)
            if len({d.probs for d in target.emissions}) < target.n_states:
                targets.append(target)
        for target in [fig3a, *targets]:
            dists = tuple({d.probs: d for d in target.emissions}.values())
            partition = CliquePartition(dists, [{i} for i in range(len(dists))], VD15)
            clique_blocks = refine_partition(
                target, [b"c%d" % partition.block_of(d) for d in target.emissions]
            )
            exact_blocks = state_congruence(target, parse_equivalence("exact"))
            assert clique_blocks == exact_blocks

    def test_partition_must_cover_the_distributions(self, fig3a):
        partial = CliquePartition(FIG3_DISTS[:2], (frozenset({0, 1}),), VD15)
        with pytest.raises(ValueError, match="cover"):
            quotient_by_cliques(fig3a, partial)


class TestBuildCliquePdfa:
    def test_stable_partition_gives_two_state_tolerant_pdfa(self, fig3a):
        partition = partition_by_index_sets(HALF_WITH_HIGH)
        built = build_clique_pdfa(fig3a, partition)
        assert built.n_states == 2
        assert string_tolerant(
            PdfaLanguageModel(built), PdfaLanguageModel(fig3a), VD15, 12
        ) is None

    def test_lowest_index_member_is_emitted(self, fig3a):
        partition = partition_by_index_sets(HALF_WITH_HIGH)
        built = build_clique_pdfa(fig3a, partition)
        emitted = {d.probs for d in built.emissions}
        # block {0,2} emits index 0 ([0.5, 0.5]); block {1} emits [0.4, 0.6]
        assert emitted == {(0.5, 0.5), (0.4, 0.6)}

    def test_singleton_partition_reproduces_the_source(self, fig3a):
        from pdfa_forge import lm_equivalent

        built = build_clique_pdfa(fig3a, partition_by_index_sets(SINGLETONS))
        assert built.n_states == fig3a.n_states
        assert lm_equivalent(built, fig3a, parse_equivalence("exact")) is None

    def test_unstable_partition_reports_witness(self, fig3a):
        partition = partition_by_index_sets(HALF_WITH_LOW)
        with pytest.raises(CliqueInstability) as info:
            build_clique_pdfa(fig3a, partition)
        err = info.value
        assert err.first == () and err.second == ("a",) and err.symbol == "a"

    def test_unstable_four_state_chain(self):
        # Two same-block states whose successors fall into different blocks.
        alphabet = UNARY
        d_a, d_b = unary_dist(0.50), unary_dist(0.55)
        d_low, d_high = unary_dist(0.1), unary_dist(0.9)
        chain = Pdfa(
            alphabet=alphabet,
            initial=0,
            emissions=(d_a, d_low, d_b, d_high),
            transitions=((1,), (2,), (3,), (3,)),
        )
        partition = CliquePartition(
            (d_a, d_low, d_b, d_high),
            (frozenset({0, 2}), frozenset({1}), frozenset({3})),
            VD15,
        )
        with pytest.raises(CliqueInstability):
            build_clique_pdfa(chain, partition)


class TestDemo:
    def test_bound_21_certifies_six_words(self):
        report = demo_recognizable_not_regular(21)
        assert report.tolerant_up_to_bound
        assert [len(w) for w in report.marked_words] == [1, 3, 6, 10, 15, 21]
        assert report.clique_lower_bound == 6
        assert len(report.separations) == 15  # all pairs
        assert report.checked_label == "bounded(21)"

    def test_witnesses_actually_separate(self):
        report = demo_recognizable_not_regular(21)
        model = AlternatingUnaryModel()
        for i, j, w in report.separations:
            d1 = model.query(report.marked_words[i] + w)
            d2 = model.query(report.marked_words[j] + w)
            assert not similar(d1, d2, report.similarity)

    def test_small_bound(self):
        report = demo_recognizable_not_regular(3)
        assert [len(w) for w in report.marked_words] == [1, 3]
        assert report.clique_lower_bound == 2
        assert report.tolerant_up_to_bound

    def test_lower_bound_grows_with_the_bound(self):
        counts = [demo_recognizable_not_regular(b).clique_lower_bound for b in (3, 10, 21)]
        assert counts == [2, 4, 6]

    def test_json_shape(self):
        payload = demo_recognizable_not_regular(6).to_json()
        assert payload["clique_lower_bound"] == 3
        assert payload["checked"] == "bounded(6)"
        assert {"first", "second", "continuation"} <= set(payload["separations"][0])

    @pytest.mark.parametrize("bound", [0, True, 2.5])
    def test_bound_validation(self, bound):
        # True would be reported as the bound; 2.5 failed inside the sweep.
        with pytest.raises(ValueError, match="^bound must be"):
            demo_recognizable_not_regular(bound)

    def test_bound_above_the_cap_is_refused(self):
        from pdfa_forge.tolerance import MAX_DEMO_BOUND

        assert MAX_DEMO_BOUND > 400  # the bound the offline benchmark runs
        with pytest.raises(ValueError, match=f"^bound must be <= {MAX_DEMO_BOUND}, got"):
            demo_recognizable_not_regular(MAX_DEMO_BOUND + 1)


class TestFinerEquivalenceLearnsTolerantModels:
    @pytest.mark.parametrize("k", [7, 10])
    def test_quantization_learning_is_tolerance_learning(self, fig3a, k):
        spec = parse_equivalence(f"quant:{k}")
        report = learn(PdfaLanguageModel(fig3a), spec, ExactOracle(fig3a, spec))
        assert report.converged
        realized = realize(report.hypothesis)
        tol = parse_similarity(f"vd:{1.0 / k}")
        assert string_tolerant(
            PdfaLanguageModel(realized), PdfaLanguageModel(fig3a), tol, 12
        ) is None

    def test_on_random_targets(self):
        rng = random.Random(55)
        for _ in range(10):
            target = random_pdfa(rng, max_states=5, max_symbols=2)
            spec = parse_equivalence("quant:5")
            report = learn(PdfaLanguageModel(target), spec, ExactOracle(target, spec))
            realized = realize(report.hypothesis)
            assert string_tolerant(
                PdfaLanguageModel(realized),
                PdfaLanguageModel(target),
                parse_similarity("vd:0.2"),
                8,
            ) is None
