"""Equivalence oracles: exactness, sampling behavior, bounded sweeps,
counterexample hygiene."""

import random
import time

import pytest

from pdfa_forge import (
    AlphabetMismatch,
    BoundedExhaustiveOracle,
    ExactOracle,
    OracleBudgetExceeded,
    Pdfa,
    PdfaLanguageModel,
    QuotientPdfa,
    SamplingConfig,
    SamplingOracle,
    UniformUnaryModel,
    cached,
    learn,
    parse_equivalence,
    quotient,
    signature,
)
from pdfa_forge import teacher as teacher_module
from pdfa_forge.words import iter_words, prefixes, word_key

from helpers import UNARY, FreshCopyModel, copy_of, random_pdfa, unary_dist

QUANT3 = parse_equivalence("quant:3")
QUANT7 = parse_equivalence("quant:7")
EXACT = parse_equivalence("exact")


def one_state_hypothesis(dist, spec) -> QuotientPdfa:
    return QuotientPdfa(
        alphabet=UNARY,
        initial=0,
        class_signatures=(signature(dist, spec),),
        representatives=(dist,),
        transitions=((0,),),
        equivalence=spec.spec_string(),
    )


class TestExactOracle:
    def test_accepts_the_true_quotient(self, fig2a):
        oracle = ExactOracle(fig2a, QUANT3)
        assert oracle.check(quotient(fig2a, QUANT3)) is None

    def test_rejects_wrong_class_at_initial(self, fig2a):
        oracle = ExactOracle(fig2a, EXACT)
        wrong = one_state_hypothesis(unary_dist(0.5), EXACT)
        assert oracle.check(wrong) == ()

    def test_accepts_own_fine_quotient(self, fig3a):
        oracle = ExactOracle(fig3a, QUANT7)
        assert oracle.check(quotient(fig3a, QUANT7)) is None

    def test_counterexample_is_shortest(self, fig2a):
        # The collapsed hypothesis is right at the start but wrong one step in.
        target_spec = parse_equivalence("quant:10")
        oracle = ExactOracle(fig2a, target_spec)
        collapsed = one_state_hypothesis(unary_dist(0.6), target_spec)
        assert oracle.check(collapsed) == ("a",)

    def test_self_consistency_on_random_targets(self):
        rng = random.Random(91)
        for _ in range(25):
            target = random_pdfa(rng, max_states=7, max_symbols=3)
            spec = parse_equivalence(rng.choice(["quant:2", "quant:5", "top:1", "exact"]))
            assert ExactOracle(target, spec).check(quotient(target, spec)) is None

    def test_alphabet_mismatch(self, fig2a):
        oracle = ExactOracle(fig2a, EXACT)
        foreign = random_pdfa(random.Random(4), max_states=3, max_symbols=2)
        if foreign.alphabet != fig2a.alphabet:
            with pytest.raises(AlphabetMismatch):
                oracle.check(quotient(foreign, EXACT))


class ShrinkEveryFailure:
    """The sampling oracle's earlier search, kept as a reference: every
    failing word is shrunk to its shortest failing prefix, then the
    length-lex smallest result is returned. Draws the same samples."""

    def __init__(self, model, spec, config):
        self.model = model
        self.spec = spec
        self.config = config

    def fails(self, word, hypothesis):
        return signature(self.model.query(word), self.spec) != hypothesis.class_after(word)

    def shrink(self, word, hypothesis):
        return next(p for p in prefixes(word) if self.fails(p, hypothesis))

    def geometric(self, rng):
        length = 0
        while rng.random() >= teacher_module.GEOMETRIC_P:
            length += 1
        return length

    def check(self, hypothesis):
        alphabet = self.model.alphabet
        sweep = min(SamplingOracle.SWEEP_LENGTH, self.config.max_length)
        for word in iter_words(alphabet, sweep):
            if self.fails(word, hypothesis):
                return self.shrink(word, hypothesis)
        rng = random.Random(self.config.seed)
        failures = []
        for _ in range(self.config.samples):
            length = min(self.geometric(rng), self.config.max_length)
            word = tuple(rng.choice(alphabet.symbols) for _ in range(length))
            if self.fails(word, hypothesis):
                failures.append(self.shrink(word, hypothesis))
        if not failures:
            return None
        best = min(failures, key=lambda w: word_key(alphabet, w))
        assert self.fails(best, hypothesis)
        return best


class RecordingOracle:
    """Passes every hypothesis on to ``inner`` and keeps it."""

    def __init__(self, inner):
        self.inner = inner
        self.hypotheses = []

    def check(self, hypothesis):
        self.hypotheses.append(hypothesis)
        return self.inner.check(hypothesis)


class TestPrunedShrinking:
    SPECS = ["quant:20", "quant:5", "exact", "rank:2"]
    CONFIGS = [(50, 40), (300, 5), (1000, 40), (1000, 5), (300, 40), (50, 2)]

    def test_same_counterexample_as_shrinking_every_failure(self):
        # Every hypothesis learn() submits gets the same answer from both
        # searches, each through its own fresh cache, and no check of the
        # pruned search costs more membership queries.
        rng = random.Random(2019)
        checks = from_samples = cheaper = 0
        for i in range(36):
            target = random_pdfa(rng, max_states=40, min_states=12, min_symbols=2,
                                 max_symbols=2)
            spec = parse_equivalence(self.SPECS[i % len(self.SPECS)])
            samples, max_length = self.CONFIGS[i % len(self.CONFIGS)]
            config = SamplingConfig(samples=samples, max_length=max_length, seed=i)
            model = PdfaLanguageModel(target)
            recorder = RecordingOracle(SamplingOracle(model, spec, config))
            learn(model, spec, recorder, max_rounds=12)
            for hypothesis in recorder.hypotheses:
                pruned_cache, reference_cache = cached(model), cached(model)
                pruned = SamplingOracle(pruned_cache, spec, config).check(hypothesis)
                reference = ShrinkEveryFailure(reference_cache, spec, config).check(hypothesis)
                assert pruned == reference
                assert pruned_cache.misses <= reference_cache.misses
                checks += 1
                if pruned is not None and len(pruned) > SamplingOracle.SWEEP_LENGTH:
                    from_samples += 1
                cheaper += pruned_cache.misses < reference_cache.misses
        assert checks >= 100
        assert from_samples >= 30 and cheaper >= 20


class AnswerLog(FreshCopyModel):
    """Answers every query with a new equal object and keeps the answers."""

    def __init__(self, inner):
        super().__init__(inner)
        self.answers = []

    def query(self, word):
        answer = super().query(word)
        self.answers.append(answer)
        return answer


class TestSignatureMemo:
    """An oracle computes one signature per distinct answered distribution,
    however many words it checks and whether or not answers share objects."""

    @pytest.fixture
    def computed(self, monkeypatch):
        calls = []

        def counting_signature(d, spec):
            calls.append(d)
            return signature(d, spec)

        monkeypatch.setattr(teacher_module, "signature", counting_signature)
        return calls

    def test_sampling_and_exhaustive_oracles(self, computed):
        rng = random.Random(31)
        wrong = quotient(random_pdfa(random.Random(5), max_states=4, min_symbols=2,
                                     max_symbols=2), EXACT)
        for _ in range(6):
            target = random_pdfa(rng, max_states=12, min_states=6, min_symbols=2,
                                 max_symbols=2, palette_size=3)
            config = SamplingConfig(samples=200, max_length=10, seed=1)
            for make_oracle in (
                lambda model: SamplingOracle(model, EXACT, config),
                lambda model: BoundedExhaustiveOracle(model, EXACT, 6),
            ):
                model = AnswerLog(PdfaLanguageModel(target))
                oracle = make_oracle(model)
                assert oracle.check(quotient(target, EXACT)) is None
                assert oracle.check(wrong) is not None
                assert len(model.answers) > 100
                assert len(computed) == len(set(computed)) == len(set(model.answers)) <= 3
                computed.clear()

    def test_exact_oracle_verifies_through_the_memo(self, computed, fig3a):
        # The product search's keys and the counterexample's re-check read
        # one memo: the target's emissions are signed once, when it is built.
        oracle = ExactOracle(fig3a, QUANT7)
        assert computed == list(dict.fromkeys(fig3a.emissions))
        hypothesis = one_state_hypothesis(unary_dist(0.5), QUANT7)
        for _ in range(3):
            assert oracle.check(hypothesis) == ()
        assert computed == list(dict.fromkeys(fig3a.emissions))

    def test_exact_oracle_signs_each_target_emission_once_per_run(self, computed):
        rng = random.Random(17)
        counterexamples = 0
        for _ in range(6):
            target = random_pdfa(rng, max_states=12, min_states=6, min_symbols=2,
                                 max_symbols=2, palette_size=3)
            copied = Pdfa(target.alphabet, target.initial,
                          tuple(map(copy_of, target.emissions)), target.transitions)
            computed.clear()
            report = learn(PdfaLanguageModel(target), EXACT, ExactOracle(copied, EXACT))
            assert report.converged
            assert computed == list(dict.fromkeys(copied.emissions))
            counterexamples += report.rounds - 1
        assert counterexamples >= 6  # each one re-checked through the memo


class TestSamplingOracle:
    def test_correct_hypothesis_passes(self):
        model = UniformUnaryModel()
        oracle = SamplingOracle(model, QUANT3, SamplingConfig(samples=50, seed=3))
        assert oracle.check(one_state_hypothesis(unary_dist(0.5), QUANT3)) is None

    def test_short_counterexample_found_in_sweep(self):
        from pdfa_forge import AlternatingUnaryModel

        model = AlternatingUnaryModel()
        oracle = SamplingOracle(model, EXACT, SamplingConfig(samples=10, seed=0))
        counterexample = oracle.check(one_state_hypothesis(unary_dist(0.5), EXACT))
        assert counterexample is not None and len(counterexample) <= 1

    def test_fixed_seed_gives_identical_verdicts(self, fig3a):
        model = PdfaLanguageModel(fig3a)
        wrong = one_state_hypothesis(unary_dist(0.5), QUANT7)
        results = [
            SamplingOracle(model, QUANT7, SamplingConfig(samples=30, seed=11)).check(wrong)
            for _ in range(3)
        ]
        assert results[0] == results[1] == results[2]

    def test_counterexamples_are_prefix_minimal(self, fig3a):
        model = PdfaLanguageModel(fig3a)
        oracle = SamplingOracle(model, QUANT7, SamplingConfig(samples=100, seed=5))
        counterexample = oracle.check(one_state_hypothesis(unary_dist(0.5), QUANT7))
        assert counterexample == ()  # the empty word already separates

    def test_samples_are_drawn_once_and_prefetched_on_every_check(self, monkeypatch):
        rng = random.Random(31)
        target = random_pdfa(rng, max_states=8, min_states=4, min_symbols=2)
        config = SamplingConfig(samples=200, max_length=15, seed=9)
        reference = ShrinkEveryFailure(PdfaLanguageModel(target), QUANT3, config)
        draws = random.Random(config.seed)
        expected = [
            tuple(draws.choice(target.alphabet.symbols) for _ in range(length))
            for length in (min(reference.geometric(draws), config.max_length)
                           for _ in range(config.samples))
        ]
        prefetched = []
        cache = cached(PdfaLanguageModel(target))
        monkeypatch.setattr(cache, "prefetch", prefetched.append)
        oracle = SamplingOracle(cache, QUANT3, config)
        wrong = quotient(target, parse_equivalence("quant:1"))
        hypothesis = quotient(target, QUANT3)
        for h in (hypothesis, hypothesis, wrong, hypothesis):
            oracle.check(h)
        # One list, drawn once; the sweep catches the wrong hypothesis
        # before the samples are reached.
        assert prefetched == [expected] * 3 and all(p is prefetched[0] for p in prefetched)

    @pytest.mark.parametrize("field", [
        {"samples": 0}, {"samples": 2.5}, {"samples": True}, {"samples": "10"},
        {"max_length": -1}, {"max_length": 2.5}, {"max_length": False}, {"max_length": None},
    ])
    def test_config_validation(self, field):
        with pytest.raises(ValueError, match=next(iter(field))):
            SamplingConfig(**field)


class TestBoundedExhaustiveOracle:
    def test_correct_hypothesis_passes(self):
        model = UniformUnaryModel()
        oracle = BoundedExhaustiveOracle(model, QUANT3, 10)
        assert oracle.check(one_state_hypothesis(unary_dist(0.5), QUANT3)) is None

    def test_coarse_equivalence_accepts_collapsed_hypothesis(self, fig2a):
        model = PdfaLanguageModel(fig2a)
        oracle = BoundedExhaustiveOracle(model, QUANT3, 12)
        hypothesis = one_state_hypothesis(unary_dist(0.5), QUANT3)
        assert oracle.check(hypothesis) is None

    def test_fine_equivalence_rejects_it_immediately(self, fig2a):
        model = PdfaLanguageModel(fig2a)
        oracle = BoundedExhaustiveOracle(model, QUANT7, 1)
        hypothesis = one_state_hypothesis(unary_dist(0.5), QUANT7)
        assert oracle.check(hypothesis) == ()

    def test_negative_length_bound_is_rejected(self):
        # A bound of -1 would sweep no word and accept any hypothesis.
        with pytest.raises(ValueError, match="max_length"):
            BoundedExhaustiveOracle(UniformUnaryModel(), QUANT3, -1)

    @pytest.mark.parametrize("max_length", [2.5, True, "3"])
    def test_bounds_that_are_no_int_or_negative_are_rejected(self, max_length):
        # 2.5 used to be accepted and fail at the first check.
        with pytest.raises(ValueError, match="max_length"):
            BoundedExhaustiveOracle(UniformUnaryModel(), QUANT3, max_length)

    def test_the_sweep_budget_is_a_constant_not_an_argument(self):
        with pytest.raises(TypeError, match="max_words"):
            BoundedExhaustiveOracle(UniformUnaryModel(), QUANT3, 3, max_words=10)

    def test_a_sweep_of_exactly_the_budget_is_allowed(self):
        # Over one symbol, lengths 0..n are n + 1 words.
        budget = teacher_module.MAX_SWEEP_WORDS
        BoundedExhaustiveOracle(UniformUnaryModel(), QUANT3, budget - 1)
        with pytest.raises(OracleBudgetExceeded, match=f"sweeping {budget + 1} words"):
            BoundedExhaustiveOracle(UniformUnaryModel(), QUANT3, budget)

    @pytest.mark.parametrize("symbols", [2, 3])
    def test_a_long_bound_is_refused_without_counting(self, symbols):
        # The count of the words up to length 10**6 has hundreds of
        # thousands of digits; length L alone holds at least 2^L words.
        target = random_pdfa(random.Random(0), 1, min_symbols=symbols, max_symbols=symbols)
        budget = teacher_module.MAX_SWEEP_WORDS
        start = time.perf_counter()
        with pytest.raises(OracleBudgetExceeded, match=f"sweeping more than {budget} words"):
            BoundedExhaustiveOracle(PdfaLanguageModel(target), QUANT3, 10**6)
        assert time.perf_counter() - start < 1.0

    def test_budget_guard(self):
        model = PdfaLanguageModel(random_pdfa(random.Random(1), max_states=3, max_symbols=3))
        if len(model.alphabet) >= 2:
            with pytest.raises(OracleBudgetExceeded):
                BoundedExhaustiveOracle(model, EXACT, 64)

    def test_agrees_with_exact_oracle(self):
        # Pumping-style sufficiency: sweeping up to |target|*|hypothesis|
        # words matches the product construction verdict, word for word.
        rng = random.Random(123)
        pairs = 0
        while pairs < 100:
            symbols = 1 if pairs % 2 == 0 else 2
            max_states = 8 if symbols == 1 else 3
            target = random_pdfa(rng, max_states=max_states, max_symbols=symbols)
            other = random_pdfa(rng, max_states=max_states, max_symbols=symbols)
            if target.alphabet != other.alphabet:
                continue
            spec = parse_equivalence(rng.choice(["quant:2", "quant:4", "exact"]))
            hypothesis = quotient(other, spec)
            exact_verdict = ExactOracle(target, spec).check(hypothesis)
            sweep = BoundedExhaustiveOracle(
                PdfaLanguageModel(target), spec, target.n_states * hypothesis.n_states
            ).check(hypothesis)
            assert exact_verdict == sweep
            pairs += 1


class TestCounterexampleHygiene:
    def test_returned_words_are_reverified(self, fig2a):
        # Sabotage the comparison data to make the oracle lie; the final
        # membership-query verification must catch it.
        spec = parse_equivalence("quant:10")
        oracle = ExactOracle(fig2a, spec)
        oracle._target_sigs = [b"bogus"] * len(oracle._target_sigs)
        with pytest.raises(AssertionError, match="bogus counterexample"):
            oracle.check(quotient(fig2a, spec))

    def test_every_oracle_counterexample_disagrees_classwise(self, fig3a):
        model = PdfaLanguageModel(fig3a)
        hypothesis = one_state_hypothesis(unary_dist(0.5), QUANT7)
        for oracle in (
            ExactOracle(fig3a, QUANT7),
            SamplingOracle(model, QUANT7, SamplingConfig(samples=20, seed=2)),
            BoundedExhaustiveOracle(model, QUANT7, 6),
        ):
            word = oracle.check(hypothesis)
            assert word is not None
            assert signature(model.query(word), QUANT7) != hypothesis.class_after(word)
