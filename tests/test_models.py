"""Language-model backends: PDFA-induced, synthetic unary, caching."""

import random
import re
import sys
import threading

import pytest

from pdfa_forge import (
    Alphabet,
    AlphabetMismatch,
    AlternatingUnaryModel,
    Distribution,
    LanguageModel,
    PdfaLanguageModel,
    RemoteModel,
    UniformUnaryModel,
    cached,
    is_triangular,
    parse_equivalence,
    parse_similarity,
    signature,
    string_tolerant,
    synthetic_model,
)
from pdfa_forge.words import iter_words

from helpers import random_pdfa


class TestPdfaModel:
    def test_initial_distribution(self, fig2a):
        model = PdfaLanguageModel(fig2a)
        assert model.query(()).as_dict() == pytest.approx({"a": 0.6, "$": 0.4})

    def test_after_one_symbol(self, fig2a):
        model = PdfaLanguageModel(fig2a)
        assert model.query(("a",)).as_dict() == pytest.approx({"a": 0.4, "$": 0.6})

    def test_loop_state(self, fig2b):
        model = PdfaLanguageModel(fig2b)
        assert model.query(("a",) * 4).as_dict() == pytest.approx({"a": 0.5, "$": 0.5})

    def test_agrees_with_recursive_evaluation(self):
        # Oracle: evaluate the transition extension by literal recursion.
        def recursive_state(a, q, word):
            if not word:
                return q
            return recursive_state(a, a.step(q, word[0]), word[1:])

        rng = random.Random(11)
        for _ in range(10):
            a = random_pdfa(rng, max_states=6, max_symbols=3)
            model = PdfaLanguageModel(a)
            for _ in range(100):
                word = tuple(
                    rng.choice(a.alphabet.symbols) for _ in range(rng.randint(0, 12))
                )
                expected = a.emissions[recursive_state(a, a.initial, word)]
                assert model.query(word) == expected

    def test_rejects_foreign_symbols(self, fig2a):
        with pytest.raises(AlphabetMismatch):
            PdfaLanguageModel(fig2a).query(("z",))

    @pytest.mark.parametrize("make, word, offender", [
        (PdfaLanguageModel, ("$",), "$"),
        (PdfaLanguageModel, ("a", "$"), "$"),
        (PdfaLanguageModel, ("z",), "z"),
        pytest.param(lambda _: AlternatingUnaryModel(), ("z",), "z", id="alternating-z"),
    ])
    def test_terminal_and_foreign_symbols_are_alphabet_mismatches(
        self, fig2a, make, word, offender
    ):
        # ``$`` has a probability in every answer but no transition column.
        with pytest.raises(AlphabetMismatch) as caught:
            make(fig2a).query(word)
        assert str(caught.value) == f"symbol {offender!r} not in alphabet ('a',)"


class TestTriangularPredicate:
    def test_members(self):
        members = [n for n in range(30) if is_triangular(n)]
        assert members == [1, 3, 6, 10, 15, 21, 28]

    def test_zero_is_not_marked(self):
        assert not is_triangular(0)

    def test_gaps_strictly_increase(self):
        members = [n for n in range(1000) if is_triangular(n)]
        gaps = [b - a for a, b in zip(members, members[1:])]
        assert all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:]))


class TestSyntheticModels:
    def test_alternating_marked_length(self):
        model = AlternatingUnaryModel()
        assert model.query(("a",) * 3).as_dict() == pytest.approx({"a": 0.4, "$": 0.6})

    def test_alternating_unmarked_length(self):
        model = AlternatingUnaryModel()
        assert model.query(("a",) * 2).as_dict() == pytest.approx({"a": 0.6, "$": 0.4})

    def test_uniform_everywhere(self):
        model = UniformUnaryModel()
        for n in (0, 1, 5, 17):
            assert model.query(("a",) * n).as_dict() == pytest.approx({"a": 0.5, "$": 0.5})

    def test_builtin_names(self):
        assert isinstance(synthetic_model("m1"), AlternatingUnaryModel)
        assert isinstance(synthetic_model("m2"), UniformUnaryModel)
        for name in ("m3", "m1_alternating", "alternating-unary", "m2_uniform", "uniform-unary"):
            with pytest.raises(ValueError):
                synthetic_model(name)

    def test_models_never_exactly_equivalent_but_tolerant(self):
        m1, m2 = AlternatingUnaryModel(), UniformUnaryModel()
        exact = parse_equivalence("exact")
        for n in range(26):
            word = ("a",) * n
            assert signature(m1.query(word), exact) != signature(m2.query(word), exact)
        assert string_tolerant(m1, m2, parse_similarity("vd:0.15"), 25) is None


class TestWordCheck:
    # No server listens on port 9: a word must be rejected before any
    # request is made, or the query would fail with a network error.
    FACTORIES = {
        "alternating": AlternatingUnaryModel,
        "uniform": UniformUnaryModel,
        "remote": lambda: RemoteModel("http://127.0.0.1:9", Alphabet(("a",)), timeout=0.2),
    }

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    @pytest.mark.parametrize("word, offender", [
        (("a", "$"), "$"), (("z",), "z"), (("a", "a", "z", "$"), "z"),
    ])
    def test_foreign_and_terminal_symbols_are_rejected(self, name, word, offender):
        model = self.FACTORIES[name]()
        with pytest.raises(AlphabetMismatch, match=re.escape(f"symbol {offender!r}")):
            model.query(word)


class TestCachedModel:
    def test_repeated_query_hits_once(self):
        inner = CountingModel()
        model = cached(inner)
        model.query(("a", "b"))
        model.query(("a", "b"))
        assert inner.calls == 1

    def test_distinct_queries_all_pass_through(self):
        inner = CountingModel()
        model = cached(inner)
        model.query(("a",))
        model.query(("b",))
        assert inner.calls == 2

    def test_counters(self):
        model = cached(CountingModel())
        model.query(("a",))
        model.query(("b",))
        model.query(("a",))
        assert (model.hits, model.misses) == (1, 2)

    def test_cache_returns_identical_objects(self):
        model = cached(CountingModel())
        first = model.query(("a",))
        assert model.query(("a",)) is first

    def test_peek_reads_an_answer_without_counting_it(self):
        inner = CountingModel()
        model = cached(inner)
        first = model.query(("a",))
        assert model.peek(("a",)) is first
        assert (model.hits, model.misses, inner.calls) == (0, 1, 1)
        with pytest.raises(KeyError):
            model.peek(("b",))  # never queried: the inner model is not asked
        assert inner.calls == 1

    def test_wrapping_is_idempotent(self):
        model = cached(CountingModel())
        assert cached(model) is model

    def test_observationally_identical_to_inner(self):
        rng = random.Random(5)
        a = random_pdfa(rng, max_states=5, max_symbols=2)
        plain, wrapped = PdfaLanguageModel(a), cached(PdfaLanguageModel(a))
        for _ in range(200):
            word = tuple(rng.choice(a.alphabet.symbols) for _ in range(rng.randint(0, 8)))
            assert wrapped.query(word) == plain.query(word)

    def test_concurrent_queries_are_safe(self):
        # The threads start together and walk the words from different
        # offsets, so they race on first queries (misses) as well as on
        # repeats (hits). A tiny switch interval forces thread switches
        # inside ``query``, where a counter the threads shared would lose
        # updates.
        inner = RecordingModel()
        model = cached(inner)
        words = list(iter_words(inner.alphabet, 10))
        start = threading.Barrier(8, timeout=30)
        results = [None] * 8
        errors = []

        def worker(slot):
            try:
                order = words[slot * 97 :] + words[: slot * 97]
                start.wait()
                results[slot] = dict(zip(order, map(model.query, order)))
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert all(r[w] is results[0][w] for r in results for w in words)
        assert model.misses == len(inner.calls)
        assert model.hits + model.misses == 8 * len(words)
        assert set(inner.calls) == set(words)


class RecordingModel(LanguageModel):
    """Constant model over {a, b} recording each query with ``list.append``,
    which loses no call under concurrent use."""

    def __init__(self):
        self.calls = []
        self._alphabet = Alphabet(("a", "b"))

    @property
    def alphabet(self):
        return self._alphabet

    def query(self, word):
        self.calls.append(word)
        return Distribution(self._alphabet, (0.25, 0.25, 0.5))


class CountingModel(LanguageModel):
    """Constant model over {a, b} returning a fresh object per call."""

    def __init__(self):
        self.calls = 0
        self._alphabet = Alphabet(("a", "b"))

    @property
    def alphabet(self):
        return self._alphabet

    def query(self, word):
        self.calls += 1
        return Distribution(self._alphabet, (0.25, 0.25, 0.5))


class BatchingModel(CountingModel):
    """``CountingModel`` with a batch path that records each batch."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def query_many(self, words):
        words = list(words)
        self.batches.append(words)
        return [self.query(word) for word in words]


class TestPrefetch:
    def test_one_batch_of_the_distinct_words_not_cached(self):
        inner = BatchingModel()
        model = cached(inner)
        model.query(("a",))
        model.prefetch([("b",), ("a",), ("b",), (), ("a", "b")])
        assert inner.batches == [[("b",), (), ("a", "b")]]
        model.prefetch([("b",), ("b", "b")])  # ("b",) is already prefetched
        assert inner.batches[1:] == [[("b", "b")]]

    def test_prefetched_answers_count_as_misses_and_leave_the_inner_model_alone(self):
        words = [("a",), ("b",), ("a",), (), ("b",), ("a", "a")]
        plain, prefetching = cached(CountingModel()), cached(BatchingModel())
        expected = [plain.query(w) for w in words]
        prefetching.prefetch(words)
        calls = prefetching.inner.calls
        assert [prefetching.query(w) for w in words] == expected
        assert prefetching.inner.calls == calls == 4
        assert (prefetching.hits, prefetching.misses) == (plain.hits, plain.misses) == (2, 4)

    def test_a_model_without_a_batch_path_is_not_asked(self):
        inner = CountingModel()
        model = cached(inner)
        model.prefetch([("a",), ("b",)])
        assert inner.calls == 0 and model.misses == 0

    def test_the_default_batch_path_is_a_loop(self):
        inner = CountingModel()
        assert inner.query_many([("a",), ("a",)]) == [inner.query(("a",))] * 2
        assert inner.calls == 3
