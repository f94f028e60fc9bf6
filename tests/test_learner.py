"""Observation-table mechanics and the learning loop."""

import ast
import copy
import gc
import json
import random
import re
import weakref
from pathlib import Path

import pytest

from pdfa_forge import (
    Alphabet,
    AlphabetMismatch,
    AutomatonError,
    BoundedExhaustiveOracle,
    CachedModel,
    Distribution,
    ExactOracle,
    LanguageModel,
    LearnerInvariantError,
    ObservationTable,
    PdfaLanguageModel,
    Pdfa,
    QuotientPdfa,
    SamplingConfig,
    SamplingOracle,
    TableLimitExceeded,
    UniformUnaryModel,
    cached,
    isomorphism,
    learn,
    lm_equivalent,
    parse_equivalence,
    quotient,
    realize,
    signature,
)
from pdfa_forge import learner as learner_module
from pdfa_forge.automata import _walk
from pdfa_forge.words import iter_words, word_key

import make_golden
from helpers import FreshCopyModel, random_pdfa, table_cell, unary_dist, validate_table

QUANT3 = parse_equivalence("quant:3")
QUANT7 = parse_equivalence("quant:7")
QUANT10 = parse_equivalence("quant:10")
EXACT = parse_equivalence("exact")


def chain_pdfa() -> Pdfa:
    """Four-state unary chain whose first and third emissions coincide.

    The repeated emission makes the initial single-suffix table give the
    empty word and the two-symbol word one row, which a continuation then
    refutes.
    """
    alphabet = Alphabet(("a",))
    d_half = Distribution(alphabet, (0.5, 0.5))
    d_low = Distribution(alphabet, (0.3, 0.7))
    d_high = Distribution(alphabet, (0.9, 0.1))
    return Pdfa(
        alphabet=alphabet,
        initial=0,
        emissions=(d_half, d_low, d_half, d_high),
        transitions=((1,), (2,), (3,), (3,)),
    )


def late_change_pdfa() -> Pdfa:
    """Four-state unary chain whose emission changes only after three symbols.

    Its first counterexample, ``aaa``, is separated by the two-symbol suffix
    ``aa``, whose tail ``a`` is not a column yet.
    """
    alphabet = Alphabet(("a",))
    same = Distribution(alphabet, (0.5, 0.5))
    other = Distribution(alphabet, (0.9, 0.1))
    return Pdfa(
        alphabet=alphabet,
        initial=0,
        emissions=(same, same, same, other),
        transitions=((1,), (2,), (3,), (3,)),
    )


def close(table: ObservationTable) -> None:
    while not (closed := table.closed())[0]:
        table.close_step(closed[1])


def hypotheses(table: ObservationTable, oracle):
    """Yield each hypothesis of the learning loop, up to the accepted one."""
    while True:
        close(table)
        hypothesis = table.build_hypothesis()
        yield hypothesis
        counterexample = oracle.check(hypothesis)
        if counterexample is None:
            return
        table.update_with_counterexample(counterexample)


class TestInit:
    def test_constant_model(self):
        table = ObservationTable(UniformUnaryModel(), QUANT3)
        assert table.red == [()]
        assert table.blue == [("a",)]
        assert table.suffixes == [()]
        assert table_cell(table, (), ()).as_dict() == pytest.approx({"a": 0.5, "$": 0.5})
        assert table_cell(table, ("a",), ()).as_dict() == pytest.approx({"a": 0.5, "$": 0.5})

    def test_pdfa_model_cells(self, fig2a):
        table = ObservationTable(PdfaLanguageModel(fig2a), QUANT3)
        assert table_cell(table, (), ()).as_dict() == pytest.approx({"a": 0.6, "$": 0.4})
        assert table_cell(table, ("a",), ()).as_dict() == pytest.approx({"a": 0.4, "$": 0.6})

    def test_invariants_hold(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        validate_table(table)

    def test_validate_detects_a_stale_row_cache(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        table.close_step(("a",))
        table._rows[1] = table._rows[0]  # the rows of ("a",) and ()
        with pytest.raises(LearnerInvariantError, match="cached row"):
            validate_table(table)

    def test_validate_detects_a_stale_class_index(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        table.close_step(("a",))
        table._classes.popitem()
        with pytest.raises(LearnerInvariantError, match="class index"):
            validate_table(table)

    def test_validate_rejects_two_red_rows_of_one_class(self):
        # No public step promotes a matched row; the private path does.
        table = ObservationTable(PdfaLanguageModel(chain_pdfa()), EXACT)
        close(table)
        rank = table._rank(("a", "a"))
        assert table.row_signature(("a", "a")) == table.row_signature(())
        table._fill_rows(table._promote(rank))
        table._classes[table._rows[rank]] = rank
        with pytest.raises(LearnerInvariantError, match="two RED rows share a class"):
            validate_table(table)

    def test_validate_detects_a_scan_cursor_past_an_unmatched_row(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        ok, offender = table.closed()
        assert not ok
        validate_table(table)
        table._scan = table._rank(offender) + 1
        with pytest.raises(LearnerInvariantError, match="below the scan cursor"):
            validate_table(table)

    def test_validate_rejects_a_column_ahead_of_its_tail(self):
        # The self-check reads each column's tail from one pass over the
        # columns in order; only the private path can add them out of order.
        table = ObservationTable(PdfaLanguageModel(late_change_pdfa()), EXACT)
        close(table)
        table._add_columns([("a", "a"), ("a",)])
        table._reindex()
        with pytest.raises(LearnerInvariantError, match=r"suffix \('a', 'a'\) comes ahead"):
            validate_table(table)


class TestOneCellStore:
    """A cell is its word's answer in the table's cache, and nowhere else."""

    def test_a_cell_is_the_cached_answer_read_without_a_hit(self, fig3a):
        model = CachedModel(PdfaLanguageModel(fig3a))
        table = ObservationTable(model, QUANT7)
        close(table)
        counts = model.hits, model.misses
        for p in table.red + table.blue:
            for s in table.suffixes:
                assert table_cell(table, p, s) is model.peek(p + s)
        assert (model.hits, model.misses) == counts

    def test_words_the_model_answered_for_others_are_no_cells(self, fig3a):
        model = CachedModel(PdfaLanguageModel(fig3a))
        table = ObservationTable(model, QUANT7)
        assert table.red == [()] and table.blue == [("a",)] and table.suffixes == [()]
        model.query(("a", "a"))  # as an equivalence oracle sharing the cache would
        for prefix, suffix in [(("a", "a"), ()), (("a",), ("a",)), ((), ("a", "a"))]:
            with pytest.raises(KeyError):
                table_cell(table, prefix, suffix)

    def test_validate_detects_a_missing_cell(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        table.close_step(("a",))
        del table.model._cache[("a", "a")]
        with pytest.raises(LearnerInvariantError, match=r"cell \(\('a', 'a'\), \(\)\) is missing"):
            validate_table(table)

    @staticmethod
    def learned_table():
        target = random_pdfa(random.Random(99), max_states=30, min_states=10, min_symbols=3)
        table = ObservationTable(PdfaLanguageModel(target), EXACT)
        for _ in hypotheses(table, ExactOracle(target, EXACT)):
            pass
        return table

    @pytest.mark.parametrize("corrupt, message", [
        (lambda t: t._red.__setitem__(slice(1, 3), t._red[2:0:-1]), "RED rank list"),
        (lambda t: t._red.__setitem__(-1, t._red[-1] + 1), "stored words"),
        (lambda t: t._blue.__setitem__(slice(0, 2), t._blue[1::-1]), "BLUE rank list"),
        (lambda t: t._blue.pop(), "stored words"),
        (lambda t: t._word.__setitem__(t._blue[0], t._word[t._blue[1]]), "stored word of rank"),
        (lambda t: t._word.__setitem__(t._red[-1], ("z", "z")), "stored word of rank"),
        (lambda t: t._word.__setitem__(t._red[-1], t._word[t._red[-1]] + ("$",)),
         "stored word of rank"),
        (lambda t: t._word.__setitem__(t._blue[-1] + 1, ("z", "z")), "stored words"),
        (lambda t: t._word.pop(t._blue[-1]), "stored words"),
        (lambda t: t._rows.__setitem__(-1, t._rows[0]), "row cache"),
    ])
    def test_validate_detects_a_stale_rank(self, corrupt, message):
        table = self.learned_table()
        validate_table(table)
        corrupt(table)
        with pytest.raises(LearnerInvariantError, match=message):
            validate_table(table)

    def test_only_the_empty_word_needs_word_key(self, monkeypatch):
        # Every other word's key is derived from its parent's;
        # ``validate_table`` recomputes them all, so it runs with the original.
        calls = []

        def counting_word_key(alphabet, word):
            calls.append(word)
            return word_key(alphabet, word)

        target = random_pdfa(random.Random(99), max_states=30, min_states=10, min_symbols=3)
        monkeypatch.setattr(learner_module, "word_key", counting_word_key)
        table = ObservationTable(PdfaLanguageModel(target), EXACT)
        for _ in hypotheses(table, ExactOracle(target, EXACT)):
            pass
        assert calls == [()] and len(table.red) > 5
        monkeypatch.setattr(learner_module, "word_key", word_key)
        validate_table(table)


class TestLifetime:
    def test_table_is_freed_without_the_cycle_collector(self, fig2a):
        table = ObservationTable(PdfaLanguageModel(fig2a), QUANT10)
        table.close_step(("a",))
        table.update_with_counterexample(("a", "a", "a"))
        table.red_classes()
        ref = weakref.ref(table)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del table
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestClosed:
    def test_constant_model_is_closed_immediately(self):
        table = ObservationTable(UniformUnaryModel(), QUANT3)
        assert table.closed() == (True, None)

    def test_three_level_model_is_not(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        ok, offender = table.closed()
        assert not ok and offender == ("a",)

    def test_closing_terminates_with_three_classes(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        while True:
            ok, offender = table.closed()
            if ok:
                break
            table.close_step(offender)
        assert table.red_class_count() == 3
        validate_table(table)

    def test_close_step_preserves_existing_cells(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        before = {(p, s): table_cell(table, p, s) for p in table.red + table.blue for s in table.suffixes}
        assert len(before) == 2
        table.close_step(("a",))
        for (p, s), value in before.items():
            assert table_cell(table, p, s) == value
        assert table.red == [(), ("a",)]
        assert ("a", "a") in table.blue

    def test_offender_is_the_first_unmatched_row_of_a_blue_scan(self):
        # Through closing and counterexample columns, the scan cursor
        # stops at the row a length-lex scan of all of BLUE finds first.
        rng = random.Random(515)
        updates = 0
        for _ in range(20):
            target = random_pdfa(
                rng, max_states=25, min_states=5, min_symbols=2, palette_size=rng.randint(2, 4)
            )
            spec = parse_equivalence(rng.choice(["quant:2", "quant:5", "exact"]))
            table = ObservationTable(PdfaLanguageModel(target), spec)
            oracle = ExactOracle(target, spec)
            while True:
                classes = table.red_classes()
                scan = next((p for p in table.blue if table.row_signature(p) not in classes), None)
                assert table.closed() == (scan is None, scan)
                validate_table(table)
                if scan is not None:
                    table.close_step(scan)
                    continue
                counterexample = oracle.check(table.build_hypothesis())
                if counterexample is None:
                    break
                table.update_with_counterexample(counterexample)
                updates += 1
        assert updates > 0

    def test_the_offender_itself_and_an_equal_copy_close_alike(self):
        # ``close_step`` takes the scan cursor's rank for the very word
        # ``closed`` returned, and looks up the rank of any other word.
        rng = random.Random(929)
        steps = 0
        for _ in range(12):
            target = random_pdfa(
                rng, max_states=25, min_states=5, min_symbols=2, palette_size=rng.randint(2, 4)
            )
            spec = parse_equivalence(rng.choice(["quant:2", "quant:5", "exact"]))
            itself = ObservationTable(PdfaLanguageModel(target), spec)
            copied = ObservationTable(PdfaLanguageModel(target), spec)
            oracle = ExactOracle(target, spec)
            while True:
                ok, offender = itself.closed()
                assert copied.closed() == (ok, offender)
                if ok:
                    counterexample = oracle.check(itself.build_hypothesis())
                    if counterexample is None:
                        break
                    itself.update_with_counterexample(counterexample)
                    copied.update_with_counterexample(counterexample)
                    continue
                equal_copy = tuple(list(offender))
                assert equal_copy == offender and equal_copy is not offender
                itself.close_step(offender)
                copied.close_step(equal_copy)
                steps += 1
                for table in (itself, copied):
                    validate_table(table)
                assert itself.red == copied.red and itself.blue == copied.blue
                assert itself.suffixes == copied.suffixes
                assert [itself.row_signature(p) for p in itself.red + itself.blue] == [
                    copied.row_signature(p) for p in copied.red + copied.blue
                ]
        assert steps > 100

    def test_close_step_rejects_non_blue_rows(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        with pytest.raises(ValueError):
            table.close_step(("a", "a", "a"))

    def test_close_step_rejects_matched_rows_and_leaves_the_table_alone(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        close(table)
        matched = table.blue[0]
        assert table.row_signature(matched) in table.red_classes()
        for row in (matched, table.red[-1]):
            dimensions = table.dimensions()
            with pytest.raises(ValueError, match="not an unmatched BLUE row"):
                table.close_step(row)
            assert table.dimensions() == dimensions
            validate_table(table)


class TestConsistent:
    def test_distinct_rows_are_vacuously_consistent(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        table.close_step(("a",))
        assert table.consistent() == (True, None)

    def test_consistent_step_raises(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        close(table)
        with pytest.raises(LearnerInvariantError, match="no consistency defect"):
            table.consistent_step(None)


class TestUpdate:
    def test_red_is_unchanged(self, fig2a):
        table = ObservationTable(PdfaLanguageModel(fig2a), QUANT10)
        table.close_step(("a",))
        table.update_with_counterexample(("a", "a", "a"))
        assert table.red == [(), ("a",)]
        assert table.blue == [("a", "a")]
        validate_table(table)

    def test_update_preserves_prefix_closure(self):
        table = ObservationTable(PdfaLanguageModel(late_change_pdfa()), EXACT)
        close(table)
        table.update_with_counterexample(("a", "a", "a"))
        validate_table(table)
        close(table)
        validate_table(table)

    def test_one_suffix_and_its_missing_tails_are_added(self):
        table = ObservationTable(PdfaLanguageModel(late_change_pdfa()), EXACT)
        close(table)
        assert table.suffixes == [()]
        table.update_with_counterexample(("a", "a", "a"))
        assert table.suffixes == [(), ("a",), ("a", "a")]

    def test_separated_row_opens_a_new_class(self, fig2a):
        table = ObservationTable(PdfaLanguageModel(fig2a), QUANT10)
        table.close_step(("a",))
        table.update_with_counterexample(("a", "a", "a"))
        assert table.closed() == (False, ("a", "a"))
        before = table.red_class_count()
        table.close_step(("a", "a"))
        assert table.red_class_count() == before + 1
        assert table.consistent() == (True, None)

    def test_search_costs_logarithmically_many_queries(self):
        # The breakpoint of a^n under the late-change chain is found by
        # querying a^n itself, then binary search steps over 64 positions.
        table = ObservationTable(PdfaLanguageModel(late_change_pdfa()), EXACT)
        close(table)
        before = table.model.misses
        word = ("a",) * 64
        table.update_with_counterexample(word)
        column_cells = len(table.red + table.blue) * (len(table.suffixes) - 1)
        assert table.model.misses - before <= 1 + 6 + column_cells

    def test_rejects_an_unclosed_table(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        with pytest.raises(ValueError, match="not closed"):
            table.update_with_counterexample(("a", "a"))

    def test_rejects_a_word_the_table_classifies_correctly(self, fig2a):
        table = ObservationTable(PdfaLanguageModel(fig2a), QUANT10)
        table.close_step(("a",))
        for word in [(), ("a",), ("a", "a")]:
            with pytest.raises(ValueError, match="already classifies"):
                table.update_with_counterexample(word)
        assert table.suffixes == [()]

    @pytest.mark.parametrize("word", [("z",), ("$",), ("a", "a", "z"), ("a", "$", "a")])
    def test_a_foreign_symbol_is_an_alphabet_mismatch_before_any_query(self, fig2a, word):
        table = ObservationTable(PdfaLanguageModel(fig2a), QUANT10)
        table.close_step(("a",))
        counts = table.model.hits, table.model.misses
        symbol = next(s for s in word if s != "a")
        with pytest.raises(AlphabetMismatch, match=re.escape(repr(symbol))):
            table.update_with_counterexample(word)
        assert (table.model.hits, table.model.misses) == counts
        assert table.suffixes == [()]
        validate_table(table)

    def test_invariant_fires_when_the_row_stays_matched(self, fig2a, monkeypatch):
        table = ObservationTable(PdfaLanguageModel(fig2a), QUANT10)
        table.close_step(("a",))
        monkeypatch.setattr(ObservationTable, "_add_columns", lambda self, suffixes: None)
        with pytest.raises(LearnerInvariantError, match="unmatched"):
            table.update_with_counterexample(("a", "a", "a"))


class TestBuildHypothesis:
    def test_constant_model_yields_self_loop(self):
        table = ObservationTable(UniformUnaryModel(), QUANT3)
        h = table.build_hypothesis()
        assert h.n_states == 1
        assert h.transitions == ((0,),)
        assert h.class_signatures[0] == signature(unary_dist(0.5), QUANT3)

    def test_collapsing_model(self, fig2a):
        table = ObservationTable(PdfaLanguageModel(fig2a), QUANT3)
        assert table.build_hypothesis().n_states == 1

    def test_three_state_hypothesis(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        while not table.closed()[0]:
            table.close_step(table.closed()[1])
        h = table.build_hypothesis()
        assert h.n_states == 3
        assert isomorphism(h, quotient(fig3a, QUANT7)) is not None

    def test_requires_closedness(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        with pytest.raises(ValueError, match="not closed"):
            table.build_hypothesis()


class ForeignAnswers(LanguageModel):
    """Answers, over another alphabet, for the words of ``alphabet``."""

    def __init__(self, alphabet: Alphabet, answer: Distribution):
        self._alphabet = alphabet
        self.answer = answer

    @property
    def alphabet(self):
        return self._alphabet

    def query(self, word):
        self._check_word(word)
        return self.answer


class RebuildingOracle:
    """An oracle that rebuilds each hypothesis through the checked public
    constructor, requires the copy to be equal field for field, and then
    answers as ``inner`` does."""

    def __init__(self, inner):
        self.inner = inner
        self.checked = 0

    def check(self, hypothesis):
        rebuilt = QuotientPdfa(
            alphabet=hypothesis.alphabet,
            initial=hypothesis.initial,
            class_signatures=hypothesis.class_signatures,
            representatives=hypothesis.representatives,
            transitions=hypothesis.transitions,
            equivalence=hypothesis.equivalence,
        )
        assert rebuilt == hypothesis and vars(rebuilt) == vars(hypothesis)
        self.checked += 1
        return self.inner.check(hypothesis)


class TestHypothesesPassTheCheckedConstructor:
    """``build_hypothesis`` skips ``QuotientPdfa``'s validation; every
    hypothesis it returns is what the validating constructor builds."""

    def test_on_the_golden_runs(self, monkeypatch):
        oracles = []

        def rebuilding_learn(model, equivalence, teacher, **limits):
            oracles.append(RebuildingOracle(teacher))
            return learn(model, equivalence, oracles[-1], **limits)

        monkeypatch.setattr(make_golden, "learn", rebuilding_learn)
        corpus = json.loads(make_golden.GOLDEN.read_text())
        for name, run in make_golden.runs().items():
            assert run() == corpus[name], name
        assert len(oracles) == len(corpus)
        assert sum(oracle.checked for oracle in oracles) > 100

    @pytest.mark.parametrize("kind", ["exact", "sampling"])
    def test_on_random_targets(self, kind):
        rng = random.Random(3131)
        checked = 0
        for i in range(12):
            target = random_pdfa(
                rng, max_states=40, min_states=3, max_symbols=3, palette_size=rng.randint(2, 6)
            )
            spec = parse_equivalence(rng.choice(["quant:2", "quant:7", "exact", "rank:2"]))
            model = cached(PdfaLanguageModel(target))
            if kind == "exact":
                inner = ExactOracle(target, spec)
            else:
                inner = SamplingOracle(model, spec, SamplingConfig(samples=200, max_length=20, seed=i))
            oracle = RebuildingOracle(inner)
            report = learn(model, spec, oracle)
            assert report.converged
            checked += oracle.checked
        assert checked > 24

    def test_the_unchecked_constructor_has_one_caller(self):
        # Every call of ``QuotientPdfa._unchecked`` in the package, by the
        # module and function it sits in.
        package = Path(learner_module.__file__).parent
        calls = []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text())
            for function in ast.walk(tree):
                if isinstance(function, ast.FunctionDef):
                    calls += [
                        (path.name, function.name)
                        for node in ast.walk(function)
                        if isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "_unchecked"
                    ]
        assert calls == [("learner.py", "build_hypothesis")]

    def test_representatives_over_another_alphabet_are_rejected(self):
        # Nothing the table proves covers the model's answers, so
        # ``build_hypothesis`` checks their alphabet itself.
        target = chain_pdfa()
        model = ForeignAnswers(target.alphabet, Distribution(Alphabet(("x",)), (0.5, 0.5)))
        with pytest.raises(AutomatonError, match="representative over a different alphabet"):
            learn(model, QUANT3, ExactOracle(target, QUANT3))


def per_cell_check(table, hypothesis, class_id):
    """The self-check as it was, cell by cell: each RED prefix walked from the
    initial state, each suffix walked from the prefix's state. Returns the
    first failure's message, or None."""
    alphabet, transitions = table.model.alphabet, hypothesis.transitions
    for p in table.red:
        state = _walk(alphabet, transitions, hypothesis.initial, p)
        if state != class_id[table.row_signature(p)]:
            return f"red prefix {p!r} runs to a foreign class"
        for s, sig in zip(table.suffixes, table.row_signature(p)):
            if hypothesis.class_signatures[_walk(alphabet, transitions, state, s)] != sig:
                return f"hypothesis class after {p + s!r} disagrees with the table"
    return None


class TestColumnWiseSelfCheck:
    """The column-wise self-check names the cell the per-cell walk names."""

    def compare(self, table, hypothesis, rng, corruptions=20):
        """Compare both checks on ``hypothesis`` and on copies with one
        transition, then one class signature, changed; returns the messages
        of the refutations."""
        class_id = {sig: i for i, sig in enumerate(table.red_classes())}

        def column_wise(h):
            try:
                table._check_hypothesis_against_table(h, class_id)
            except LearnerInvariantError as exc:
                return str(exc)
            return None

        def corrupt(**fields):
            bad = copy.copy(hypothesis)  # no validation: targets may go unreached
            for name, value in fields.items():
                object.__setattr__(bad, name, value)
            return bad

        n, width = hypothesis.n_states, len(hypothesis.alphabet)
        copies = []
        for _ in range(corruptions):
            rows = [list(row) for row in hypothesis.transitions]
            q, i = rng.randrange(n), rng.randrange(width)
            rows[q][i] = (rows[q][i] + rng.randrange(1, n)) % n if n > 1 else rows[q][i]
            copies.append(corrupt(transitions=tuple(map(tuple, rows))))
            sigs = list(hypothesis.class_signatures)
            sigs[rng.randrange(n)] = rng.choice(sigs[1:] + [b"foreign"])
            copies.append(corrupt(class_signatures=tuple(sigs)))
        assert column_wise(hypothesis) is per_cell_check(table, hypothesis, class_id) is None
        refuted = []
        for h in copies:
            expected = per_cell_check(table, h, class_id)
            assert column_wise(h) == expected
            if expected is not None:
                refuted.append(expected)
        return refuted

    def test_on_hypotheses_of_learning_runs(self):
        rng = random.Random(2718)
        built, refuted = 0, []
        for _ in range(16):
            target = random_pdfa(
                rng, max_states=40, min_states=5, max_symbols=3, min_symbols=2,
                palette_size=rng.randint(2, 5),
            )
            spec = parse_equivalence(rng.choice(["quant:2", "quant:5", "exact"]))
            table = ObservationTable(PdfaLanguageModel(target), spec)
            for hypothesis in hypotheses(table, ExactOracle(target, spec)):
                refuted += self.compare(table, hypothesis, rng, corruptions=3)
                built += 1
        assert built > 50 and len(refuted) > 3 * built
        assert {message.split()[0] for message in refuted} == {"red", "hypothesis"}


class TestLearn:
    def test_one_state_result(self, fig2a):
        report = learn(PdfaLanguageModel(fig2a), QUANT3, ExactOracle(fig2a, QUANT3))
        assert report.converged and report.hypothesis.n_states == 1
        assert lm_equivalent(realize(report.hypothesis), fig2a, QUANT3) is None

    def test_three_state_result(self, fig3a):
        report = learn(PdfaLanguageModel(fig3a), QUANT7, ExactOracle(fig3a, QUANT7))
        assert report.converged and report.hypothesis.n_states == 3

    def test_an_empty_alphabet_gives_one_state_with_an_empty_row(self):
        alphabet = Alphabet(())
        target = Pdfa(alphabet, 0, (Distribution(alphabet, (1.0,)),), ((),))
        report = learn(PdfaLanguageModel(target), EXACT, ExactOracle(target, EXACT))
        assert report.converged and report.hypothesis.transitions == ((),)

    def test_counterexample_round_is_exercised(self, fig2a):
        report = learn(PdfaLanguageModel(fig2a), QUANT10, ExactOracle(fig2a, QUANT10))
        assert report.converged and report.hypothesis.n_states == 3
        assert report.rounds == 2
        assert "counterexample" in [e["event"] for e in report.events]

    def test_matches_independent_partition_refinement(self):
        rng = random.Random(77)
        for _ in range(20):
            target = random_pdfa(rng, max_states=6, max_symbols=2)
            spec = parse_equivalence(rng.choice(["quant:2", "quant:4", "exact"]))
            report = learn(
                PdfaLanguageModel(target), spec, ExactOracle(target, spec)
            )
            assert report.converged
            assert isomorphism(report.hypothesis, quotient(target, spec)) is not None

    @pytest.mark.parametrize(
        "spec_text", ["rank:2", "top:1", "supp", "combo:quant:4+top:1"]
    )
    def test_every_equivalence_kind_is_learnable(self, spec_text):
        rng = random.Random(hash(spec_text) % 2**31)
        spec = parse_equivalence(spec_text)
        for _ in range(8):
            target = random_pdfa(rng, max_states=6, max_symbols=2)
            report = learn(PdfaLanguageModel(target), spec, ExactOracle(target, spec))
            assert report.converged
            assert isomorphism(report.hypothesis, quotient(target, spec)) is not None

    def test_report_accounting(self, fig3a):
        model = cached(PdfaLanguageModel(fig3a))
        report = learn(model, QUANT7, ExactOracle(fig3a, QUANT7))
        assert report.rounds >= 1
        assert report.mq_count == model.misses
        assert report.oracle.startswith("exact")
        assert report.table_history[-1] == (3, 1, 1)

    def test_every_query_goes_through_the_instance_query(self, fig3a):
        # A cache that wraps ``query`` on the instance, as a tracer does,
        # sees every counted lookup: the table's fills and the
        # counterexample search call the instance's ``query`` once per word,
        # and no other path moves the counters.
        class WrappedCache(CachedModel):
            def __init__(self, inner):
                super().__init__(inner)
                self.calls = 0
                query = self.query

                def counted(word):
                    self.calls += 1
                    return query(word)

                self.query = counted

        rng = random.Random(4242)
        targets = [fig3a] + [random_pdfa(rng, max_states=12, max_symbols=3) for _ in range(6)]
        for target in targets:
            model = WrappedCache(PdfaLanguageModel(target))
            report = learn(model, QUANT7, ExactOracle(target, QUANT7))
            assert report.converged
            assert model.calls == model.hits + model.misses > 0
            assert report.mq_count == model.misses

    def test_trace_record_shape(self, fig3a):
        report = learn(PdfaLanguageModel(fig3a), QUANT7, ExactOracle(fig3a, QUANT7))
        for event in report.events:
            assert set(event) == {"event", "red", "blue", "suffixes", "classes"}
            assert event["event"] in {"close", "hypothesis", "counterexample"}


class TestMonotonicity:
    def assert_monotone(self, events):
        classes = 1  # a fresh table has the single lambda row
        hypothesis_classes = []
        for event in events:
            assert event["classes"] >= classes
            if event["event"] == "close":
                assert event["classes"] > classes
            if event["event"] == "hypothesis":
                hypothesis_classes.append(event["classes"])
            classes = event["classes"]
        assert all(b > a for a, b in zip(hypothesis_classes, hypothesis_classes[1:]))

    def test_on_counterexample_run(self, fig2a):
        report = learn(PdfaLanguageModel(fig2a), QUANT10, ExactOracle(fig2a, QUANT10))
        self.assert_monotone(report.events)

    def test_on_random_runs(self):
        rng = random.Random(31)
        for _ in range(15):
            target = random_pdfa(rng, max_states=7, max_symbols=2, palette_size=2)
            spec = parse_equivalence(rng.choice(["quant:2", "quant:8"]))
            report = learn(PdfaLanguageModel(target), spec, ExactOracle(target, spec))
            assert report.converged
            self.assert_monotone(report.events)


class TestClassCountBound:
    def test_classes_never_exceed_the_target_quotient_size(self):
        # The table's RED class count is bounded by the size of the target's
        # quotient at every logged point of the run.
        rng = random.Random(67)
        for _ in range(15):
            target = random_pdfa(rng, max_states=7, max_symbols=2, palette_size=2)
            spec = parse_equivalence(rng.choice(["quant:2", "quant:6", "exact"]))
            bound = quotient(target, spec).n_states
            report = learn(PdfaLanguageModel(target), spec, ExactOracle(target, spec))
            assert report.converged
            assert all(event["classes"] <= bound for event in report.events)
            assert report.hypothesis.n_states == bound


class TestHypothesisTableLaws:
    def test_red_prefixes_reach_their_own_class(self, fig2a):
        # Drive the loop manually so every intermediate hypothesis is visible.
        model = PdfaLanguageModel(fig2a)
        oracle = ExactOracle(fig2a, QUANT10)
        table = ObservationTable(model, QUANT10)
        for _ in range(10):
            close(table)
            h = table.build_hypothesis()
            # external re-statement of the internal checks
            classes = list(table.red_classes())
            for p in table.red:
                state, _ = h.run(p)
                assert state == classes.index(table.row_signature(p))
                for s in table.suffixes:
                    expected = signature(model.query(p + s), QUANT10)
                    assert h.class_after(p + s) == expected
            counterexample = oracle.check(h)
            if counterexample is None:
                return
            table.update_with_counterexample(counterexample)
        pytest.fail("did not converge")


class TestRefinement:
    def test_more_suffixes_refine_row_equality(self, fig2a):
        # Equality under a suffix superset implies equality under any subset.
        model = PdfaLanguageModel(fig2a)
        rng = random.Random(13)
        words = [("a",) * n for n in range(8)]
        small = [("a",) * n for n in range(3)]
        large = small + [("a",) * n for n in range(3, 6)]

        def row(u, suffix_set):
            return tuple(signature(model.query(u + w), QUANT10) for w in suffix_set)

        for _ in range(50):
            u1, u2 = rng.choice(words), rng.choice(words)
            if row(u1, large) == row(u2, large):
                assert row(u1, small) == row(u2, small)


class TestNonRegularTargets:
    def test_round_limit_reports_non_convergence(self):
        from pdfa_forge import AlternatingUnaryModel

        model = cached(AlternatingUnaryModel())
        oracle = SamplingOracle(model, EXACT, SamplingConfig(samples=400, max_length=40, seed=7))
        report = learn(model, EXACT, oracle, max_rounds=3)
        assert not report.converged
        assert report.rounds == 3
        assert report.hypothesis is not None
        assert "round limit" in report.stop_reason

    def test_bounded_oracle_eventually_certifies_its_view(self):
        # Once the table horizon overtakes the oracle's length bound, the
        # bounded oracle honestly reports agreement and the run converges,
        # even though the target admits no finite exact quotient.
        from pdfa_forge import AlternatingUnaryModel, signature as sig

        model = cached(AlternatingUnaryModel())
        oracle = BoundedExhaustiveOracle(model, EXACT, 40)
        report = learn(model, EXACT, oracle, max_rounds=16)
        assert report.converged
        inner = AlternatingUnaryModel()
        for n in range(41):
            word = ("a",) * n
            assert report.hypothesis.class_after(word) == sig(inner.query(word), EXACT)

    def test_sampling_oracle_certifies_only_the_words_it_checked(self):
        # A sampling oracle is one-sided: its acceptance vouches for the
        # length-3 sweep and the words it sampled, and for nothing else.
        from pdfa_forge import AlternatingUnaryModel, signature as sig

        class RecordingOracle(SamplingOracle):
            def check(self, hypothesis):
                self.checked = []
                return super().check(hypothesis)

            def _fails(self, word, hypothesis):
                self.checked.append(word)
                return super()._fails(word, hypothesis)

        model = cached(AlternatingUnaryModel())
        config = SamplingConfig(samples=400, max_length=40, seed=7)
        oracle = RecordingOracle(model, EXACT, config)
        report = learn(model, EXACT, oracle, max_rounds=16)
        assert report.converged
        assert set(iter_words(model.alphabet, 3)) <= set(oracle.checked)
        assert len(oracle.checked) == 4 + config.samples
        inner = AlternatingUnaryModel()
        for word in oracle.checked:
            assert report.hypothesis.class_after(word) == sig(inner.query(word), EXACT)

    def test_cell_limit_reports_non_convergence(self):
        from pdfa_forge import AlternatingUnaryModel

        model = cached(AlternatingUnaryModel())
        oracle = SamplingOracle(model, EXACT, SamplingConfig(samples=400, max_length=40, seed=7))
        report = learn(model, EXACT, oracle, max_rounds=64, max_cells=40)
        assert not report.converged
        assert "cells" in report.stop_reason

    @pytest.mark.parametrize("limits", [
        {"max_rounds": 0}, {"max_rounds": -2}, {"max_cells": 0}, {"max_cells": -5},
        {"max_rounds": 2.5}, {"max_rounds": True}, {"max_rounds": "3"},
        {"max_cells": 2.5}, {"max_cells": True}, {"max_cells": 1e5}, {"max_cells": None},
    ])
    def test_limits_below_one_are_rejected_before_any_query(self, limits):
        # Limits that are no int (a bool included) are rejected the same way.
        model = cached(UniformUnaryModel())
        oracle = SamplingOracle(model, EXACT, SamplingConfig(samples=10, seed=7))
        with pytest.raises(ValueError, match=next(iter(limits))):
            learn(model, EXACT, oracle, **limits)
        if "max_cells" in limits:
            with pytest.raises(ValueError, match="max_cells"):
                ObservationTable(model, EXACT, **limits)
        assert model.misses == model.hits == 0

    def test_table_limit_exception_surface(self):
        from pdfa_forge import AlternatingUnaryModel

        # Closing fills all three cells; the column that the counterexample
        # ``a^5`` adds needs three more.
        table = ObservationTable(AlternatingUnaryModel(), EXACT, max_cells=3)
        table.close_step(("a",))
        assert table.closed() == (True, None)
        with pytest.raises(TableLimitExceeded):
            table.update_with_counterexample(("a",) * 5)


class NaiveTable:
    """The observation table with every structure recomputed on access.

    The reference the incremental ``ObservationTable`` must match step for
    step: every fill rescans all cells, BLUE is rebuilt and sorted from RED,
    rows are rebuilt from per-cell signatures, RED classes are regrouped from
    sorted RED, and closedness is found by a full scan over rows.
    """

    def __init__(self, model, spec, max_cells):
        self.model = cached(model)
        self.spec = spec
        self.max_cells = max_cells
        self.red = [()]
        self.suffixes = [()]
        self.cells = {}
        self.sigs = {}
        self.fill()

    def key(self, word):
        return word_key(self.model.alphabet, word)

    @property
    def blue(self):
        red = set(self.red)
        symbols = self.model.alphabet.symbols
        return sorted({p + (s,) for p in self.red for s in symbols} - red, key=self.key)

    def fill(self):
        for p in self.red + self.blue:
            for s in self.suffixes:
                if (p, s) not in self.cells:
                    if len(self.cells) >= self.max_cells:
                        raise TableLimitExceeded("cells")
                    self.cells[(p, s)] = self.model.query(p + s)
                    self.sigs[(p, s)] = signature(self.cells[(p, s)], self.spec)

    def row(self, prefix):
        return tuple(self.sigs[(prefix, s)] for s in self.suffixes)

    def red_classes(self):
        classes = {}
        for p in sorted(self.red, key=self.key):
            classes.setdefault(self.row(p), p)
        return classes

    def closed(self):
        red_rows = {self.row(p) for p in self.red}
        for p in self.blue:
            if self.row(p) not in red_rows:
                return False, p
        return True, None

    def close_step(self, offender):
        self.red = sorted(self.red + [offender], key=self.key)
        self.fill()

    def update_with_counterexample(self, word):
        """Binary-search the breakpoint through the hypothesis's runs."""
        if not self.closed()[0]:
            raise ValueError("table is not closed")
        hypothesis = self.build_hypothesis()
        access = list(self.red_classes().values())

        def alpha(i):
            state, _ = hypothesis.run(word[:i])
            return signature(self.model.query(access[state] + word[i:]), self.spec)

        h = hypothesis.class_after(word)
        if alpha(0) == h:
            raise ValueError("the table already classifies the word correctly")
        lo, hi = 0, len(word)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if alpha(mid) == h:
                hi = mid
            else:
                lo = mid
        suffix = word[hi:]
        for k in range(len(suffix), -1, -1):
            if suffix[k:] not in self.suffixes:
                self.suffixes.append(suffix[k:])
        self.fill()

    def build_hypothesis(self):
        classes = self.red_classes()
        class_id = {sig: i for i, sig in enumerate(classes)}
        symbols = self.model.alphabet.symbols
        return QuotientPdfa(
            alphabet=self.model.alphabet,
            initial=class_id[self.row(())],
            class_signatures=tuple(sig[0] for sig in classes),
            representatives=tuple(self.cells[(p, ())] for p in classes.values()),
            transitions=tuple(
                tuple(class_id[self.row(p + (s,))] for s in symbols) for p in classes.values()
            ),
            equivalence=self.spec.spec_string(),
        )


def lockstep_learn(target, spec, max_cells=100_000, wrap=lambda model: model):
    """Run the learning loop on a NaiveTable and an ObservationTable together.

    Both tables query ``wrap`` applied to the target's language model.
    Asserts after every step that both tables agree, and returns what
    ``learn`` reports: trace, MQ misses, hypothesis, convergence.
    """
    naive = NaiveTable(wrap(PdfaLanguageModel(target)), spec, max_cells)
    table = ObservationTable(wrap(PdfaLanguageModel(target)), spec, max_cells=max_cells)
    oracle = ExactOracle(target, spec)
    trace = []

    def agree():
        assert table.red == naive.red
        assert table.blue == naive.blue
        assert table.suffixes == naive.suffixes
        assert list(table.red_classes().items()) == list(naive.red_classes().items())
        assert table.red_class_count() == len(naive.red_classes())
        assert table.dimensions() == (len(naive.red), len(naive.blue), len(naive.suffixes))
        assert table.model.misses == naive.model.misses

    def step(event, name, arg):
        outcomes = []
        for t in (naive, table):
            try:
                getattr(t, name)(arg)
                outcomes.append(None)
            except TableLimitExceeded:
                outcomes.append("limit")
        assert outcomes[0] == outcomes[1]
        assert table.model.misses == naive.model.misses
        if outcomes[0]:
            raise TableLimitExceeded(event)
        agree()
        trace.append(
            (event, len(naive.red), len(naive.blue), len(naive.suffixes),
             len(naive.red_classes()))
        )

    agree()
    hypothesis = None
    try:
        while True:
            while True:
                closed = naive.closed()
                assert table.closed() == closed
                if closed[0]:
                    break
                step("close", "close_step", closed[1])
            hypothesis = naive.build_hypothesis()
            assert table.build_hypothesis() == hypothesis
            validate_table(table)
            trace.append(("hypothesis", *table.dimensions(), table.red_class_count()))
            counterexample = oracle.check(hypothesis)
            if counterexample is None:
                return trace, naive.model.misses, hypothesis, True
            step("counterexample", "update_with_counterexample", counterexample)
    except TableLimitExceeded:
        return trace, naive.model.misses, hypothesis, False


class TestIncrementalTableAgainstNaiveReference:
    """The maintained table makes exactly the steps the recomputing one makes."""

    def targets(self):
        rng = random.Random(4242)
        for _ in range(30):
            target = random_pdfa(
                rng, max_states=60, min_states=10, max_symbols=3, min_symbols=3,
                palette_size=rng.randint(2, 6),
            )
            yield target, parse_equivalence(rng.choice(["quant:2", "quant:5", "exact"]))

    def test_steps_and_reports_agree(self):
        events = set()
        for target, spec in self.targets():
            trace, misses, hypothesis, converged = lockstep_learn(target, spec)
            # A model answering with a fresh equal object per query must
            # make exactly the same steps.
            fresh = lockstep_learn(target, spec, wrap=FreshCopyModel)
            assert fresh == (trace, misses, hypothesis, converged)
            report = learn(PdfaLanguageModel(target), spec, ExactOracle(target, spec))
            assert converged and report.converged
            assert report.trace == trace
            assert report.mq_count == misses
            assert report.hypothesis == hypothesis
            events.update(event for event, *_ in trace)
        assert events == {"close", "hypothesis", "counterexample"}

    def test_one_signature_per_distinct_distribution(self, monkeypatch):
        computed = []

        def counting_signature(d, spec):
            computed.append(d)
            return signature(d, spec)

        monkeypatch.setattr(learner_module, "signature", counting_signature)
        for target, spec in list(self.targets())[:6]:
            for wrap in (lambda model: model, FreshCopyModel):
                computed.clear()
                table = ObservationTable(wrap(PdfaLanguageModel(target)), spec)
                while not (closed := table.closed())[0]:
                    table.close_step(closed[1])
                cells = [table_cell(table, p, s) for p in table.red + table.blue for s in table.suffixes]
                # Fresh copies hit the memo as shared objects do: one
                # signature per distinct value, however many cells hold it.
                assert len(computed) == len(set(computed)) == len(set(cells)) < len(cells)

    def test_one_signature_per_distinct_distribution_over_a_run(self, monkeypatch):
        # Counterexample processing classifies words outside the table
        # through the same memo as the cells.
        computed = []

        def counting_signature(d, spec):
            computed.append(d)
            return signature(d, spec)

        monkeypatch.setattr(learner_module, "signature", counting_signature)
        updates = 0
        for target, spec in list(self.targets())[:6]:
            computed.clear()
            report = learn(FreshCopyModel(PdfaLanguageModel(target)), spec,
                           ExactOracle(target, spec))
            assert report.converged
            assert len(computed) == len(set(computed)) <= len(set(target.emissions))
            updates += report.rounds - 1
        assert updates >= 6

    def test_cell_limit_fires_at_the_same_query(self):
        # Limits halfway into each counterexample update, where the order in
        # which new rows are filled decides which words get queried, and
        # halfway into the final table.
        runs = 0
        for target, spec in list(self.targets())[:6]:
            full = learn(PdfaLanguageModel(target), spec, ExactOracle(target, spec))
            cells = [(red + blue) * suffixes for _, red, blue, suffixes, _ in full.trace]
            limits = {cells[-1] // 2} | {
                (cells[i - 1] + cells[i]) // 2
                for i, (event, *_) in enumerate(full.trace)
                if event == "counterexample"
            }
            for max_cells in sorted(limits):
                if max_cells <= len(target.alphabet):
                    continue  # the initial rows would not fit
                runs += 1
                trace, misses, hypothesis, converged = lockstep_learn(target, spec, max_cells)
                report = learn(
                    PdfaLanguageModel(target), spec, ExactOracle(target, spec),
                    max_cells=max_cells,
                )
                assert not converged and not report.converged
                assert report.trace == trace
                assert report.mq_count == misses
                assert report.hypothesis == hypothesis
        assert runs >= 15


class PerCellTable(ObservationTable):
    """The table filling one cell at a time, as it did before batched fills:
    one budget test and one model query per cell, row by row, counting the
    cells itself."""

    def __init__(self, *args, **kwargs):
        self.n_cells = 0
        super().__init__(*args, **kwargs)

    def _query_class(self, prefix, suffix):
        if self.n_cells >= self.max_cells:
            raise TableLimitExceeded(
                f"table would exceed {self.max_cells} cells; "
                "the target may not be regular under this equivalence"
            )
        self.n_cells += 1
        return self._sigs[self.model.query(prefix + suffix)]

    def _fill_rows(self, ranks):
        for r in ranks:
            self._rows[r] = tuple(self._query_class(self._word[r], s) for s in self.suffixes)

    def _add_columns(self, suffixes):
        self.suffixes += suffixes
        for r in self._red + self._blue:
            self._rows[r] += tuple(self._query_class(self._word[r], s) for s in suffixes)


class RecordingCache(CachedModel):
    """A cache that records every lookup, hit or miss, in order."""

    def __init__(self, inner):
        super().__init__(inner)
        self.words = []

    def query(self, word):
        self.words.append(tuple(word))
        return super().query(word)


class BatchPathModel(PdfaLanguageModel):
    """A PDFA model with a batch path of its own, as a remote model has."""

    def query_many(self, words):
        return [self.query(word) for word in words]


class PrefetchRecordingCache(RecordingCache):
    """A recording cache that also keeps every prefetch request."""

    def __init__(self, inner):
        super().__init__(inner)
        self.prefetched = []

    def prefetch(self, words):
        self.prefetched.append(list(words))
        super().prefetch(words)


class TestPrefetchedFills:
    def test_each_fill_prefetches_the_words_it_queries(self, monkeypatch):
        target = random_pdfa(random.Random(77), max_states=30, min_states=10, min_symbols=2)
        fill = ObservationTable._query_cells
        full = learn(PdfaLanguageModel(target), QUANT3, ExactOracle(target, QUANT3))
        _, red, blue, suffixes, _ = full.trace[-1]
        for max_cells in (100_000, (red + blue) * suffixes // 2 + 1):
            model = PrefetchRecordingCache(BatchPathModel(target))
            filled = []

            def recording(table, prefixes, suffixes):
                start = len(model.words)
                try:
                    return fill(table, prefixes, suffixes)
                finally:
                    filled.append(model.words[start:])

            monkeypatch.setattr(ObservationTable, "_query_cells", recording)
            report = learn(model, QUANT3, ExactOracle(target, QUANT3), max_cells=max_cells)
            # A fill the budget cuts short prefetches only the cells that fit.
            assert report.converged == (max_cells == 100_000)
            assert model.prefetched == filled and len(filled) > 2
        # Without a batch path the fills ask alike; ``prefetch`` then does nothing.
        model = PrefetchRecordingCache(PdfaLanguageModel(target))
        filled.clear()
        learn(model, QUANT3, ExactOracle(target, QUANT3))
        assert model.prefetched == filled and not model.batches


class TestBatchedFillAgainstPerCellFill:
    """Batched fills ask the model the same words, in the same order."""

    def run(self, table_class, target, spec, max_cells, monkeypatch):
        model = RecordingCache(PdfaLanguageModel(target))
        monkeypatch.setattr(learner_module, "ObservationTable", table_class)
        report = learn(model, spec, ExactOracle(target, spec), max_cells=max_cells)
        return model.words, report

    def test_same_words_in_the_same_order(self, monkeypatch):
        rng = random.Random(8080)
        limited = 0
        for _ in range(10):
            target = random_pdfa(
                rng, max_states=50, min_states=10, max_symbols=3, min_symbols=2,
                palette_size=rng.randint(2, 5),
            )
            spec = parse_equivalence(rng.choice(["quant:2", "quant:5", "exact"]))
            runs = {100_000: self.run(PerCellTable, target, spec, 100_000, monkeypatch)}
            assert runs[100_000][1].converged
            # Half the final table's cells: the budget runs out during a fill.
            _, red, blue, suffixes, _ = runs[100_000][1].trace[-1]
            half = (red + blue) * suffixes // 2 + 1
            runs[half] = self.run(PerCellTable, target, spec, half, monkeypatch)
            for max_cells, (expected, reference) in runs.items():
                got, batched = self.run(ObservationTable, target, spec, max_cells, monkeypatch)
                assert got == expected
                assert batched.trace == reference.trace
                assert batched.mq_count == reference.mq_count
                assert batched.hypothesis == reference.hypothesis
                assert batched.stop_reason == reference.stop_reason
                limited += not batched.converged
        assert limited == 10


class TestRivestSchapireUpdates:
    """Each counterexample adds one suffix with its tails and nothing else."""

    def test_on_random_targets(self, monkeypatch):
        updates = []
        update = ObservationTable.update_with_counterexample

        def recording(table, word):
            before = list(table.red), list(table.suffixes), table.red_class_count()
            update(table, word)
            after = list(table.red), list(table.suffixes), table.red_class_count()
            updates.append((word, before, after))

        monkeypatch.setattr(ObservationTable, "update_with_counterexample", recording)
        rng = random.Random(1993)
        total = with_tails = 0
        for _ in range(30):
            target = random_pdfa(
                rng, max_states=40, min_states=5, max_symbols=3, min_symbols=2,
                palette_size=rng.randint(2, 5),
            )
            spec = parse_equivalence(rng.choice(["quant:2", "quant:5", "exact"]))
            updates.clear()
            report = learn(PdfaLanguageModel(target), spec, ExactOracle(target, spec))
            assert report.converged
            assert isomorphism(report.hypothesis, quotient(target, spec)) is not None
            for word, (red, suffixes, classes), (red_after, suffixes_after, classes_after) in updates:
                assert red_after == red and classes_after == classes
                assert suffixes_after[: len(suffixes)] == suffixes
                added = suffixes_after[len(suffixes):]
                new = max(added, key=len)
                assert new and word[len(word) - len(new):] == new
                assert set(added) == {new[k:] for k in range(len(new))} - set(suffixes)
                total += 1
                with_tails += len(added) > 1
            # The step after each counterexample closes a new class.
            for (event, *_, classes), (after, *_, classes_after) in zip(
                report.trace, report.trace[1:]
            ):
                if event == "counterexample":
                    assert after == "close" and classes_after > classes
        assert total >= 100 and with_tails > 0
