"""Observation-table mechanics and the learning loop."""

import gc
import random
import weakref

import pytest

from pdfa_forge import (
    Alphabet,
    BoundedExhaustiveOracle,
    CachedModel,
    ConsistencyDefect,
    Distribution,
    ExactOracle,
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
from pdfa_forge.words import iter_words, word_key

from helpers import FreshCopyModel, random_pdfa, unary_dist

QUANT3 = parse_equivalence("quant:3")
QUANT7 = parse_equivalence("quant:7")
QUANT10 = parse_equivalence("quant:10")
EXACT = parse_equivalence("exact")


def chain_pdfa() -> Pdfa:
    """Four-state unary chain whose first and third emissions coincide.

    The repeated emission makes the initial single-suffix table group the
    empty word with the two-symbol word, which a continuation then refutes:
    the canonical consistency-defect scenario.
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


def promote(table: ObservationTable, word) -> None:
    """Move a BLUE row to RED even if it matches a RED row.

    No public step does this: closing promotes only unmatched rows and
    counterexamples add columns. Tests of consistency repair need equal RED
    rows, so they build them through the table's private path.
    """
    table._fill_rows(table._promote(word))
    table._index(word)


def close(table: ObservationTable) -> None:
    while not (closed := table.closed())[0]:
        table.close_step(closed[1])


class TestInit:
    def test_constant_model(self):
        table = ObservationTable(UniformUnaryModel(), QUANT3)
        assert table.red == [()]
        assert table.blue == [("a",)]
        assert table.suffixes == [()]
        assert table.cell((), ()).as_dict() == pytest.approx({"a": 0.5, "$": 0.5})
        assert table.cell(("a",), ()).as_dict() == pytest.approx({"a": 0.5, "$": 0.5})

    def test_pdfa_model_cells(self, fig2a):
        table = ObservationTable(PdfaLanguageModel(fig2a), QUANT3)
        assert table.cell((), ()).as_dict() == pytest.approx({"a": 0.6, "$": 0.4})
        assert table.cell(("a",), ()).as_dict() == pytest.approx({"a": 0.4, "$": 0.6})

    def test_invariants_hold(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        table.validate()

    def test_validate_detects_a_stale_row_cache(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        table.close_step(("a",))
        table._rows[("a",)] = table._rows[()]
        with pytest.raises(LearnerInvariantError, match="cached row"):
            table.validate()

    def test_validate_detects_a_stale_class_index(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        table.close_step(("a",))
        table._classes.popitem()
        with pytest.raises(LearnerInvariantError, match="class index"):
            table.validate()

    def test_validate_detects_a_stale_unmatched_index(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        assert table._unmatched
        table._unmatched.pop()
        with pytest.raises(LearnerInvariantError, match="unmatched BLUE index"):
            table.validate()


class TestLifetime:
    def test_table_is_freed_without_the_cycle_collector(self, fig2a):
        table = ObservationTable(PdfaLanguageModel(fig2a), QUANT10)
        table.close_step(("a",))
        table.update_with_counterexample(("a", "a", "a"))
        table.consistent()
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
        table.validate()

    def test_close_step_preserves_existing_cells(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        before = dict(table._cells)
        table.close_step(("a",))
        for key, value in before.items():
            assert table._cells[key] == value
        assert table.red == [(), ("a",)]
        assert ("a", "a") in table.blue

    def test_offender_is_the_first_unmatched_row_of_a_blue_scan(self):
        # Through closing, counterexample columns and consistency repair
        # after promoting a matched row, the unmatched index names the row
        # a length-lex scan of BLUE finds first.
        rng = random.Random(515)
        repairs = 0
        for _ in range(20):
            target = random_pdfa(
                rng, max_states=25, min_states=5, min_symbols=2, palette_size=rng.randint(2, 4)
            )
            spec = parse_equivalence(rng.choice(["quant:2", "quant:5", "exact"]))
            table = ObservationTable(PdfaLanguageModel(target), spec)
            oracle = ExactOracle(target, spec)
            promoted = False
            while True:
                classes = table.red_classes()
                scan = next((p for p in table.blue if table.row_signature(p) not in classes), None)
                assert table.closed() == (scan is None, scan)
                table.validate()
                if scan is not None:
                    table.close_step(scan)
                    continue
                ok, defect = table.consistent()
                if not ok:
                    table.consistent_step(defect)
                    repairs += 1
                    continue
                if not promoted and table.blue:
                    promote(table, table.blue[0])
                    promoted = True
                    continue
                counterexample = oracle.check(table.build_hypothesis())
                if counterexample is None:
                    break
                table.update_with_counterexample(counterexample)
        assert repairs > 0

    def test_close_step_rejects_non_blue_rows(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        with pytest.raises(ValueError):
            table.close_step(("a", "a", "a"))


class TestConsistent:
    def test_distinct_rows_are_vacuously_consistent(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        table.close_step(("a",))
        assert table.consistent() == (True, None)

    def test_defect_detected_on_merged_rows(self):
        table = ObservationTable(PdfaLanguageModel(chain_pdfa()), EXACT)
        while True:
            ok, offender = table.closed()
            if ok:
                break
            table.close_step(offender)
        promote(table, ("a", "a"))
        ok, defect = table.consistent()
        assert not ok
        assert (defect.first, defect.second) == ((), ("a", "a"))
        assert defect.symbol == "a" and defect.suffix == ()

    def test_consistent_step_splits_the_class(self):
        table = ObservationTable(PdfaLanguageModel(chain_pdfa()), EXACT)
        while not table.closed()[0]:
            table.close_step(table.closed()[1])
        promote(table, ("a", "a"))
        before = table.red_class_count()
        columns_before = len(table.suffixes)
        _, defect = table.consistent()
        table.consistent_step(defect)
        assert len(table.suffixes) == columns_before + 1
        assert ("a",) in table.suffixes
        assert table.red_class_count() > before
        table.validate()

    def test_rechecking_after_repair_terminates(self):
        table = ObservationTable(PdfaLanguageModel(chain_pdfa()), EXACT)
        while not table.closed()[0]:
            table.close_step(table.closed()[1])
        promote(table, ("a", "a"))
        for _ in range(10):
            ok, offender = table.closed()
            if not ok:
                table.close_step(offender)
                continue
            ok, defect = table.consistent()
            if not ok:
                table.consistent_step(defect)
                continue
            break
        assert table.closed()[0] and table.consistent()[0]


class TestUpdate:
    def test_red_is_unchanged(self, fig2a):
        table = ObservationTable(PdfaLanguageModel(fig2a), QUANT10)
        table.close_step(("a",))
        table.update_with_counterexample(("a", "a", "a"))
        assert table.red == [(), ("a",)]
        assert table.blue == [("a", "a")]
        table.validate()

    def test_update_preserves_prefix_closure(self):
        table = ObservationTable(PdfaLanguageModel(late_change_pdfa()), EXACT)
        close(table)
        table.update_with_counterexample(("a", "a", "a"))
        table.validate()
        close(table)
        table.validate()

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

    def test_requires_consistency(self):
        table = ObservationTable(PdfaLanguageModel(chain_pdfa()), EXACT)
        while not table.closed()[0]:
            table.close_step(table.closed()[1])
        promote(table, ("a", "a"))
        while not table.closed()[0]:
            table.close_step(table.closed()[1])
        assert not table.consistent()[0]
        with pytest.raises(ValueError, match="not consistent"):
            table.build_hypothesis()


class TestLearn:
    def test_one_state_result(self, fig2a):
        report = learn(PdfaLanguageModel(fig2a), QUANT3, ExactOracle(fig2a, QUANT3))
        assert report.converged and report.hypothesis.n_states == 1
        assert lm_equivalent(realize(report.hypothesis), fig2a, QUANT3) is None

    def test_three_state_result(self, fig3a):
        report = learn(PdfaLanguageModel(fig3a), QUANT7, ExactOracle(fig3a, QUANT7))
        assert report.converged and report.hypothesis.n_states == 3

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

    def test_trace_record_shape(self, fig3a):
        report = learn(PdfaLanguageModel(fig3a), QUANT7, ExactOracle(fig3a, QUANT7))
        for event in report.events:
            assert set(event) == {"event", "red", "blue", "suffixes", "classes"}
            assert event["event"] in {"close", "consistent", "hypothesis", "counterexample"}


class TestMonotonicity:
    def assert_monotone(self, events):
        classes = 1  # a fresh table has the single lambda row
        hypothesis_classes = []
        for event in events:
            assert event["classes"] >= classes
            if event["event"] in ("close", "consistent"):
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
            while True:
                ok, offender = table.closed()
                if not ok:
                    table.close_step(offender)
                    continue
                ok, defect = table.consistent()
                if not ok:
                    table.consistent_step(defect)
                    continue
                break
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
    ])
    def test_limits_below_one_are_rejected_before_any_query(self, limits):
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
    sorted RED, and closedness and consistency are found by full scans over
    rows and over all pairs of equal rows.
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
            classes.setdefault(self.row(p), []).append(p)
        return classes

    def closed(self):
        red_rows = {self.row(p) for p in self.red}
        for p in self.blue:
            if self.row(p) not in red_rows:
                return False, p
        return True, None

    def consistent(self):
        for rows in self.red_classes().values():
            for i, p in enumerate(rows):
                for p2 in rows[i + 1 :]:
                    for symbol in self.model.alphabet.symbols:
                        row1, row2 = self.row(p + (symbol,)), self.row(p2 + (symbol,))
                        for s, a, b in zip(self.suffixes, row1, row2):
                            if a != b:
                                return False, ConsistencyDefect(p, p2, symbol, s)
        return True, None

    def close_step(self, offender):
        self.red = sorted(self.red + [offender], key=self.key)
        self.fill()

    def consistent_step(self, defect):
        self.suffixes.append(defect.new_suffix)
        self.fill()

    def update_with_counterexample(self, word):
        """Binary-search the breakpoint through the hypothesis's runs."""
        if not self.closed()[0]:
            raise ValueError("table is not closed")
        hypothesis = self.build_hypothesis()
        access = [rows[0] for rows in self.red_classes().values()]

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
            representatives=tuple(self.cells[(rows[0], ())] for rows in classes.values()),
            transitions=tuple(
                tuple(class_id[self.row(rows[0] + (s,))] for s in symbols)
                for rows in classes.values()
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
                if not closed[0]:
                    step("close", "close_step", closed[1])
                    continue
                consistent = naive.consistent()
                assert table.consistent() == consistent
                if not consistent[0]:
                    step("consistent", "consistent_step", consistent[1])
                    continue
                break
            hypothesis = naive.build_hypothesis()
            assert table.build_hypothesis() == hypothesis
            table.validate()
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
                cells = [table.cell(p, s) for p in table.red + table.blue for s in table.suffixes]
                # Fresh copies hit the memo as shared objects do: one
                # signature per distinct value, however many cells hold it.
                assert len(computed) == len(set(computed)) == len(set(cells)) < len(cells)

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
    one budget test and one model query per cell, row by row."""

    def _query_class(self, prefix, suffix):
        if len(self._cells) >= self.max_cells:
            raise TableLimitExceeded(
                f"table would exceed {self.max_cells} cells; "
                "the target may not be regular under this equivalence"
            )
        dist = self._cells[(prefix, suffix)] = self.model.query(prefix + suffix)
        return self._signature(dist)

    def _fill_rows(self, prefixes):
        for p in prefixes:
            self._rows[p] = tuple(self._query_class(p, s) for s in self.suffixes)

    def _add_columns(self, suffixes):
        self.suffixes += suffixes
        for p in self.red + self._blue:
            self._rows[p] += tuple(self._query_class(p, s) for s in suffixes)
        self._classes = {}
        for p in self.red:
            self._classes.setdefault(self._rows[p], []).append(p)


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
        model = PrefetchRecordingCache(PdfaLanguageModel(target))
        learn(model, QUANT3, ExactOracle(target, QUANT3))
        assert model.prefetched == []  # no batch path: no batch is built


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
            assert "consistent" not in [event for event, *_ in report.trace]
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
