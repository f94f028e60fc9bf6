"""Observation-table mechanics and the learning loop."""

import gc
import random
import weakref

import pytest

from pdfa_forge import (
    Alphabet,
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
from pdfa_forge.words import prefixes, word_key

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


class TestLifetime:
    def test_table_is_freed_without_the_cycle_collector(self, fig2a):
        table = ObservationTable(PdfaLanguageModel(fig2a), QUANT10)
        table.close_step(("a",))
        table.update_with_counterexample(("a", "a"))
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
        table.update_with_counterexample(("a", "a"))
        ok, defect = table.consistent()
        assert not ok
        assert (defect.first, defect.second) == ((), ("a", "a"))
        assert defect.symbol == "a" and defect.suffix == ()

    def test_consistent_step_splits_the_class(self):
        table = ObservationTable(PdfaLanguageModel(chain_pdfa()), EXACT)
        while not table.closed()[0]:
            table.close_step(table.closed()[1])
        table.update_with_counterexample(("a", "a"))
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
        table.update_with_counterexample(("a", "a"))
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
    def test_prefixes_move_to_red(self, fig2a):
        table = ObservationTable(PdfaLanguageModel(fig2a), QUANT10)
        table.close_step(("a",))
        table.update_with_counterexample(("a", "a"))
        assert table.red == [(), ("a",), ("a", "a")]
        assert table.blue == [("a", "a", "a")]
        table.validate()

    def test_update_preserves_prefix_closure(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        table.update_with_counterexample(("a", "a", "a", "a"))
        table.validate()

    def test_suffixes_unchanged(self, fig3a):
        table = ObservationTable(PdfaLanguageModel(fig3a), QUANT7)
        table.update_with_counterexample(("a", "a"))
        assert table.suffixes == [()]


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
        table.update_with_counterexample(("a", "a"))
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
        oracle = SamplingOracle(model, EXACT, SamplingConfig(samples=400, max_length=40, seed=7))
        report = learn(model, EXACT, oracle, max_rounds=16)
        assert report.converged
        inner = AlternatingUnaryModel()
        for n in range(41):
            word = ("a",) * n
            assert report.hypothesis.class_after(word) == sig(inner.query(word), EXACT)

    def test_cell_limit_reports_non_convergence(self):
        from pdfa_forge import AlternatingUnaryModel

        model = cached(AlternatingUnaryModel())
        oracle = SamplingOracle(model, EXACT, SamplingConfig(samples=400, max_length=40, seed=7))
        report = learn(model, EXACT, oracle, max_rounds=64, max_cells=40)
        assert not report.converged
        assert "cells" in report.stop_reason

    def test_table_limit_exception_surface(self):
        from pdfa_forge import AlternatingUnaryModel

        table = ObservationTable(AlternatingUnaryModel(), EXACT, max_cells=3)
        with pytest.raises(TableLimitExceeded):
            for word in [("a",) * n for n in range(1, 10)]:
                table.update_with_counterexample(word)


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
        self.red = sorted(set(self.red) | set(prefixes(word)), key=self.key)
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
        assert events == {"close", "consistent", "hypothesis", "counterexample"}

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
