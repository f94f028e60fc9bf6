"""PDFA structures: evaluation, congruence, quotients, realization,
isomorphism, equivalence search, serialization, DOT export."""

import dataclasses
import json
import math
import random
import re
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfa_forge import (
    Alphabet,
    AlphabetMismatch,
    AutomatonError,
    Distribution,
    ExactOracle,
    InvalidDistribution,
    Pdfa,
    QuotientPdfa,
    automaton_from_json,
    isomorphic,
    isomorphism,
    lm_equivalent,
    parse_equivalence,
    pdfa_from_json,
    pdfa_to_json,
    quotient,
    quotient_from_json,
    quotient_to_json,
    realize,
    signature,
    state_congruence,
    to_dot,
)
from pdfa_forge import automata as automata_module
from pdfa_forge.automata import (
    StatePartition,
    _check_transitions,
    _walk,
    emission_signatures,
    quotient_from_partition,
    refine_partition,
)
from pdfa_forge.bundled import fixture_json
from pdfa_forge.words import iter_words

from helpers import copy_of, random_distribution, random_pdfa, unary_dist

QUANT3 = parse_equivalence("quant:3")
QUANT7 = parse_equivalence("quant:7")
EXACT = parse_equivalence("exact")


class TestRun:
    def test_empty_word_lands_on_initial(self, fig3a):
        state, dist = fig3a.run(())
        assert state == 0
        assert dist.as_dict() == pytest.approx({"a": 0.4, "$": 0.6})

    def test_two_steps(self, fig3a):
        state, dist = fig3a.run(("a", "a"))
        assert state == 2
        assert dist.as_dict() == pytest.approx({"a": 0.6, "$": 0.4})

    def test_absorbing_loop(self, fig3a):
        assert fig3a.run(("a",) * 4) == fig3a.run(("a", "a"))

    def test_symbol_outside_alphabet(self, fig3a):
        with pytest.raises(AlphabetMismatch):
            fig3a.run(("b",))


class TestWordsOutsideTheAlphabet:
    """``$`` and foreign symbols fail the same way in every word reader."""

    READERS = {
        "Pdfa.run": lambda a, w: a.run(w),
        "Pdfa.distribution_after": lambda a, w: a.distribution_after(w),
        "Pdfa.step": lambda a, w: [a.step(a.initial, s) for s in w],
        "QuotientPdfa.run": lambda a, w: quotient(a, QUANT7).run(w),
        "QuotientPdfa.class_after": lambda a, w: quotient(a, QUANT7).class_after(w),
        "QuotientPdfa.step": lambda a, w: [quotient(a, QUANT7).step(0, s) for s in w],
    }

    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("word, offender", [(("$",), "$"), (("a", "$"), "$"), (("z",), "z")])
    def test_alphabet_mismatch_names_the_symbol(self, fig3a, reader, word, offender):
        with pytest.raises(AlphabetMismatch) as caught:
            self.READERS[reader](fig3a, word)
        assert str(caught.value) == f"symbol {offender!r} not in alphabet ('a',)"


class TestWalkKernel:
    def test_agrees_with_the_per_symbol_step_loop(self):
        # Reference: one transition lookup and one Alphabet.index per symbol.
        def stepwise(a, q, word):
            for symbol in word:
                q = a.transitions[q][a.alphabet.index(symbol)]
            return q

        rng = random.Random(3030)
        for _ in range(30):
            a = random_pdfa(rng, max_states=40, max_symbols=3)
            h = quotient(a, QUANT7)
            for _ in range(50):
                word = tuple(rng.choice(a.alphabet.symbols) for _ in range(rng.randint(0, 20)))
                start = rng.randrange(a.n_states)
                assert _walk(a.alphabet, a.transitions, start, word) == stepwise(a, start, word)
                state = stepwise(a, a.initial, word)
                assert a.run(word) == (state, a.emissions[state])
                assert a.distribution_after(word) is a.emissions[state]
                state = stepwise(h, h.initial, word)
                assert h.run(word) == (state, h.class_signatures[state])
                assert h.class_after(word) == h.class_signatures[state]


def automaton_of(kind, alphabet, dists, transitions, signatures=None):
    """A ``kind`` automaton from state 0 whose states emit ``dists``; a
    quotient's classes are named ``c0``, ``c1``, ... unless given."""
    if kind is Pdfa:
        return Pdfa(alphabet, 0, dists, transitions)
    if signatures is None:
        signatures = tuple(b"c%d" % q for q in range(len(dists)))
    return QuotientPdfa(alphabet, 0, signatures, dists, transitions, "x")


class TestStructureValidation:
    """Both automaton kinds reject the same faults with the same messages,
    but for the kind's own name and how it calls a state's distribution."""

    NAME = {Pdfa: "a PDFA", QuotientPdfa: "a quotient PDFA"}
    FOREIGN = {
        Pdfa: "state 0 emits over a different alphabet",
        QuotientPdfa: "class 0 representative over a different alphabet",
    }

    def assert_rejected(self, message, kind, *args, **kwargs):
        with pytest.raises(AutomatonError) as caught:
            automaton_of(kind, *args, **kwargs)
        assert str(caught.value) == message

    @pytest.mark.parametrize("kind", [Pdfa, QuotientPdfa])
    def test_rejects_unreachable_states(self, kind):
        self.assert_rejected(
            "unreachable states: [1]",
            kind, Alphabet(("a",)), (unary_dist(0.5), unary_dist(0.4)), ((0,), (1,)),
        )

    @pytest.mark.parametrize("kind", [Pdfa, QuotientPdfa])
    def test_rejects_partial_tau(self, kind):
        ab = Alphabet(("a", "b"))
        self.assert_rejected(
            "tau not total: state 0 defines 1/2 moves",
            kind, ab, (Distribution(ab, (0.4, 0.3, 0.3)),), ((0,),),
        )

    @pytest.mark.parametrize("kind", [Pdfa, QuotientPdfa])
    def test_rejects_bad_target(self, kind):
        self.assert_rejected(
            "transition target 3 out of range for state 0",
            kind, Alphabet(("a",)), (unary_dist(0.5),), ((3,),),
        )

    @pytest.mark.parametrize("kind", [Pdfa, QuotientPdfa])
    def test_rejects_zero_states(self, kind):
        self.assert_rejected(
            f"{self.NAME[kind]} needs at least one state", kind, Alphabet(("a",)), (), (),
        )

    @pytest.mark.parametrize("kind", [Pdfa, QuotientPdfa])
    def test_rejects_a_distribution_over_a_foreign_alphabet(self, kind):
        foreign = Distribution(Alphabet(("a", "b")), (0.4, 0.3, 0.3))
        self.assert_rejected(self.FOREIGN[kind], kind, Alphabet(("a",)), (foreign,), ((0,),))

    def test_rejects_a_representative_count_mismatch(self):
        self.assert_rejected(
            "one representative distribution per class is required",
            QuotientPdfa, Alphabet(("a",)), (unary_dist(0.5),), ((0,), (1,)),
            signatures=(b"c0", b"c1"),
        )


def one_state_automaton(kind, initial, transitions):
    if kind is Pdfa:
        return Pdfa(Alphabet(("a",)), initial, (unary_dist(0.5),), transitions)
    return QuotientPdfa(Alphabet(("a",)), initial, (b"x",), (unary_dist(0.5),), transitions, "x")


class TestIntegerStates:
    """Transition targets and the initial state must be ``int``s: ``int()``
    used to truncate ``0.7`` to state 0, parse ``"0"`` and keep ``False``."""

    @pytest.mark.parametrize("kind", [Pdfa, QuotientPdfa])
    @pytest.mark.parametrize("target", [0.7, 0.0, "0", True, False, None])
    def test_non_int_targets_are_rejected(self, kind, target):
        with pytest.raises(AutomatonError, match=f"target {re.escape(repr(target))} of state 0"):
            one_state_automaton(kind, 0, ((target,),))

    @pytest.mark.parametrize("kind", [Pdfa, QuotientPdfa])
    @pytest.mark.parametrize("initial", [False, True, 0.0, "0", None])
    def test_non_int_initial_states_are_rejected(self, kind, initial):
        with pytest.raises(AutomatonError, match="initial state .* is not an int"):
            one_state_automaton(kind, initial, ((0,),))

    @pytest.mark.parametrize("kind", [Pdfa, QuotientPdfa])
    @pytest.mark.parametrize("initial", [1, -1])
    def test_out_of_range_initial_states_are_rejected(self, kind, initial):
        with pytest.raises(AutomatonError, match=f"initial state {initial} out of range"):
            one_state_automaton(kind, initial, ((0,),))

    @pytest.mark.parametrize("kind", [Pdfa, QuotientPdfa])
    def test_rows_of_any_sequence_type_load_as_tuples(self, kind):
        a = one_state_automaton(kind, 0, [[0]])
        assert a.transitions == ((0,),) and type(a.transitions[0]) is tuple


def per_row_check_transitions(transitions, n_states, n_symbols):
    """``_check_transitions`` as it was: one row at a time, coercing every
    entry with ``int()``."""
    rows = tuple(tuple(map(int, row)) for row in transitions)
    if len(rows) != n_states:
        raise AutomatonError(f"tau not total: {len(rows)} transition rows for {n_states} states")
    for q, row in enumerate(rows):
        if len(row) != n_symbols:
            raise AutomatonError(f"tau not total: state {q} defines {len(row)}/{n_symbols} moves")
        if row and (min(row) < 0 or max(row) >= n_states):
            t = next(t for t in row if not 0 <= t < n_states)
            raise AutomatonError(f"transition target {t} out of range for state {q}")
    return rows


@st.composite
def transition_tables(draw):
    """Tables near ``n_states`` rows of ``n_symbols`` targets: rows too
    short or too long, rows missing or extra, targets negative or out of
    range, zero states, an empty alphabet, and now and then a non-int."""
    n_states = draw(st.integers(0, 4))
    n_symbols = draw(st.integers(0, 3))
    valid = draw(st.booleans())
    n_rows = n_states if valid else draw(st.integers(max(0, n_states - 1), n_states + 1))
    target = st.integers(-2, n_states + 1)
    if not valid and draw(st.booleans()):
        target = st.one_of(target, st.sampled_from([0.0, 1.0, 0.7, True, False, "0"]))
    rows = []
    for _ in range(n_rows):
        length = n_symbols if valid else draw(st.integers(max(0, n_symbols - 1), n_symbols + 1))
        if valid and n_states:
            row = draw(st.lists(st.integers(0, n_states - 1), min_size=length, max_size=length))
        else:
            row = draw(st.lists(target, min_size=length, max_size=length))
        rows.append(draw(st.sampled_from([tuple, list]))(row))
    return rows, n_states, n_symbols


class TestCheckTransitionsAgainstPerRowReference:
    @settings(max_examples=400, deadline=None)
    @given(transition_tables())
    def test_same_rows_or_same_error(self, case):
        rows, n_states, n_symbols = case
        try:
            expected = per_row_check_transitions(rows, n_states, n_symbols)
        except (AutomatonError, TypeError, ValueError) as exc:
            expected = exc
        if all(type(t) is int for row in rows for t in row):
            if isinstance(expected, AutomatonError):
                with pytest.raises(AutomatonError) as raised:
                    _check_transitions(rows, n_states, n_symbols)
                assert str(raised.value) == str(expected)
            else:
                assert _check_transitions(rows, n_states, n_symbols) == expected
        else:
            # The reference coerced what ``int()`` takes; such a table fails
            # now, at its first fault in row order.
            with pytest.raises(AutomatonError) as raised:
                _check_transitions(rows, n_states, n_symbols)
            if isinstance(expected, tuple):
                assert "is not an int" in str(raised.value)


class TestStateCongruence:
    def test_all_states_collapse_under_coarse_buckets(self, fig2a):
        # 0.4, 0.5, 0.6 share the middle third.
        assert state_congruence(fig2a, QUANT3).count == 1

    def test_three_levels_survive_fine_buckets(self, fig3a):
        assert state_congruence(fig3a, QUANT7).count == 3

    def test_exact_on_minimal_automaton_keeps_all_states(self, fig3a):
        assert state_congruence(fig3a, EXACT).count == fig3a.n_states

    def test_agrees_with_brute_force_on_random_automata(self):
        rng = random.Random(42)
        specs = ["quant:2", "quant:4", "top:1", "rank:2", "supp", "exact",
                 "combo:quant:3+supp"]
        for _ in range(50):
            a = random_pdfa(rng, max_states=6, max_symbols=2)
            spec = parse_equivalence(rng.choice(specs))
            partition = state_congruence(a, spec)
            brute = brute_force_congruence(a, spec)
            assert partition.blocks == brute.blocks, (a, spec)


def brute_force_congruence(a, spec):
    """Pairwise future comparison with witness words long enough to be exact.

    Distinguishable state pairs of an n-state machine are separated by a
    witness shorter than n, so sweeping all words up to length n (capped by
    the |Q|^2 bound the long-witness unary case needs) decides the congruence.
    """
    from pdfa_forge import StatePartition

    n = a.n_states
    max_len = min(n * n, 12 if len(a.alphabet) > 1 else n * n)
    words = list(iter_words(a.alphabet, max_len))

    def future(q):
        out = []
        for w in words:
            state = q
            for s in w:
                state = a.step(state, s)
            out.append(signature(a.emissions[state], spec))
        return tuple(out)

    futures = [future(q) for q in range(n)]
    ids = {}
    blocks = []
    for q in range(n):
        if futures[q] not in ids:
            ids[futures[q]] = len(ids)
        blocks.append(ids[futures[q]])
    return StatePartition(tuple(blocks), len(ids))


class TestQuotient:
    def test_running_example_collapses_to_one_state(self, fig2a):
        h = quotient(fig2a, QUANT3)
        assert h.n_states == 1
        assert h.transitions == ((0,),)
        assert h.representatives[0].as_dict() == pytest.approx({"a": 0.6, "$": 0.4})
        assert h.class_signatures[0] == signature(unary_dist(0.6), QUANT3)

    def test_one_state_automaton_is_its_own_quotient(self, fig2b):
        h = quotient(fig2b, QUANT3)
        assert h.n_states == 1
        assert h.representatives[0].as_dict() == pytest.approx({"a": 0.5, "$": 0.5})

    def test_fine_buckets_preserve_three_states(self, fig3a):
        assert quotient(fig3a, QUANT7).n_states == 3

    def test_each_class_is_represented_by_its_lowest_index_state(self, fig2a):
        low = quotient(fig2a, QUANT3)
        high = highest_member_quotient(fig2a, QUANT3)
        assert low.representatives[0] == fig2a.emissions[0]
        assert high.representatives[0] == fig2a.emissions[2]
        assert low.class_signatures == high.class_signatures


class TestRealize:
    def test_one_state_realization_matches_source(self, fig2b):
        realized = realize(quotient(fig2b, QUANT3))
        assert realized.n_states == 1
        assert realized.emissions[0] == fig2b.emissions[0]
        assert realized.transitions == fig2b.transitions

    def test_collapsed_realization_differs_from_source(self, fig2a):
        realized = realize(quotient(fig2a, QUANT3))
        assert realized.n_states == 1
        assert realized.emissions[0].as_dict() == pytest.approx({"a": 0.6, "$": 0.4})
        assert realized.n_states != fig2a.n_states

    def test_exact_realization_of_minimal_automaton(self, fig3a):
        realized = realize(quotient(fig3a, EXACT))
        assert realized.n_states == fig3a.n_states
        assert lm_equivalent(realized, fig3a, EXACT) is None

    def test_realization_class_coherence(self, fig3a):
        h = quotient(fig3a, QUANT7)
        realized = realize(h)
        for q in range(h.n_states):
            assert signature(realized.emissions[q], QUANT7) == h.class_signatures[q]


class TestIsomorphism:
    def test_quotients_of_equivalent_automata(self, fig2a, fig2b):
        ha, hb = quotient(fig2a, QUANT3), quotient(fig2b, QUANT3)
        assert isomorphism(ha, hb) == {0: 0}
        assert isomorphic(ha, hb)

    def test_self_isomorphism_is_identity(self, fig3a):
        h = quotient(fig3a, QUANT7)
        assert isomorphism(h, h) == {0: 0, 1: 1, 2: 2}

    def test_spec_mismatch_is_an_error(self, fig2a):
        with pytest.raises(ValueError, match="different equivalences"):
            isomorphism(quotient(fig2a, QUANT3), quotient(fig2a, QUANT7))

    def test_state_count_mismatch_returns_none(self, fig2a):
        assert isomorphism(quotient(fig2a, QUANT7), quotient(fig2b_like(), QUANT7)) is None

    def test_alphabet_mismatch_is_an_error(self, fig2a):
        b = Alphabet(("b",))
        other = Pdfa(b, 0, (Distribution(b, (0.5, 0.5)),), ((0,),))
        with pytest.raises(AlphabetMismatch, match="different alphabets"):
            isomorphism(quotient(fig2a, QUANT3), quotient(other, QUANT3))

    @pytest.mark.parametrize("continuations, transitions", [
        ((0.4, 0.5, 0.6), ((1,), (2,), (1,))),
        ((0.4, 0.6, 0.5), ((1,), (2,), (2,))),
    ], ids=["another loop", "other emissions"])
    def test_equal_sizes_need_not_be_isomorphic(self, fig3a, continuations, transitions):
        # fig3a is the chain 0.4 -> 0.5 -> 0.6 that loops on its last state.
        other = Pdfa(Alphabet(("a",)), 0, tuple(map(unary_dist, continuations)), transitions)
        h1, h2 = quotient(fig3a, QUANT7), quotient(other, QUANT7)
        assert h1.n_states == h2.n_states == 3
        assert isomorphism(h1, h2) is None and not isomorphic(h1, h2)


def fig2b_like():
    return Pdfa(
        alphabet=Alphabet(("a",)),
        initial=0,
        emissions=(unary_dist(0.5),),
        transitions=((0,),),
    )


class TestLmEquivalent:
    def test_equivalent_under_coarse_buckets(self, fig2a, fig2b):
        assert lm_equivalent(fig2a, fig2b, QUANT3) is None

    def test_exact_separates_at_the_empty_word(self, fig2a, fig2b):
        assert lm_equivalent(fig2a, fig2b, EXACT) == ()

    def test_reflexive(self, fig2a):
        for spec in (QUANT3, QUANT7, EXACT):
            assert lm_equivalent(fig2a, fig2a, spec) is None

    def test_counterexample_is_shortest(self, fig3a):
        # fig3a vs the one-state 0.5 automaton under quant:7 differ at the
        # empty word already (bucket 2 vs 3 for the 'a' probability).
        witness = lm_equivalent(fig3a, fig2b_like(), QUANT7)
        assert witness == ()

    def test_alphabet_mismatch(self, fig2a):
        other = random_pdfa(random.Random(0), max_states=2, max_symbols=2)
        if other.alphabet != fig2a.alphabet:
            with pytest.raises(AlphabetMismatch):
                lm_equivalent(fig2a, other, EXACT)


class TestSharedEmissionObjects:
    """Signatures are memoized per distinct emission; answers must not depend
    on whether states share one object or each state holds an equal copy."""

    def test_one_signature_per_distinct_emission(self, monkeypatch):
        computed = []

        def counting_signature(d, spec):
            computed.append(d)
            return signature(d, spec)

        monkeypatch.setattr(automata_module, "signature", counting_signature)
        rng = random.Random(7)
        for _ in range(10):
            shared = random_pdfa(rng, max_states=12, min_states=6, min_symbols=2,
                                 max_symbols=2, palette_size=3)
            copied = Pdfa(shared.alphabet, shared.initial,
                          tuple(copy_of(d) for d in shared.emissions), shared.transitions)
            assert len({id(d) for d in copied.emissions}) == copied.n_states
            for a in (shared, copied):
                for _ in range(2):  # each call signs afresh, once per value
                    computed.clear()
                    sigs = emission_signatures(a.emissions, QUANT3)
                    assert computed == list(dict.fromkeys(a.emissions))
                    assert len(computed) <= 3
                    assert sigs == [signature(d, QUANT3) for d in a.emissions]

    def test_quotient_from_json_derives_one_signature_per_distinct_emission(
        self, monkeypatch
    ):
        computed = []

        def counting_signature(d, spec):
            computed.append(d)
            return signature(d, spec)

        rng = random.Random(8)
        shared = 0
        for _ in range(10):
            target = random_pdfa(rng, max_states=12, min_states=6, min_symbols=2,
                                 max_symbols=2, palette_size=3)
            h = quotient(target, EXACT)
            doc = json.loads(json.dumps(quotient_to_json(h)))
            with monkeypatch.context() as patch:
                patch.setattr(automata_module, "signature", counting_signature)
                computed.clear()
                assert quotient_from_json(doc) == h
            assert len(computed) == len(set(computed)) == len(set(h.representatives)) <= 3
            shared += h.n_states > 3
        assert shared >= 3

    @pytest.mark.parametrize(
        "to_json",
        [pdfa_to_json, lambda a: quotient_to_json(quotient(a, EXACT))],
        ids=["pdfa", "quotient"],
    )
    def test_each_state_gets_its_own_dist_map(self, to_json):
        # States 0 and 1 share one emission object, and so do their classes:
        # 0 moves to 1 and 1 to 2, so refinement splits them.
        half, low = unary_dist(0.5), unary_dist(0.4)
        a = Pdfa(Alphabet(("a",)), 0, (half, half, low), ((1,), (2,), (2,)))
        doc = to_json(a)
        assert len(doc["states"]) == 3
        assert doc["states"][0]["dist"] == doc["states"][1]["dist"] == {"a": 0.5, "$": 0.5}
        doc["states"][0]["dist"]["a"] = 0.25
        assert doc["states"][1]["dist"] == {"a": 0.5, "$": 0.5}
        assert to_json(a)["states"][0]["dist"] == {"a": 0.5, "$": 0.5}

    def test_negative_zero_shares_the_memo_entry_of_zero(self):
        # -0.0 == 0.0, so both distributions are one memo key; their
        # signatures must coincide for the shared entry to be right.
        ab = Alphabet(("a", "b"))
        zero = Distribution(ab, (0.0, 0.5, 0.5))
        negative_zero = Distribution(ab, (-0.0, 0.5, 0.5))
        for spec in ("exact", "quant:4", "rank:2", "supp"):
            spec = parse_equivalence(spec)
            for order in ([zero, negative_zero], [negative_zero, zero]):
                assert emission_signatures(order, spec) == [signature(d, spec) for d in order]

    def test_shared_and_copied_emissions_agree(self):
        rng = random.Random(2024)
        verdicts = set()
        compared = 0
        while compared < 30:
            shared = random_pdfa(rng, max_states=12, min_states=6, min_symbols=2,
                                 max_symbols=2, palette_size=3)
            other = random_pdfa(rng, max_states=12, min_states=6, min_symbols=2,
                                max_symbols=2, palette_size=3)
            if shared.n_states <= 3:
                continue  # pruning left no two states sharing an emission
            compared += 1
            copied = Pdfa(shared.alphabet, shared.initial,
                          tuple(copy_of(d) for d in shared.emissions), shared.transitions)
            assert len({id(d) for d in shared.emissions}) <= 3
            assert len({id(d) for d in copied.emissions}) == copied.n_states
            spec = parse_equivalence(
                rng.choice(["quant:3", "exact", "rank:2", "combo:quant:5+supp"])
            )
            assert quotient(shared, spec) == quotient(copied, spec)
            assert lm_equivalent(shared, copied, spec) is None
            assert lm_equivalent(shared, other, spec) == lm_equivalent(copied, other, spec)
            assert lm_equivalent(other, shared, spec) == lm_equivalent(other, copied, spec)
            for hypothesis in (quotient(shared, spec), quotient(other, spec)):
                verdict = ExactOracle(shared, spec).check(hypothesis)
                assert ExactOracle(copied, spec).check(hypothesis) == verdict
                verdicts.add(verdict is None)
        assert verdicts == {True, False}


class TestSerialization:
    def test_pdfa_round_trip(self, fig2a):
        doc = pdfa_to_json(fig2a)
        again = pdfa_from_json(json.loads(json.dumps(doc)))
        assert again == fig2a

    def test_quotient_round_trip(self, fig3a):
        h = quotient(fig3a, QUANT7)
        again = quotient_from_json(json.loads(json.dumps(quotient_to_json(h))))
        assert again == h

    def test_quotient_document_bytes(self, fig3a):
        assert json.dumps(quotient_to_json(quotient(fig3a, QUANT7))) == (
            '{"alphabet": ["a"], "equivalence": "quant:7", "initial": 0, "states": ['
            '{"id": 0, "dist": {"a": 0.4, "$": 0.6}, '
            '"signature": "5b227175616e74222c372c5b322c345d5d"}, '
            '{"id": 1, "dist": {"a": 0.5, "$": 0.5}, '
            '"signature": "5b227175616e74222c372c5b332c335d5d"}, '
            '{"id": 2, "dist": {"a": 0.6, "$": 0.4}, '
            '"signature": "5b227175616e74222c372c5b342c325d5d"}], '
            '"transitions": [{"from": 0, "symbol": "a", "to": 1}, '
            '{"from": 1, "symbol": "a", "to": 2}, {"from": 2, "symbol": "a", "to": 2}]}'
        )

    @pytest.mark.parametrize("label", [5, None, ["quant:7"]])
    def test_non_string_equivalence_is_rejected(self, fig3a, label):
        doc = quotient_to_json(quotient(fig3a, QUANT7))
        doc["equivalence"] = label
        with pytest.raises(AutomatonError, match="'equivalence' must be a string"):
            quotient_from_json(doc)

    @pytest.mark.parametrize("value", [5, None, ["5b"]])
    def test_non_string_signature_is_rejected(self, fig3a, value):
        doc = quotient_to_json(quotient(fig3a, QUANT7))
        doc["states"][1]["signature"] = value
        with pytest.raises(AutomatonError, match="malformed class signature"):
            quotient_from_json(doc)

    def test_missing_equivalence_is_rejected(self, fig3a):
        doc = quotient_to_json(quotient(fig3a, QUANT7))
        del doc["equivalence"]
        with pytest.raises(AutomatonError, match="lacks an 'equivalence' field"):
            quotient_from_json(doc)

    def test_missing_signature_is_rejected(self, fig3a):
        doc = quotient_to_json(quotient(fig3a, QUANT7))
        del doc["states"][1]["signature"]
        with pytest.raises(AutomatonError, match="malformed class signature"):
            quotient_from_json(doc)

    @pytest.mark.parametrize("decode, to_json, equiv", [
        (pdfa_from_json, pdfa_to_json, None),
        (quotient_from_json, quotient_to_json, QUANT7),
    ])
    def test_both_decoders_report_a_malformed_distribution_alike(
        self, fig3a, decode, to_json, equiv
    ):
        doc = to_json(fig3a if equiv is None else quotient(fig3a, equiv))
        doc["states"][1]["dist"] = ["a", "$"]
        with pytest.raises(AutomatonError, match="malformed state distribution: TypeError"):
            decode(doc)

    def test_missing_transition_is_reported(self):
        doc = {
            "alphabet": ["a", "b"],
            "initial": 0,
            "states": [{"id": 0, "dist": {"a": 0.4, "b": 0.1, "$": 0.5}}],
            "transitions": [{"from": 0, "symbol": "a", "to": 0}],
        }
        with pytest.raises(AutomatonError, match="tau not total"):
            pdfa_from_json(doc)

    @pytest.mark.parametrize("symbol", ["$", "z"])
    def test_transition_outside_the_alphabet_is_reported(self, fig3a, symbol):
        # ``$`` has a probability in every state but no transition column.
        extra = {"from": 0, "symbol": symbol, "to": 0}
        for doc in (pdfa_to_json(fig3a), quotient_to_json(quotient(fig3a, QUANT7))):
            doc["transitions"].append(extra)
            with pytest.raises(AutomatonError, match=re.escape(f"symbol {symbol!r} outside")):
                automaton_from_json(doc)

    def test_string_alphabet_is_rejected(self):
        # A string is iterable, so it would otherwise be split into symbols.
        doc = {
            "alphabet": "ab",
            "initial": 0,
            "states": [{"id": 0, "dist": {"a": 0.4, "b": 0.1, "$": 0.5}}],
            "transitions": [
                {"from": 0, "symbol": "a", "to": 0},
                {"from": 0, "symbol": "b", "to": 0},
            ],
        }
        with pytest.raises(AutomatonError, match="alphabet"):
            pdfa_from_json(doc)

    def test_duplicate_transition_is_reported(self):
        doc = {
            "alphabet": ["a"],
            "initial": 0,
            "states": [{"id": 0, "dist": {"a": 0.5, "$": 0.5}}],
            "transitions": [
                {"from": 0, "symbol": "a", "to": 0},
                {"from": 0, "symbol": "a", "to": 0},
            ],
        }
        with pytest.raises(AutomatonError, match="duplicate"):
            pdfa_from_json(doc)

    def test_unreachable_states_error_and_prune_opt_in(self):
        doc = {
            "alphabet": ["a"],
            "initial": 0,
            "states": [
                {"id": 0, "dist": {"a": 0.5, "$": 0.5}},
                {"id": 7, "dist": {"a": 0.4, "$": 0.6}},
            ],
            "transitions": [
                {"from": 0, "symbol": "a", "to": 0},
                {"from": 7, "symbol": "a", "to": 0},
            ],
        }
        with pytest.raises(AutomatonError, match="unreachable"):
            pdfa_from_json(doc)
        pruned = pdfa_from_json(doc, prune=True)
        assert pruned.n_states == 1

    def test_non_dense_ids_are_normalized(self):
        doc = {
            "alphabet": ["a"],
            "initial": 10,
            "states": [
                {"id": 10, "dist": {"a": 0.6, "$": 0.4}},
                {"id": 3, "dist": {"a": 0.4, "$": 0.6}},
            ],
            "transitions": [
                {"from": 10, "symbol": "a", "to": 3},
                {"from": 3, "symbol": "a", "to": 10},
            ],
        }
        a = pdfa_from_json(doc)
        assert a.n_states == 2
        assert a.emissions[a.initial].prob("a") == pytest.approx(0.6)

    def assert_rejected(self, fig3a, field, value, edit):
        """Both loaders reject ``value`` where ``edit`` puts it."""
        message = re.escape(f"{field!r} must be an integer state id, got {value!r}")
        exact = parse_equivalence("exact")
        for doc in (pdfa_to_json(fig3a), quotient_to_json(quotient(fig3a, exact))):
            edit(doc, value)
            with pytest.raises(AutomatonError, match=message):
                automaton_from_json(doc)

    def test_boolean_initial_state_is_rejected(self, fig3a):
        self.assert_rejected(fig3a, "initial", False, lambda doc, v: doc.update(initial=v))

    def test_boolean_state_id_is_rejected(self, fig3a):
        self.assert_rejected(fig3a, "id", True, lambda doc, v: doc["states"][1].update(id=v))

    def test_float_state_id_is_rejected(self, fig3a):
        self.assert_rejected(fig3a, "id", 1.5, lambda doc, v: doc["states"][1].update(id=v))

    def test_string_state_id_is_rejected(self, fig3a):
        self.assert_rejected(fig3a, "id", "x", lambda doc, v: doc["states"][2].update(id=v))

    def test_float_transition_source_is_rejected(self, fig3a):
        self.assert_rejected(
            fig3a, "from", 0.0, lambda doc, v: doc["transitions"][0].update({"from": v})
        )

    def test_boolean_transition_target_is_rejected(self, fig3a):
        self.assert_rejected(fig3a, "to", True, lambda doc, v: doc["transitions"][0].update(to=v))

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["states"][2].update(id=1), "duplicate state ids"),
        (lambda doc: doc["transitions"][0].update(to=9), "transition references unknown state"),
        (
            lambda doc: doc["transitions"][1].update({"from": 9}),
            "transition references unknown state",
        ),
        (lambda doc: doc.update(initial=9), "initial state 9 not among states"),
    ], ids=["duplicate id", "unknown target", "unknown source", "unknown initial"])
    def test_structural_faults_are_rejected(self, fig3a, edit, message):
        for doc in (pdfa_to_json(fig3a), quotient_to_json(quotient(fig3a, QUANT7))):
            edit(doc)
            with pytest.raises(AutomatonError, match=message):
                automaton_from_json(doc)

    def test_quotient_signature_mismatch_is_detected(self, fig3a):
        doc = quotient_to_json(quotient(fig3a, QUANT7))
        doc["states"][0]["signature"] = signature(unary_dist(0.9), QUANT7).hex()
        with pytest.raises(AutomatonError, match="signature"):
            quotient_from_json(doc)

    @pytest.mark.parametrize("doc", [3, None, "has an equivalence"])
    @pytest.mark.parametrize("decode", [pdfa_from_json, quotient_from_json, automaton_from_json])
    def test_document_that_is_not_an_object_is_rejected(self, decode, doc):
        # A non-object must not reach ``"equivalence" in doc``: 3 and None
        # raise TypeError there, and a string matches by substring.
        with pytest.raises(AutomatonError, match="automaton document must be a JSON object"):
            decode(doc)

    def test_dispatch_on_document_flavor(self, fig3a):
        assert isinstance(automaton_from_json(pdfa_to_json(fig3a)), Pdfa)
        h = automaton_from_json(quotient_to_json(quotient(fig3a, QUANT7)))
        assert h.equivalence == "quant:7"


def one_symbol_doc(*dists) -> dict:
    """PDFA document over {a}: state i emits ``dists[i]`` and moves to i + 1."""
    n = len(dists)
    return {
        "alphabet": ["a"],
        "initial": 0,
        "states": [{"id": q, "dist": d} for q, d in enumerate(dists)],
        "transitions": [
            {"from": q, "symbol": "a", "to": min(q + 1, n - 1)} for q in range(n)
        ],
    }


class TestInternedLoading:
    """Loaders build one Distribution per distinct map, without changing
    what a document loads as or how a malformed one fails."""

    def test_round_trip_is_byte_identical(self):
        docs = [fixture_json(name) for name in ("fig2a", "fig2b", "fig3a")]
        rng = random.Random(77)
        for _ in range(30):
            a = random_pdfa(rng, max_states=12, palette_size=rng.randint(1, 4))
            docs.append(json.loads(json.dumps(pdfa_to_json(a))))
        for doc in docs:
            assert json.dumps(pdfa_to_json(pdfa_from_json(doc))) == json.dumps(doc)

    def test_equal_maps_share_one_object(self):
        rng = random.Random(78)
        for _ in range(10):
            a = random_pdfa(rng, max_states=12, min_states=4, palette_size=2)
            loaded = pdfa_from_json(json.loads(json.dumps(pdfa_to_json(a))))
            assert len({id(d) for d in loaded.emissions}) == len(set(a.emissions))
            h = quotient(a, EXACT)
            back = quotient_from_json(json.loads(json.dumps(quotient_to_json(h))))
            assert len({id(d) for d in back.representatives}) == len(set(h.representatives))

    def test_signed_zeros_are_not_merged(self):
        doc = one_symbol_doc({"a": 0.0, "$": 1.0}, {"a": -0.0, "$": 1.0},
                             {"a": 0.0, "$": 1.0})
        a = pdfa_from_json(json.loads(json.dumps(doc)))
        signs = [math.copysign(1.0, d.probs[0]) for d in a.emissions]
        assert signs == [1.0, -1.0, 1.0]
        assert a.emissions[0] is a.emissions[2]
        assert json.dumps(pdfa_to_json(a)) == json.dumps(doc)

    @pytest.mark.parametrize("bad, error, message", [
        (["a", "$"], AutomatonError,
         "malformed state distribution: TypeError('list indices must be integers "
         "or slices, not str')"),
        ({"a": [0.5], "$": 0.5}, AutomatonError,
         "malformed state distribution: TypeError(\"float() argument must be a "
         "string or a real number, not 'list'\")"),
        ({"a": 1.0}, InvalidDistribution,
         "probability map does not match alphabet (missing ['$'], extra [])"),
        ({"a": float("nan"), "$": 0.5}, InvalidDistribution,
         "probability of 'a' out of [0,1]: nan"),
    ])
    def test_malformed_maps_fail_as_before(self, bad, error, message):
        # The malformed map follows a valid one equal to a later state's, so
        # it is met with the memo already in use.
        good = {"a": 0.5, "$": 0.5}
        doc = json.loads(json.dumps(one_symbol_doc(good, bad, good)))
        with pytest.raises(error) as caught:
            pdfa_from_json(doc)
        assert str(caught.value) == message

    def test_maps_load_as_from_map_builds_them(self):
        good = {"a": 0.5, "$": 0.5}
        for odd in ({"$": 0.5, "a": 0.5}, {"a": 1, "$": 0}):
            a = pdfa_from_json(one_symbol_doc(good, odd, good))
            assert a.emissions[1] == Distribution.from_map(a.alphabet, odd)
        # A probability given as a string is not a number, whichever path loads it.
        with pytest.raises(InvalidDistribution, match="not a number: '0.5'"):
            pdfa_from_json(one_symbol_doc(good, {"a": "0.5", "$": 0.5}, good))


class TestDot:
    def test_self_loop_edge_label(self, fig2b):
        dot = to_dot(fig2b)
        assert "q0 -> q0" in dot
        assert '"a/0.5"' in dot

    def test_stop_probability_on_nodes(self, fig3a):
        dot = to_dot(fig3a)
        assert "$:0.6" in dot and "$:0.5" in dot and "$:0.4" in dot

    def test_quotient_export_uses_representatives(self, fig3a):
        dot = to_dot(quotient(fig3a, QUANT7))
        assert dot.startswith("digraph")
        assert '"a/0.4"' in dot


# ---------------------------------------------------------------------------
# Quotient laws on random automata
# ---------------------------------------------------------------------------

SPECS = [parse_equivalence(s) for s in ("quant:2", "quant:4", "quant:8", "top:1", "exact")]


def test_quotient_idempotence_on_random_automata():
    rng = random.Random(101)
    for _ in range(30):
        a = random_pdfa(rng, max_states=7, max_symbols=3)
        spec = rng.choice(SPECS)
        h = quotient(a, spec)
        again = quotient(realize(h), spec)
        assert isomorphism(h, again) is not None


def test_equivalent_automata_have_isomorphic_quotients():
    # Different representative choices realize the same quotient, giving
    # classwise-equal but distribution-distinct machines.
    rng = random.Random(202)
    for _ in range(30):
        a = random_pdfa(rng, max_states=7, max_symbols=3)
        spec = rng.choice(SPECS)
        b = realize(highest_member_quotient(a, spec))
        assert lm_equivalent(a, b, spec) is None
        assert isomorphism(quotient(a, spec), quotient(b, spec)) is not None


def highest_member_quotient(a: Pdfa, spec) -> QuotientPdfa:
    """``quotient(a, spec)`` with each class represented by the emission of
    its highest-index member state instead of its lowest."""
    h = quotient(a, spec)
    highest = {b: q for q, b in enumerate(state_congruence(a, spec).blocks)}
    return dataclasses.replace(
        h, representatives=tuple(a.emissions[highest[b]] for b in range(h.n_states))
    )


def split_state(rng: random.Random, a: Pdfa) -> Pdfa:
    """Duplicate one state and redirect one incoming edge to the clone.

    The unfolding is language-preserving, so the result stays exactly
    equivalent to the source while growing the state count. Candidates that
    would strand the original target unreachable are skipped.
    """
    candidates = [(q, i) for q in range(a.n_states) for i in range(len(a.alphabet))]
    rng.shuffle(candidates)
    for q, i in candidates:
        target = a.transitions[q][i]
        clone = a.n_states
        transitions = [list(row) for row in a.transitions] + [list(a.transitions[target])]
        transitions[q][i] = clone
        reachable = {a.initial}
        frontier = [a.initial]
        while frontier:
            state = frontier.pop()
            for t in transitions[state]:
                if t not in reachable:
                    reachable.add(t)
                    frontier.append(t)
        if len(reachable) != clone + 1:
            continue
        return Pdfa(
            alphabet=a.alphabet,
            initial=a.initial,
            emissions=a.emissions + (a.emissions[target],),
            transitions=tuple(tuple(row) for row in transitions),
        )
    return a


def test_quotient_size_is_minimal_among_equivalent_automata():
    rng = random.Random(303)
    for _ in range(25):
        a = random_pdfa(rng, max_states=6, max_symbols=2)
        spec = rng.choice(SPECS)
        b = a
        for _ in range(rng.randint(1, 3)):
            b = split_state(rng, b)
        assert lm_equivalent(a, b, EXACT) is None
        h = quotient(a, spec)
        assert h.n_states <= b.n_states
        assert quotient(b, spec).n_states == h.n_states


def test_every_class_reached_within_class_count_steps():
    # The string-class-to-state-class bijection, checked structurally: words
    # no longer than the class count already reach every class.
    rng = random.Random(404)
    for _ in range(20):
        a = random_pdfa(rng, max_states=6, max_symbols=2)
        spec = rng.choice(SPECS)
        h = quotient(a, spec)
        reached = {h.run(w)[0] for w in iter_words(h.alphabet, h.n_states)}
        assert reached == set(range(h.n_states))


# ---------------------------------------------------------------------------
# Naive references for the refinement and the product search
# ---------------------------------------------------------------------------

def naive_refine_partition(a: Pdfa, seed_keys) -> StatePartition:
    """Moore refinement as first written: one key tuple per state per round."""

    def normalize(keys):
        ids = {}
        out = []
        for key in keys:
            if key not in ids:
                ids[key] = len(ids)
            out.append(ids[key])
        return out

    block_of = normalize([seed_keys[q] for q in range(a.n_states)])
    while True:
        refined = normalize([
            (block_of[q], tuple(block_of[t] for t in a.transitions[q]))
            for q in range(a.n_states)
        ])
        if len(set(refined)) == len(set(block_of)):
            return StatePartition(tuple(block_of), len(set(block_of)))
        block_of = refined


def naive_first_mismatch(symbols, start, trans_a, keys_a, trans_b, keys_b):
    """Product BFS carrying each pair's access word in the queue."""
    seen = {start}
    frontier = deque([(start, ())])
    while frontier:
        (qa, qb), access = frontier.popleft()
        if keys_a[qa] != keys_b[qb]:
            return access
        for i, symbol in enumerate(symbols):
            pair = (trans_a[qa][i], trans_b[qb][i])
            if pair not in seen:
                seen.add(pair)
                frontier.append((pair, access + (symbol,)))
    return None


def random_pair(rng: random.Random) -> tuple[Pdfa, Pdfa]:
    """Two PDFAs over one alphabet whose emissions come from one palette of
    2-4. Half the time ``b`` is ``a`` with one state's emission redrawn, so
    mismatches also lie deep in the product."""
    k = rng.randint(1, 3)
    a = random_pdfa(rng, max_states=14, min_states=2, min_symbols=k, max_symbols=k,
                    palette_size=rng.randint(2, 4))
    palette = list(dict.fromkeys(a.emissions))
    if rng.random() < 0.5:
        emissions = list(a.emissions)
        emissions[rng.randrange(a.n_states)] = rng.choice(palette)
        return a, Pdfa(a.alphabet, a.initial, tuple(emissions), a.transitions)
    shape = random_pdfa(rng, max_states=14, min_states=2, min_symbols=k, max_symbols=k,
                        palette_size=1)
    b = Pdfa(a.alphabet, shape.initial,
             tuple(rng.choice(palette) for _ in range(shape.n_states)), shape.transitions)
    return a, b


@pytest.mark.parametrize("extra", [-1, 1])
def test_refinement_needs_one_seed_key_per_state(fig3a, extra):
    with pytest.raises(AutomatonError, match="one seed key per state is required"):
        refine_partition(fig3a, [b"k"] * (fig3a.n_states + extra))


def test_refinement_and_product_search_match_the_naive_references():
    rng = random.Random(2718)
    words = []
    for _ in range(60):
        a, b = random_pair(rng)
        spec = rng.choice(SPECS)
        for m in (a, b):
            keys = emission_signatures(m.emissions, spec)
            partition = naive_refine_partition(m, keys)
            assert refine_partition(m, keys) == partition
            assert quotient(m, spec) == quotient_from_partition(
                m, partition, keys, spec.spec_string()
            )
        want = naive_first_mismatch(
            a.alphabet.symbols, (a.initial, b.initial),
            a.transitions, emission_signatures(a.emissions, spec),
            b.transitions, emission_signatures(b.emissions, spec),
        )
        assert lm_equivalent(a, b, spec) == want
        h = quotient(b, spec)
        assert ExactOracle(a, spec).check(h) == naive_first_mismatch(
            a.alphabet.symbols, (a.initial, h.initial),
            a.transitions, emission_signatures(a.emissions, spec),
            h.transitions, h.class_signatures,
        )
        assert ExactOracle(a, spec).check(quotient(a, spec)) is None
        words.append(want)
    # The pairs exercise mismatches deep in the product, and agreement.
    assert None in words
    assert sum(w is not None and len(w) >= 2 for w in words) >= 5
