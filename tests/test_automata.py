"""PDFA structures: evaluation, congruence, quotients, realization,
isomorphism, equivalence search, serialization, DOT export."""

import json
import random

import pytest

from pdfa_forge import (
    Alphabet,
    AlphabetMismatch,
    AutomatonError,
    Distribution,
    ExactOracle,
    Pdfa,
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
from pdfa_forge.automata import emission_signatures, lowest_index_representative
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


class TestStructureValidation:
    def test_rejects_unreachable_states(self):
        with pytest.raises(AutomatonError, match="unreachable"):
            Pdfa(
                alphabet=Alphabet(("a",)),
                initial=0,
                emissions=(unary_dist(0.5), unary_dist(0.4)),
                transitions=((0,), (1,)),
            )

    def test_rejects_partial_tau(self):
        with pytest.raises(AutomatonError, match="tau not total"):
            Pdfa(
                alphabet=Alphabet(("a", "b")),
                initial=0,
                emissions=(Distribution(Alphabet(("a", "b")), (0.4, 0.3, 0.3)),),
                transitions=((0,),),
            )

    def test_rejects_bad_target(self):
        with pytest.raises(AutomatonError):
            Pdfa(
                alphabet=Alphabet(("a",)),
                initial=0,
                emissions=(unary_dist(0.5),),
                transitions=((3,),),
            )


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

    def test_representative_policy_is_pluggable(self, fig2a):
        low = quotient(fig2a, QUANT3)
        high = quotient(fig2a, QUANT3, pick_representative=lambda states, a: max(states))
        assert low.representatives[0] == fig2a.emissions[0]
        assert high.representatives[0] == fig2a.emissions[2]
        assert low.class_signatures == high.class_signatures

    def test_default_picker_is_lowest_index(self, fig3a):
        assert lowest_index_representative((2, 0, 1), fig3a) == 0


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
            # Loading from JSON gives every state its own Distribution object.
            loaded = pdfa_from_json(json.loads(json.dumps(pdfa_to_json(shared))))
            assert len({id(d) for d in loaded.emissions}) == loaded.n_states
            for a in (shared, loaded):
                computed.clear()
                sigs = emission_signatures(a.emissions, QUANT3)
                assert len(computed) == len(set(a.emissions)) <= 3
                assert sigs == [signature(d, QUANT3) for d in a.emissions]

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

    def test_missing_transition_is_reported(self):
        doc = {
            "alphabet": ["a", "b"],
            "initial": 0,
            "states": [{"id": 0, "dist": {"a": 0.4, "b": 0.1, "$": 0.5}}],
            "transitions": [{"from": 0, "symbol": "a", "to": 0}],
        }
        with pytest.raises(AutomatonError, match="tau not total"):
            pdfa_from_json(doc)

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

    def test_quotient_signature_mismatch_is_detected(self, fig3a):
        doc = quotient_to_json(quotient(fig3a, QUANT7))
        doc["states"][0]["signature"] = signature(unary_dist(0.9), QUANT7).hex()
        with pytest.raises(AutomatonError, match="signature"):
            quotient_from_json(doc)

    def test_dispatch_on_document_flavor(self, fig3a):
        assert isinstance(automaton_from_json(pdfa_to_json(fig3a)), Pdfa)
        h = automaton_from_json(quotient_to_json(quotient(fig3a, QUANT7)))
        assert h.equivalence == "quant:7"


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
        b = realize(quotient(a, spec, pick_representative=lambda qs, _: max(qs)))
        assert lm_equivalent(a, b, spec) is None
        assert isomorphism(quotient(a, spec), quotient(b, spec)) is not None


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
