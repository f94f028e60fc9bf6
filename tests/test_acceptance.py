"""Acceptance suite: every criterion at its stated tolerance, one printed
PASS/FAIL line each. Run with ``pytest -s tests/test_acceptance.py`` to see
the lines on a green run; they also surface in pytest's failure output."""

import random
import time

import pytest

from pdfa_forge import (
    Alphabet,
    Distribution,
    EquivalenceSpec,
    ExactOracle,
    ObservationTable,
    PdfaLanguageModel,
    clipped_ranking,
    demo_recognizable_not_regular,
    enumerate_clique_partitions,
    isomorphism,
    learn,
    lm_equivalent,
    ndcg_distance,
    parse_equivalence,
    parse_similarity,
    quotient,
    quotient_by_cliques,
    realize,
    signature,
    similar,
    state_congruence,
    top_ranked,
    variation_distance,
    word_error_rate,
)
from pdfa_forge.words import iter_words

from helpers import random_distribution, random_pdfa, unary_dist


def report(num: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d} {title}: {status}{suffix}")
    assert ok, f"criterion {num} ({title}) failed {suffix}"


# ---------------------------------------------------------------------------
# 1. Coarse quantization collapses the running pair to one shared state
# ---------------------------------------------------------------------------

def test_criterion_01_collapsing_quotients(fig2a, fig2b):
    started = time.perf_counter()
    spec = parse_equivalence("quant:3")
    ha, hb = quotient(fig2a, spec), quotient(fig2b, spec)
    ok = ha.n_states == 1 and hb.n_states == 1
    ok = ok and isomorphism(ha, hb) is not None
    ok = ok and lm_equivalent(fig2a, fig2b, spec) is None
    words = list(iter_words(fig2a.alphabet, 12))
    ok = ok and len(words) == 13
    ok = ok and all(
        signature(fig2a.distribution_after(w), spec)
        == signature(fig2b.distribution_after(w), spec)
        for w in words
    )
    elapsed = time.perf_counter() - started
    report(1, "coarse quotients collapse and agree", ok and elapsed < 1.0,
           f"{elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. Learning the three-level chain under fine buckets
# ---------------------------------------------------------------------------

def test_criterion_02_learner_three_states(fig3a):
    started = time.perf_counter()
    spec = parse_equivalence("quant:7")
    result = learn(PdfaLanguageModel(fig3a), spec, ExactOracle(fig3a, spec))
    ok = result.converged and result.hypothesis.n_states == 3
    realized = realize(result.hypothesis)
    bound = 1.0 / 7.0 + 1e-12
    ok = ok and all(
        variation_distance(
            realized.distribution_after(w), fig3a.distribution_after(w)
        ) <= bound
        for w in iter_words(fig3a.alphabet, 12)
    )
    elapsed = time.perf_counter() - started
    report(2, "learned hypothesis stays within one bucket", ok and elapsed < 1.0,
           f"{elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 3. The three clique partitions and their quotients
# ---------------------------------------------------------------------------

def test_criterion_03_clique_partitions(fig3a):
    started = time.perf_counter()
    dists = (unary_dist(0.5), unary_dist(0.4), unary_dist(0.6))
    partitions = enumerate_clique_partitions(dists, parse_similarity("vd:0.15"))
    expected = {
        frozenset({frozenset({0}), frozenset({1}), frozenset({2})}): 3,
        frozenset({frozenset({0, 1}), frozenset({2})}): 3,
        frozenset({frozenset({0, 2}), frozenset({1})}): 2,
    }
    ok = {p.index_sets() for p in partitions} == set(expected)
    ok = ok and len(partitions) == 3
    ok = ok and all(
        quotient_by_cliques(fig3a, p).n_states == expected[p.index_sets()]
        for p in partitions
    )
    elapsed = time.perf_counter() - started
    report(3, "exactly three clique partitions with 3/3/2 states",
           ok and elapsed < 1.0, f"{elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 4 + 5. Learner vs independent refinement on 200 seeded random targets
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def learner_sweep():
    started = time.perf_counter()
    runs = []
    for i in range(200):
        rng = random.Random(41_000 + i)
        target = random_pdfa(rng, max_states=8, max_symbols=3)
        spec = EquivalenceSpec("quant", param=(2, 4, 8)[i % 3])
        result = learn(PdfaLanguageModel(target), spec, ExactOracle(target, spec))
        runs.append((target, spec, result, quotient(target, spec)))
    return runs, time.perf_counter() - started


def test_criterion_04_oracle_equivalence(learner_sweep):
    runs, elapsed = learner_sweep
    ok = all(result.converged for _, _, result, _ in runs)
    ok = ok and all(
        isomorphism(result.hypothesis, reference) is not None
        for _, _, result, reference in runs
    )
    report(4, "200/200 learned hypotheses isomorphic to refinement quotients",
           ok and elapsed < 30.0, f"{elapsed:.2f}s")


def test_criterion_05_minimality(learner_sweep):
    runs, _ = learner_sweep
    ok = all(
        result.hypothesis.n_states <= target.n_states
        and result.hypothesis.n_states == reference.n_states
        for target, _, result, reference in runs
    )
    report(5, "learned size never exceeds target and equals quotient size", ok)


# ---------------------------------------------------------------------------
# 6. Equal quantization buckets bound the variation distance
# ---------------------------------------------------------------------------

def test_criterion_06_quantization_vd_bound():
    rng = random.Random(6001)
    alphabets = [Alphabet(("a", "b", "c")[:k]) for k in (1, 2, 3)]
    ok = True
    for k in (2, 3, 7, 10):
        spec = EquivalenceSpec("quant", param=k)
        accepted = attempts = 0
        while accepted < 10_000:
            attempts += 1
            if attempts > 200_000:
                ok = False
                break
            alphabet = alphabets[attempts % 3]
            d1 = random_distribution(rng, alphabet)
            scale = 0.25 / k
            weights = [max(p + rng.uniform(-scale, scale), 1e-9) for p in d1.probs]
            total = sum(weights)
            d2 = Distribution(alphabet, tuple(w / total for w in weights))
            if signature(d1, spec) != signature(d2, spec):
                continue
            accepted += 1
            if variation_distance(d1, d2) > 1.0 / k + 1e-12:
                ok = False
                break
        if not ok:
            break
    report(6, "10^4 equal-bucket pairs per k stay within 1/k", ok)


# ---------------------------------------------------------------------------
# 7. WER/top and NDCG/rank biconditionals
# ---------------------------------------------------------------------------

def test_criterion_07_wer_and_ndcg_characterizations():
    rng = random.Random(7007)
    alphabets = [Alphabet(("a", "b", "c")[:k]) for k in (1, 2, 3)]
    ok = True
    for r in (1, 2, 3):
        for i in range(10_000):
            alphabet = alphabets[i % 3]
            d1 = random_distribution(rng, alphabet)
            style = i % 4
            if style == 0:
                d2 = d1
            elif style == 1:
                probs = list(d1.probs)
                rng.shuffle(probs)
                d2 = Distribution(alphabet, tuple(probs))
            else:
                d2 = random_distribution(rng, alphabet)
            wer_zero = word_error_rate(d1, d2, r) == 0.0
            tops_equal = top_ranked(d1, r) == top_ranked(d2, r)
            ndcg_zero = abs(ndcg_distance(d1, d2, r)) <= 1e-12
            ranks_equal = clipped_ranking(d1, r) == clipped_ranking(d2, r)
            if wer_zero != tops_equal or ndcg_zero != ranks_equal:
                ok = False
                break
        if not ok:
            break
    report(7, "wer=0 iff equal tops and ndcg=0 iff equal ranks, 3x10^4 pairs", ok)


# ---------------------------------------------------------------------------
# 8. Tolerance-recognizable model with unboundedly many cliques
# ---------------------------------------------------------------------------

def test_criterion_08_recognizable_not_clique_regular():
    started = time.perf_counter()
    result = demo_recognizable_not_regular(21)
    ok = result.tolerant_up_to_bound
    ok = ok and [len(w) for w in result.marked_words] == [1, 3, 6, 10, 15, 21]
    ok = ok and result.clique_lower_bound == 6
    ok = ok and len(result.separations) == 15
    from pdfa_forge import AlternatingUnaryModel

    model = AlternatingUnaryModel()
    for i, j, w in result.separations:
        d1 = model.query(result.marked_words[i] + w)
        d2 = model.query(result.marked_words[j] + w)
        ok = ok and not similar(d1, d2, result.similarity)
    growth = [demo_recognizable_not_regular(b).clique_lower_bound for b in (3, 10, 28)]
    ok = ok and growth == [2, 4, 7]
    elapsed = time.perf_counter() - started
    report(8, "six marked words pairwise separated, bound grows",
           ok and elapsed < 5.0, f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 9. Suffix-set equivalences behave like congruences
# ---------------------------------------------------------------------------

def test_criterion_09_congruence_axioms():
    rng = random.Random(9009)
    ok = True
    triples_checked = 0
    specs = ["quant:3", "quant:5", "top:1", "exact"]
    while triples_checked < 1000 and ok:
        target = random_pdfa(rng, max_states=5, max_symbols=2)
        spec = parse_equivalence(specs[triples_checked % len(specs)])
        model = PdfaLanguageModel(target)
        partition = state_congruence(target, spec)
        sig_cache: dict[tuple, bytes] = {}

        def class_key(dist):
            key = dist.probs
            if key not in sig_cache:
                sig_cache[key] = signature(dist, spec)
            return sig_cache[key]

        # Fine enough to realize the congruence: distinguishing suffixes of an
        # n-state machine are shorter than n.
        full = list(iter_words(target.alphabet, target.n_states))

        def row(word, suffix_set):
            return tuple(class_key(model.query(word + w)) for w in suffix_set)

        sampled = {()}
        for _ in range(6):
            word = tuple(
                rng.choice(target.alphabet.symbols) for _ in range(rng.randint(0, 5))
            )
            for k in range(len(word) + 1):
                sampled.add(word[k:])
        sampled = sorted(sampled)

        pool = [
            tuple(rng.choice(target.alphabet.symbols) for _ in range(rng.randint(0, 6)))
            for _ in range(12)
        ]
        for _ in range(50):
            u1, u2, u3 = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            triples_checked += 1
            # equivalence axioms under the sampled suffix set
            ok = ok and row(u1, sampled) == row(u1, sampled)
            ok = ok and (row(u1, sampled) == row(u2, sampled)) == (
                row(u2, sampled) == row(u1, sampled)
            )
            if row(u1, sampled) == row(u2, sampled) and row(u2, sampled) == row(u3, sampled):
                ok = ok and row(u1, sampled) == row(u3, sampled)
            # append compatibility under the congruence-realizing suffix set
            related = row(u1, full) == row(u2, full)
            same_block = (
                partition.blocks[target.run(u1)[0]] == partition.blocks[target.run(u2)[0]]
            )
            ok = ok and related == same_block
            if related:
                for symbol in target.alphabet.symbols:
                    ok = ok and row(u1 + (symbol,), full) == row(u2 + (symbol,), full)
            if not ok:
                break
    report(9, "suffix-set equivalence axioms and append compatibility", ok,
           f"{triples_checked} triples")


# ---------------------------------------------------------------------------
# 10. Learner-internal laws on logged runs
# ---------------------------------------------------------------------------

def _events_monotone(events) -> bool:
    classes = 1
    hypothesis_classes = []
    for event in events:
        if event["classes"] < classes:
            return False
        if event["event"] == "close" and event["classes"] <= classes:
            return False
        if event["event"] == "hypothesis":
            hypothesis_classes.append(event["classes"])
        classes = event["classes"]
    return all(b > a for a, b in zip(hypothesis_classes, hypothesis_classes[1:]))


def _table_laws_hold(model, spec, oracle, max_rounds=24) -> bool:
    """Drive the loop manually and re-check the construction laws externally:
    every red row runs to its own class and every (row, suffix) cell matches
    the class the hypothesis computes."""
    table = ObservationTable(model, spec)
    for _ in range(max_rounds):
        while not (closed := table.closed())[0]:
            table.close_step(closed[1])
        hypothesis = table.build_hypothesis()
        classes = list(table.red_classes())
        for p in table.red:
            if hypothesis.run(p)[0] != classes.index(table.row_signature(p)):
                return False
            for s in table.suffixes:
                if hypothesis.class_after(p + s) != signature(model.query(p + s), spec):
                    return False
        counterexample = oracle.check(hypothesis)
        if counterexample is None:
            return True
        table.update_with_counterexample(counterexample)
    return False


def test_criterion_10_learner_internal_laws(fig2a, fig3a):
    ok = True
    saw_counterexample = False

    manual = [
        (PdfaLanguageModel(fig3a), parse_equivalence("quant:7"), fig3a),
        (PdfaLanguageModel(fig2a), parse_equivalence("quant:10"), fig2a),
    ]
    rng = random.Random(1010)
    for _ in range(10):
        target = random_pdfa(rng, max_states=7, max_symbols=2, palette_size=2)
        manual.append((PdfaLanguageModel(target), parse_equivalence("quant:4"), target))

    for model, spec, target in manual:
        ok = ok and _table_laws_hold(model, spec, ExactOracle(target, spec))
        result = learn(model, spec, ExactOracle(target, spec))
        ok = ok and result.converged and _events_monotone(result.events)
        saw_counterexample = saw_counterexample or any(
            e["event"] == "counterexample" for e in result.events
        )
    ok = ok and saw_counterexample
    report(10, "table laws cell-exact and class counts strictly increase", ok)
