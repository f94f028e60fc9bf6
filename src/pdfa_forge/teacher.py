"""Equivalence-query oracles.

An oracle checks a hypothesis quotient PDFA against the target model and
answers either "equivalent" (None) or a counterexample word whose class
under the target differs from the class the hypothesis computes. The exact
oracle is sound and complete for PDFA-backed targets; the sampling and
bounded-exhaustive oracles are one-sided approximations for true black
boxes. Every oracle re-verifies a counterexample with one membership query
before returning it.
"""

from __future__ import annotations

import abc
import random
from collections import deque
from dataclasses import dataclass

from .automata import Pdfa, QuotientPdfa, emission_signatures
from .distributions import AlphabetMismatch
from .models import LanguageModel, PdfaLanguageModel
from .relations import EquivalenceSpec, signature
from .words import EMPTY, Word, count_words, iter_words, prefixes


class OracleBudgetExceeded(RuntimeError):
    """An exhaustive sweep would evaluate more words than allowed."""


class EqOracle(abc.ABC):
    """Equivalence-query interface: None means no counterexample found."""

    description: str = "oracle"

    @abc.abstractmethod
    def check(self, hypothesis: QuotientPdfa) -> Word | None: ...

    def _verify(
        self, word: Word, hypothesis: QuotientPdfa, model: LanguageModel,
        spec: EquivalenceSpec,
    ) -> Word:
        """Re-check the counterexample with a fresh membership query."""
        if signature(model.query(word), spec) == hypothesis.class_after(word):
            raise AssertionError(
                f"oracle produced a bogus counterexample {word!r}"
            )
        return word


class ExactOracle(EqOracle):
    """Complete equivalence check against a known PDFA target.

    Walks the synchronized product of target and hypothesis breadth-first
    and reports the shortest access word of the first class mismatch
    (alphabet-order tie-break).
    """

    def __init__(self, target: Pdfa, spec: EquivalenceSpec):
        self.target = target
        self.spec = spec
        self._model = PdfaLanguageModel(target)
        self._target_sigs = emission_signatures(target.emissions, spec)
        self.description = f"exact[{spec.spec_string()}]"

    def check(self, hypothesis: QuotientPdfa) -> Word | None:
        if hypothesis.alphabet != self.target.alphabet:
            raise AlphabetMismatch("hypothesis alphabet differs from the target's")
        start = (self.target.initial, hypothesis.initial)
        seen = {start}
        frontier: deque[tuple[tuple[int, int], Word]] = deque([(start, EMPTY)])
        while frontier:
            (qt, qh), access = frontier.popleft()
            if self._target_sigs[qt] != hypothesis.class_signatures[qh]:
                return self._verify(access, hypothesis, self._model, self.spec)
            for i, symbol in enumerate(self.target.alphabet.symbols):
                pair = (self.target.transitions[qt][i], hypothesis.transitions[qh][i])
                if pair not in seen:
                    seen.add(pair)
                    frontier.append((pair, access + (symbol,)))
        return None


@dataclass(frozen=True)
class SamplingConfig:
    """Random word generator settings for the sampling oracle.

    Word lengths follow a geometric distribution truncated at ``max_length``;
    symbols are drawn uniformly.
    """

    samples: int = 1000
    max_length: int = 40
    seed: int = 0
    geometric_p: float = 0.2

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.max_length < 0:
            raise ValueError("max_length must be >= 0")
        if not 0 < self.geometric_p < 1:
            raise ValueError("geometric_p must lie strictly between 0 and 1")


class SamplingOracle(EqOracle):
    """One-sided randomized check for black-box targets.

    Exhaustively tests every word up to length 3, then draws i.i.d. random
    words. Failing words are shrunk to their shortest failing prefix and the
    length-lex smallest is returned. A None answer is evidence, not proof.
    The generator is re-seeded per call, so verdicts are reproducible.
    """

    SWEEP_LENGTH = 3

    def __init__(self, model: LanguageModel, spec: EquivalenceSpec, config: SamplingConfig):
        self.model = model
        self.spec = spec
        self.config = config
        self.description = (
            f"sample[{spec.spec_string()},n={config.samples},"
            f"maxlen={config.max_length},seed={config.seed}]"
        )

    def _fails(self, word: Word, hypothesis: QuotientPdfa) -> bool:
        return signature(self.model.query(word), self.spec) != hypothesis.class_after(word)

    def _shrink(self, word: Word, hypothesis: QuotientPdfa) -> Word:
        for p in prefixes(word):
            if self._fails(p, hypothesis):
                return p
        return word

    def check(self, hypothesis: QuotientPdfa) -> Word | None:
        if hypothesis.alphabet != self.model.alphabet:
            raise AlphabetMismatch("hypothesis alphabet differs from the model's")
        alphabet = self.model.alphabet
        for word in iter_words(alphabet, min(self.SWEEP_LENGTH, self.config.max_length)):
            if self._fails(word, hypothesis):
                return self._verify(
                    self._shrink(word, hypothesis), hypothesis, self.model, self.spec
                )
        if not alphabet.symbols:
            return None
        rng = random.Random(self.config.seed)
        failures: list[Word] = []
        for _ in range(self.config.samples):
            length = min(_geometric(rng, self.config.geometric_p), self.config.max_length)
            word = tuple(rng.choice(alphabet.symbols) for _ in range(length))
            if self._fails(word, hypothesis):
                failures.append(self._shrink(word, hypothesis))
        if not failures:
            return None
        best = min(failures, key=lambda w: (len(w), tuple(alphabet.index(s) for s in w)))
        return self._verify(best, hypothesis, self.model, self.spec)


def _geometric(rng: random.Random, p: float) -> int:
    """Number of failures before the first success (support {0,1,2,...})."""
    length = 0
    while rng.random() >= p:
        length += 1
    return length


class BoundedExhaustiveOracle(EqOracle):
    """Deterministic sweep of every word up to a length bound.

    Sound for disagreement within the bound; a None answer only certifies
    agreement on the swept words. Refuses budgets above ``max_words``.
    """

    def __init__(
        self,
        model: LanguageModel,
        spec: EquivalenceSpec,
        max_length: int,
        *,
        max_words: int = 200_000,
    ):
        total = count_words(len(model.alphabet), max_length)
        if total > max_words:
            raise OracleBudgetExceeded(
                f"sweeping {total} words exceeds the {max_words}-word budget"
            )
        self.model = model
        self.spec = spec
        self.max_length = max_length
        self.description = f"exhaustive[{spec.spec_string()},maxlen={max_length}]"

    def check(self, hypothesis: QuotientPdfa) -> Word | None:
        if hypothesis.alphabet != self.model.alphabet:
            raise AlphabetMismatch("hypothesis alphabet differs from the model's")
        for word in iter_words(self.model.alphabet, self.max_length):
            if signature(self.model.query(word), self.spec) != hypothesis.class_after(word):
                return self._verify(word, hypothesis, self.model, self.spec)
        return None
