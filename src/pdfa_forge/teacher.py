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
from dataclasses import dataclass

from .automata import Pdfa, QuotientPdfa, _first_mismatch
from .distributions import AlphabetMismatch, require_limit
from .models import LanguageModel, PdfaLanguageModel
from .relations import EquivalenceSpec, SignatureMemo, signature
from .words import Word, count_words, iter_words, prefixes, word_key


class OracleBudgetExceeded(RuntimeError):
    """An exhaustive sweep would evaluate more words than allowed."""


class EqOracle(abc.ABC):
    """Equivalence-query interface: None means no counterexample found.

    The target's class after a word is the signature of ``model``'s answer,
    read through one ``SignatureMemo``, so each distinct answer is signed
    once.
    """

    description: str = "oracle"

    def __init__(self, model: LanguageModel, spec: EquivalenceSpec):
        self.model = model
        self.spec = spec
        self._sigs = SignatureMemo(spec, signature)

    @abc.abstractmethod
    def check(self, hypothesis: QuotientPdfa) -> Word | None: ...

    def _fails(self, word: Word, hypothesis: QuotientPdfa) -> bool:
        """Whether the target's class after ``word`` differs from the hypothesis's."""
        return self._sigs[self.model.query(word)] != hypothesis.class_after(word)

    def _sweep(self, hypothesis: QuotientPdfa, max_length: int) -> Word | None:
        """The first failing word up to ``max_length``, in length-lex order."""
        if hypothesis.alphabet != self.model.alphabet:
            raise AlphabetMismatch("hypothesis alphabet differs from the model's")
        for word in iter_words(self.model.alphabet, max_length):
            if self._fails(word, hypothesis):
                return self._verify(word, hypothesis)
        return None

    def _verify(self, word: Word, hypothesis: QuotientPdfa) -> Word:
        """Re-check the counterexample with a fresh membership query."""
        if not self._fails(word, hypothesis):
            raise AssertionError(
                f"oracle produced a bogus counterexample {word!r}"
            )
        return word


class ExactOracle(EqOracle):
    """Complete equivalence check against a known PDFA target.

    Walks the synchronized product of target and hypothesis breadth-first
    and reports the shortest access word of the first class mismatch
    (alphabet-order tie-break). The target's state keys and the
    counterexample's re-check read one memo, so each emission is signed
    once.
    """

    def __init__(self, target: Pdfa, spec: EquivalenceSpec):
        super().__init__(PdfaLanguageModel(target), spec)
        self.target = target
        self._target_sigs = list(map(self._sigs.__getitem__, target.emissions))
        self.description = f"exact[{spec.spec_string()}]"

    def check(self, hypothesis: QuotientPdfa) -> Word | None:
        if hypothesis.alphabet != self.target.alphabet:
            raise AlphabetMismatch("hypothesis alphabet differs from the target's")
        word = _first_mismatch(
            self.target, self._target_sigs, hypothesis, hypothesis.class_signatures
        )
        return None if word is None else self._verify(word, hypothesis)


#: Success probability of the geometric law that sampled word lengths follow.
GEOMETRIC_P = 0.2


@dataclass(frozen=True)
class SamplingConfig:
    """Random word generator settings for the sampling oracle.

    Word lengths follow a geometric distribution (``GEOMETRIC_P``) truncated
    at ``max_length``; symbols are drawn uniformly.
    """

    samples: int = 1000
    max_length: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        require_limit("samples", self.samples, 1)
        require_limit("max_length", self.max_length, 0)


class SamplingOracle(EqOracle):
    """One-sided randomized check for black-box targets.

    Exhaustively tests every word up to length 3, then draws i.i.d. random
    words. The answer is the length-lex smallest shortest failing prefix of
    a failing word. A None answer is evidence, not proof. The samples are
    drawn once per oracle from the configured seed, so every check tests the
    same words and verdicts are reproducible.
    """

    SWEEP_LENGTH = 3

    def __init__(self, model: LanguageModel, spec: EquivalenceSpec, config: SamplingConfig):
        super().__init__(model, spec)
        self.config = config
        self.description = (
            f"sample[{spec.spec_string()},n={config.samples},"
            f"maxlen={config.max_length},seed={config.seed}]"
        )
        self._samples: list[Word] | None = None

    def _draw(self) -> list[Word]:
        """The random words every check tests, drawn on first use."""
        if self._samples is None:
            config, symbols = self.config, self.model.alphabet.symbols
            rng = random.Random(config.seed)
            self._samples = []
            for _ in range(config.samples):
                length = min(_geometric(rng), config.max_length)
                self._samples.append(tuple(rng.choice(symbols) for _ in range(length)))
        return self._samples

    def check(self, hypothesis: QuotientPdfa) -> Word | None:
        # The sweep runs in length-lex order, so its first failure is already
        # its own shortest failing prefix.
        word = self._sweep(hypothesis, min(self.SWEEP_LENGTH, self.config.max_length))
        alphabet = self.model.alphabet
        if word is not None or not alphabet.symbols:
            return word
        failures = {word for word in self._draw() if self._fails(word, hypothesis)}
        # Shrink the failures in length-lex order. Prefixes come in increasing
        # order too, so a prefix that is not below the best answer so far ends
        # the scan: the word's shortest failing prefix cannot beat it.
        best: Word | None = None
        best_key = None
        for word in sorted(failures, key=lambda w: word_key(alphabet, w)):
            for p in prefixes(word):
                key = word_key(alphabet, p)
                if best_key is not None and key >= best_key:
                    break
                if self._fails(p, hypothesis):
                    best, best_key = p, key
                    break
        return None if best is None else self._verify(best, hypothesis)


def _geometric(rng: random.Random) -> int:
    """Number of failures before the first success (support {0,1,2,...})."""
    length = 0
    while rng.random() >= GEOMETRIC_P:
        length += 1
    return length


#: Most words a bounded-exhaustive sweep may evaluate.
MAX_SWEEP_WORDS = 200_000


class BoundedExhaustiveOracle(EqOracle):
    """Deterministic sweep of every word up to a length bound.

    Sound for disagreement within the bound; a None answer only certifies
    agreement on the swept words. Refuses sweeps of more than
    ``MAX_SWEEP_WORDS`` words: over two or more symbols, length ``L`` alone
    holds at least ``2^L`` words, so a long bound is refused without
    counting, and a short one is counted exactly.
    """

    def __init__(self, model: LanguageModel, spec: EquivalenceSpec, max_length: int):
        require_limit("max_length", max_length, 0)
        k = len(model.alphabet)
        if k >= 2 and max_length >= MAX_SWEEP_WORDS.bit_length():  # 2^L > MAX_SWEEP_WORDS
            raise OracleBudgetExceeded(
                f"sweeping more than {MAX_SWEEP_WORDS} words exceeds the "
                f"{MAX_SWEEP_WORDS}-word budget"
            )
        total = count_words(k, max_length)
        if total > MAX_SWEEP_WORDS:
            raise OracleBudgetExceeded(
                f"sweeping {total} words exceeds the {MAX_SWEEP_WORDS}-word budget"
            )
        super().__init__(model, spec)
        self.max_length = max_length
        self.description = f"exhaustive[{spec.spec_string()},maxlen={max_length}]"

    def check(self, hypothesis: QuotientPdfa) -> Word | None:
        return self._sweep(hypothesis, self.max_length)
