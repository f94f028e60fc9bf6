"""Per-layer tracing from outside the package.

Spans are recorded around calls into each layer's public entry points by
swapping module attributes and class attributes for timing wrappers while a
``traced`` block is active; nothing under ``src/`` is edited. Spans are
aggregated as they close (a full span log of millions of ``word_key`` calls
would dominate memory): per layer the self time (span time minus the time of
the spans it encloses), per span name the call count and inclusive time.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Callable

from pdfa_forge import automata, learner, teacher
from pdfa_forge.learner import ObservationTable
from pdfa_forge.models import CachedModel, LanguageModel

LAYERS = ("learner", "words", "relations", "models", "teacher", "automata", "tolerance")

#: ObservationTable entry points that ``learn`` reaches, and their metric stems.
TABLE_METHODS = {
    "closed": "closed",
    "close_step": "close_step",
    "consistent": "consistent",
    "consistent_step": "consistent_step",
    "update_with_counterexample": "cex_update",
    "build_hypothesis": "build_hypothesis",
    "dimensions": "dimensions",
    "red_classes": "red_classes",
    "red_class_count": "red_class_count",
    "row_signature": "row_signature",
}
TABLE_PROPERTIES = ("blue",)


class Tracer:
    """Aggregating span recorder; single-threaded, like the benchmark loop."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.top_s = 0.0

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        key = f"{layer}.{name}"
        stack = self._stack
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                total_s[key] += elapsed
                calls[key] += 1
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_s += elapsed

        return traced

    def call(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        return self.wrap(layer, name, fn)(*args, **kwargs)


class Untraced:
    """Stand-in for ``Tracer`` in untraced passes: calls straight through."""

    @staticmethod
    def call(layer: str, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Swap the traced entry points in for the duration of the block."""
    swaps = [
        (learner, "word_key", tracer.wrap("words", "word_key", learner.word_key)),
        (learner, "signature", tracer.wrap("relations", "signature", learner.signature)),
        (teacher, "signature", tracer.wrap("relations", "signature", teacher.signature)),
        (automata, "signature", tracer.wrap("relations", "signature", automata.signature)),
    ]
    for attr, stem in TABLE_METHODS.items():
        method = getattr(ObservationTable, attr)
        swaps.append((ObservationTable, attr, tracer.wrap("learner", stem, method)))
    for attr in TABLE_PROPERTIES:
        getter = getattr(ObservationTable, attr).fget
        swaps.append((ObservationTable, attr, property(tracer.wrap("learner", attr, getter))))
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in swaps]
    try:
        for owner, attr, replacement in swaps:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


class TimedModel(LanguageModel):
    """Proxy under the cache: times every query that reaches the model."""

    def __init__(self, inner: LanguageModel, tracer: Tracer):
        self.inner = inner
        self.latencies_s: list[float] = []
        self.errors = 0
        self._query = tracer.wrap("models", "inner_query", inner.query)

    @property
    def alphabet(self):
        return self.inner.alphabet

    def query(self, word):
        start = time.perf_counter()
        try:
            return self._query(word)
        except Exception:
            self.errors += 1
            raise
        finally:
            self.latencies_s.append(time.perf_counter() - start)


class TracedCache(CachedModel):
    """``CachedModel`` whose every lookup, hit or miss, is a models span."""

    def __init__(self, inner: LanguageModel, tracer: Tracer):
        super().__init__(inner)
        self.query = tracer.wrap("models", "query", self.query)


class TimedOracle:
    """Equivalence-oracle proxy: times ``check`` and splits out its MQs."""

    def __init__(self, inner, cache: CachedModel, tracer: Tracer):
        self.description = inner.description
        self._cache = cache
        self._check = tracer.wrap("teacher", "check", inner.check)
        self.calls = 0
        self.cex_symbols = 0
        self.mq_misses = 0
        self.mq_hits = 0

    def check(self, hypothesis):
        misses, hits = self._cache.misses, self._cache.hits
        try:
            counterexample = self._check(hypothesis)
        finally:
            self.calls += 1
            self.mq_misses += self._cache.misses - misses
            self.mq_hits += self._cache.hits - hits
        if counterexample is not None:
            self.cex_symbols += len(counterexample)
        return counterexample
