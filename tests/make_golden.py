"""The golden learner corpus: fixed ``learn`` runs and their digests.

Each run learns a fixed target through a model that records every word and
batch it is asked. ``tests/golden/learn.json`` stores, per run, sha256
digests of the hypothesis JSON, the trace tuples and the recorded requests,
plus the plain ``mq_count``, ``rounds``, cache hits and misses and stop
reason; ``test_golden.py`` checks that the learner still reproduces them.

Rewrite the file with ``PYTHONPATH=src python tests/make_golden.py``. A
change that moves a digest says which and why.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from pdfa_forge import (
    CachedModel,
    ExactOracle,
    LanguageModel,
    PdfaLanguageModel,
    SamplingConfig,
    SamplingOracle,
    learn,
    parse_equivalence,
    pdfa_from_json,
    quotient_to_json,
    synthetic_model,
)
from pdfa_forge.bundled import fixture_json

from helpers import random_pdfa

GOLDEN = Path(__file__).with_name("golden") / "learn.json"


class Recorded(LanguageModel):
    """Answers as ``inner`` does, logging each word it is asked."""

    def __init__(self, inner: LanguageModel):
        self.inner = inner
        self.log: list = []

    @property
    def alphabet(self):
        return self.inner.alphabet

    def query(self, word):
        self.log.append(["query", word])
        return self.inner.query(word)


class RecordedBatches(Recorded):
    """A recorded model with a batch path of its own, as a remote model has."""

    def query_many(self, words):
        words = list(words)
        self.log.append(["batch", words])
        return list(map(self.inner.query, words))


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def summary(inner: LanguageModel, spec: str, oracle, batches=False, **limits) -> dict:
    """Learn ``inner`` under ``spec``; ``oracle(model, equivalence)`` builds
    the equivalence oracle over the recorded, cached model."""
    model = (RecordedBatches if batches else Recorded)(inner)
    cache = CachedModel(model)
    equivalence = parse_equivalence(spec)
    report = learn(cache, equivalence, oracle(cache, equivalence), **limits)
    hypothesis = report.hypothesis
    return {
        "hypothesis": digest(None if hypothesis is None else quotient_to_json(hypothesis)),
        "trace": digest(report.trace),
        "requests": digest(model.log),
        "mq_count": report.mq_count,
        "rounds": report.rounds,
        "hits": cache.hits,
        "misses": cache.misses,
        "stop_reason": report.stop_reason,
    }


def exact_run(target, spec: str, **limits):
    return lambda: summary(
        PdfaLanguageModel(target), spec, lambda _, eq: ExactOracle(target, eq), **limits
    )


def sampling_run(inner: LanguageModel, spec: str, config: SamplingConfig, **limits):
    return lambda: summary(
        inner, spec, lambda model, eq: SamplingOracle(model, eq, config), batches=True, **limits
    )


def runs() -> dict:
    """Every pinned run by name, as a thunk returning its summary."""
    out = {}
    rng = random.Random(20)
    for i in range(20):
        target = random_pdfa(
            rng, max_states=40, min_states=5, min_symbols=2, palette_size=rng.randint(2, 6)
        )
        for spec in ("quant:20", "exact"):
            out[f"random-{i} {spec} exact-oracle"] = exact_run(target, spec)
    # The cell limit cuts a fill short, and the first fill of all.
    for max_cells in (2, 20):
        out[f"random-{i} exact exact-oracle max-cells-{max_cells}"] = exact_run(
            target, "exact", max_cells=max_cells
        )
    rng = random.Random(21)
    for i in range(5):
        target = random_pdfa(rng, max_states=20, min_states=5, min_symbols=2)
        config = SamplingConfig(samples=300, max_length=20, seed=i)
        out[f"sampled-{i} quant:7 sampling-oracle"] = sampling_run(
            PdfaLanguageModel(target), "quant:7", config
        )
    fig3a = pdfa_from_json(fixture_json("fig3a"))
    out["fig3a quant:7 exact-oracle"] = exact_run(fig3a, "quant:7")
    # Not regular under exact: the cell limit stops the run.
    out["m1 exact sampling-oracle max-cells-400"] = sampling_run(
        synthetic_model("m1"), "exact", SamplingConfig(samples=1000, max_length=60),
        max_cells=400,
    )
    return out


def main() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    corpus = {name: run() for name, run in runs().items()}
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} runs to {GOLDEN}")


if __name__ == "__main__":
    main()
