"""Similarity and equivalence relations on next-symbol distributions.

Similarities are thresholded symmetric divergences (variation distance,
support difference rate, word error rate, NDCG distance). Equivalences are
the transitive relations used for quotienting: per-symbol quantization,
clipped-rank equality, top-set equality, support equality, exact equality,
and conjunctions of these. Every equivalence is realized through a canonical
*signature*: a byte string such that two distributions are equivalent exactly
when their signatures are equal. This makes class membership a dictionary
lookup and transitivity structural.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .distributions import Distribution, require_same_alphabet

SIMILARITY_KINDS = ("vd", "sdr", "wer", "ndcg")
EQUIVALENCE_KINDS = ("quant", "rank", "top", "supp", "exact", "combo")

#: `exact` equivalence keys on probabilities rounded to this many decimals.
EXACT_DECIMALS = 9

#: Quantization reads probabilities rounded to this many decimals.
QUANT_DECIMALS = 12

_QUANT_SCALE = 10 ** QUANT_DECIMALS


def _canonical(p: float) -> float:
    """``p`` with a tolerated negative clamped to 0 and ``-0.0`` folded into 0.0."""
    return max(p, 0.0) + 0.0


def _on_grid(p: float) -> int:
    """The canonical ``p`` rounded to a whole number of 1e-12 steps."""
    return round(_canonical(p) * _QUANT_SCALE)


# ---------------------------------------------------------------------------
# Rankings
# ---------------------------------------------------------------------------

def ranking(d: Distribution) -> dict[str, int]:
    """Injective 1-based ranking of symbols by decreasing probability.

    Probabilities are compared on the 12-decimal grid that quantization
    reads, so float noise below it cannot reorder symbols. Ties are broken by
    alphabet order, so the ranking is always a bijection onto 1..|alphabet|+1.
    """
    grid = [_on_grid(p) for p in d.probs]
    order = sorted(range(len(grid)), key=lambda i: (-grid[i], i))
    symbols = d.alphabet.extended
    return {symbols[i]: pos + 1 for pos, i in enumerate(order)}


def top_ranked(d: Distribution, r: int) -> frozenset[str]:
    """The set of symbols ranked in the first ``r`` positions."""
    _require_positive(r)
    return frozenset(sym for sym, k in ranking(d).items() if k <= r)


def clipped_ranking(d: Distribution, r: int) -> dict[str, int]:
    """Ranking with every position beyond ``r`` collapsed to ``r+1``."""
    _require_positive(r)
    return {sym: (k if k <= r else r + 1) for sym, k in ranking(d).items()}


def _require_positive(r: int) -> None:
    if r < 1:
        raise ValueError(f"r must be a positive integer, got {r}")


# ---------------------------------------------------------------------------
# Similarity functions (symmetric, zero on the diagonal)
# ---------------------------------------------------------------------------

def variation_distance(d1: Distribution, d2: Distribution) -> float:
    """Largest per-symbol probability gap (infinity norm)."""
    require_same_alphabet(d1, d2)
    return max(abs(p - q) for p, q in zip(d1.probs, d2.probs))


def support_difference_rate(d1: Distribution, d2: Distribution) -> float:
    """Fraction of symbols in exactly one of the two supports."""
    require_same_alphabet(d1, d2)
    diff = d1.support() ^ d2.support()
    return len(diff) / len(d1.alphabet.extended)


def word_error_rate(d1: Distribution, d2: Distribution, r: int) -> float:
    """Symmetric difference of the two top-``r`` sets, scaled to [0,1].

    Zero exactly when the top-``r`` sets coincide.
    """
    require_same_alphabet(d1, d2)
    diff = top_ranked(d1, r) ^ top_ranked(d2, r)
    return len(diff) / (2 * r)


def ndcg_distance(d1: Distribution, d2: Distribution, r: int) -> float:
    """One minus the symmetrized normalized discounted cumulative gain.

    Each direction scores the other distribution's rank-``k`` symbol with
    relevance ``r - clipped_rank + 1`` discounted by ``1/log2(k+1)``, and is
    normalized by the best achievable sum. Zero exactly when the clipped
    rankings coincide.
    """
    require_same_alphabet(d1, d2)
    _require_positive(r)
    depth = min(r, len(d1.alphabet.extended))
    denom = sum((r - k + 1) / math.log2(k + 1) for k in range(1, depth + 1))
    forward = _discounted_gain(d1, d2, r, depth) / denom
    backward = _discounted_gain(d2, d1, r, depth) / denom
    return 1.0 - (forward + backward) / 2.0


def _discounted_gain(reference: Distribution, candidate: Distribution, r: int, depth: int) -> float:
    """Discounted relevance of the candidate's ranking judged by the reference."""
    symbol_at_rank = {k: sym for sym, k in ranking(candidate).items()}
    ref_clipped = clipped_ranking(reference, r)
    return sum(
        (r - ref_clipped[symbol_at_rank[k]] + 1) / math.log2(k + 1)
        for k in range(1, depth + 1)
    )


# ---------------------------------------------------------------------------
# Similarity specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimilaritySpec:
    """A divergence function plus a threshold; relates d1,d2 when value <= t."""

    kind: str
    threshold: float
    r: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in SIMILARITY_KINDS:
            raise ValueError(f"unknown similarity kind {self.kind!r}")
        if self.kind in ("wer", "ndcg"):
            if self.r is None or self.r < 1:
                raise ValueError(f"{self.kind} needs a positive r, got {self.r}")
        elif self.r is not None:
            raise ValueError(f"{self.kind} takes no r parameter")
        if self.threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        if self.kind != "vd" and self.threshold > 1:
            raise ValueError(f"{self.kind} threshold must lie in [0,1], got {self.threshold}")

    def spec_string(self) -> str:
        threshold = repr(self.threshold)  # shortest exact form, reparses losslessly
        if self.r is None:
            return f"{self.kind}:{threshold}"
        return f"{self.kind}:{self.r}:{threshold}"


def similarity_value(d1: Distribution, d2: Distribution, spec: SimilaritySpec) -> float:
    """Evaluate the spec's divergence function."""
    if spec.kind == "vd":
        return variation_distance(d1, d2)
    if spec.kind == "sdr":
        return support_difference_rate(d1, d2)
    if spec.kind == "wer":
        return word_error_rate(d1, d2, spec.r)
    return ndcg_distance(d1, d2, spec.r)


def similar(d1: Distribution, d2: Distribution, spec: SimilaritySpec) -> bool:
    """True when the divergence does not exceed the threshold."""
    return similarity_value(d1, d2, spec) <= spec.threshold


# ---------------------------------------------------------------------------
# Equivalence specs and signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceSpec:
    """Description of an equivalence on distributions.

    kinds: quant(param=k buckets), rank(param=r), top(param=r), supp, exact,
    combo(members). Combos must be flat and non-empty.
    """

    kind: str
    param: int | None = None
    members: tuple["EquivalenceSpec", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        if self.kind not in EQUIVALENCE_KINDS:
            raise ValueError(f"unknown equivalence kind {self.kind!r}")
        if self.kind in ("quant", "rank", "top"):
            if self.param is None or self.param < 1:
                raise ValueError(f"{self.kind} needs a positive integer parameter, got {self.param}")
        elif self.param is not None:
            raise ValueError(f"{self.kind} takes no parameter")
        if self.kind == "combo":
            if not self.members:
                raise ValueError("combo needs at least one member")
            if any(m.kind == "combo" for m in self.members):
                raise ValueError("combo members cannot be combos themselves")
        elif self.members:
            raise ValueError(f"{self.kind} takes no members")

    def spec_string(self) -> str:
        if self.kind == "combo":
            return "combo:" + "+".join(m.spec_string() for m in self.members)
        if self.param is None:
            return self.kind
        return f"{self.kind}:{self.param}"


def quantization_bucket(p: float, k: int) -> int:
    """Index of the quantization interval containing ``p`` among ``k`` buckets.

    Intervals are [n/k, (n+1)/k) with the last one closed at 1. Computed as
    floor(p12 * k) in exact integer arithmetic on the 12-decimal rounding p12
    of p, so decimal inputs never flap across bucket borders. A tolerated
    negative ``p`` falls in the first bucket.
    """
    return min((_on_grid(p) * k) // _QUANT_SCALE, k - 1)


def _signature_payload(d: Distribution, spec: EquivalenceSpec) -> list:
    if spec.kind == "quant":
        return ["quant", spec.param, [quantization_bucket(p, spec.param) for p in d.probs]]
    if spec.kind == "rank":
        clipped = clipped_ranking(d, spec.param)
        return ["rank", spec.param, [clipped[s] for s in d.alphabet.extended]]
    if spec.kind == "top":
        top = top_ranked(d, spec.param)
        return ["top", spec.param, sorted(d.alphabet.index(s) for s in top)]
    if spec.kind == "supp":
        return ["supp", sorted(d.alphabet.index(s) for s in d.support())]
    if spec.kind == "exact":
        return ["exact", [round(_canonical(p), EXACT_DECIMALS) for p in d.probs]]
    return ["combo", [_signature_payload(d, m) for m in spec.members]]


def signature(d: Distribution, spec: EquivalenceSpec) -> bytes:
    """Canonical class key: equal exactly for equivalent distributions."""
    return json.dumps(_signature_payload(d, spec), separators=(",", ":")).encode("ascii")


def equivalent(d1: Distribution, d2: Distribution, spec: EquivalenceSpec) -> bool:
    require_same_alphabet(d1, d2)
    return signature(d1, spec) == signature(d2, spec)


# ---------------------------------------------------------------------------
# Spec grammar
# ---------------------------------------------------------------------------

def parse_equivalence(text: str) -> EquivalenceSpec:
    """Parse ``quant:<k>``, ``rank:<r>``, ``top:<r>``, ``supp``, ``exact``,
    or ``combo:<spec>+<spec>[+...]``."""
    text = text.strip()
    if text == "supp" or text == "exact":
        return EquivalenceSpec(text)
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"cannot parse equivalence spec {text!r}")
    if head == "combo":
        parts = [p for p in rest.split("+") if p]
        return EquivalenceSpec("combo", members=tuple(parse_equivalence(p) for p in parts))
    if head in ("quant", "rank", "top"):
        return EquivalenceSpec(head, param=_parse_int(rest, text))
    raise ValueError(f"cannot parse equivalence spec {text!r}")


def parse_similarity(text: str) -> SimilaritySpec:
    """Parse ``vd:<t>``, ``sdr:<t>``, ``wer:<r>:<t>``, or ``ndcg:<r>:<t>``."""
    parts = text.strip().split(":")
    if parts[0] in ("vd", "sdr") and len(parts) == 2:
        return SimilaritySpec(parts[0], threshold=_parse_float(parts[1], text))
    if parts[0] in ("wer", "ndcg") and len(parts) == 3:
        return SimilaritySpec(
            parts[0], r=_parse_int(parts[1], text), threshold=_parse_float(parts[2], text)
        )
    raise ValueError(f"cannot parse similarity spec {text!r}")


def _parse_int(raw: str, context: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"bad integer {raw!r} in spec {context!r}") from None


def _parse_float(raw: str, context: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"bad number {raw!r} in spec {context!r}") from None
