"""Tolerance relations on words, clique partitions, and the obstruction
separating them from congruences.

A similarity on distributions lifts to a *tolerance* on words: reflexive,
symmetric, append-compatible, but not transitive. Grouping therefore needs a
clique partition, which is generally not unique, and append-compatible
clique partitions (clique congruences) may not exist at all even when some
PDFA is similarity-close to the model everywhere. This module enumerates
clique partitions of finite distribution sets, quotients PDFAs by them,
builds a PDFA from a stable clique grouping, and packages the canonical
counterexample showing recognizability without regularity.

Every verdict quantified over all words is necessarily bounded here; report
fields carry the bound they were checked at.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .automata import Pdfa, QuotientPdfa, quotient_from_partition, refine_partition
from .distributions import AlphabetMismatch, Distribution, require_limit
from .models import AlternatingUnaryModel, LanguageModel, UniformUnaryModel
from .relations import SimilaritySpec, similar
from .words import Word, format_word, iter_words

MAX_ENUMERATED_DISTRIBUTIONS = 12
MAX_DEMO_BOUND = 5_000


class CliqueInstability(ValueError):
    """A clique grouping is not append-compatible on the given PDFA.

    Carries two same-clique access words and the symbol whose continuations
    land in different cliques.
    """

    def __init__(self, first: Word, second: Word, symbol: str):
        self.first = first
        self.second = second
        self.symbol = symbol
        super().__init__(
            f"same-clique words {format_word(first)!r} and {format_word(second)!r} "
            f"split after symbol {symbol!r}"
        )


# ---------------------------------------------------------------------------
# Bounded tolerance checks
# ---------------------------------------------------------------------------

def string_tolerant(
    m1: LanguageModel, m2: LanguageModel, spec: SimilaritySpec, max_len: int
) -> Word | None:
    """First word (length-lex) where the two models are not similar, if any.

    A None verdict is bounded: it certifies similarity on words up to
    ``max_len`` only.
    """
    require_limit("max_len", max_len, 0)
    if m1.alphabet != m2.alphabet:
        raise AlphabetMismatch("models over different alphabets")
    for word in iter_words(m1.alphabet, max_len):
        if not similar(m1.query(word), m2.query(word), spec):
            return word
    return None


def string_pair_tolerant(
    m: LanguageModel, u: Word, u2: Word, spec: SimilaritySpec, max_cont: int
) -> Word | None:
    """First continuation (length-lex) separating the two words, if any.

    Returns the shortest w with M(u+w) not similar to M(u2+w); None certifies
    tolerance for continuations up to ``max_cont`` only.
    """
    require_limit("max_cont", max_cont, 0)
    for w in iter_words(m.alphabet, max_cont):
        if not similar(m.query(u + w), m.query(u2 + w), spec):
            return w
    return None


# ---------------------------------------------------------------------------
# Clique partitions of finite distribution sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliquePartition:
    """Partition of a distribution list into pairwise-similar blocks."""

    distributions: tuple[Distribution, ...]
    blocks: tuple[frozenset[int], ...]
    similarity: SimilaritySpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "distributions", tuple(self.distributions))
        blocks = tuple(frozenset(b) for b in self.blocks)
        if frozenset() in blocks:
            raise ValueError(f"block {blocks.index(frozenset())} is empty")
        object.__setattr__(self, "blocks", tuple(sorted(blocks, key=min)))
        covered: set[int] = set()
        for block in self.blocks:
            if covered & block:
                raise ValueError("blocks overlap")
            covered |= block
        if covered != set(range(len(self.distributions))):
            raise ValueError("blocks do not cover the distribution list")
        for block in self.blocks:
            members = sorted(block)
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    if not similar(self.distributions[a], self.distributions[b], self.similarity):
                        raise ValueError(
                            f"indices {a} and {b} are not similar; block is not a clique"
                        )

    @classmethod
    def _of_cliques(
        cls,
        distributions: tuple[Distribution, ...],
        blocks: tuple[frozenset[int], ...],
        similarity: SimilaritySpec,
    ) -> CliquePartition:
        """A partition built without the checks: the caller vouches that the
        blocks are cliques under the similarity, cover every index once and
        are ordered by their least index."""
        partition = object.__new__(cls)
        partition.__dict__.update(
            distributions=distributions, blocks=blocks, similarity=similarity
        )
        return partition

    @cached_property
    def _block_by_probs(self) -> dict[tuple[float, ...], int]:
        """Block of each listed distribution's probabilities; the first listed
        copy of a repeated vector decides. Built on first use, since most
        enumerated partitions are never asked."""
        block_at = {i: b for b, block in enumerate(self.blocks) for i in block}
        by_probs: dict[tuple[float, ...], int] = {}
        for i, d in enumerate(self.distributions):
            by_probs.setdefault(d.probs, block_at[i])
        return by_probs

    def block_of(self, d: Distribution) -> int:
        try:
            return self._block_by_probs[d.probs]
        except KeyError:
            raise ValueError(f"distribution {d!r} not covered by the partition") from None

    def index_sets(self) -> frozenset[frozenset[int]]:
        return frozenset(self.blocks)


def enumerate_clique_partitions(
    dists: list[Distribution] | tuple[Distribution, ...], spec: SimilaritySpec
) -> list[CliquePartition]:
    """All partitions of the list into cliques under the similarity.

    Recursive block assignment with clique pruning; feasible only at desk
    scale, hence the input-size guard. A block takes an index only when it is
    related to every member, and blocks open in index order, so each result
    is a clique partition ordered by least index and is not re-checked.
    """
    dists = tuple(dists)
    if len(dists) > MAX_ENUMERATED_DISTRIBUTIONS:
        raise ValueError(
            f"refusing to enumerate partitions of {len(dists)} > "
            f"{MAX_ENUMERATED_DISTRIBUTIONS} distributions"
        )
    related = [
        [similar(a, b, spec) for b in dists] for a in dists
    ]
    results: list[CliquePartition] = []
    blocks: list[list[int]] = []

    def assign(i: int) -> None:
        if i == len(dists):
            results.append(
                CliquePartition._of_cliques(dists, tuple(map(frozenset, blocks)), spec)
            )
            return
        for block in blocks:
            if all(related[i][j] for j in block):
                block.append(i)
                assign(i + 1)
                block.pop()
        blocks.append([i])
        assign(i + 1)
        blocks.pop()

    assign(0)
    return results


# ---------------------------------------------------------------------------
# Quotients and PDFA construction from cliques
# ---------------------------------------------------------------------------

def _state_block_keys(a: Pdfa, cp: CliquePartition) -> list[int]:
    blocks = cp._block_by_probs
    if {d.probs for d in a.emissions} != blocks.keys():
        raise ValueError(
            "partition must cover exactly the automaton's distinct state distributions"
        )
    return [blocks[d.probs] for d in a.emissions]


def quotient_by_cliques(a: Pdfa, cp: CliquePartition) -> QuotientPdfa:
    """Quotient of the PDFA under the clique-induced equivalence.

    The clique block plays the role of the class signature; the partition is
    refined to transition stability exactly like any other congruence.
    """
    block_keys = _state_block_keys(a, cp)
    seeds = [b"clique:%d" % b for b in block_keys]
    partition = refine_partition(a, seeds)
    label = f"clique[{cp.similarity.spec_string()};blocks={_blocks_label(cp)}]"
    return quotient_from_partition(a, partition, seeds, label)


def _blocks_label(cp: CliquePartition) -> str:
    return "|".join(",".join(str(i) for i in sorted(b)) for b in cp.blocks)


def build_clique_pdfa(a: Pdfa, cp: CliquePartition) -> Pdfa:
    """PDFA whose states are the clique classes of the source's words.

    Requires the clique grouping of states (by emission block) to already be
    append-compatible: same-block states must move to same-block states on
    every symbol. Violations raise CliqueInstability with witnessing access
    words. The result emits, per class, the lowest-index clique member, and
    is similarity-close to the source model on any word (bounded checks live
    in the tests).
    """
    block_keys = _state_block_keys(a, cp)
    groups: dict[int, list[int]] = {}
    for q, b in enumerate(block_keys):
        groups.setdefault(b, []).append(q)

    access = a.access_words()
    for b, states in sorted(groups.items()):
        anchor = states[0]
        for q in states[1:]:
            for i, symbol in enumerate(a.alphabet.symbols):
                if block_keys[a.transitions[anchor][i]] != block_keys[a.transitions[q][i]]:
                    raise CliqueInstability(access[anchor], access[q], symbol)

    order = sorted(groups)
    class_of_block = {b: i for i, b in enumerate(order)}
    class_of_state = [class_of_block[b] for b in block_keys]
    transitions = tuple(
        tuple(class_of_state[a.transitions[groups[b][0]][i]] for i in range(len(a.alphabet)))
        for b in order
    )
    emissions = tuple(
        cp.distributions[min(cp.blocks[b])] for b in order
    )
    return Pdfa(
        alphabet=a.alphabet,
        initial=class_of_state[a.initial],
        emissions=emissions,
        transitions=transitions,
    )


# ---------------------------------------------------------------------------
# Recognizable-but-not-regular demonstration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparationReport:
    """Evidence that a tolerance-close PDFA exists while cliques must multiply.

    ``tolerant_up_to_bound`` certifies the alternating unary model is
    similarity-close to the one-state half/half PDFA on every word up to the
    bound. ``separations`` lists, per pair of marked words, a continuation
    after which their distributions stop being similar; every marked word
    therefore needs its own clique, giving the lower bound.
    """

    bound: int
    similarity: SimilaritySpec
    tolerant_up_to_bound: bool
    marked_words: tuple[Word, ...]
    separations: tuple[tuple[int, int, Word], ...]
    clique_lower_bound: int

    @property
    def checked_label(self) -> str:
        return f"bounded({self.bound})"

    def to_json(self) -> dict:
        return {
            "bound": self.bound,
            "similarity": self.similarity.spec_string(),
            "checked": self.checked_label,
            "tolerant_up_to_bound": self.tolerant_up_to_bound,
            "marked_words": [format_word(w) for w in self.marked_words],
            "separations": [
                {
                    "first": format_word(self.marked_words[i]),
                    "second": format_word(self.marked_words[j]),
                    "continuation": format_word(w),
                }
                for i, j, w in self.separations
            ],
            "clique_lower_bound": self.clique_lower_bound,
        }


def demo_recognizable_not_regular(bound: int) -> SeparationReport:
    """Bounded certificate that tolerance-closeness does not yield cliques.

    Uses the alternating unary model with triangular marked lengths and the
    variation-distance similarity at threshold 0.15. Checks (i) the model is
    similarity-close to the uniform unary model m2 (the one-state half/half
    PDFA) on all words up to the bound, and (ii) all marked words up to the
    bound are pairwise separated by explicit continuations, so any clique
    congruence needs at least one clique per marked word. Bounds above
    ``MAX_DEMO_BOUND`` are refused before any query, since the work grows
    about with the square of the bound.
    """
    require_limit("bound", bound, 1)
    if bound > MAX_DEMO_BOUND:
        raise ValueError(f"bound must be <= {MAX_DEMO_BOUND}, got {bound!r}")
    spec = SimilaritySpec("vd", threshold=0.15)
    model = AlternatingUnaryModel()

    violation = string_tolerant(model, UniformUnaryModel(), spec, bound)
    marked = tuple(
        ("a",) * n for n in range(bound + 1) if model.marked_length(n)
    )
    separations: list[tuple[int, int, Word]] = []
    for i in range(len(marked)):
        for j in range(i + 1, len(marked)):
            witness = string_pair_tolerant(model, marked[i], marked[j], spec, 2 * bound)
            if witness is None:
                raise AssertionError(
                    f"no separating continuation for {marked[i]!r}, {marked[j]!r} "
                    f"within {2 * bound} symbols"
                )
            separations.append((i, j, witness))
    return SeparationReport(
        bound=bound,
        similarity=spec,
        tolerant_up_to_bound=violation is None,
        marked_words=marked,
        separations=tuple(separations),
        clique_lower_bound=len(marked),
    )
