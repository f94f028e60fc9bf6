"""PDFA and quotient-PDFA structures: evaluation, congruence, quotients,
realization, isomorphism, equivalence checking, and de/serialization.

A PDFA has deterministic transitions and emits a next-symbol distribution
per state. A quotient PDFA emits an equivalence *class* per state (stored as
a canonical signature) together with one representative distribution used
for realization and display. Both are immutable after construction and every
state is reachable from the initial state.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import chain
from typing import Generic, Iterable, Sequence, TypeVar

from .distributions import Alphabet, AlphabetMismatch, Distribution, TERMINAL
from .relations import (
    EquivalenceSpec, SignatureMemo, parse_equivalence, parse_similarity, signature,
)
from .words import EMPTY, Word


class AutomatonError(ValueError):
    """An automaton description violates the structural invariants."""


def _check_transitions(
    transitions: Iterable[Iterable[int]], n_states: int, n_symbols: int
) -> tuple[tuple[int, ...], ...]:
    """The table as a tuple of rows, each ``n_symbols`` ``int`` targets in
    ``range(n_states)``, one row per state.

    A valid table is checked in C-level passes over its rows and their
    flattening; the rows are walked one by one only to name the first fault.
    """
    rows = tuple(map(tuple, transitions))
    if len(rows) != n_states:
        raise AutomatonError(f"tau not total: {len(rows)} transition rows for {n_states} states")
    flat = tuple(chain.from_iterable(rows))
    if not (
        set(map(len, rows)) <= {n_symbols}
        and set(map(type, flat)) <= {int}
        and (not flat or (min(flat) >= 0 and max(flat) < n_states))
    ):
        for q, row in enumerate(rows):
            if len(row) != n_symbols:
                raise AutomatonError(
                    f"tau not total: state {q} defines {len(row)}/{n_symbols} moves"
                )
            for t in row:
                # type(), not isinstance(): a bool is no state id.
                if type(t) is not int:
                    raise AutomatonError(f"transition target {t!r} of state {q} is not an int")
                if not 0 <= t < n_states:
                    raise AutomatonError(f"transition target {t} out of range for state {q}")
    return rows


def _bfs_order(initial: int, transitions: Sequence[Sequence[int]]) -> list[int]:
    """States reachable from ``initial`` in order of first visit, expanding
    symbols in alphabet order."""
    seen = {initial}
    order = [initial]
    for q in order:  # the list grows while it is read: a FIFO queue
        for t in transitions[q]:
            if t not in seen:
                seen.add(t)
                order.append(t)
    return order


def _walk(
    alphabet: Alphabet, transitions: Sequence[Sequence[int]], state: int, word: Iterable[str]
) -> int:
    """The state reached by reading ``word`` from ``state``.

    The one place where automata read words: every run, step and model
    query goes through it. A symbol outside the alphabet, ``$`` included,
    raises ``AlphabetMismatch``.
    """
    columns = alphabet.columns
    try:
        for symbol in word:
            state = transitions[state][columns[symbol]]
    except KeyError:
        raise alphabet._mismatch(symbol) from None
    return state


Output = TypeVar("Output")


@dataclass(frozen=True)
class _Automaton(Generic[Output]):
    """What a PDFA and a quotient PDFA share: an initial state, a total
    transition table and one output per state.

    A subclass declares ``transitions`` among its own fields, names each
    state's output (``_outputs``) and distribution (``_dists``), and its
    ``__post_init__`` tuples its per-state fields, then calls ``_validate``.
    """

    alphabet: Alphabet
    initial: int

    def _validate(self, kind: str, foreign: str) -> None:
        """Require at least one state, one distribution per state, an ``int``
        initial state in range, distributions over the alphabet, a total
        table of ``int`` targets, and every state reachable.

        ``kind`` names the automaton and ``foreign`` is the message for a
        distribution over another alphabet, with ``{}`` for the state.
        """
        n = len(self._outputs)
        if n == 0:
            raise AutomatonError(f"{kind} needs at least one state")
        if len(self._dists) != n:
            raise AutomatonError("one representative distribution per class is required")
        initial = self.initial
        if type(initial) is not int:
            raise AutomatonError(f"initial state {initial!r} is not an int")
        if not 0 <= initial < n:
            raise AutomatonError(f"initial state {initial} out of range")
        alphabet = self.alphabet
        for q, dist in enumerate(self._dists):
            if dist.alphabet is not alphabet and dist.alphabet != alphabet:
                raise AutomatonError(foreign.format(q))
        transitions = _check_transitions(self.transitions, n, len(alphabet))
        object.__setattr__(self, "transitions", transitions)
        order = _bfs_order(initial, transitions)
        if len(order) != n:
            raise AutomatonError(f"unreachable states: {sorted(set(range(n)) - set(order))}")

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def step(self, state: int, symbol: str) -> int:
        return _walk(self.alphabet, self.transitions, state, (symbol,))

    def run(self, word: Word) -> tuple[int, Output]:
        """Final state and its output after reading ``word`` from the start."""
        q = _walk(self.alphabet, self.transitions, self.initial, word)
        return q, self._outputs[q]

    def _output_after(self, word: Word) -> Output:
        return self._outputs[_walk(self.alphabet, self.transitions, self.initial, word)]

    def access_words(self) -> list[Word]:
        """Shortest access word per state (alphabet-order tie-break)."""
        access: dict[int, Word] = {self.initial: EMPTY}
        for q in _bfs_order(self.initial, self.transitions):
            for symbol, t in zip(self.alphabet.symbols, self.transitions[q]):
                if t not in access:
                    access[t] = access[q] + (symbol,)
        return [access[q] for q in range(self.n_states)]


@dataclass(frozen=True)
class Pdfa(_Automaton[Distribution]):
    """Probabilistic deterministic finite automaton.

    ``emissions[q]`` is the next-symbol distribution of state ``q`` and
    ``transitions[q][i]`` the successor on the i-th alphabet symbol.
    """

    emissions: tuple[Distribution, ...]
    transitions: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "emissions", tuple(self.emissions))
        self._validate("a PDFA", "state {} emits over a different alphabet")

    @property
    def _outputs(self) -> tuple[Distribution, ...]:
        return self.emissions

    _dists = _outputs
    distribution_after = _Automaton._output_after


@dataclass(frozen=True)
class QuotientPdfa(_Automaton[bytes]):
    """PDFA whose states emit equivalence classes of distributions.

    ``class_signatures[q]`` is the canonical key of state q's class;
    ``representatives[q]`` is one concrete member, used by realization.
    ``equivalence`` is the spec string the classes were formed under (or a
    descriptive label for clique-induced equivalences).
    """

    class_signatures: tuple[bytes, ...]
    representatives: tuple[Distribution, ...]
    transitions: tuple[tuple[int, ...], ...]
    equivalence: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_signatures", tuple(self.class_signatures))
        object.__setattr__(self, "representatives", tuple(self.representatives))
        self._validate("a quotient PDFA", "class {} representative over a different alphabet")

    @classmethod
    def _unchecked(
        cls,
        alphabet: Alphabet,
        initial: int,
        class_signatures: tuple[bytes, ...],
        representatives: tuple[Distribution, ...],
        transitions: tuple[tuple[int, ...], ...],
        equivalence: str,
    ) -> QuotientPdfa:
        """A quotient PDFA built without ``_validate``: the caller vouches
        for every check it makes, with each field already a tuple."""
        hypothesis = object.__new__(cls)
        hypothesis.__dict__.update(
            alphabet=alphabet,
            initial=initial,
            class_signatures=class_signatures,
            representatives=representatives,
            transitions=transitions,
            equivalence=equivalence,
        )
        return hypothesis

    @property
    def _outputs(self) -> tuple[bytes, ...]:
        return self.class_signatures

    @property
    def _dists(self) -> tuple[Distribution, ...]:
        return self.representatives

    class_after = _Automaton._output_after


# ---------------------------------------------------------------------------
# State congruence and quotient construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StatePartition:
    """Block id per state; blocks are numbered by their lowest member state."""

    blocks: tuple[int, ...]
    count: int


def refine_partition(a: Pdfa, seed_keys: Sequence[bytes]) -> StatePartition:
    """Coarsest transition-stable partition refining the seed key grouping.

    Moore-style refinement: states start grouped by ``seed_keys`` and blocks
    split until every block maps into a single block per symbol.
    """
    if len(seed_keys) != a.n_states:
        raise AutomatonError("one seed key per state is required")
    columns = list(zip(*a.transitions))  # columns[i][q]: successor of q on symbol i
    block_of, count = _normalize_ids(seed_keys)
    while True:
        refined, refined_count = _normalize_ids(
            zip(block_of, *[[block_of[t] for t in col] for col in columns])
        )
        if refined_count == count:
            return StatePartition(tuple(block_of), count)
        block_of, count = refined, refined_count


def _normalize_ids(keys: Iterable) -> tuple[list[int], int]:
    """Ids numbering the distinct keys by first occurrence, and their count."""
    ids: dict = {}
    return [ids.setdefault(key, len(ids)) for key in keys], len(ids)


def emission_signatures(
    emissions: Sequence[Distribution], spec: EquivalenceSpec
) -> list[bytes]:
    """Class signature of each emission, signed once per distinct value."""
    return list(map(SignatureMemo(spec, signature).__getitem__, emissions))


def state_congruence(a: Pdfa, spec: EquivalenceSpec) -> StatePartition:
    """Partition of states indistinguishable under every continuation.

    Computed exactly by partition refinement seeded with emission signatures;
    this coincides with the future-based congruence because the equivalence
    has canonical signatures.
    """
    return refine_partition(a, emission_signatures(a.emissions, spec))


def quotient(a: Pdfa, spec: EquivalenceSpec) -> QuotientPdfa:
    """Quotient PDFA of ``a`` under the congruence induced by ``spec``."""
    keys = emission_signatures(a.emissions, spec)
    return quotient_from_partition(a, refine_partition(a, keys), keys, spec.spec_string())


def quotient_from_partition(
    a: Pdfa,
    partition: StatePartition,
    state_keys: Sequence[bytes],
    equivalence_label: str,
) -> QuotientPdfa:
    """Assemble a quotient PDFA from a transition-stable state partition.

    Each block is represented by its lowest-index state; any member gives
    the same transitions and class, as the partition is a congruence.
    """
    reps: dict[int, int] = {}
    for q, b in enumerate(partition.blocks):
        reps.setdefault(b, q)
    transitions = tuple(
        tuple(partition.blocks[a.transitions[reps[b]][i]] for i in range(len(a.alphabet)))
        for b in range(partition.count)
    )
    return QuotientPdfa(
        alphabet=a.alphabet,
        initial=partition.blocks[a.initial],
        class_signatures=tuple(state_keys[reps[b]] for b in range(partition.count)),
        representatives=tuple(a.emissions[reps[b]] for b in range(partition.count)),
        transitions=transitions,
        equivalence=equivalence_label,
    )


def realize(h: QuotientPdfa) -> Pdfa:
    """Concrete PDFA with the same structure, emitting the representatives."""
    return Pdfa(
        alphabet=h.alphabet,
        initial=h.initial,
        emissions=h.representatives,
        transitions=h.transitions,
    )


# ---------------------------------------------------------------------------
# Isomorphism and language-model equivalence
# ---------------------------------------------------------------------------

def _renumbered(h: QuotientPdfa, order: list[int]):
    """``h``'s transition table and class signatures with states renumbered by ``order``."""
    position = {q: i for i, q in enumerate(order)}
    table = tuple(
        tuple(position[t] for t in h.transitions[q]) for q in order
    )
    return table, tuple(h.class_signatures[q] for q in order)


def isomorphism(h1: QuotientPdfa, h2: QuotientPdfa) -> dict[int, int] | None:
    """State bijection from h1 to h2 when they are isomorphic, else None.

    A deterministic automaton with one initial state has a unique BFS
    numbering, so the two are isomorphic exactly when their renumberings
    are equal.
    """
    if h1.alphabet != h2.alphabet:
        raise AlphabetMismatch("cannot compare quotients over different alphabets")
    if h1.equivalence != h2.equivalence:
        raise ValueError(
            f"cannot compare quotients under different equivalences: "
            f"{h1.equivalence!r} vs {h2.equivalence!r}"
        )
    if h1.n_states != h2.n_states:
        return None
    order1 = _bfs_order(h1.initial, h1.transitions)
    order2 = _bfs_order(h2.initial, h2.transitions)
    if _renumbered(h1, order1) != _renumbered(h2, order2):
        return None
    return dict(zip(order1, order2))


def isomorphic(h1: QuotientPdfa, h2: QuotientPdfa) -> bool:
    return isomorphism(h1, h2) is not None


def lm_equivalent(a: Pdfa, b: Pdfa, spec: EquivalenceSpec) -> Word | None:
    """Check whether the two induced language models agree classwise everywhere.

    Explores the synchronized product by breadth-first search and returns the
    shortest word (alphabet-order tie-break) whose two distributions fall in
    different classes, or None when all reachable state pairs agree. Sound
    and complete since both automata are finite.
    """
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch("cannot compare PDFAs over different alphabets")
    return _first_mismatch(
        a, emission_signatures(a.emissions, spec), b, emission_signatures(b.emissions, spec)
    )


def _first_mismatch(
    a: _Automaton, keys_a: Sequence[bytes], b: _Automaton, keys_b: Sequence[bytes]
) -> Word | None:
    """Shortest word (alphabet-order tie-break) after which state keys
    ``keys_a`` of ``a`` and ``keys_b`` of ``b`` differ, or None.

    Breadth-first search of the synchronized product. Each pair records its
    BFS parent and the symbol index leading to it, so a word is spelled
    only for the mismatch found.
    """
    trans_a, trans_b = a.transitions, b.transitions
    start = (a.initial, b.initial)
    parent: dict[tuple[int, int], tuple[tuple[int, int], int] | None] = {start: None}
    order = [start]
    for pair in order:  # the list grows while it is read: a FIFO queue
        qa, qb = pair
        if keys_a[qa] != keys_b[qb]:
            indices = []
            while (link := parent[pair]) is not None:
                pair, i = link
                indices.append(i)
            return tuple(a.alphabet.symbols[i] for i in reversed(indices))
        for i, succ in enumerate(zip(trans_a[qa], trans_b[qb])):
            if succ not in parent:
                parent[succ] = (pair, i)
                order.append(succ)
    return None


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def decode_json(text: str | bytes):
    """Parse a JSON document strictly: an object that repeats a key, and the
    constants ``NaN``, ``Infinity`` and ``-Infinity``, raise ``ValueError``
    instead of loading (the last key winning, or a non-finite float)."""
    return json.loads(text, object_pairs_hook=_unique_keys, parse_constant=_no_constant)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        key = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ValueError(f"duplicate key {key!r}")
    return doc


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def pdfa_to_json(a: Pdfa) -> dict:
    return _to_json(a, {})


def quotient_to_json(h: QuotientPdfa) -> dict:
    return _to_json(h, {"equivalence": h.equivalence}, h.class_signatures)


def _to_json(a: _Automaton, head: dict, signatures: Sequence[bytes] = ()) -> dict:
    """The document of either flavour: ``head`` holds the fields between
    ``"alphabet"`` and ``"initial"``, and the i-th state entry ends with
    ``signatures[i]`` in hex when there is one. Each distinct distribution
    object is converted once, and each state gets its own copy of the map."""
    maps = {id(d): d for d in a._dists}
    maps = {key: d.as_dict() for key, d in maps.items()}
    states = [{"id": q, "dist": maps[id(d)].copy()} for q, d in enumerate(a._dists)]
    for entry, sig in zip(states, signatures):
        entry["signature"] = sig.hex()
    symbols = a.alphabet.symbols
    return {
        "alphabet": list(symbols),
        **head,
        "initial": a.initial,
        "states": states,
        "transitions": [
            {"from": q, "symbol": symbol, "to": t}
            for q, row in enumerate(a.transitions)
            for symbol, t in zip(symbols, row)
        ],
    }


def _parse_common(doc: dict, prune: bool):
    if not isinstance(doc, dict):
        kind = type(doc).__name__
        raise AutomatonError(f"automaton document must be a JSON object, got {kind}")
    try:
        return _parse_common_inner(doc, prune)
    except (KeyError, TypeError) as exc:
        raise AutomatonError(f"malformed automaton document: {exc!r}") from None


def _parse_common_inner(doc: dict, prune: bool):
    raw_alphabet = doc["alphabet"]
    # Alphabet() takes any iterable: a string would be split into its letters.
    if not isinstance(raw_alphabet, list):
        raise AutomatonError(
            f"'alphabet' must be a list of symbols, got {type(raw_alphabet).__name__}"
        )
    alphabet = Alphabet(raw_alphabet)
    raw_states = doc["states"]
    raw_transitions = doc["transitions"]
    raw_initial = _state_ref(doc["initial"], "initial")
    ids = [_state_ref(entry["id"], "id") for entry in raw_states]
    if len(set(ids)) != len(ids):
        raise AutomatonError("duplicate state ids")
    index_of = {state_id: i for i, state_id in enumerate(sorted(ids))}
    n, n_sym = len(ids), len(alphabet)

    table: list[list[int | None]] = [[None] * n_sym for _ in range(n)]
    columns = alphabet.columns
    filled = 0
    for entry in raw_transitions:
        src, symbol, dst = entry["from"], entry["symbol"], entry["to"]
        if not (type(src) is int and type(dst) is int and src in index_of and dst in index_of):
            _state_ref(src, "from")
            _state_ref(dst, "to")
            raise AutomatonError(f"transition references unknown state: {entry}")
        i = columns.get(symbol)
        if i is None:  # a foreign symbol, or the terminal, which has no column
            raise AutomatonError(
                f"transition on symbol {symbol!r} outside alphabet {alphabet.symbols!r}: {entry}"
            )
        row = table[index_of[src]]
        if row[i] is not None:
            raise AutomatonError(f"duplicate transition from {src} on {symbol!r}")
        row[i] = index_of[dst]
        filled += 1
    # Every filled cell is distinct (duplicates raised above), so a full count
    # means every row is total.
    if filled != n * n_sym:
        for state_id in sorted(ids):
            row = table[index_of[state_id]]
            if any(t is None for t in row):
                missing = [alphabet.symbols[i] for i, t in enumerate(row) if t is None]
                raise AutomatonError(f"tau not total: state {state_id} lacks moves on {missing}")
    if raw_initial not in index_of:
        raise AutomatonError(f"initial state {raw_initial} not among states")
    initial = index_of[raw_initial]

    keep = list(range(n))
    if prune:
        keep = sorted(_bfs_order(initial, table))
        remap = {old: new for new, old in enumerate(keep)}
        table = [[remap[t] for t in table[old]] for old in keep]
        initial = remap[initial]
    by_index = {index_of[entry["id"]]: entry for entry in raw_states}
    kept_states = [by_index[old] for old in keep]
    return alphabet, initial, kept_states, [tuple(row) for row in table]


def _state_ref(value, name: str) -> int:
    """A state id or reference, which must be a JSON integer: ``false`` and
    ``0.0`` would otherwise find state 0, and a string id would load."""
    if type(value) is not int:
        raise AutomatonError(f"{name!r} must be an integer state id, got {value!r}")
    return value


def _load_distributions(alphabet: Alphabet, states: list) -> tuple[Distribution, ...]:
    """One Distribution per distinct ``"dist"`` map, shared by its states.

    A map without a key is loaded on its own, so it fails as it always did.
    A missing or non-mapping ``"dist"`` raises ``AutomatonError``.
    """
    memo: dict[tuple, Distribution] = {}
    dists = []
    try:
        for entry in states:
            raw = entry["dist"]
            key = _dist_key(raw)
            if key is None:
                dists.append(Distribution.from_map(alphabet, raw))
                continue
            dist = memo.get(key)
            if dist is None:
                dist = memo[key] = Distribution.from_map(alphabet, raw)
            dists.append(dist)
    except (KeyError, TypeError) as exc:
        raise AutomatonError(f"malformed state distribution: {exc!r}") from None
    return tuple(dists)


def _dist_key(raw) -> tuple | None:
    """Hashable key of a ``"dist"`` map, or None when it is not a dict or
    holds an unhashable value.

    Maps with equal keys load as equal distributions. ``-0.0 == 0.0``, so the
    signs of zeros join the key and a loaded zero keeps the sign it was given.
    """
    if not isinstance(raw, dict):
        return None
    try:
        key = tuple(raw.items())
        hash(key)
        if 0.0 in raw.values():
            key += tuple(math.copysign(1.0, p) for p in raw.values() if p == 0.0)
    except (TypeError, ValueError):
        return None
    return key


def pdfa_from_json(doc: dict, prune: bool = False) -> Pdfa:
    """Load a PDFA; unreachable states are an error unless ``prune`` is set."""
    alphabet, initial, states, table = _parse_common(doc, prune)
    return Pdfa(alphabet, initial, _load_distributions(alphabet, states), tuple(table))


#: The label ``tolerance.quotient_by_cliques`` writes: the similarity, then
#: the blocks of distribution indices. ``re`` compiles it on first use.
_BLOCK = r"[0-9]+(?:,[0-9]+)*"
_CLIQUE_LABEL = rf"clique\[([^;]*);blocks=({_BLOCK}(?:\|{_BLOCK})*)\]"


def _clique_signatures(label: str) -> frozenset[bytes]:
    """The class signatures a clique quotient labelled ``label`` may hold:
    ``clique:<b>`` for each block index ``b``."""
    match = re.fullmatch(_CLIQUE_LABEL, label)
    if match is not None:
        try:
            parse_similarity(match[1])
        except ValueError:
            match = None
    if match is None:
        raise AutomatonError(
            f"'equivalence' {label!r} is neither an equivalence spec nor a clique label"
        )
    return frozenset(b"clique:%d" % b for b in range(match[2].count("|") + 1))


def quotient_from_json(doc: dict, prune: bool = False) -> QuotientPdfa:
    """Load a quotient PDFA, checking each stored signature: against its
    representative when the label is an equivalence spec, and against the
    label's blocks when it is a clique label."""
    alphabet, initial, states, table = _parse_common(doc, prune)
    if "equivalence" not in doc:
        raise AutomatonError("quotient document lacks an 'equivalence' field")
    label = doc["equivalence"]
    if not isinstance(label, str):
        raise AutomatonError(f"'equivalence' must be a string, got {label!r}")
    representatives = _load_distributions(alphabet, states)
    try:
        signatures = [bytes.fromhex(entry["signature"]) for entry in states]
    except (KeyError, TypeError, ValueError) as exc:
        raise AutomatonError(f"malformed class signature: {exc}") from None
    try:
        spec = parse_equivalence(label)
    except ValueError:
        spec = None
    if spec is not None:
        derived = emission_signatures(representatives, spec)
        for q, (own, sig) in enumerate(zip(derived, signatures)):
            if own != sig:
                raise AutomatonError(
                    f"state {q}: stored signature does not match its representative"
                )
    else:
        blocks = _clique_signatures(label)
        for q, sig in enumerate(signatures):
            if sig not in blocks:
                raise AutomatonError(f"state {q}: stored signature is no block of {label!r}")
    return QuotientPdfa(alphabet, initial, tuple(signatures), representatives,
                        tuple(table), label)


def automaton_from_json(doc: dict, prune: bool = False) -> Pdfa | QuotientPdfa:
    """Dispatch on the document flavor: quotient when 'equivalence' is present."""
    if isinstance(doc, dict) and "equivalence" in doc:
        return quotient_from_json(doc, prune=prune)
    return pdfa_from_json(doc, prune=prune)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def _fmt_prob(p: float) -> str:
    return format(p, "g")


def to_dot(a: Pdfa | QuotientPdfa, name: str = "pdfa") -> str:
    """Graphviz rendering: nodes carry the stop probability, edges 'symbol/p'."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  __start__ [shape=point];",
             f"  __start__ -> q{a.initial};"]
    for q, dist in enumerate(a._dists):
        stop = dist.prob(TERMINAL)
        lines.append(f'  q{q} [shape=circle, label="q{q}\\n{TERMINAL}:{_fmt_prob(stop)}"];')
    for q, dist in enumerate(a._dists):
        for symbol, t in zip(a.alphabet.symbols, a.transitions[q]):
            lines.append(f'  q{q} -> q{t} [label="{symbol}/{_fmt_prob(dist.prob(symbol))}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
