"""Seeded input generators for the benchmark workloads.

Every generator draws from a ``random.Random`` the caller seeds, so one seed
always yields the same automata. The fingerprint hashes the automata's public
fields (initial state, transition rows, emission probabilities) rather than
the library's JSON format, so it stays comparable across commits that change
the serializer.
"""

from __future__ import annotations

import hashlib
import json
import random

from pdfa_forge import Alphabet, Distribution, Pdfa

SYMBOLS = ("a", "b", "c")


def random_distribution(rng: random.Random, alphabet: Alphabet) -> Distribution:
    weights = [rng.random() + 1e-3 for _ in alphabet.extended]
    total = sum(weights)
    return Distribution(alphabet, tuple(w / total for w in weights))


def random_pdfa(rng: random.Random, n_states: int, palette_size: int = 8) -> Pdfa:
    """Random PDFA over three symbols whose states emit from a small palette.

    A breadth-first spanning tree makes every state reachable by a word of
    near-minimal length (40 states fit within depth 3, the sampling oracle's
    exhaustive sweep); the remaining transitions are uniform. The palette
    forces many states to share an emission, so states are told apart only
    by their futures and the learner needs several suffix columns.
    """
    alphabet = Alphabet(SYMBOLS)
    k = len(SYMBOLS)
    palette = [random_distribution(rng, alphabet) for _ in range(palette_size)]
    transitions: list[list[int | None]] = [[None] * k for _ in range(n_states)]
    open_slots = [(0, i) for i in range(k)]
    next_level: list[int] = []
    for q in range(1, n_states):
        p, i = open_slots.pop(rng.randrange(len(open_slots)))
        transitions[p][i] = q
        next_level.append(q)
        if not open_slots:
            open_slots = [(p, i) for p in next_level for i in range(k)]
            next_level = []
    rows = tuple(
        tuple(t if t is not None else rng.randrange(n_states) for t in row)
        for row in transitions
    )
    emissions = tuple(rng.choice(palette) for _ in range(n_states))
    return Pdfa(alphabet, 0, emissions, rows)


def blow_up(rng: random.Random, minimal: Pdfa, copies: int) -> Pdfa:
    """Redundant PDFA whose quotient is ``minimal``'s quotient.

    State (j, q) is copy j of ``minimal``'s state q; on each symbol it moves
    to the successor of q in a random copy. All copies of q emit q's
    distribution, so partition refinement must merge them back. Copies no
    word reaches are dropped.
    """
    n = minimal.n_states
    rows = [
        tuple(rng.randrange(copies) * n + t for t in minimal.transitions[q])
        for _ in range(copies)
        for q in range(n)
    ]
    initial = minimal.initial
    seen = {initial}
    stack = [initial]
    while stack:
        for t in rows[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    keep = sorted(seen)
    index = {old: new for new, old in enumerate(keep)}
    return Pdfa(
        minimal.alphabet,
        index[initial],
        tuple(minimal.emissions[old % n] for old in keep),
        tuple(tuple(index[t] for t in rows[old]) for old in keep),
    )


def clustered_distributions(
    rng: random.Random, alphabet: Alphabet, count: int, centers: int, spread: float
) -> list[Distribution]:
    """``count`` distributions scattered around a few random centers."""
    middles = [random_distribution(rng, alphabet) for _ in range(centers)]
    out = []
    for _ in range(count):
        center = rng.choice(middles)
        weights = [max(1e-3, p + rng.uniform(-spread, spread)) for p in center.probs]
        total = sum(weights)
        out.append(Distribution(alphabet, tuple(w / total for w in weights)))
    return out


def fingerprint(pdfas: list[Pdfa], distributions: list[Distribution] = ()) -> dict:
    """State counts and a hash of the raw input description."""
    raw = [
        [a.alphabet.symbols, a.initial, a.transitions, [d.probs for d in a.emissions]]
        for a in pdfas
    ] + [[d.probs for d in distributions]]
    digest = hashlib.sha256(json.dumps(raw).encode("ascii")).hexdigest()[:16]
    return {"states": [a.n_states for a in pdfas], "sha256": digest}
