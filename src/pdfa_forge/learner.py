"""Active learning of quotient PDFAs from a language model.

The learner drives an observation table of queried distributions: RED rows
are candidate states, BLUE rows their one-symbol continuations, columns a
suffix-closed set of distinguishing suffixes. Rows are compared through
their *row signatures* (tuple of class signatures, one per suffix), never
through pairwise predicates, so row equality is transitive by construction.
Once the table is closed and consistent it folds into a hypothesis quotient
PDFA which an equivalence oracle either accepts or refutes with a
counterexample word.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .automata import QuotientPdfa
from .distributions import Distribution
from .models import CachedModel, LanguageModel, cached
from .relations import EquivalenceSpec, signature
from .words import EMPTY, Word, prefixes, word_key

if TYPE_CHECKING:  # pragma: no cover
    from .teacher import EqOracle


class TableLimitExceeded(RuntimeError):
    """The observation table outgrew the configured cell budget."""


class LearnerInvariantError(AssertionError):
    """A structural property of the algorithm failed; indicates a bug."""


@dataclass(frozen=True)
class ConsistencyDefect:
    """Two equal RED rows whose continuations disagree on ``symbol + suffix``."""

    first: Word
    second: Word
    symbol: str
    suffix: Word

    @property
    def new_suffix(self) -> Word:
        return (self.symbol,) + self.suffix


class ObservationTable:
    """RED/BLUE prefix rows times suffix columns of queried distributions.

    The table maintains its structure instead of recomputing it, so its
    bookkeeping grows linearly with the cells:

    - RED and BLUE are kept in length-lexicographic order by binary insertion,
      with one ``word_key`` computed per word when it enters the table; BLUE
      is also kept as a set.
    - The row cache holds one tuple of cell class signatures per RED or BLUE
      prefix. Adding a column extends every tuple by one entry. A signature
      is computed once per distinct distribution the model returns,
      and identical signatures are pooled, so equal cells share one
      ``bytes`` object.
    - The class index maps each row signature to its RED rows in
      length-lexicographic order. ``closed`` and ``red_class_count`` are
      lookups in it, and ``consistent`` visits only classes of two or more
      rows.

    Only new rows and new columns are filled, so each (prefix, suffix) cell
    is queried exactly once. After ``TableLimitExceeded`` the table is left
    partly filled and must not be used further.
    """

    def __init__(
        self,
        model: LanguageModel,
        equivalence: EquivalenceSpec,
        *,
        max_cells: int = 100_000,
    ):
        self.model: CachedModel = cached(model)
        self.equivalence = equivalence
        self.max_cells = max_cells
        self.red: list[Word] = []
        self.suffixes: list[Word] = [EMPTY]
        self._red_set: set[Word] = set()
        self._blue: list[Word] = []
        self._blue_set: set[Word] = set()
        # Length-lex key of every RED and BLUE word. Bisecting through the
        # dict's own method keeps the table free of reference cycles.
        self._keys: dict[Word, tuple[int, tuple[int, ...]]] = {}
        self._key = self._keys.__getitem__
        self._cells: dict[tuple[Word, Word], Distribution] = {}
        self._rows: dict[Word, tuple[bytes, ...]] = {}
        self._classes: dict[tuple[bytes, ...], list[Word]] = {}
        self._pool: dict[bytes, bytes] = {}
        # Pooled signature per distinct queried distribution.
        self._sigs: dict[Distribution, bytes] = {}
        self._fill_rows(self._promote(EMPTY))
        self._index(EMPTY)

    # -- structure ---------------------------------------------------------

    @property
    def blue(self) -> list[Word]:
        """RED's one-symbol continuations that are not RED themselves."""
        return list(self._blue)

    def dimensions(self) -> tuple[int, int, int]:
        return len(self.red), len(self._blue), len(self.suffixes)

    def cell(self, prefix: Word, suffix: Word) -> Distribution:
        return self._cells[(prefix, suffix)]

    def row_signature(self, prefix: Word) -> tuple[bytes, ...]:
        return self._rows[prefix]

    def red_classes(self) -> dict[tuple[bytes, ...], list[Word]]:
        """RED rows grouped by row signature, in length-lex discovery order."""
        ordered = sorted(self._classes.items(), key=lambda item: self._key(item[1][0]))
        return {sig: list(rows) for sig, rows in ordered}

    def red_class_count(self) -> int:
        return len(self._classes)

    def validate(self) -> None:
        """Check the structural invariants; raises on violation.

        RED is prefix-closed and contains the empty word, the suffix set is
        suffix-closed and contains the empty word, BLUE is exactly RED's
        uncovered one-symbol continuations, RED and BLUE are in
        length-lexicographic order, and every row has a queried cell per
        suffix equal to the model's answer. The row cache and the class index
        must equal their recomputation from the cells.
        """
        red = set(self.red)
        if EMPTY not in red:
            raise LearnerInvariantError("the empty word must be RED")
        for p in red:
            if p and p[:-1] not in red:
                raise LearnerInvariantError(f"RED is not prefix-closed at {p!r}")
        suffixes = set(self.suffixes)
        if EMPTY not in suffixes:
            raise LearnerInvariantError("the empty word must be a suffix")
        for s in suffixes:
            if s and s[1:] not in suffixes:
                raise LearnerInvariantError(f"suffixes are not suffix-closed at {s!r}")
        alphabet = self.model.alphabet
        expected_blue = {p + (symbol,) for p in red for symbol in alphabet.symbols} - red
        if self._blue_set != expected_blue:
            raise LearnerInvariantError("BLUE is not RED's uncovered continuations")
        length_lex = lambda w: word_key(alphabet, w)  # noqa: E731
        if self.red != sorted(red, key=length_lex) or self._red_set != red:
            raise LearnerInvariantError("RED is not a length-lex ordered set")
        if self._blue != sorted(expected_blue, key=length_lex):
            raise LearnerInvariantError("BLUE is not in length-lex order")
        for p in self.red + self._blue:
            for s in self.suffixes:
                if self._cells.get((p, s)) != self.model.query(p + s):
                    raise LearnerInvariantError(f"cell ({p!r}, {s!r}) is stale or missing")
            row = tuple(signature(self._cells[(p, s)], self.equivalence) for s in self.suffixes)
            if self._rows.get(p) != row:
                raise LearnerInvariantError(f"cached row of {p!r} is stale")
            if self._keys.get(p) != length_lex(p):
                raise LearnerInvariantError(f"cached key of {p!r} is stale")
        classes: dict[tuple[bytes, ...], list[Word]] = {}
        for p in self.red:
            classes.setdefault(self._rows[p], []).append(p)
        if self._classes != classes:
            raise LearnerInvariantError("the RED class index is stale")

    # -- maintenance -------------------------------------------------------

    def _promote(self, prefix: Word) -> list[Word]:
        """Move ``prefix`` to RED and its new continuations to BLUE.

        Returns the words that entered the table and still need a row.
        """
        new: list[Word] = []
        if prefix in self._blue_set:
            self._blue_set.remove(prefix)
            del self._blue[bisect_left(self._blue, self._keys[prefix], key=self._key)]
        else:
            self._keys[prefix] = word_key(self.model.alphabet, prefix)
            new.append(prefix)
        self._red_set.add(prefix)
        insort(self.red, prefix, key=self._key)
        for symbol in self.model.alphabet.symbols:
            word = prefix + (symbol,)
            if word not in self._keys:
                self._keys[word] = word_key(self.model.alphabet, word)
                self._blue_set.add(word)
                insort(self._blue, word, key=self._key)
                new.append(word)
        return new

    def _index(self, prefix: Word) -> None:
        """Add a RED row to the class index."""
        insort(self._classes.setdefault(self._rows[prefix], []), prefix, key=self._key)

    # -- filling -----------------------------------------------------------

    def _query_class(self, prefix: Word, suffix: Word) -> bytes:
        """Query one new cell and return its pooled class signature."""
        if len(self._cells) >= self.max_cells:
            raise TableLimitExceeded(
                f"table would exceed {self.max_cells} cells; "
                "the target may not be regular under this equivalence"
            )
        dist = self.model.query(prefix + suffix)
        self._cells[(prefix, suffix)] = dist
        sig = self._sigs.get(dist)
        if sig is None:
            sig = signature(dist, self.equivalence)
            sig = self._sigs[dist] = self._pool.setdefault(sig, sig)
        return sig

    def _fill_rows(self, prefixes: list[Word]) -> None:
        """Query every column of new rows, row by row in the given order."""
        for p in prefixes:
            self._rows[p] = tuple(self._query_class(p, s) for s in self.suffixes)

    # -- closedness and consistency ----------------------------------------

    def closed(self) -> tuple[bool, Word | None]:
        """Whether every BLUE row matches some RED row; else the first offender."""
        for p in self._blue:
            if self._rows[p] not in self._classes:
                return False, p
        return True, None

    def close_step(self, offender: Word) -> None:
        """Promote an unmatched BLUE row to RED and query its continuations."""
        if offender not in self._blue_set:
            raise ValueError(f"offender {offender!r} is not a BLUE row")
        before = self.red_class_count()
        self._fill_rows(self._promote(offender))
        self._index(offender)
        if self.red_class_count() <= before:
            raise LearnerInvariantError("closing must add a new RED row class")

    def consistent(self) -> tuple[bool, ConsistencyDefect | None]:
        """Whether equal RED rows keep equal rows after every symbol.

        Scans classes by their first row and the rows of a class in
        length-lex order, symbols in alphabet order, and suffixes in column
        order, so the reported defect is deterministic. Within a class it
        compares each row with the first only: if no row differs from the
        first, no two rows differ, so the first defect pairs the first row
        with a later one, as a scan of all pairs would find.
        """
        symbols = self.model.alphabet.symbols
        rows = self._rows
        shared = [members for members in self._classes.values() if len(members) > 1]
        shared.sort(key=lambda members: self._key(members[0]))
        for first, *others in shared:
            for other in others:
                for symbol in symbols:
                    sig1 = rows[first + (symbol,)]
                    sig2 = rows[other + (symbol,)]
                    if sig1 != sig2:
                        for s, a, b in zip(self.suffixes, sig1, sig2):
                            if a != b:
                                return False, ConsistencyDefect(first, other, symbol, s)
        return True, None

    def consistent_step(self, defect: ConsistencyDefect) -> None:
        """Add the separating suffix as a new column and fill it."""
        new_suffix = defect.new_suffix
        if new_suffix in self.suffixes:
            raise ValueError(f"suffix {new_suffix!r} already present")
        before = self.red_class_count()
        self.suffixes.append(new_suffix)
        for p in self.red + self._blue:
            self._rows[p] += (self._query_class(p, new_suffix),)
        self._classes = {}
        for p in self.red:
            self._classes.setdefault(self._rows[p], []).append(p)
        if self.red_class_count() <= before:
            raise LearnerInvariantError("a consistency defect must split a RED class")

    def update_with_counterexample(self, word: Word) -> None:
        """Move every prefix of the counterexample into RED and fill new rows.

        New rows are filled RED before BLUE, each group in length-lex order.
        """
        before = self.red_class_count()
        promoted: list[Word] = []
        new: list[Word] = []
        for p in prefixes(word):
            if p not in self._red_set:
                promoted.append(p)
                new += self._promote(p)
        new.sort(key=lambda w: (w in self._blue_set, self._key(w)))
        self._fill_rows(new)
        for p in promoted:
            self._index(p)
        if self.red_class_count() < before:
            raise LearnerInvariantError("adding rows can never merge RED classes")

    # -- hypothesis construction ---------------------------------------------

    def build_hypothesis(self) -> QuotientPdfa:
        """Fold the closed+consistent table into a quotient PDFA."""
        ok, offender = self.closed()
        if not ok:
            raise ValueError(f"table is not closed (offending row {offender!r})")
        ok, defect = self.consistent()
        if not ok:
            raise ValueError(f"table is not consistent ({defect!r})")

        classes = self.red_classes()
        class_id = {sig: i for i, sig in enumerate(classes)}
        representatives = [rows[0] for rows in classes.values()]

        transitions: list[list[int | None]] = [
            [None] * len(self.model.alphabet) for _ in classes
        ]
        for sig, rows in classes.items():
            src = class_id[sig]
            for p in rows:
                for i, symbol in enumerate(self.model.alphabet.symbols):
                    dst_sig = self._rows[p + (symbol,)]
                    if dst_sig not in class_id:
                        raise LearnerInvariantError("closedness violated during build")
                    dst = class_id[dst_sig]
                    if transitions[src][i] is None:
                        transitions[src][i] = dst
                    elif transitions[src][i] != dst:
                        raise LearnerInvariantError("consistency violated during build")

        hypothesis = QuotientPdfa(
            alphabet=self.model.alphabet,
            initial=class_id[self._rows[EMPTY]],
            class_signatures=tuple(self._rows[rep][0] for rep in representatives),
            representatives=tuple(self._cells[(rep, EMPTY)] for rep in representatives),
            transitions=tuple(tuple(row) for row in transitions),
            equivalence=self.equivalence.spec_string(),
        )
        self._check_hypothesis_against_table(hypothesis, class_id)
        return hypothesis

    def _check_hypothesis_against_table(
        self, hypothesis: QuotientPdfa, class_id: dict[tuple[bytes, ...], int]
    ) -> None:
        """Cell-exact sanity: the hypothesis reproduces the table it came from.

        Every RED prefix must run to its own row class, and running any
        prefix+suffix must land in the class of the queried distribution.
        Each suffix is stepped from the state its prefix reached.
        """
        for p in self.red:
            state, _ = hypothesis.run(p)
            if state != class_id[self._rows[p]]:
                raise LearnerInvariantError(f"red prefix {p!r} runs to a foreign class")
            for s, sig in zip(self.suffixes, self._rows[p]):
                q = state
                for symbol in s:
                    q = hypothesis.step(q, symbol)
                if hypothesis.class_signatures[q] != sig:
                    raise LearnerInvariantError(
                        f"hypothesis class after {p + s!r} disagrees with the table"
                    )


#: Names of the fields of a trace event, in the order a trace tuple holds them.
EVENT_FIELDS = ("event", "red", "blue", "suffixes", "classes")


@dataclass
class LearnerReport:
    """Outcome of a learning run, including query-complexity accounting.

    ``trace`` holds one ``(event, red, blue, suffixes, classes)`` tuple per
    table step; ``events`` builds the same records as dicts on access.
    """

    hypothesis: QuotientPdfa | None
    converged: bool
    rounds: int
    mq_count: int
    table_history: list[tuple[int, int, int]] = field(default_factory=list)
    trace: list[tuple[str, int, int, int, int]] = field(default_factory=list)
    oracle: str = ""
    stop_reason: str = "converged"

    @property
    def events(self) -> list[dict]:
        return [dict(zip(EVENT_FIELDS, record)) for record in self.trace]


def learn(
    model: LanguageModel,
    equivalence: EquivalenceSpec,
    teacher: "EqOracle",
    *,
    max_rounds: int = 64,
    max_cells: int = 100_000,
) -> LearnerReport:
    """Run the table-based learning loop until the oracle accepts.

    Alternates closing and consistency repair, builds a hypothesis, and asks
    the equivalence oracle; counterexample prefixes are folded back into the
    table. Guaranteed to terminate when the target is regular under the
    equivalence and the oracle exact; otherwise the round and cell limits
    stop the run and the report is flagged as non-converged.
    """
    mq = cached(model)
    oracle_name = getattr(teacher, "description", teacher.__class__.__name__)
    try:
        table = ObservationTable(mq, equivalence, max_cells=max_cells)
    except TableLimitExceeded as exc:
        return LearnerReport(
            hypothesis=None, converged=False, rounds=0, mq_count=mq.misses,
            oracle=oracle_name, stop_reason=str(exc),
        )
    trace: list[tuple[str, int, int, int, int]] = []

    def record(event: str) -> None:
        trace.append((event, *table.dimensions(), table.red_class_count()))

    hypothesis: QuotientPdfa | None = None
    rounds = 0
    converged = False
    stop_reason = "round limit exceeded"
    history: list[tuple[int, int, int]] = []
    try:
        while rounds < max_rounds:
            while True:
                ok, offender = table.closed()
                if not ok:
                    table.close_step(offender)
                    record("close")
                    continue
                ok, defect = table.consistent()
                if not ok:
                    table.consistent_step(defect)
                    record("consistent")
                    continue
                break
            hypothesis = table.build_hypothesis()
            rounds += 1
            history.append(table.dimensions())
            record("hypothesis")
            counterexample = teacher.check(hypothesis)
            if counterexample is None:
                converged = True
                stop_reason = "converged"
                break
            table.update_with_counterexample(counterexample)
            record("counterexample")
    except TableLimitExceeded as exc:
        stop_reason = str(exc)

    return LearnerReport(
        hypothesis=hypothesis,
        converged=converged,
        rounds=rounds,
        mq_count=mq.misses,
        table_history=history,
        trace=trace,
        oracle=oracle_name,
        stop_reason=stop_reason,
    )
