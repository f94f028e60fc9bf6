"""Active learning of quotient PDFAs from a language model.

The learner drives an observation table of queried distributions: RED rows
are candidate states, BLUE rows their one-symbol continuations, columns a
suffix-closed set of distinguishing suffixes. Rows are compared through
their *row signatures* (tuple of class signatures, one per suffix), never
through pairwise predicates, so row equality is transitive by construction.
Once the table is closed and consistent it folds into a hypothesis quotient
PDFA which an equivalence oracle either accepts or refutes with a
counterexample word.

Counterexamples are processed as by Rivest & Schapire (1993): a binary
search over the word finds one distinguishing suffix, which becomes a new
column. RED only grows by closing, so RED rows stay pairwise distinct and
the table is always consistent; ``consistent`` checks that invariant.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import TYPE_CHECKING

from .automata import QuotientPdfa
from .distributions import Distribution
from .models import CachedModel, LanguageModel, cached
from .relations import EquivalenceSpec, signature
from .words import EMPTY, Word, shortlex_rank, word_key

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

    - RED and BLUE are kept in length-lexicographic order, each beside the
      sorted list of its words' shortlex ranks (``words.shortlex_rank``), so
      binary search compares ints; BLUE is also kept as a set. Each word's
      rank is stored when it enters the table. The continuations of a word
      of rank ``r`` over ``k`` symbols have the consecutive ranks
      ``k·r + 1 … k·r + k``, so they enter BLUE as one block, and
      ``word_key`` runs only for the empty word.
    - There is one cell store: the table's ``CachedModel``. A cell's
      distribution is the cached answer to its word, read with ``peek``
      (no hit is counted), and a cell counter enforces ``max_cells``.
    - The row cache holds one tuple of cell class signatures per RED or BLUE
      prefix. Adding a column extends every tuple by one entry. A signature
      is computed once per distinct distribution the model returns,
      and identical signatures are pooled, so equal cells share one
      ``bytes`` object.
    - The class index maps each row signature to its RED rows in
      length-lexicographic order. ``red_class_count`` is a lookup in it, and
      ``consistent`` returns at once when every class has one row (as RED
      only grows by closing), and otherwise visits only classes of two or
      more rows.
    - The unmatched index is a heap of ``(rank, word)`` pairs of BLUE rows that
      matched no RED row when they were filed: a new BLUE row when its RED
      parent is indexed, every unmatched BLUE row when new columns rebuild
      it. A row promoted or matched since is dropped when it reaches the
      top, so ``closed`` reads the heap's top instead of scanning BLUE.

    Only new rows and new columns are filled, so each (prefix, suffix) cell
    is queried exactly once; each batch of new cells is filled in one loop,
    row by row, after the model is asked to prefetch their words. After
    ``TableLimitExceeded`` the table is left partly filled and must not be
    used further.

    ``build_hypothesis`` takes each state's transitions from its class's
    first RED row, compares the other rows of a class only when it has
    some, and checks the hypothesis against the table column by column.
    """

    def __init__(
        self,
        model: LanguageModel,
        equivalence: EquivalenceSpec,
        *,
        max_cells: int = 100_000,
    ):
        if max_cells < 1:
            raise ValueError(f"max_cells must be >= 1, got {max_cells}")
        self.model: CachedModel = cached(model)
        self._alphabet = self.model.alphabet
        self.equivalence = equivalence
        self.max_cells = max_cells
        self.red: list[Word] = []
        self.suffixes: list[Word] = [EMPTY]
        self._blue: list[Word] = []
        self._blue_set: set[Word] = set()
        self._k = len(self._alphabet.symbols)
        # Shortlex rank of every RED and BLUE word, and the ranks of RED and
        # BLUE in order. Sorting through the dict's own method keeps the
        # table free of reference cycles.
        self._keys: dict[Word, int] = {}
        self._key = self._keys.__getitem__
        self._red_ranks: list[int] = []
        self._blue_ranks: list[int] = []
        self._n_cells = 0
        self._rows: dict[Word, tuple[bytes, ...]] = {}
        self._classes: dict[tuple[bytes, ...], list[Word]] = {}
        self._unmatched: list[tuple[int, Word]] = []
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
        """The queried distribution of a cell; ``KeyError`` when
        ``(prefix, suffix)`` is no cell of the table, even if the model has
        answered ``prefix + suffix`` for someone else."""
        if prefix not in self._rows or suffix not in self.suffixes:
            raise KeyError((prefix, suffix))
        return self.model.peek(prefix + suffix)

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
        length-lexicographic order, every row has a cell per suffix that the
        model has answered, and the cell counter counts them. The row cache
        and the class index must equal their recomputation from the cells,
        and the unmatched index must be a heap whose live rows are exactly
        the unmatched BLUE rows. Every cached rank must equal the rank of
        the word's ``word_key``, and the RED and BLUE rank lists must be
        the words' ranks, strictly increasing.
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
        keys = self._keys
        if keys.keys() != red | expected_blue:
            raise LearnerInvariantError("the ranked words are not RED and BLUE")
        if self.red != sorted(red, key=length_lex):
            raise LearnerInvariantError("RED is not a length-lex ordered set")
        if self._blue != sorted(expected_blue, key=length_lex):
            raise LearnerInvariantError("BLUE is not in length-lex order")
        peek = self.model.peek
        for p in self.red + self._blue:
            cells = []
            for s in self.suffixes:
                try:
                    cells.append(peek(p + s))
                except KeyError:
                    raise LearnerInvariantError(f"cell ({p!r}, {s!r}) is missing") from None
            row = tuple(signature(dist, self.equivalence) for dist in cells)
            if self._rows.get(p) != row:
                raise LearnerInvariantError(f"cached row of {p!r} is stale")
            if keys[p] != shortlex_rank(self._k, length_lex(p)):
                raise LearnerInvariantError(f"cached rank of {p!r} is stale")
        for name, words, ranks in (("RED", self.red, self._red_ranks),
                                   ("BLUE", self._blue, self._blue_ranks)):
            if ranks != [keys[p] for p in words] or any(map(int.__ge__, ranks, ranks[1:])):
                raise LearnerInvariantError(f"the {name} rank list is stale")
        if self._n_cells != (len(self.red) + len(self._blue)) * len(self.suffixes):
            raise LearnerInvariantError("the cell count is stale")
        classes: dict[tuple[bytes, ...], list[Word]] = {}
        for p in self.red:
            classes.setdefault(self._rows[p], []).append(p)
        if self._classes != classes:
            raise LearnerInvariantError("the RED class index is stale")
        heap = self._unmatched
        live = [
            p for key, p in sorted(heap)
            if p in self._blue_set and self._rows[p] not in classes and key == keys[p]
        ]
        if live != [p for p in self._blue if self._rows[p] not in classes] or any(
            heap[(i - 1) // 2] > heap[i] for i in range(1, len(heap))
        ):
            raise LearnerInvariantError("the unmatched BLUE index is stale")

    # -- maintenance -------------------------------------------------------

    def _promote(self, prefix: Word) -> list[Word]:
        """Move ``prefix`` to RED and its continuations to BLUE.

        Returns the words that entered the table and still need a row.
        ``prefix`` was not RED, so none of its continuations is RED or BLUE.
        """
        keys, k = self._keys, self._k
        rank = keys.get(prefix)
        if rank is None:
            rank = keys[prefix] = shortlex_rank(k, word_key(self._alphabet, prefix))
            new = [prefix]
        else:
            self._blue_set.remove(prefix)
            i = bisect_left(self._blue_ranks, rank)
            del self._blue[i], self._blue_ranks[i]
            new = []
        i = bisect_left(self._red_ranks, rank)
        self.red.insert(i, prefix)
        self._red_ranks.insert(i, rank)
        children = [prefix + (symbol,) for symbol in self._alphabet.symbols]
        first = k * rank + 1
        ranks = range(first, first + k)
        keys.update(zip(children, ranks))
        self._blue_set.update(children)
        i = bisect_left(self._blue_ranks, first)
        self._blue[i:i] = children
        self._blue_ranks[i:i] = ranks
        return new + children

    def _index(self, prefix: Word) -> None:
        """Add a filled RED row to the class index, and file its
        continuations that match no RED row in the unmatched index (they
        are new, so BLUE)."""
        rows, classes = self._rows, self._classes
        insort(classes.setdefault(rows[prefix], []), prefix, key=self._key)
        first = self._k * self._keys[prefix] + 1
        for rank, symbol in enumerate(self._alphabet.symbols, first):
            word = prefix + (symbol,)
            if rows[word] not in classes:
                heappush(self._unmatched, (rank, word))

    def _reindex(self) -> None:
        """Rebuild the class and unmatched indexes after new columns."""
        rows = self._rows
        self._classes = classes = {}
        for p in self.red:
            classes.setdefault(rows[p], []).append(p)
        # BLUE is in rank order, so the list is sorted: a heap.
        self._unmatched = [
            (rank, p) for rank, p in zip(self._blue_ranks, self._blue) if rows[p] not in classes
        ]

    # -- filling -----------------------------------------------------------

    def _signature(self, dist: Distribution) -> bytes:
        """The pooled class signature of a queried distribution."""
        sig = self._sigs.get(dist)
        if sig is None:
            sig = signature(dist, self.equivalence)
            sig = self._sigs[dist] = self._pool.setdefault(sig, sig)
        return sig

    def _class_of(self, word: Word) -> bytes:
        """Query ``word`` outside the table and return its class signature."""
        return self._signature(self.model.query(word))

    def _query_cells(self, prefixes: list[Word], suffixes: list[Word]) -> list[tuple[bytes, ...]]:
        """Query the new cells ``prefixes × suffixes`` row by row, in one loop.

        Returns each prefix's pooled class signatures, one per suffix. When
        the cells do not fit the cell budget, the ones that fit are queried,
        in the same order, before ``TableLimitExceeded`` is raised.
        """
        words = [p + s for p in prefixes for s in suffixes]
        room = self.max_cells - self._n_cells
        over = len(words) > room
        if over:
            del words[room:]
        self._n_cells += len(words)
        if self.model.batches:
            self.model.prefetch(words)
        # Signatures are non-empty byte strings, so a memo miss is the only
        # falsy ``get``.
        get, signature_of = self._sigs.get, self._signature
        out = [get(d) or signature_of(d) for d in map(self.model.query, words)]
        if over:
            raise TableLimitExceeded(
                f"table would exceed {self.max_cells} cells; "
                "the target may not be regular under this equivalence"
            )
        return list(zip(*[iter(out)] * len(suffixes)))

    def _fill_rows(self, prefixes: list[Word]) -> None:
        """Query every column of new rows, row by row in the given order."""
        self._rows.update(zip(prefixes, self._query_cells(prefixes, self.suffixes)))

    def _add_columns(self, suffixes: list[Word]) -> None:
        """Append new columns and fill them row by row; ``_reindex`` follows."""
        self.suffixes += suffixes
        prefixes = self.red + self._blue
        rows = self._rows
        for p, cells in zip(prefixes, self._query_cells(prefixes, suffixes)):
            rows[p] += cells

    # -- closedness and consistency ----------------------------------------

    def closed(self) -> tuple[bool, Word | None]:
        """Whether every BLUE row matches some RED row; else the
        length-lex first offender."""
        heap, blue, rows, classes = self._unmatched, self._blue_set, self._rows, self._classes
        while heap:
            word = heap[0][1]
            if word in blue and rows[word] not in classes:
                return False, word
            heappop(heap)  # promoted or matched since it was filed
        return True, None

    def close_step(self, offender: Word) -> None:
        """Promote an unmatched BLUE row to RED and query its continuations."""
        if offender not in self._blue_set:
            raise ValueError(f"offender {offender!r} is not a BLUE row")
        before = len(self._classes)
        self._fill_rows(self._promote(offender))
        self._index(offender)
        if len(self._classes) <= before:
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
        if len(self._classes) == len(self.red):
            return True, None  # every class has one row
        symbols = self._alphabet.symbols
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
        self._add_columns([new_suffix])
        self._reindex()
        if self.red_class_count() <= before:
            raise LearnerInvariantError("a consistency defect must split a RED class")

    def update_with_counterexample(self, word: Word) -> None:
        """Add one distinguishing suffix of the counterexample (Rivest–Schapire).

        Walks ``word`` through the closed table: ``u_0`` is the empty word and
        ``u_{i+1}`` the first RED row of the class of ``u_i + word[i]``. With
        ``h`` the class the hypothesis gives ``word`` and ``α(i)`` the
        target's class of ``u_i + word[i:]``, ``α(0) ≠ h = α(n)``; a binary
        search finds ``i`` with ``α(i) ≠ h = α(i+1)``. The suffix
        ``word[i+1:]`` then separates the row ``u_i + word[i]`` from
        ``u_{i+1}``, so it becomes a column, with whichever of its tails are
        missing (shortest first). RED is unchanged, and the separated row
        matches no RED row, so the next closing step adds a class.
        """
        ok, offender = self.closed()
        if not ok:
            raise ValueError(f"table is not closed (offending row {offender!r})")
        access = [EMPTY]
        for symbol in word:
            access.append(self._classes[self._rows[access[-1] + (symbol,)]][0])
        h = self._rows[access[-1]][0]
        if self._class_of(word) == h:
            raise ValueError(f"the table already classifies {word!r} correctly")
        lo, hi = 0, len(word)  # α(lo) ≠ h = α(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._class_of(access[mid] + word[mid:]) == h:
                hi = mid
            else:
                lo = mid
        suffix = word[hi:]
        self._add_columns(
            [suffix[k:] for k in reversed(range(len(suffix))) if suffix[k:] not in self.suffixes]
        )
        self._reindex()
        if self._rows[access[lo] + (word[lo],)] in self._classes:
            raise LearnerInvariantError("the counterexample must leave a row unmatched")

    # -- hypothesis construction ---------------------------------------------

    def build_hypothesis(self) -> QuotientPdfa:
        """Fold the closed+consistent table into a quotient PDFA."""
        ok, offender = self.closed()
        if not ok:
            raise ValueError(f"table is not closed (offending row {offender!r})")
        ok, defect = self.consistent()
        if not ok:
            raise ValueError(f"table is not consistent ({defect!r})")

        # Classes are numbered by their first row in length-lex order, as
        # ``red_classes`` orders them.
        rows = self._rows
        representatives = sorted([members[0] for members in self._classes.values()], key=self._key)
        class_id = {rows[p]: i for i, p in enumerate(representatives)}

        # Each class's transitions come from its first row; the other rows
        # of a class, if any, must agree with them.
        symbols = self._alphabet.symbols

        def successor_classes(p: Word) -> tuple[int, ...]:
            try:
                return tuple([class_id[rows[p + (symbol,)]] for symbol in symbols])
            except KeyError:
                raise LearnerInvariantError("closedness violated during build") from None

        transitions = list(map(successor_classes, representatives))
        for sig, members in self._classes.items():
            for p in members[1:]:
                if successor_classes(p) != transitions[class_id[sig]]:
                    raise LearnerInvariantError("consistency violated during build")

        hypothesis = QuotientPdfa(
            alphabet=self._alphabet,
            initial=class_id[rows[EMPTY]],
            class_signatures=tuple(rows[rep][0] for rep in representatives),
            representatives=tuple(map(self.model.peek, representatives)),
            transitions=tuple(transitions),
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
        RED is prefix-closed and in rank order, so each prefix's state is one
        step from its parent's, which has rank ``(rank - 1) // k`` and is left
        by symbol ``(rank - 1) % k``. The suffixes are checked column-wise:
        ``after[s][q]``, the class signature reached by reading ``s`` from
        state ``q``, is ``after[s[1:]][δ(q, s[0])]`` for all states in one
        pass (a tail that is not a column is computed on demand), and each
        RED row is compared with ``after[·][q]`` of its state as one tuple.
        The first disagreeing cell, in RED then column order, is reported.
        """
        transitions, rows = hypothesis.transitions, self._rows
        successors = dict(zip(self._alphabet.symbols, zip(*transitions)))
        after: dict[Word, tuple[bytes, ...]] = {EMPTY: hypothesis.class_signatures}

        def signatures_after(s: Word) -> tuple[bytes, ...]:
            missing = []
            while s not in after:
                missing.append(s)
                s = s[1:]
            sigs = after[s]
            for s in reversed(missing):
                sigs = after[s] = tuple(map(sigs.__getitem__, successors[s[0]]))
            return sigs

        # expected[q]: the row a RED prefix reaching state q must have.
        expected = list(zip(*map(signatures_after, self.suffixes)))
        k = self._k
        state_of: dict[int, int] = {}  # by rank
        for p, rank in zip(self.red, self._red_ranks):
            if rank:
                parent, column = divmod(rank - 1, k)
                state = transitions[state_of[parent]][column]
            else:
                state = hypothesis.initial
            state_of[rank] = state
            row = rows[p]
            if state != class_id[row]:
                raise LearnerInvariantError(f"red prefix {p!r} runs to a foreign class")
            if expected[state] != row:
                s = next(s for s, a, b in zip(self.suffixes, expected[state], row) if a != b)
                raise LearnerInvariantError(
                    f"hypothesis class after {p + s!r} disagrees with the table"
                )


#: Names of the fields of a trace event, in the order a trace tuple holds them.
EVENT_FIELDS = ("event", "red", "blue", "suffixes", "classes")


@dataclass
class LearnerReport:
    """Outcome of a learning run, including query-complexity accounting.

    ``trace`` holds one ``(event, red, blue, suffixes, classes)`` tuple per
    table step; ``events`` builds the same records as dicts on access, and
    ``table_history`` the table dimensions at each hypothesis.
    """

    hypothesis: QuotientPdfa | None
    converged: bool
    rounds: int
    mq_count: int
    trace: list[tuple[str, int, int, int, int]] = field(default_factory=list)
    oracle: str = ""
    stop_reason: str = "converged"

    @property
    def events(self) -> list[dict]:
        return [dict(zip(EVENT_FIELDS, record)) for record in self.trace]

    @property
    def table_history(self) -> list[tuple[int, int, int]]:
        """``(red, blue, suffixes)`` of the table behind each hypothesis."""
        return [record[1:4] for record in self.trace if record[0] == "hypothesis"]


def learn(
    model: LanguageModel,
    equivalence: EquivalenceSpec,
    teacher: "EqOracle",
    *,
    max_rounds: int = 64,
    max_cells: int = 100_000,
) -> LearnerReport:
    """Run the table-based learning loop until the oracle accepts.

    Closes the table, builds a hypothesis, and asks the equivalence oracle;
    each counterexample adds one distinguishing suffix as a column
    (Rivest–Schapire), and the next closing step adds a state. RED rows stay
    pairwise distinct, so the consistency check that precedes each
    hypothesis always passes and no ``consistent`` event is recorded.
    Guaranteed to terminate when the target is regular under the
    equivalence and the oracle exact; otherwise the round and cell limits
    stop the run and the report is flagged as non-converged. Limits below
    1 raise ``ValueError`` before any query.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
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
    # An oracle built on the bare model would send its queries past the
    # cache, uncounted: point it at the cache for this run.
    borrowed = getattr(teacher, "model", None) is model
    if borrowed:
        teacher.model = mq
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
    finally:
        if borrowed:
            teacher.model = model

    return LearnerReport(
        hypothesis=hypothesis,
        converged=converged,
        rounds=rounds,
        mq_count=mq.misses,
        trace=trace,
        oracle=oracle_name,
        stop_reason=stop_reason,
    )
