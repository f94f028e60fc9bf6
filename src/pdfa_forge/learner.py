"""Active learning of quotient PDFAs from a language model.

The learner drives an observation table of queried distributions: RED rows
are candidate states, BLUE rows their one-symbol continuations, columns a
suffix-closed set of distinguishing suffixes. Rows are compared through
their *row signatures* (tuple of class signatures, one per suffix), never
through pairwise predicates, so row equality is transitive by construction.
Rows and every index of the table are keyed by the words' integer shortlex
ranks, and one dict maps each rank to its word. Once the table is closed
it folds into a hypothesis quotient PDFA which an equivalence oracle either
accepts or refutes with a counterexample word.

Counterexamples are processed as by Rivest & Schapire (1993): a binary
search over the word finds one distinguishing suffix, which becomes a new
column. RED only grows by closing, so each class of RED rows holds exactly
one row and the table is consistent by construction: no consistency repair
exists.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .automata import AutomatonError, QuotientPdfa
from .distributions import require_limit
from .models import CachedModel, LanguageModel, cached
from .relations import EquivalenceSpec, SignatureMemo, signature
from .words import EMPTY, Word, shortlex_rank, word_key

if TYPE_CHECKING:  # pragma: no cover
    from .teacher import EqOracle


class TableLimitExceeded(RuntimeError):
    """The observation table outgrew the configured cell budget."""


class LearnerInvariantError(AssertionError):
    """A structural property of the algorithm failed; indicates a bug."""


class ObservationTable:
    """RED/BLUE prefix rows times suffix columns of queried distributions.

    Every index of the table is keyed by shortlex rank
    (``words.shortlex_rank``: ``rank(ε) = 0`` and
    ``rank(w·aᵢ) = k·rank(w) + i + 1`` over ``k`` symbols), so no lookup
    hashes a word. The children of rank ``r`` are ``k·r + 1 … k·r + k`` in
    symbol order, and its parent is ``(r - 1) // k``. The table maintains
    its structure instead of recomputing it, so its bookkeeping grows
    linearly with the cells:

    - ``_word`` (rank → word) is the only store of words; ``red`` and
      ``blue`` read it. RED and BLUE are sorted rank lists. A promoted
      word's continuations enter BLUE as one block, and ``word_key`` runs
      only for the empty word.
    - There is one cell store: the table's ``CachedModel``. A cell's
      distribution is the cached answer to its word, read with ``peek``
      (no hit is counted). The filled cells are the rows times the
      columns, which ``max_cells`` bounds.
    - The row cache maps each rank to its tuple of cell class signatures,
      which a new column extends by one entry. Signatures are read through
      one ``SignatureMemo``, so each distinct distribution the model
      returns is signed once.
    - The class index maps each row signature to the rank of its one RED
      row (RED only grows by closing, so no two RED rows are equal).
      ``red_class_count`` is its size.
    - The scan cursor ``_scan`` is a rank below which every BLUE row
      matches a RED row. Between new columns the class index only grows,
      so a matched row stays matched, and a promoted row's continuations
      rank above it; so ``closed`` resumes its BLUE scan at the cursor and
      leaves it at the offender. New columns reset it to 0.

    Only new rows and new columns are filled, so each (prefix, suffix) cell
    is queried exactly once; each batch of new cells is filled in one loop,
    row by row, after the model is asked to prefetch their words. After
    ``TableLimitExceeded`` the table is left partly filled and must not be
    used further.

    ``build_hypothesis`` numbers the classes by their RED rows in rank
    order, reads the transitions from those rows' children by rank, and
    checks the hypothesis against the table column by column.
    """

    def __init__(
        self,
        model: LanguageModel,
        equivalence: EquivalenceSpec,
        *,
        max_cells: int = 100_000,
    ):
        require_limit("max_cells", max_cells, 1)
        self.model: CachedModel = cached(model)
        self._alphabet = self.model.alphabet
        self.equivalence = equivalence
        self.max_cells = max_cells
        self.suffixes: list[Word] = [EMPTY]
        self._k = len(self._alphabet.symbols)
        root = shortlex_rank(self._k, word_key(self._alphabet, EMPTY))
        self._word: dict[int, Word] = {root: EMPTY}
        self._red: list[int] = []
        self._blue: list[int] = [root]  # until it is promoted, below
        self._rows: dict[int, tuple[bytes, ...]] = {}
        self._classes: dict[tuple[bytes, ...], int] = {}
        self._scan = 0
        self._sigs = SignatureMemo(equivalence, signature)
        self._fill_rows([root, *self._promote(root)])
        self._classes[self._rows[root]] = root

    # -- structure ---------------------------------------------------------

    @property
    def red(self) -> list[Word]:
        """The RED words in length-lexicographic order."""
        return list(map(self._word.__getitem__, self._red))

    @property
    def blue(self) -> list[Word]:
        """RED's one-symbol continuations that are not RED themselves."""
        return list(map(self._word.__getitem__, self._blue))

    def dimensions(self) -> tuple[int, int, int]:
        return len(self._red), len(self._blue), len(self.suffixes)

    def _rank(self, word: Word) -> int | None:
        """The rank of ``word`` when it is a RED or BLUE word, else None."""
        try:
            columns = tuple(map(self._alphabet.columns.__getitem__, word))
        except KeyError:
            return None
        rank = shortlex_rank(self._k, (len(word), columns))
        return rank if rank in self._word else None

    def row_signature(self, prefix: Word) -> tuple[bytes, ...]:
        rank = self._rank(prefix)
        if rank is None:
            raise KeyError(prefix)
        return self._rows[rank]

    def red_classes(self) -> dict[tuple[bytes, ...], Word]:
        """Each RED row's signature mapped to its word, in length-lex order."""
        rows, word_of = self._rows, self._word
        return {rows[rank]: word_of[rank] for rank in self._red}

    def red_class_count(self) -> int:
        return len(self._classes)

    # -- maintenance -------------------------------------------------------

    def _promote(self, rank: int) -> range:
        """Move a BLUE rank to RED and its continuations to BLUE.

        Returns the continuations' ranks, which still need rows. The word
        was not RED, so none of its continuations is RED or BLUE.
        """
        del self._blue[bisect_left(self._blue, rank)]
        insort(self._red, rank)
        word, first = self._word[rank], self._k * rank + 1
        children = range(first, first + self._k)
        self._word.update(zip(children, [word + (symbol,) for symbol in self._alphabet.symbols]))
        i = bisect_left(self._blue, first)
        self._blue[i:i] = children
        return children

    def _reindex(self) -> None:
        """Rebuild the class index and rewind the scan cursor after new
        columns."""
        rows = self._rows
        self._classes = {rows[rank]: rank for rank in self._red}
        self._scan = 0

    # -- filling -----------------------------------------------------------

    def _class_of(self, word: Word) -> bytes:
        """Query ``word`` outside the table and return its class signature."""
        return self._sigs[self.model.query(word)]

    def _query_cells(self, ranks: list[int], suffixes: list[Word]) -> list[tuple[bytes, ...]]:
        """Query the new cells ``ranks × suffixes`` row by row, in one loop.

        Returns each row's class signatures, one per suffix. When
        the cells do not fit the cell budget, the ones that fit are queried,
        in the same order, before ``TableLimitExceeded`` is raised.
        """
        words = [p + s for p in map(self._word.__getitem__, ranks) for s in suffixes]
        room = self.max_cells - len(self._rows) * len(self.suffixes)
        over = len(words) > room
        if over:
            del words[room:]
        self.model.prefetch(words)
        out = list(map(self._sigs.__getitem__, map(self.model.query, words)))
        if over:
            raise TableLimitExceeded(
                f"table would exceed {self.max_cells} cells; "
                "the target may not be regular under this equivalence"
            )
        return list(zip(*[iter(out)] * len(suffixes)))

    def _fill_rows(self, ranks: list[int]) -> None:
        """Query every column of new rows, row by row in the given order."""
        self._rows.update(zip(ranks, self._query_cells(ranks, self.suffixes)))

    def _add_columns(self, suffixes: list[Word]) -> None:
        """Fill new columns row by row, then append them; ``_reindex``
        follows."""
        ranks = self._red + self._blue
        rows = self._rows
        for rank, cells in zip(ranks, self._query_cells(ranks, suffixes)):
            rows[rank] += cells
        self.suffixes += suffixes

    # -- closedness --------------------------------------------------------

    def closed(self) -> tuple[bool, Word | None]:
        """Whether every BLUE row matches some RED row; else the
        length-lex first offender, where the scan cursor stops."""
        blue, rows, classes = self._blue, self._rows, self._classes
        for i in range(bisect_left(blue, self._scan), len(blue)):
            rank = blue[i]
            if rows[rank] not in classes:
                self._scan = rank
                return False, self._word[rank]
        self._scan = blue[-1] + 1 if blue else 0
        return True, None

    def close_step(self, offender: Word) -> None:
        """Promote an unmatched BLUE row to RED and query its continuations.

        Every RED row is in the class index, so a row of the table that
        matches no class is an unmatched BLUE row.
        """
        # After ``closed`` found it, the offender is the cursor's own word.
        rank = self._scan if self._word.get(self._scan) is offender else self._rank(offender)
        if rank is None or self._rows[rank] in self._classes:
            raise ValueError(f"offender {offender!r} is not an unmatched BLUE row")
        self._fill_rows(self._promote(rank))
        self._classes[self._rows[rank]] = rank

    def consistent(self) -> tuple[bool, None]:
        """Always consistent: each class holds one RED row. Nothing in the
        package calls this; it stays as an entry point for tracing."""
        return len(self._classes) == len(self._red), None

    def consistent_step(self, defect) -> None:
        """No consistency defect exists to repair; always raises."""
        raise LearnerInvariantError("a closed-only table has no consistency defect")

    def update_with_counterexample(self, word: Word) -> None:
        """Add one distinguishing suffix of the counterexample (Rivest–Schapire).

        Walks ``word`` through the closed table: ``u_0`` is the empty word and
        ``u_{i+1}`` the RED row of the class of ``u_i + word[i]``. With
        ``h`` the class the hypothesis gives ``word`` and ``α(i)`` the
        target's class of ``u_i + word[i:]``, ``α(0) ≠ h = α(n)``; a binary
        search finds ``i`` with ``α(i) ≠ h = α(i+1)``. The suffix
        ``word[i+1:]`` then separates the row ``u_i + word[i]`` from
        ``u_{i+1}``, so it becomes a column, with whichever of its tails are
        missing (shortest first). RED is unchanged, and the separated row
        matches no RED row, so the next closing step adds a class. A symbol
        outside the alphabet raises ``AlphabetMismatch`` before any query.
        """
        ok, offender = self.closed()
        if not ok:
            raise ValueError(f"table is not closed (offending row {offender!r})")
        try:
            columns = list(map(self._alphabet.columns.__getitem__, word))
        except KeyError as missing:
            raise self._alphabet._mismatch(missing.args[0]) from None
        rows, classes, k = self._rows, self._classes, self._k
        access = [0]  # the ranks of u_0 … u_n
        for column in columns:
            access.append(classes[rows[k * access[-1] + column + 1]])
        h = rows[access[-1]][0]
        if self._class_of(word) == h:
            raise ValueError(f"the table already classifies {word!r} correctly")
        lo, hi = 0, len(word)  # α(lo) ≠ h = α(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._class_of(self._word[access[mid]] + word[mid:]) == h:
                hi = mid
            else:
                lo = mid
        suffix = word[hi:]
        self._add_columns(
            [suffix[i:] for i in reversed(range(len(suffix))) if suffix[i:] not in self.suffixes]
        )
        self._reindex()
        if rows[k * access[lo] + columns[lo] + 1] in self._classes:
            raise LearnerInvariantError("the counterexample must leave a row unmatched")

    # -- hypothesis construction ---------------------------------------------

    def build_hypothesis(self) -> QuotientPdfa:
        """Fold the closed table into a quotient PDFA."""
        ok, offender = self.closed()
        if not ok:
            raise ValueError(f"table is not closed (offending row {offender!r})")

        # Classes are numbered by their RED row in rank order, as
        # ``red_classes`` orders them.
        rows, k, representatives = self._rows, self._k, self._red
        rep_rows = list(map(rows.__getitem__, representatives))
        class_id = dict(zip(rep_rows, range(len(rep_rows))))
        if len(class_id) != len(rep_rows):
            raise LearnerInvariantError("two RED rows share a class")

        # Symbol i leads from rank r to rank k·r + i + 1: one column per
        # symbol, read in C. With no symbols, every state has an empty row.
        starts = [k * r + 1 for r in representatives]
        try:
            columns = [
                tuple(map(class_id.__getitem__, map(rows.__getitem__, map(i.__add__, starts))))
                for i in range(k)
            ]
        except KeyError:
            raise LearnerInvariantError("closedness violated during build") from None
        transitions = list(zip(*columns)) or [()] * len(starts)

        # The model's answers are the one input nothing below checks.
        alphabet = self._alphabet
        dists = tuple(map(self.model.peek, map(self._word.__getitem__, representatives)))
        for q, dist in enumerate(dists):
            if dist.alphabet is not alphabet and dist.alphabet != alphabet:
                raise AutomatonError(f"class {q} representative over a different alphabet")

        # The rest of ``QuotientPdfa``'s validation holds by construction:
        # the root is RED, so there is a state; there is one representative
        # per class; the initial state and every target are ``class_id``
        # values, ``k`` per row; and the self-check below walks each class's
        # one RED row from the initial state to its class, so every state is
        # reachable. No hypothesis leaves unless that check passes.
        hypothesis = QuotientPdfa._unchecked(
            alphabet,
            class_id[rows[0]],
            tuple(row[0] for row in rep_rows),
            dists,
            tuple(transitions),
            self.equivalence.spec_string(),
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
        pass. The columns are suffix-closed and each comes after its tail,
        so one pass over them in order finds each tail already computed.
        Each RED row is compared with ``after[·][q]`` of its state as one
        tuple.
        The first disagreeing cell, in RED then column order, is reported.
        """
        transitions, rows, word = hypothesis.transitions, self._rows, self._word
        successors = dict(zip(self._alphabet.symbols, zip(*transitions)))
        after: dict[Word, tuple[bytes, ...]] = {EMPTY: hypothesis.class_signatures}
        for s in self.suffixes[1:]:
            after[s] = tuple(map(after[s[1:]].__getitem__, successors[s[0]]))
        # expected[q]: the row a RED prefix reaching state q must have.
        expected = list(zip(*map(after.__getitem__, self.suffixes)))
        k = self._k
        state_of: dict[int, int] = {}  # by rank
        for rank in self._red:
            if rank:
                parent, column = divmod(rank - 1, k)
                state = transitions[state_of[parent]][column]
            else:
                state = hypothesis.initial
            state_of[rank] = state
            row = rows[rank]
            if state != class_id[row]:
                raise LearnerInvariantError(f"red prefix {word[rank]!r} runs to a foreign class")
            if expected[state] != row:
                s = next(s for s, a, b in zip(self.suffixes, expected[state], row) if a != b)
                raise LearnerInvariantError(
                    f"hypothesis class after {word[rank] + s!r} disagrees with the table"
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
    pairwise distinct, so the table needs no consistency repair; the trace
    records ``close``, ``hypothesis`` and ``counterexample`` events.
    Guaranteed to terminate when the target is regular under the
    equivalence and the oracle exact; otherwise the round and cell limits
    stop the run and the report is flagged as non-converged. Limits that are
    no ``int`` or below 1 raise ``ValueError`` before any query.
    """
    require_limit("max_rounds", max_rounds, 1)
    mq = cached(model)
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
        table = ObservationTable(mq, equivalence, max_cells=max_cells)
        while rounds < max_rounds:
            while not (closed := table.closed())[0]:
                table.close_step(closed[1])
                record("close")
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
        oracle=getattr(teacher, "description", teacher.__class__.__name__),
        stop_reason=stop_reason,
    )
