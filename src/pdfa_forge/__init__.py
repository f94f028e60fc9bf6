"""pdfa-forge: learn minimal quotient PDFAs from black-box language models.

The package splits along the pipeline: distributions and the relations on
them (`distributions`, `relations`), language-model oracles (`models`) and
the HTTP client for a remote one (`remote`), PDFA structures and quotients
(`automata`), the table-based active learner (`learner`), equivalence
oracles (`teacher`), and the tolerance/clique laboratory (`tolerance`). `cli` wires everything into the `pdfa-forge`
command.
"""

from .automata import (
    AutomatonError,
    Pdfa,
    QuotientPdfa,
    StatePartition,
    automaton_from_json,
    isomorphic,
    isomorphism,
    lm_equivalent,
    pdfa_from_json,
    pdfa_to_json,
    quotient,
    quotient_from_json,
    quotient_to_json,
    realize,
    state_congruence,
    to_dot,
)
from .distributions import (
    Alphabet,
    AlphabetMismatch,
    Distribution,
    InvalidDistribution,
    TERMINAL,
)
from .learner import (
    LearnerInvariantError,
    LearnerReport,
    ObservationTable,
    TableLimitExceeded,
    learn,
)
from .models import (
    AlternatingUnaryModel,
    CachedModel,
    LanguageModel,
    PdfaLanguageModel,
    UniformUnaryModel,
    cached,
    is_triangular,
    synthetic_model,
)
from .relations import (
    EquivalenceSpec,
    SimilaritySpec,
    clipped_ranking,
    equivalent,
    ndcg_distance,
    parse_equivalence,
    parse_similarity,
    quantization_bucket,
    ranking,
    signature,
    similar,
    similarity_value,
    support_difference_rate,
    top_ranked,
    variation_distance,
    word_error_rate,
)
from .remote import RemoteModel, RemoteModelError
from .teacher import (
    BoundedExhaustiveOracle,
    EqOracle,
    ExactOracle,
    OracleBudgetExceeded,
    SamplingConfig,
    SamplingOracle,
)
from .tolerance import (
    CliqueInstability,
    CliquePartition,
    SeparationReport,
    build_clique_pdfa,
    demo_recognizable_not_regular,
    enumerate_clique_partitions,
    quotient_by_cliques,
    string_pair_tolerant,
    string_tolerant,
)
from .words import Word, format_word, iter_words, prefixes, word_key

__version__ = "0.1.0"
