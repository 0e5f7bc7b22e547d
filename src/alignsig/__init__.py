"""Statistical comparison of alignment systems on a single matching task."""

from .contingency import (
    DiscordantMatrix,
    build_discordant_matrix,
    build_table_cfp,
    build_table_ifp,
    parse_matrix_tsv,
    write_matrix_tsv,
)
from .fwer import (
    AdjustedResults,
    HypothesisSet,
    adjust,
    bergmann_exhaustive_sets,
    shaffer_true_counts,
)
from .ingest import (
    LabelTable,
    parse_alignment_tsv,
    parse_alignment_xml,
    parse_label_list,
    write_alignment_tsv,
)
from .matcher import MetricKind, build_similarity_matrix, hungarian_assign, match
from .mcnemar import TestResult, asymptotic_test, cc_test, exact_test, midp_test, run_test
from .model import (
    Alignment,
    ComparisonConfig,
    ContingencyTable,
    Correction,
    Correspondence,
    Mode,
    Perspective,
    TaskUniverse,
    TestKind,
    canonicalize_alignment,
)
from .siggraph import (
    RankTable,
    SignificanceGraph,
    build_graph,
    build_report,
    emit_dot,
    rank_systems,
    run_comparison,
    serialize_report,
)

__version__ = "0.1.0"
