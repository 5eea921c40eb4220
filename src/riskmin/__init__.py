"""riskmin: black-box test suite minimization by time-decayed change risk.

The pipeline scores production classes from their modification history
(recent changes count more, with a configurable half-life), maps each test
to the classes it can reach over a static call graph, aggregates those
class risks into per-test scores, and keeps the top-scoring tests under a
retention budget. An evaluation harness measures how well minimized suites
preserve fault-revealing tests across labeled versions.
"""

from .change_history import (
    ChangeEvent,
    ChangeLog,
    ClassHistory,
    SourceRootConfig,
    consolidate,
    parse_change_log,
    parse_git_numstat,
    path_to_class,
)
from .dependency_graph import (
    CallGraph,
    MethodRef,
    build_dependency_map,
    entry_class_filter,
    parse_callgraph_edges,
    test_entry_points,
)
from .errors import AlignmentError, LabelError, ParseError
from .evaluation import (
    SweepGrid,
    SweepRow,
    VersionLabel,
    accuracy,
    evaluate_grid,
    fdr,
    minimize_suite,
    sweep_rows,
)
from .minimizer import MinimizationResult, budget_count, check_budget, config_fingerprint, cut_ranking, rank
from .risk_aggregation import OPERATORS, positive_multisets, score_multisets
from .stats import (
    ContingencyTable2x2,
    DegenerateSampleError,
    bonferroni,
    cliffs_delta,
    fisher_exact_2x2,
    wilcoxon_signed_rank,
)
from .temporal_risk import METRICS, alpha_from_half_life, risk_folder

__version__ = "0.1.0"
