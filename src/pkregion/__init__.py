"""Key-pair rate regions and exact protocol evaluation for three-terminal
finite sources.

The library computes, for any finite joint distribution of (X, Y, Z):

* the converse (outer) region of simultaneously achievable key-rate pairs,
* the achievable (inner) region built from minimal sufficient statistics,
* the exact region whenever the source passes one of the two tightness
  conditions (deterministic correlation of the helpers, or existence of a
  separating extractable auxiliary),

and evaluates deterministic public-discussion protocols exactly against the
ε agreement / secrecy / uniformity conditions at desk scale.
"""

from ._version import __version__
from .dist import DEFAULT_SUM_TOL, NUM_TOL, JointPmf, attach_statistic, \
    cond_mutual_info, entropy, load_pmf, marginal, source_roles
from .errors import BudgetExceededError, DegenerateInputError, \
    DuplicateVariableError, EmptySupportError, InputFormatError, \
    LabelMissingError, MalformedTableError, NegativeEntryError, \
    NonFiniteEntryError, OverlappingGroupsError, PkRegionError, \
    ShapeMismatchError, SumOutOfToleranceError, UnknownVariableError
from .structure import DEFAULT_CI_TOL, AuxChannel, CommonFunction, Statistic, \
    conditional_independence_residual, is_deterministically_correlated, \
    maximal_common_function, minimal_sufficient_statistic, sample_feasible_aux
from .auxsolver import DEFAULT_FEAS_TOL, SolverReport, dominance_oracle, \
    max_aux_info_outer, max_aux_info_thm3
from .regions import RateRegion, RegionReport, compute_report, contains, \
    exact_region, gap_metrics, hull, inner_region, outer_region
from .protocol import DEFAULT_BUDGET, EvaluationReport, ProtocolSpec, \
    SlotSpec, check_eps_pk, evaluate_protocol, rate_point, sequence_index, \
    transcript_index
from .ioformats import read_pmf, read_protocol, validate_report

__all__ = [
    "__version__",
    # distributions
    "DEFAULT_SUM_TOL", "NUM_TOL", "JointPmf", "load_pmf", "marginal",
    "entropy", "cond_mutual_info", "attach_statistic", "source_roles",
    # errors
    "PkRegionError", "NegativeEntryError", "NonFiniteEntryError",
    "SumOutOfToleranceError",
    "ShapeMismatchError", "DuplicateVariableError", "UnknownVariableError",
    "OverlappingGroupsError", "LabelMissingError", "EmptySupportError",
    "DegenerateInputError", "BudgetExceededError", "MalformedTableError",
    "InputFormatError",
    # structure
    "DEFAULT_CI_TOL", "Statistic", "CommonFunction", "AuxChannel",
    "minimal_sufficient_statistic", "maximal_common_function",
    "conditional_independence_residual", "is_deterministically_correlated",
    "sample_feasible_aux",
    # extractable auxiliaries
    "DEFAULT_FEAS_TOL", "SolverReport",
    "max_aux_info_outer", "max_aux_info_thm3", "dominance_oracle",
    # regions
    "RateRegion", "RegionReport", "hull", "contains", "gap_metrics",
    "outer_region", "inner_region", "exact_region", "compute_report",
    # protocols
    "DEFAULT_BUDGET", "SlotSpec", "ProtocolSpec", "EvaluationReport",
    "sequence_index", "transcript_index", "evaluate_protocol",
    "check_eps_pk", "rate_point",
    # input/output
    "read_pmf", "read_protocol", "validate_report",
]
