"""Key-pair rate regions and exact protocol evaluation for three-terminal
finite sources.

The library computes, for any finite joint distribution of (X, Y, Z):

* the converse (outer) region of simultaneously achievable key-rate pairs,
* the achievable (inner) region built from minimal sufficient statistics,
* the exact region whenever the helpers are deterministically correlated
  (independent given their common part, which is also exactly when a
  separating extractable auxiliary exists),

and evaluates deterministic public-discussion protocols exactly against the
ε agreement / secrecy / uniformity conditions at desk scale.
"""

from ._version import __version__
from .dist import DEFAULT_SUM_TOL, NUM_TOL, JointPmf, cond_mutual_info, \
    entropy, load_pmf, source_roles
from .errors import BudgetExceededError, DuplicateVariableError, \
    EmptySupportError, InputFormatError, MalformedTableError, \
    NegativeEntryError, NonFiniteEntryError, PkRegionError, \
    ShapeMismatchError, SumOutOfToleranceError
from .structure import DEFAULT_CI_TOL, CommonFunction, Statistic, \
    maximal_common_function, minimal_sufficient_statistic
from .auxsolver import max_aux_info_outer
from .regions import RateRegion, RegionReport, compute_report, contains, \
    exact_region, gap_metrics, hull, inner_region, outer_region
from .protocol import DEFAULT_BUDGET, EvaluationReport, ProtocolSpec, \
    SlotSpec, check_eps_pk, evaluate_protocol, rate_point
from .ioformats import read_pmf, read_protocol

__all__ = [
    "__version__",
    # distributions
    "DEFAULT_SUM_TOL", "NUM_TOL", "JointPmf", "load_pmf", "entropy",
    "cond_mutual_info", "source_roles",
    # errors
    "PkRegionError", "NegativeEntryError", "NonFiniteEntryError",
    "SumOutOfToleranceError", "ShapeMismatchError", "DuplicateVariableError",
    "EmptySupportError", "BudgetExceededError", "MalformedTableError",
    "InputFormatError",
    # structure
    "DEFAULT_CI_TOL", "Statistic", "CommonFunction",
    "minimal_sufficient_statistic", "maximal_common_function",
    # extractable auxiliaries
    "max_aux_info_outer",
    # regions
    "RateRegion", "RegionReport", "hull", "contains", "gap_metrics",
    "outer_region", "inner_region", "exact_region", "compute_report",
    # protocols
    "DEFAULT_BUDGET", "SlotSpec", "ProtocolSpec", "EvaluationReport",
    "evaluate_protocol", "check_eps_pk", "rate_point",
    # input/output
    "read_pmf", "read_protocol",
]
