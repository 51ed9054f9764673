"""Extractable auxiliary variables and the sum-rate terms they give.

An auxiliary variable U is *extractable* when its conditional law given the
source is simultaneously a function of y alone and of z alone — the double
Markov requirement U→Y→XZ and U→Z→XY. Any such law is constant on
components of the (Y, Z) support graph (Gács–Körner), so extractable
variables are exactly channels applied to the maximal-common-function label
C, and U–C–(X, Y, Z) is a Markov chain. Both maxima asked for here are
therefore closed-form:

* the unconstrained maximum of I(U∧X) is I(C∧X), attained by U = C
  (:func:`max_aux_info_outer`);
* the variant that also requires U to separate Y from Z,
  I(Y∧Z|U) ≤ feas_tol, is attained by U = C as well
  (:func:`max_aux_info_thm3`). C is a function of Y and of Z, so

      I(Y∧Z|U) = I(Y,C∧Z|U) = I(C∧Z|U) + I(Y∧Z|U,C)
               = H(C|U) + I(Y∧Z|C),

  using H(C|Z,U) = 0 and, by the Markov chain, I(Y∧Z|U,C) = I(Y∧Z|C).
  Both terms are nonnegative, so no extractable U separates better than
  U = C, whose residual is I(Y∧Z|C); and since I(U∧X) ≤ I(C∧X) for every
  U, the best feasible value is I(C∧X) whenever I(Y∧Z|C) ≤ feas_tol.

:func:`dominance_oracle` keeps the structural reduction honest: it samples
feasible channels at a range of cardinalities and reports the best I(U∧X)
seen, which callers compare against the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import JointPmf, marginal, source_roles, _clip0, _entropy_of
from .structure import CommonFunction, maximal_common_function, \
    sample_feasible_aux

__all__ = [
    "DEFAULT_FEAS_TOL",
    "SolverReport",
    "max_aux_info_outer",
    "max_aux_info_thm3",
    "dominance_oracle",
]

DEFAULT_FEAS_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class SolverReport:
    """Best separating extractable auxiliary, U = C.

    ``value`` is I(C∧X) and ``residual`` the separation defect I(Y∧Z|C), both
    in bits; ``converged`` is True when the residual is within ``feas_tol``,
    i.e. when some extractable auxiliary separates Y from Z at all.
    """

    value: float
    residual: float
    converged: bool


@dataclass(frozen=True, eq=False)
class _SourceStats:
    """The common part of (Y, Z) and its joint table with X."""

    cf: CommonFunction
    qcx: np.ndarray        # joint (component, x) table
    hx: float
    bound: float           # I(component ∧ X)

    @classmethod
    def from_pmf(cls, p: JointPmf,
                 cf: CommonFunction | None = None) -> "_SourceStats":
        x, y, z = source_roles(p)
        if cf is None:
            cf = maximal_common_function(p, y, z)
        txy = marginal(p, (x, y)).probs
        qcx = np.zeros((cf.components, txy.shape[0]), dtype=np.float64)
        for sym, lab in enumerate(cf.stat_a.labels):
            if lab >= 0:
                qcx[lab] += txy[:, sym]
        hx = _entropy_of(txy.sum(axis=1))
        bound = _clip0(_entropy_of(qcx.sum(axis=1)) + hx - _entropy_of(qcx))
        return cls(cf, qcx, hx, bound)


def _mutual_info_ux(stats: _SourceStats, w: np.ndarray) -> float:
    """I(U∧X) in bits for the channel matrix ``w`` on components."""
    pux = w.T @ stats.qcx
    return _clip0(_entropy_of(pux.sum(axis=1)) + stats.hx - _entropy_of(pux))


def max_aux_info_outer(p: JointPmf, cf: CommonFunction | None = None):
    """Largest I(U∧X) over auxiliaries extractable from Y and from Z alone.

    Closed form: U→C→X caps the information at I(C∧X) for the
    common-function label C, and U = C attains the cap. ``cf`` may carry a
    precomputed maximal common function of (Y, Z).

    Returns the value in bits together with the Y-side component statistic.
    """
    stats = _SourceStats.from_pmf(p, cf)
    return stats.bound, stats.cf.stat_a


def max_aux_info_thm3(p: JointPmf, feas_tol: float = DEFAULT_FEAS_TOL,
                      cf: CommonFunction | None = None) -> SolverReport:
    """Best I(U∧X) over extractable auxiliaries that also separate Y from Z.

    Closed form (see the module docstring): U = C is optimal, so the report
    carries value I(C∧X), residual I(Y∧Z|C), and ``converged`` exactly when
    the residual is at most ``feas_tol``. Infeasibility is a report state,
    not an error. ``cf`` may carry a precomputed maximal common function of
    (Y, Z).
    """
    _, y, z = source_roles(p)
    stats = _SourceStats.from_pmf(p, cf)
    pair = marginal(p, (y, z)).probs
    # C is a function of Y and of Z: I(Y∧Z|C) = H(Y) + H(Z) − H(Y,Z) − H(C)
    residual = _clip0(_entropy_of(pair.sum(axis=1))
                      + _entropy_of(pair.sum(axis=0)) - _entropy_of(pair)
                      - _entropy_of(stats.qcx.sum(axis=1)))
    return SolverReport(value=stats.bound, residual=residual,
                        converged=residual <= feas_tol)


def dominance_oracle(p: JointPmf, trials: int, seed: int) -> float:
    """Max I(U∧X) over ``trials`` sampled extractable channels.

    Aux cardinalities cycle through 1..components+2. Callers compare the
    result against :func:`max_aux_info_outer`; an excess beyond float slack
    would falsify the channel characterization of the feasible set.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    stats = _SourceStats.from_pmf(p)
    top = stats.cf.components + 2
    best = 0.0
    for t in range(trials):
        card = 1 + t % top
        channel = sample_feasible_aux(stats.cf, card, (seed, t))
        best = max(best, _mutual_info_ux(stats, channel.matrix))
    return best
