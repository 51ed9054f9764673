"""Extractable auxiliary variables and the sum-rate term they give.

An auxiliary variable U is *extractable* when its conditional law given the
source is simultaneously a function of y alone and of z alone — the double
Markov requirement U→Y→XZ and U→Z→XY. Any such law is constant on
components of the (Y, Z) support graph (Gács–Körner), so extractable
variables are exactly channels applied to the maximal-common-function label
C, and U–C–(X, Y, Z) is a Markov chain. The largest I(U∧X) is therefore
I(C∧X), attained by U = C (:func:`max_aux_info_outer`).

The same structure is why the exact region needs one tightness test only.
The separating-auxiliary condition asks for an extractable U with
I(Y∧Z|U) = 0. C is a function of Y and of Z, so

    I(Y∧Z|U) = I(Y,C∧Z|U) = I(C∧Z|U) + I(Y∧Z|U,C)
             = H(C|U) + I(Y∧Z|C),

using H(C|Z,U) = 0 and, by the Markov chain, I(Y∧Z|U,C) = I(Y∧Z|C). Both
terms are nonnegative, so a separating U exists exactly when Y and Z are
independent given C — the deterministic-correlation test that
:attr:`~pkregion.regions.RegionReport.ci_residual` measures — and then
U = C is one, carrying I(C∧X), the outer sum-cap term. The separating
auxiliary thus labels no source exact that deterministic correlation does
not.
"""

from __future__ import annotations

from .dist import JointPmf
from .regions import RegionReport

__all__ = ["max_aux_info_outer"]


def max_aux_info_outer(p: JointPmf):
    """Largest I(U∧X) over auxiliaries extractable from Y and from Z alone.

    Closed form: U→C→X caps the information at I(C∧X) for the
    common-function label C, and U = C attains the cap. The value is the
    per-source analysis's :attr:`~pkregion.regions.RegionReport.i_x_common`.

    Returns the value in bits together with the Y-side component statistic.
    """
    report = RegionReport(p)
    return report.i_x_common, report.common.stat_a
