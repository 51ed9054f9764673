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
independent given C — the deterministic-correlation test of
:func:`~pkregion.structure.conditional_independence_residual` — and then
U = C is one, carrying I(C∧X), the outer sum-cap term. The separating
auxiliary thus labels no source exact that deterministic correlation does
not.
"""

from __future__ import annotations

import numpy as np

from .dist import JointPmf, source_roles, _clip0, _entropy_of
from .structure import CommonFunction, maximal_common_function, _pair_table

__all__ = ["max_aux_info_outer"]


def max_aux_info_outer(p: JointPmf):
    """Largest I(U∧X) over auxiliaries extractable from Y and from Z alone.

    Closed form: U→C→X caps the information at I(C∧X) for the
    common-function label C, and U = C attains the cap.

    Returns the value in bits together with the Y-side component statistic.
    """
    x, y, z = source_roles(p)
    cf = maximal_common_function(p, y, z)
    return _common_info(_pair_table(p, x, y), cf), cf.stat_a


def _common_info(txy: np.ndarray, cf: CommonFunction) -> float:
    """I(C∧X) from the (X, Y) table ``txy`` and the Y-side labels of ``cf``.

    H(X) is taken from the row sums of ``txy``: the entropy of the source's
    own X marginal, summed in another order, can differ in the last bit.
    """
    qcx = np.zeros((cf.components, txy.shape[0]), dtype=np.float64)
    for sym, lab in enumerate(cf.stat_a.labels):
        if lab >= 0:
            qcx[lab] += txy[:, sym]
    return _clip0(_entropy_of(qcx.sum(axis=1))
                  + _entropy_of(txy.sum(axis=1)) - _entropy_of(qcx))
