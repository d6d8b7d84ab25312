"""Symmetry-sector weight functions on the torus.

The four invariant sectors are labelled by parity under momentum negation
(odd/even) and under coordinate swap (symmetric/antisymmetric):

    os: odd,  swap-symmetric      w_os = sin q1 + sin q2
    oa: odd,  swap-antisymmetric  w_oa = sin q1 - sin q2
    ea: even, swap-antisymmetric  w_ea = cos q1 - cos q2
    es: even, swap-symmetric      rank two, spanned by {1, cos q1 + cos q2}

All weights are written in product form so that they evaluate without
cancellation near (pi, pi), where the resolvent integrands peak.  The "plus"
combination 2 + cos q1 + cos q2 vanishes to second order there and is the one
combination that genuinely needs the stable form.
"""

import numpy as np

SECTORS = ("os", "oa", "ea", "es")
RANK_ONE_SECTORS = ("os", "oa", "ea")


def w_os(q1, q2):
    # sin q1 + sin q2
    return 2.0 * np.sin((q1 + q2) / 2) * np.cos((q1 - q2) / 2)


def w_oa(q1, q2):
    # sin q1 - sin q2
    return 2.0 * np.cos((q1 + q2) / 2) * np.sin((q1 - q2) / 2)


def w_ea(q1, q2):
    # cos q1 - cos q2
    return -2.0 * np.sin((q1 + q2) / 2) * np.sin((q1 - q2) / 2)


def es_one(q1, q2):
    return np.ones_like(np.asarray(q1, dtype=float))


def es_cos_sum(q1, q2):
    return np.cos(q1) + np.cos(q2)


def es_plus(q1, q2):
    # 2 + cos q1 + cos q2, via 1 + cos q = 2 sin^2((q - pi)/2)
    return 2.0 * np.sin((q1 - np.pi) / 2) ** 2 + 2.0 * np.sin((q2 - np.pi) / 2) ** 2


def w_os_sq(q1, q2):
    return w_os(q1, q2) ** 2


def w_oa_sq(q1, q2):
    return w_oa(q1, q2) ** 2


def w_ea_sq(q1, q2):
    return w_ea(q1, q2) ** 2


def es_plus_sq(q1, q2):
    return es_plus(q1, q2) ** 2


def es_cos_sum_sq(q1, q2):
    return es_cos_sum(q1, q2) ** 2


RANK_ONE_WEIGHTS_SQ = {"os": w_os_sq, "oa": w_oa_sq, "ea": w_ea_sq}
# the weights of I[1], I[s^2], I[s] in the es determinant, s = cos q1 + cos q2
ES_WEIGHTS = (es_one, es_cos_sum_sq, es_cos_sum)
