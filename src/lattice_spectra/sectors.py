"""Symmetry-sector weight functions on the torus.

The four invariant sectors are labelled by parity under momentum negation
(odd/even) and under coordinate swap (symmetric/antisymmetric):

    os: odd,  swap-symmetric      w_os = sin q1 + sin q2
    oa: odd,  swap-antisymmetric  w_oa = sin q1 - sin q2
    ea: even, swap-antisymmetric  w_ea = cos q1 - cos q2
    es: even, swap-symmetric      rank two, spanned by {1, cos q1 + cos q2}

Each weight applies its transcendentals per coordinate, so on the
broadcast axes of a tensor grid it costs two axis evaluations and one
broadcast sum (see torus_quad._FarLevel).

The odd weights and w_ea are taken in their sum forms.  A half-angle
product form such as 2 sin((q1 + q2)/2) cos((q1 - q2)/2) buys them no
accuracy that reaches an integral.  The nodes arrive as torus coordinates
rounded near pi, so at distance r from (pi, pi) w_os and w_oa carry an
absolute error of about eps in either form, and w_ea eps in its sum form
against eps r in product form.  They enter the integrals only squared, and
no resolvent or threshold integral of the four model kinds moves by more
than 4e-16 relative between the forms (tests/test_torus_quad.py keeps the
product forms as the reference).

es_plus = 2 + cos q1 + cos q2 keeps the stable form
1 + cos q = 2 sin^2((q - pi)/2), relative error eps / r against the sum
form's eps / r^2.  It vanishes to second order at (pi, pi) and also enters
unsquared (the es line of thresholds, the log coefficient of asymptotics),
where the sum form's absolute error eps would meet (alpha + r^2)^-2 directly:
on the Laplacian at alpha = 1e-13, k = 2, its near-field error estimate
reads 2e-4 and the integral raises NoConvergence.
"""

import numpy as np

SECTORS = ("os", "oa", "ea", "es")
RANK_ONE_SECTORS = ("os", "oa", "ea")


def w_os(q1, q2):
    return np.sin(q1) + np.sin(q2)


def w_oa(q1, q2):
    return np.sin(q1) - np.sin(q2)


def w_ea(q1, q2):
    return np.cos(q1) - np.cos(q2)


def es_one(q1, q2):
    return np.ones(np.broadcast(q1, q2).shape)


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
