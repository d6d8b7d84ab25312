"""Exact resolvent integrals of the discrete Laplacian, a test-side reference.

For e = 2 - cos q1 - cos q2 (e_max = 4) at z = e_max + alpha, put
c = 2 + alpha and s = cos q1 + cos q2, so that z - e = c + s.  The square
lattice Green's function (Morita, J. Math. Phys. 12, 1744 (1971); Economou,
Green's Functions in Quantum Physics, ch. 5) gives

    I[1]   = int dq / (c + s)    = (8 pi / c) K(k = 2 / c),
    I[s]   = int s dq / (c + s)   = 4 pi^2 - c I[1],
    I[s^2] = int s^2 dq / (c + s) = c^2 I[1] - 4 pi^2 c.

K is evaluated as ellipkm1(1 - k^2) with 1 - k^2 = alpha (4 + alpha) / c^2,
which keeps every digit of alpha down to alpha = 1e-13.

The squared sector weights reduce to one 1-D integral in q1.  With
A = c + cos q1, so that z - e = A + cos q2, and S = sqrt(A^2 - 1), the
inner integrals over q2 are

    int dq2 / (A + cos q2)         = 2 pi / S,
    int sin^2 q2 dq2 / (A + cos q2) = 2 pi / (A + S),

and every other one follows by writing the weight in powers of A + cos q2
(odd powers of sin q2 integrate to 0).  A - 1 = alpha + 2 cos^2(q1/2) and
P = A + cos q1 = alpha + 4 cos^2(q1/2) are formed without cancellation, so
S = sqrt((A - 1)(A + 1)) keeps its digits at the peak q1 = pi.
"""

import math

from scipy.integrate import quad
from scipy.special import ellipkm1

FOUR_PI_SQ = 4 * math.pi ** 2


def es_integrals(alpha):
    """(I[1], I[s], I[s^2]): the k = 1 resolvent integrals of es_one,
    es_cos_sum and es_cos_sum_sq at z = e_max + alpha."""
    c = 2.0 + alpha
    i1 = 8 * math.pi / c * float(ellipkm1(alpha * (4 + alpha) / c ** 2))
    return i1, FOUR_PI_SQ - c * i1, c * c * i1 - FOUR_PI_SQ * c


def _inner(alpha):
    """q1 -> the q2 integrals over 2 pi of w_os_sq, w_ea_sq and es_plus_sq
    divided by z - e (w_oa_sq has w_os_sq's)."""
    def inner(q1):
        cos_half_sq = math.cos(q1 / 2) ** 2
        a_minus_1 = alpha + 2 * cos_half_sq
        a = 1.0 + a_minus_1
        s = math.sqrt(a_minus_1 * (a + 1.0))
        p = alpha + 4 * cos_half_sq          # A + cos q1
        b = 1.0 + 2 * cos_half_sq            # 2 + cos q1 = A - alpha
        return (math.sin(q1) ** 2 / s + 1.0 / (a + s),   # (sin q1 + sin q2)^2
                p * p / s - 2 * p + a,                   # (P - (A + cos q2))^2
                b - alpha + alpha * alpha / s)           # (A + cos q2 - alpha)^2
    return inner


def squared_weight_integrals(alpha):
    """{name: int v dq / (c + s)} at z = e_max + alpha for the weights v
    w_os_sq, w_oa_sq, w_ea_sq and es_plus_sq of lattice_spectra.sectors.
    Each integrand is even in q1, so the outer integral runs over [0, pi]
    by adaptive quadrature, with the peak at the end point q1 = pi."""
    inner = _inner(alpha)
    os_sq, ea_sq, plus_sq = (
        4 * math.pi * quad(lambda q1, i=i: inner(q1)[i], 0.0, math.pi,
                           epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for i in range(3))
    return {"w_os_sq": os_sq, "w_oa_sq": os_sq, "w_ea_sq": ea_sq,
            "es_plus_sq": plus_sq}
