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
"""

import math

from scipy.special import ellipkm1

FOUR_PI_SQ = 4 * math.pi ** 2


def es_integrals(alpha):
    """(I[1], I[s], I[s^2]): the k = 1 resolvent integrals of es_one,
    es_cos_sum and es_cos_sum_sq at z = e_max + alpha."""
    c = 2.0 + alpha
    i1 = 8 * math.pi / c * float(ellipkm1(alpha * (4 + alpha) / c ** 2))
    return i1, FOUR_PI_SQ - c * i1, c * c * i1 - FOUR_PI_SQ * c
