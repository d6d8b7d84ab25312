"""Fredholm determinants of the rank-one and rank-two sector restrictions,
zero location above the band top, and eigenfunction coefficients.

An energy E = e_max + alpha is an eigenvalue in a rank-one sector iff

    1 - (b mu / 4pi^2) int w_omega(q)^2 / (E - e(q)) dq = 0,

and in the rank-two even-symmetric sector iff the 2x2 determinant

    Delta(mu; E) = Delta1 * Delta2 - mu^2 a b Delta3^2

vanishes, where Delta1 = 1 - (a mu/4pi^2) I[1], Delta2 = 1 - (b mu/4pi^2)
I[(cos q1 + cos q2)^2], Delta3 = (1/4pi^2) I[cos q1 + cos q2] with
I[v] = int v/(E - e).  All root finding runs in x = ln(alpha), where the
determinants are nearly linear near threshold.

Delta is, up to the factor mu^2 a b, the determinant of the symmetric matrix

    M(alpha) = (mu V)^-1 - G(alpha) = [[Delta1/(a mu), -Delta3],
                                       [-Delta3,       Delta2/(b mu)]],

G = (1/4pi^2) int u u^T/(alpha + d) with u = (1, cos q1 + cos q2) and
d = e_max - e.  dG/dalpha = -(1/4pi^2) int u u^T/(alpha + d)^2 is negative
definite, so both eigenvalues of M increase with alpha.  Where es holds two
roots (a, b > 0 above mu0_es), M is positive definite at large alpha and
negative definite at threshold: the lower eigenvalue crosses zero once, at
the outer root, and the upper one once, at the inner root.  A double root is
a point where both vanish, M = 0.
"""

import functools
import math
from dataclasses import dataclass

import scipy.optimize

from . import sectors
from .errors import (BelowThreshold, BracketFailure, UnresolvableRoots,
                     ZeroCoupling)
from .thresholds import (above_threshold, coupling_thresholds, es_count,
                         gammas)
from .torus_quad import FOUR_PI_SQ, _integrate, integrate_resolvent

ALPHA_FLOOR = 1e-13   # roots closer to threshold are unresolvable
ZERO_TOL = 1e-8       # |Delta_i| below this counts as a vanishing component


@dataclass(frozen=True)
class EsDeterminantParts:
    delta1: float
    delta2: float
    delta3: float
    combined: float


@dataclass
class EigenvalueRecord:
    sector: str
    mu: float
    energy: float
    multiplicity: int
    c1: float | None
    c2: float | None
    residual: float


def delta_rank_one(model, sector, b, mu, *, alpha, spec=None):
    """1 - (b mu/4pi^2) int w^2/(z - e) in sector omega in {os, oa, ea},
    at z = e_max + alpha."""
    if sector not in sectors.RANK_ONE_SECTORS:
        raise ValueError(f"not a rank-one sector: {sector}")
    if b == 0:
        raise ZeroCoupling("coupling b must be nonzero")
    if mu == 0:
        return 1.0
    if alpha <= 0:
        raise BelowThreshold("z must exceed the band top e_max")
    w_sq = sectors.RANK_ONE_WEIGHTS_SQ[sector]
    integral = integrate_resolvent(model, w_sq, k=1, spec=spec, alpha=alpha).value
    return 1.0 - b * mu * integral / FOUR_PI_SQ


def delta_es(model, a, b, mu, *, alpha, spec=None):
    """All components of the rank-two determinant at z = e_max + alpha."""
    if a == 0 or b == 0:
        raise ZeroCoupling("couplings a, b must be nonzero")
    if alpha <= 0:
        raise BelowThreshold("z must exceed the band top e_max")
    i1, i2, i3 = (r.value for r in _integrate(model, sectors.ES_WEIGHTS, alpha, 1, spec))
    d1 = 1.0 - a * mu * i1 / FOUR_PI_SQ
    d2 = 1.0 - b * mu * i2 / FOUR_PI_SQ
    d3 = i3 / FOUR_PI_SQ
    return EsDeterminantParts(delta1=d1, delta2=d2, delta3=d3,
                              combined=d1 * d2 - mu ** 2 * a * b * d3 ** 2)


# ---------------------------------------------------------------------------
# root machinery in x = ln alpha
# ---------------------------------------------------------------------------

def _root(f, alpha_hi, what):
    """(alpha, f(alpha)) at the zero of f, increasing in alpha, in
    [ALPHA_FLOOR, alpha_hi).

    f must be positive at alpha_hi.  x = ln alpha walks down in steps of
    ln 4 to the first sign change, which Brent's method refines in x.  f is
    memoised in x for the search, so Brent's bracket ends and the returned
    value cost no evaluation.
    """
    g = functools.cache(lambda x: f(math.exp(x)))
    x_hi = math.log(alpha_hi)
    if g(x_hi) <= 0:
        raise BracketFailure(f"{what}: determinant not positive at the upper "
                             f"bracket alpha = {alpha_hi:g}")
    while (x_lo := x_hi - math.log(4.0)) >= math.log(ALPHA_FLOOR):
        f_lo = g(x_lo)
        if f_lo == 0.0:
            return math.exp(x_lo), f_lo
        if f_lo < 0:
            x = scipy.optimize.brentq(g, x_lo, x_hi, xtol=1e-12,
                                      rtol=8.9e-16, maxiter=200)
            return math.exp(x), g(x)
        x_hi = x_lo
    raise UnresolvableRoots(f"{what}: no sign change above the floor "
                            f"alpha = {ALPHA_FLOOR:g}")


def _es_branches(parts, a, b, mu):
    """Eigenvalues (lower, upper) of M = [[Delta1/(a mu), -Delta3],
    [-Delta3, Delta2/(b mu)]].  The one of larger modulus comes from the
    trace; the other is det M / it, free of cancellation."""
    m11, m22 = parts.delta1 / (a * mu), parts.delta2 / (b * mu)
    half_tr = 0.5 * (m11 + m22)
    big = half_tr + math.copysign(math.hypot(0.5 * (m11 - m22), parts.delta3),
                                  half_tr)
    small = (m11 * m22 - parts.delta3 ** 2) / big if big != 0.0 else 0.0
    return (small, big) if half_tr >= 0 else (big, small)


# ---------------------------------------------------------------------------
# eigenvalue location
# ---------------------------------------------------------------------------

def find_eigenvalue_rank_one(model, sector, b, mu, spec=None):
    """The unique eigenvalue in a rank-one sector, or None where the count
    table has none."""
    if b == 0:
        raise ZeroCoupling("coupling b must be nonzero")
    if mu <= 0:
        raise ValueError("mu must be positive")
    if b < 0:
        return None
    gamma = getattr(gammas(model, spec=spec), f"gamma_{sector}")
    if not above_threshold(mu, gamma / b):
        return None

    f = lambda al: delta_rank_one(model, sector, b, mu, spec=spec, alpha=al)
    alpha, f_root = _root(f, mu * abs(b) + 1.0,
                          f"{sector} root at b = {b:.17g}, mu = {mu:.17g}")
    return EigenvalueRecord(sector=sector, mu=mu, energy=float(model.e_max) + alpha,
                            multiplicity=1, c1=None, c2=1.0,
                            residual=abs(f_root))


def find_eigenvalues_es(model, a, b, mu, spec=None):
    """Zeros of the rank-two determinant above e_max, per the count table.

    One root is a zero of Delta itself.  Two roots (a, b > 0) are the zero
    crossings of the lower eigenvalue of M (outer root) and of the upper one
    (inner root); a double root, M = 0, is one record of multiplicity 2.
    Both paths read one memo of delta_es parts: each record's residual and
    coefficients come from the parts at its root, with no evaluation.
    """
    if a == 0 or b == 0:
        raise ZeroCoupling("couplings a, b must be nonzero")
    if mu <= 0:
        raise ValueError("mu must be positive")
    mu0_es = coupling_thresholds(model, a, b, spec=spec).mu0["es"]
    expected = es_count(a, b, mu, mu0_es)
    if expected == 0:
        return []

    alpha_hi = mu * max(abs(a), abs(b)) + 1.0
    what = f"es root at (a, b, mu) = ({a:.17g}, {b:.17g}, {mu:.17g})"

    parts = functools.cache(
        lambda al: delta_es(model, a, b, mu, spec=spec, alpha=al))

    def record(alpha):
        pairs = _coefficient_pairs(parts(alpha))
        c1, c2 = (None, None) if len(pairs) == 2 else map(float, pairs[0])
        return EigenvalueRecord(sector="es", mu=mu,
                                energy=float(model.e_max) + alpha,
                                multiplicity=len(pairs), c1=c1, c2=c2,
                                residual=abs(parts(alpha).combined))

    if expected == 1:
        alpha, _ = _root(lambda al: parts(al).combined, alpha_hi, what)
        return [record(alpha)]

    records = []
    for branch, which in ((0, "outer"), (1, "inner")):
        alpha, _ = _root(lambda al: _es_branches(parts(al), a, b, mu)[branch],
                         alpha_hi, f"{which} {what}")
        records.append(record(alpha))
        if records[-1].multiplicity == 2:   # M = 0: both roots in one record
            break
    return records


# ---------------------------------------------------------------------------
# eigenfunctions and multiplicity
# ---------------------------------------------------------------------------

def eigenfunction_es(model, record, a, b, spec=None):
    """Coefficient pairs (c1, c2) of Psi = (c1 + c2 (cos p1 + cos p2))/(E - e).

    Returns a list with one pair, or two basis pairs for a multiplicity-two
    record, from delta_es at its energy; the finder reads its own parts.
    """
    return _coefficient_pairs(delta_es(model, a, b, record.mu, spec=spec,
                                       alpha=record.energy - float(model.e_max)))


def _coefficient_pairs(parts):
    d1, d2, d3 = parts.delta1, parts.delta2, parts.delta3
    if abs(d3) >= ZERO_TOL:
        return [(d1, d3)]
    if abs(d1) >= ZERO_TOL:
        return [(0.0, 1.0)]
    if abs(d2) >= ZERO_TOL:
        return [(1.0, 0.0)]
    return [(1.0, 0.0), (0.0, 1.0)]


def multiplicity_check(model, a, b, mu, z0, spec=None):
    """True iff (mu, z0) is a multiplicity-two zero: all three determinant
    components vanish (below ZERO_TOL), and so does the z-derivative of the
    combination."""
    alpha0 = z0 - float(model.e_max)
    parts = delta_es(model, a, b, mu, spec=spec, alpha=alpha0)
    if max(abs(parts.delta1), abs(parts.delta2), abs(parts.delta3)) >= ZERO_TOL:
        return False
    h = min(0.5 * alpha0, max(1e-6 * alpha0, 1e-10))
    up = delta_es(model, a, b, mu, spec=spec, alpha=alpha0 + h).combined
    dn = delta_es(model, a, b, mu, spec=spec, alpha=alpha0 - h).combined
    return abs((up - dn) / (2 * h)) < 1e-6
