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
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from . import sectors
from .errors import (BelowThreshold, BracketFailure, UnresolvableRoots,
                     ZeroCoupling)
from .thresholds import (above_threshold, coupling_thresholds, es_count,
                         gammas)
from .torus_quad import FOUR_PI_SQ, default_spec, integrate_resolvent

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
    near_degenerate: bool = False

    def as_dict(self):
        return {"sector": self.sector, "mu": self.mu, "energy": self.energy,
                "multiplicity": self.multiplicity, "c1": self.c1, "c2": self.c2,
                "residual": self.residual}


def _alpha_of(model, z, alpha):
    if alpha is None:
        if z is None:
            raise ValueError("either z or alpha is required")
        alpha = z - float(model.e_max)
    if alpha <= 0:
        raise BelowThreshold("z must exceed the band top e_max")
    return alpha


def delta_rank_one(model, sector, b, mu, z=None, spec=None, alpha=None):
    """1 - (b mu/4pi^2) int w^2/(z - e) in sector omega in {os, oa, ea}."""
    if sector not in sectors.RANK_ONE_SECTORS:
        raise ValueError(f"not a rank-one sector: {sector}")
    if b == 0:
        raise ZeroCoupling("coupling b must be nonzero")
    if mu == 0:
        return 1.0
    alpha = _alpha_of(model, z, alpha)
    spec = spec or default_spec(model)
    w_sq = sectors.RANK_ONE_WEIGHTS_SQ[sector]
    integral = integrate_resolvent(model, w_sq, k=1, spec=spec, alpha=alpha).value
    return 1.0 - b * mu * integral / FOUR_PI_SQ


def delta_es(model, a, b, mu, z=None, spec=None, alpha=None):
    """All components of the rank-two determinant at z = e_max + alpha."""
    if a == 0 or b == 0:
        raise ZeroCoupling("couplings a, b must be nonzero")
    alpha = _alpha_of(model, z, alpha)
    spec = spec or default_spec(model)
    i1 = integrate_resolvent(model, sectors.es_one, k=1, spec=spec, alpha=alpha).value
    i2 = integrate_resolvent(model, sectors.es_cos_sum_sq, k=1, spec=spec, alpha=alpha).value
    i3 = integrate_resolvent(model, sectors.es_cos_sum, k=1, spec=spec, alpha=alpha).value
    d1 = 1.0 - a * mu * i1 / FOUR_PI_SQ
    d2 = 1.0 - b * mu * i2 / FOUR_PI_SQ
    d3 = i3 / FOUR_PI_SQ
    return EsDeterminantParts(delta1=d1, delta2=d2, delta3=d3,
                              combined=d1 * d2 - mu ** 2 * a * b * d3 ** 2)


# ---------------------------------------------------------------------------
# root machinery in x = ln alpha
# ---------------------------------------------------------------------------

def _descend_bracket(f, alpha_hi, f_hi, floor=ALPHA_FLOOR, factor=0.25):
    """Walk alpha down geometrically until f changes sign; return the bracket
    (alpha_lo, alpha_hi_local, f_lo, f_hi_local) or None if no change."""
    a_prev, f_prev = alpha_hi, f_hi
    a = alpha_hi * factor
    while a >= floor:
        fa = f(a)
        if fa == 0.0:
            return (a, a, fa, fa)
        if (fa < 0) != (f_prev < 0):
            return (a, a_prev, fa, f_prev)
        a_prev, f_prev = a, fa
        a *= factor
    return None


def _refine(f, a_lo, a_hi, f_lo=None, f_hi=None):
    if a_lo == a_hi:
        return a_lo
    x = scipy.optimize.brentq(lambda s: f(math.exp(s)),
                              math.log(a_lo), math.log(a_hi),
                              xtol=1e-12, rtol=8.9e-16, maxiter=200)
    return math.exp(x)


def _alpha_cap(mu, a, b):
    return mu * max(abs(a), abs(b)) + 1.0


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

    spec = spec or default_spec(model)
    f = lambda al: delta_rank_one(model, sector, b, mu, spec=spec, alpha=al)
    alpha_hi = mu * abs(b) + 1.0
    f_hi = f(alpha_hi)
    if f_hi <= 0:
        raise BracketFailure("determinant not positive at the upper bracket")
    br = _descend_bracket(f, alpha_hi, f_hi)
    if br is None:
        raise BracketFailure(
            f"no sign change found above alpha = {ALPHA_FLOOR:g} in sector {sector}")
    alpha = _refine(f, br[0], br[1])
    return EigenvalueRecord(sector=sector, mu=mu, energy=float(model.e_max) + alpha,
                            multiplicity=1, c1=None, c2=1.0,
                            residual=abs(f(alpha)))


def find_eigenvalues_es(model, a, b, mu, spec=None):
    """Zeros of the rank-two determinant above e_max, per the count table."""
    if a == 0 or b == 0:
        raise ZeroCoupling("couplings a, b must be nonzero")
    if mu <= 0:
        raise ValueError("mu must be positive")
    spec = spec or default_spec(model)
    mu0_es = coupling_thresholds(model, a, b, spec=spec).mu0["es"]
    expected = es_count(a, b, mu, mu0_es)
    if expected == 0:
        return []

    e_max = float(model.e_max)
    f = lambda al: delta_es(model, a, b, mu, spec=spec, alpha=al).combined
    alpha_hi = _alpha_cap(mu, a, b)
    f_hi = f(alpha_hi)
    if f_hi <= 0:
        raise BracketFailure("es determinant not positive at the upper bracket")

    if expected == 1:
        br = _descend_bracket(f, alpha_hi, f_hi)
        if br is None:
            raise BracketFailure("no sign change for the expected es eigenvalue")
        alpha = _refine(f, br[0], br[1])
        rec = EigenvalueRecord(sector="es", mu=mu, energy=e_max + alpha,
                               multiplicity=1, c1=None, c2=None,
                               residual=abs(f(alpha)))
        _attach_coefficients(model, rec, a, b, spec)
        return [rec]

    # two-root case (a, b > 0, mu > mu0_es): bracket through the roots of the
    # diagonal factors, where the combined determinant is <= 0
    f1 = lambda al: 1.0 - a * mu * integrate_resolvent(
        model, sectors.es_one, k=1, spec=spec, alpha=al).value / FOUR_PI_SQ
    f2 = lambda al: 1.0 - b * mu * integrate_resolvent(
        model, sectors.es_cos_sum_sq, k=1, spec=spec, alpha=al).value / FOUR_PI_SQ
    pivots = []
    for g in (f1, f2):
        g_hi = g(alpha_hi)
        if g_hi <= 0:
            raise BracketFailure("diagonal factor not positive at the upper bracket")
        br = _descend_bracket(g, alpha_hi, g_hi)
        if br is None:
            raise BracketFailure("diagonal factor root not found")
        pivots.append(_refine(g, br[0], br[1]))
    a_lo, a_up = sorted(pivots)

    f_lo_pivot, f_up_pivot = f(a_lo), f(a_up)
    roots = []
    near_deg = abs(a_up - a_lo) < 1e-9 * max(a_up, 1e-9)
    if near_deg and max(abs(f_lo_pivot), abs(f_up_pivot)) < ZERO_TOL ** 2:
        rec = EigenvalueRecord(sector="es", mu=mu, energy=e_max + 0.5 * (a_lo + a_up),
                               multiplicity=2, c1=None, c2=None,
                               residual=max(abs(f_lo_pivot), abs(f_up_pivot)),
                               near_degenerate=True)
        _attach_coefficients(model, rec, a, b, spec)
        return [rec]

    # outer root in [a_up, alpha_hi]
    if f_up_pivot == 0.0:
        roots.append(a_up)
    else:
        roots.append(_refine(f, a_up, alpha_hi))
    # inner root in [floor, a_lo]
    if f_lo_pivot == 0.0:
        roots.append(a_lo)
    else:
        f_floor = f(ALPHA_FLOOR)
        if (f_floor < 0) == (f_lo_pivot < 0):
            raise UnresolvableRoots(
                "near-threshold es root below working precision "
                f"(alpha < {ALPHA_FLOOR:g})")
        roots.append(_refine(f, ALPHA_FLOOR, a_lo, f_floor, f_lo_pivot))

    records = []
    for alpha in sorted(roots, reverse=True):
        rec = EigenvalueRecord(sector="es", mu=mu, energy=e_max + alpha,
                               multiplicity=1, c1=None, c2=None,
                               residual=abs(f(alpha)))
        records.append(rec)
    if abs(records[0].energy - records[1].energy) < 1e-9:
        for rec in records:
            rec.near_degenerate = True
    for rec in records:
        _attach_coefficients(model, rec, a, b, spec)
    return records


# ---------------------------------------------------------------------------
# eigenfunctions and multiplicity
# ---------------------------------------------------------------------------

def eigenfunction_es(model, record, a, b, spec=None):
    """Coefficient pairs (c1, c2) of Psi = (c1 + c2 (cos p1 + cos p2))/(E - e).

    Returns a list with one pair, or two basis pairs for a multiplicity-two
    record.
    """
    spec = spec or default_spec(model)
    parts = delta_es(model, a, b, record.mu, spec=spec,
                     alpha=record.energy - float(model.e_max))
    d1, d2, d3 = parts.delta1, parts.delta2, parts.delta3
    if abs(d3) >= ZERO_TOL:
        return [(d1, d3)]
    if abs(d1) >= ZERO_TOL:
        return [(0.0, 1.0)]
    if abs(d2) >= ZERO_TOL:
        return [(1.0, 0.0)]
    return [(1.0, 0.0), (0.0, 1.0)]


def _attach_coefficients(model, record, a, b, spec):
    pairs = eigenfunction_es(model, record, a, b, spec=spec)
    if len(pairs) == 2:
        record.multiplicity = 2
        record.c1, record.c2 = None, None
    else:
        record.c1, record.c2 = float(pairs[0][0]), float(pairs[0][1])


def multiplicity_check(model, a, b, mu, z0, tol=ZERO_TOL, spec=None):
    """True iff (mu, z0) is a multiplicity-two zero: all three determinant
    components vanish, and so does the z-derivative of the combination."""
    spec = spec or default_spec(model)
    alpha0 = _alpha_of(model, z0, None)
    parts = delta_es(model, a, b, mu, spec=spec, alpha=alpha0)
    if max(abs(parts.delta1), abs(parts.delta2), abs(parts.delta3)) >= tol:
        return False
    h = min(0.5 * alpha0, max(1e-6 * alpha0, 1e-10))
    up = delta_es(model, a, b, mu, spec=spec, alpha=alpha0 + h).combined
    dn = delta_es(model, a, b, mu, spec=spec, alpha=alpha0 - h).combined
    return abs((up - dn) / (2 * h)) < 1e-6
