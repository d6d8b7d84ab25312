"""Fredholm determinants of the rank-one and rank-two sector restrictions,
zero location above the band top, and eigenfunction coefficients.

An energy E = e_max + alpha is an eigenvalue in a rank-one sector iff

    1 - (b mu / 4pi^2) int w_omega(q)^2 / (E - e(q)) dq = 0,

and in the rank-two even-symmetric sector iff the 2x2 determinant

    Delta(mu; E) = Delta1 * Delta2 - mu^2 a b Delta3^2

vanishes, where Delta1 = 1 - (a mu/4pi^2) I[1], Delta2 = 1 - (b mu/4pi^2)
I[(cos q1 + cos q2)^2], Delta3 = (1/4pi^2) I[cos q1 + cos q2] with
I[v] = int v/(E - e).

The roots are the points where N(alpha) = G(alpha)^-1 - mu V is singular,
G = (1/4pi^2) int u u^T/(alpha + d) with d = e_max - e and, in es,
u = (1, cos q1 + cos q2) and V = diag(a, b); a rank-one sector has
u = w_omega, V = b and N = 4pi^2/I[w^2] - b mu.  In es,
Delta = mu^2 a b det((mu V)^-1 - G) and N = G^-1 ((mu V)^-1 - G) mu V, so
Delta and det N vanish together.  Every node weight of the rule is at least
0, so alpha -> G(alpha)^-1 is a parallel sum of terms linear in alpha and
operator-concave (Anderson & Duffin, J. Math. Anal. Appl. 1969), with
dN/dalpha = G^-1 G2 G^-1 positive definite, G2 = (1/4pi^2) int u u^T/(alpha +
d)^2 (the kernel's k = 2 slopes).  So the eigenvalues of N increase with
alpha, and the lower one is concave: Newton started above its zero
overshoots at most once and then climbs monotonically.  By Cauchy-Schwarz
dN/dalpha >= (1/4pi^2 int u u^T)^-1 = 1, so N(alpha) >= N(0+) + alpha.

thresholds.sector_count is the number of negative eigenvalues of N(0+),
and so of roots.  A safeguarded Newton iteration in alpha (_root) finds the
zero of each branch of N from the lowest up, each below the one before:
  * rank-one, from alpha0 = b mu - gamma = b (mu - mu0): N(0) = gamma - b mu
    on the same rule, so N(alpha0) >= 0 bounds the root from above;
  * es, from alpha_hi = mu max(|a|, |b|) + 1, where N is positive definite.
    The single root, or the outer of two, is the zero of the lower
    eigenvalue, the inner root that of the upper one.  A double root is N = 0.
A step that leaves the bracket of evaluated points takes its geometric
midpoint; a step below ALPHA_FLOOR evaluates the floor once, and a branch
still positive there raises UnresolvableRoots.  The search stops at a step
or a bracket below ROOT_REL_TOL relative: near threshold N cancels down to
its rounding floor, where the steps alone would not settle.  Each point of
the search, and multiplicity_check, is one kernel call with slopes: values
and k = 2 sums, no error estimate, so it sums no coarse far level.
"""

import functools
import math
from dataclasses import dataclass

from . import sectors
from .errors import BelowThreshold, BracketFailure, UnresolvableRoots
from .thresholds import _check_couplings, gammas, sector_count
from .torus_quad import FOUR_PI_SQ, _integrate, integrate_resolvent

ALPHA_FLOOR = 1e-13   # roots closer to threshold are unresolvable
ZERO_TOL = 1e-8       # |Delta_i| below this counts as a vanishing component
ROOT_REL_TOL = 1e-12  # Newton stops at a step or bracket this small, relative
MAX_STEPS = 100       # Newton steps per root before UnresolvableRoots


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
    log_alpha: float   # ln(energy - e_max): energy holds alpha to an ulp only


def delta_rank_one(model, sector, b, mu, *, alpha, spec=None):
    """1 - (b mu/4pi^2) int w^2/(z - e) in sector omega in {os, oa, ea},
    at z = e_max + alpha."""
    if sector not in sectors.RANK_ONE_SECTORS:
        raise ValueError(f"not a rank-one sector: {sector}")
    _check_inputs(None, b, mu, alpha)
    if mu == 0:
        return 1.0
    w_sq = sectors.RANK_ONE_WEIGHTS_SQ[sector]
    integral = integrate_resolvent(model, w_sq, k=1, spec=spec, alpha=alpha).value
    return 1.0 - b * mu * integral / FOUR_PI_SQ


def _check_inputs(a, b, mu, alpha):   # a is None in a rank-one sector
    _check_couplings(a, b)
    if not math.isfinite(mu):
        raise ValueError("mu must be finite")
    if not math.isfinite(alpha):   # alpha <= 0 is False for NaN
        raise ValueError("alpha = z - e_max must be finite")
    if alpha <= 0:
        raise BelowThreshold("z must exceed the band top e_max")


def _es_parts(a, b, mu, i1, i2, i3):
    """The determinant components from I[1], I[s^2], I[s]."""
    d1 = 1.0 - a * mu * i1 / FOUR_PI_SQ
    d2 = 1.0 - b * mu * i2 / FOUR_PI_SQ
    d3 = i3 / FOUR_PI_SQ
    return EsDeterminantParts(delta1=d1, delta2=d2, delta3=d3,
                              combined=d1 * d2 - mu ** 2 * a * b * d3 ** 2)


def delta_es(model, a, b, mu, *, alpha, spec=None):
    """All components of the rank-two determinant at z = e_max + alpha."""
    _check_inputs(a, b, mu, alpha)
    return _es_parts(a, b, mu, *(r.value for r in _integrate(
        model, sectors.ES_WEIGHTS, alpha, 1, spec)))


# ---------------------------------------------------------------------------
# safeguarded Newton on a branch of N(alpha) = G(alpha)^-1 - mu V
# ---------------------------------------------------------------------------

def _root(branch, alpha_hi, what):
    """alpha at the zero of branch in [ALPHA_FLOOR, alpha_hi).

    branch(alpha) is (value, slope) of an increasing branch of N, positive
    at alpha_hi.  Newton steps from alpha_hi; a step that leaves the bracket
    (lo, hi) of evaluated points below and above the zero takes the
    bracket's geometric midpoint, and the first step below ALPHA_FLOOR
    evaluates the floor instead.  The search stops at a step or a bracket
    below ROOT_REL_TOL relative and returns the last evaluated alpha, so the
    caller's memo of branch holds its point.
    """
    lo, hi = None, alpha_hi
    alpha = alpha_hi

    def state():
        return (f"(last alpha = {alpha!r}, N = {value:.3g}, "
                f"bracket ({lo or ALPHA_FLOOR!r}, {hi!r}))")

    value, slope = branch(alpha)
    if not value > 0:
        raise BracketFailure(f"{what}: N not positive at the upper bracket "
                             f"{state()}")
    for _ in range(MAX_STEPS):
        if value == 0.0:
            return alpha
        if value > 0:
            hi = alpha
        else:
            lo = alpha
        target = alpha - value / slope if slope > 0 else math.nan
        if (abs(target - alpha) <= ROOT_REL_TOL * alpha
                or lo is not None and hi - lo <= ROOT_REL_TOL * hi):
            return alpha
        if lo is None and target < ALPHA_FLOOR:
            target = ALPHA_FLOOR
        elif not (lo or ALPHA_FLOOR) < target < hi:
            target = math.sqrt((lo or ALPHA_FLOOR) * hi)
        alpha = target
        value, slope = branch(alpha)
        if alpha == ALPHA_FLOOR and value > 0:
            raise UnresolvableRoots(f"{what}: N still positive at the floor "
                                    f"alpha = {ALPHA_FLOOR:g} {state()}")
    raise UnresolvableRoots(f"{what}: no convergence in {MAX_STEPS} steps "
                            f"{state()}")


def _eigen_branch(n, dn, upper):
    """(value, slope) of the lower or upper eigenvalue of the symmetric 2x2
    matrix n = (n11, n22, n12), whose alpha-derivative is dn (a callable
    x -> x^T dN x).  The eigenvalue of larger modulus comes from the trace;
    the other is det / it, free of cancellation."""
    n11, n22, n12 = n
    half_tr = 0.5 * (n11 + n22)
    big = half_tr + math.copysign(math.hypot(0.5 * (n11 - n22), n12), half_tr)
    small = (n11 * n22 - n12 ** 2) / big if big != 0.0 else 0.0
    lower, higher = (small, big) if half_tr >= 0 else (big, small)
    lam = higher if upper else lower
    # an eigenvector: the longer of the two rows of adj(n - lam)
    x = max(((n12, lam - n11), (lam - n22, n12)),
            key=lambda v: v[0] ** 2 + v[1] ** 2)
    norm_sq = x[0] ** 2 + x[1] ** 2
    return lam, dn(x) / norm_sq if norm_sq > 0 else 0.0


# ---------------------------------------------------------------------------
# eigenvalue location
# ---------------------------------------------------------------------------

def find_eigenvalue_rank_one(model, sector, b, mu, spec=None):
    """The unique eigenvalue in a rank-one sector, or None where the count
    table has none."""
    if sector not in sectors.RANK_ONE_SECTORS:
        raise ValueError(f"not a rank-one sector: {sector}")
    return next(iter(_find(model, sector, None, b, mu, spec)), None)


def find_eigenvalues_es(model, a, b, mu, spec=None):
    """Zeros of the rank-two determinant above e_max, per the count table,
    outer root first; a double root is one record of multiplicity 2."""
    return _find(model, "es", a, b, mu, spec)


def _find(model, sector, a, b, mu, spec):
    """Records of the sector_count roots in one sector (a is None in a
    rank-one sector).  Root k is the zero of N's k-th eigenvalue from the
    lowest, searched below root k - 1; a double root (N = 0) ends the
    search.  The searches share one memo of kernel points, and each record's
    residual and coefficients are read off the point at its root.
    sector_count rejects a zero coupling."""
    count = sector_count(model, sector, a, b, mu, spec=spec)
    if count == 0:
        return []
    if sector == "es":
        weights, alpha = sectors.ES_WEIGHTS, mu * max(abs(a), abs(b)) + 1.0
        what = f"es root at (a, b, mu) = ({a:.17g}, {b:.17g}, {mu:.17g})"

        def branch(values, slopes, upper):
            (i1, i2, i3), (j1, j2, j3) = values, slopes
            scale = FOUR_PI_SQ / (i1 * i2 - i3 ** 2)     # G^-1 = scale adj(I)
            g11, g22, g12 = scale * i2, scale * i1, -scale * i3

            def slope(x):   # x^T G^-1 G2 G^-1 x, G2 = [[j1, j3], [j3, j2]]/4pi^2
                y1, y2 = g11 * x[0] + g12 * x[1], g12 * x[0] + g22 * x[1]
                return (j1 * y1 ** 2 + 2 * j3 * y1 * y2 + j2 * y2 ** 2) / FOUR_PI_SQ

            return _eigen_branch((g11 - a * mu, g22 - b * mu, g12), slope, upper)

        def fields(values):   # multiplicity, c1, c2, residual
            parts = _es_parts(a, b, mu, *values)
            pairs = _coefficient_pairs(parts, a, b, mu)
            c1, c2 = (None, None) if len(pairs) == 2 else map(float, pairs[0])
            return len(pairs), c1, c2, abs(parts.combined)
    else:
        gamma = getattr(gammas(model, spec=spec), f"gamma_{sector}")
        weights, alpha = (sectors.RANK_ONE_WEIGHTS_SQ[sector],), b * mu - gamma
        what = f"{sector} root at (b, mu) = ({b:.17g}, {mu:.17g})"

        def branch(values, slopes, upper):   # N = 4pi^2/I - b mu
            (i,), (j,) = values, slopes
            return FOUR_PI_SQ / i - b * mu, FOUR_PI_SQ * j / i ** 2

        def fields(values):
            return 1, None, 1.0, abs(1.0 - b * mu * values[0] / FOUR_PI_SQ)

    @functools.cache
    def point(alpha):
        return _integrate(model, weights, alpha, 1, spec, slopes=True)

    records = []
    for k in range(count):
        alpha = _root(lambda al: branch(*point(al), upper=k), alpha,
                      what if count == 1 else f"{('outer', 'inner')[k]} {what}")
        multiplicity, c1, c2, residual = fields(point(alpha)[0])
        records.append(EigenvalueRecord(
            sector=sector, mu=mu, energy=float(model.e_max) + alpha,
            multiplicity=multiplicity, c1=c1, c2=c2, residual=residual,
            log_alpha=math.log(alpha)))
        if multiplicity == 2:
            break
    return records


# ---------------------------------------------------------------------------
# eigenfunctions and multiplicity
# ---------------------------------------------------------------------------

def eigenfunction_es(model, record, a, b, spec=None):
    """Coefficient pairs (c1, c2) of Psi = (c1 + c2 (cos p1 + cos p2))/(E - e).

    Returns a list with one pair, or two basis pairs for a multiplicity-two
    record, from delta_es at the record's alpha, exp(log_alpha); the finder
    reads its own parts.
    """
    parts = delta_es(model, a, b, record.mu, spec=spec, alpha=math.exp(record.log_alpha))
    return _coefficient_pairs(parts, a, b, record.mu)


def _coefficient_pairs(parts, a, b, mu):
    """(c1, c2) with c1 Delta1 = a mu Delta3 c2 and c2 Delta2 = b mu Delta3 c1
    at an es root: the longer of (a mu Delta3, Delta1) and (Delta2, b mu Delta3)."""
    d1, d2, d3 = parts.delta1, parts.delta2, parts.delta3
    if abs(d3) >= ZERO_TOL:
        return [max(((a * mu * d3, d1), (d2, b * mu * d3)),
                    key=lambda v: v[0] ** 2 + v[1] ** 2)]
    if abs(d1) >= ZERO_TOL:
        return [(0.0, 1.0)]
    if abs(d2) >= ZERO_TOL:
        return [(1.0, 0.0)]
    return [(1.0, 0.0), (0.0, 1.0)]


def multiplicity_check(model, a, b, mu, z0, spec=None):
    """True iff (mu, z0) is a multiplicity-two zero: all three determinant
    components vanish (below ZERO_TOL), and so does the z-derivative of the
    combination.  One kernel call at z0 gives both: with J the k = 2 sums,
    Delta1' = a mu J1/4pi^2, Delta2' = b mu J2/4pi^2, Delta3' = -J3/4pi^2."""
    alpha0 = z0 - float(model.e_max)
    _check_inputs(a, b, mu, alpha0)
    values, (j1, j2, j3) = _integrate(model, sectors.ES_WEIGHTS, alpha0, 1,
                                      spec, slopes=True)
    parts = _es_parts(a, b, mu, *values)
    if max(abs(parts.delta1), abs(parts.delta2), abs(parts.delta3)) >= ZERO_TOL:
        return False
    slope = (a * mu * j1 * parts.delta2 + b * mu * j2 * parts.delta1
             + 2 * mu ** 2 * a * b * parts.delta3 * j3) / FOUR_PI_SQ
    return abs(slope) < 1e-6
