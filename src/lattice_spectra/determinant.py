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

Every search is seeded.  The integrals depend on alpha alone, and each
I_v(alpha) is a Stieltjes function, analytic off the cut, so F_v(s) =
I_v(e^s) has a geometrically convergent Chebyshev interpolant in s = ln alpha
(Trefethen, Approximation Theory and Approximation Practice, 2013, ch. 8).
One table per (model, spec), built by one block pass of the kernel
(torus_quad._integrate_block) at TABLE_POINTS Chebyshev points of s over
[ln ALPHA_FLOOR, ln TABLE_ALPHA_MAX] and kept on the model's fine far level,
holds the searched weights: os and ea, oa unless the model is even per
coordinate, and es's three.  _find locates each branch's zero on these
proxies (bisection on the nodes, Newton on the interpolants; Boyd, Solving
Transcendental Equations, 2014) and hands it to _root as a seed, so every
record still reads a real kernel point, and the same stop rule ends the
search.  A zero outside the table, or a branch whose proxy does not change
sign there, runs _root from the upper bracket as before.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import sectors
from .dispersion import is_even_per_coordinate
from .errors import BelowThreshold, BracketFailure, UnresolvableRoots
from .thresholds import _check_couplings, gammas, sector_count
from .torus_quad import (FOUR_PI_SQ, _integrate, _integrate_block, _node_sets,
                         default_spec, integrate_resolvent)

ALPHA_FLOOR = 1e-13   # roots closer to threshold are unresolvable
ZERO_TOL = 1e-8       # |Delta_i| below this counts as a vanishing component
ROOT_REL_TOL = 1e-12  # Newton stops at a step or bracket this small, relative
MAX_STEPS = 100       # Newton steps per root before UnresolvableRoots
TABLE_POINTS = 128    # Chebyshev points of the proxy table in s = ln alpha
TABLE_ALPHA_MAX = 100.0   # the table covers [ALPHA_FLOOR, TABLE_ALPHA_MAX]
PROXY_STEPS = 30      # safeguarded Newton steps on the proxies per root
PROXY_STEP = 1e-8     # Newton on the proxies stops after a step this small in s


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

def _root(branch, alpha_hi, what, seed=None):
    """alpha at the zero of branch in [ALPHA_FLOOR, alpha_hi).

    branch(alpha) is (value, slope) of an increasing branch of N, positive
    at alpha_hi.  Newton steps from alpha_hi, or from a seed in
    [ALPHA_FLOOR, alpha_hi) (the proxies' root), where alpha_hi, certified
    by the caller, bounds the bracket unevaluated; a step that leaves the
    bracket (lo, hi) of evaluated points below and above the zero takes the
    bracket's geometric midpoint, and the first step below ALPHA_FLOOR
    evaluates the floor instead.  The search stops at a step or a bracket
    below ROOT_REL_TOL relative and returns the last evaluated alpha, so the
    caller's memo of branch holds its point.
    """
    lo, hi = None, alpha_hi
    alpha = alpha_hi if seed is None else seed

    def state():
        return (f"(last alpha = {alpha!r}, N = {value:.3g}, "
                f"bracket ({lo or ALPHA_FLOOR!r}, {hi!r}))")

    value, slope = branch(alpha)
    if seed is None and not value > 0:
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
    table has none.  On a model even per coordinate the oa record is the os
    search's, relabelled: the reflection p2 -> -p2 keeps e and maps w_os
    onto w_oa."""
    if sector not in sectors.RANK_ONE_SECTORS:
        raise ValueError(f"not a rank-one sector: {sector}")
    if sector == "oa" and is_even_per_coordinate(model):
        rec = find_eigenvalue_rank_one(model, "os", b, mu, spec)
        return rec and replace(rec, sector="oa")
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

    proxy = _proxies(model, spec)
    records = []
    for k in range(count):
        seed = proxy.root(lambda values, slopes: branch(values, slopes, upper=k),
                          weights)
        alpha = _root(lambda al: branch(*point(al), upper=k), alpha,
                      what if count == 1 else f"{('outer', 'inner')[k]} {what}",
                      seed if seed is not None and seed < alpha else None)
        multiplicity, c1, c2, residual = fields(point(alpha)[0])
        records.append(EigenvalueRecord(
            sector=sector, mu=mu, energy=float(model.e_max) + alpha,
            multiplicity=multiplicity, c1=c1, c2=c2, residual=residual,
            log_alpha=math.log(alpha)))
        if multiplicity == 2:
            break
    return records


# ---------------------------------------------------------------------------
# Chebyshev proxies in s = ln alpha
# ---------------------------------------------------------------------------

def _table_weights(model):
    """The weights a root search reads: os and ea (and oa, unless the model
    is even per coordinate, where oa's search is os's), then es's three."""
    rank_one = ("os", "ea") if is_even_per_coordinate(model) else ("os", "oa", "ea")
    return (*(sectors.RANK_ONE_WEIGHTS_SQ[s] for s in rank_one), *sectors.ES_WEIGHTS)


@functools.cache
def _chebyshev_nodes(n):
    """The extreme points x_j = cos(pi j / (n - 1)), descending, their
    barycentric weights (-1)^j, halved at both ends, and the degrees
    0 .. n - 2 of the derivative series."""
    weights = (-1.0) ** np.arange(n)
    weights[[0, -1]] *= 0.5
    return np.cos(np.pi * np.arange(n) / (n - 1)), weights, np.arange(n - 1)


@functools.cache
def _chebyshev_basis(n):
    """The matrix that maps values at the extreme points to Chebyshev
    coefficients (DCT-I)."""
    angles = np.pi * np.arange(n) / (n - 1)
    basis = np.cos(np.outer(np.arange(n), angles))     # T_k(x_j)
    basis[:, [0, -1]] *= 0.5
    basis *= 2.0 / (n - 1)
    basis[[0, -1]] *= 0.5
    return basis


@dataclass(frozen=True)
class _Proxies:
    """Chebyshev interpolants in s = ln alpha of (1 + alpha) I_v(alpha) for
    the search's weights v on [ln ALPHA_FLOOR, ln TABLE_ALPHA_MAX]: the node
    values I_v (rows descending in s, real integrals of the block pass),
    (1 + alpha) I_v there, and the Chebyshev coefficients of its d/dx."""
    weights: tuple
    s: np.ndarray
    values: np.ndarray
    scaled: np.ndarray
    dcoef: np.ndarray

    def _at(self, s, scaled, dcoef):
        """(values, k = 2 sums) at s of the interpolants whose node values
        are scaled, columns of (1 + alpha) I, and whose derivative series
        is dcoef: g = (1 + alpha) I by the barycentric formula on the nodes,
        stable to rounding (Higham, IMA J. Numer. Anal. 24, 547 (2004)), and
        dg/ds by the series, whose error only steers Newton."""
        lo, hi = self.s[-1], self.s[0]
        x = min(1.0, max(-1.0, (2 * s - lo - hi) / (hi - lo)))
        nodes, weights, ks = _chebyshev_nodes(len(self.s))
        diff = x - nodes
        if diff.all():
            q = weights / diff
            g = (q @ scaled) / q.sum()
        else:
            g = scaled[np.flatnonzero(diff == 0)[0]]
        dg = (2.0 / (hi - lo)) * (np.cos(math.acos(x) * ks) @ dcoef)
        # J = -dI/dalpha = (g / (1 + alpha) - dg/ds / alpha) / (1 + alpha)
        alpha = math.exp(s)
        i = g / (1 + alpha)
        return i.tolist(), ((i - dg / alpha) / (1 + alpha)).tolist()

    def root(self, branch, weights):
        """The zero of branch(values, slopes) -> (N, dN/dalpha) on the
        interpolants of weights, or None where it does not change sign over
        the table: the sign change on the nodes by bisection (N increases
        with alpha), then safeguarded Newton in s on the interpolants from
        the secant's zero between the two nodes, until a step below
        PROXY_STEP, whose square bounds the error of the step's target."""
        cols = [self.weights.index(v) for v in weights]
        values, scaled, dcoef = (a[:, cols] for a in (self.values, self.scaled, self.dcoef))
        ones = [1.0] * len(cols)

        def n_at(j):
            return branch(values[j].tolist(), ones)[0]

        above, below = 0, len(self.s) - 1   # N > 0 at node above, N <= 0 below
        n_above, n_below = n_at(above), n_at(below)
        if not n_above > 0 or n_below > 0:
            return None
        while below - above > 1:             # N increases with s: bisect
            mid = (above + below) // 2
            n_mid = n_at(mid)
            if n_mid > 0:
                above, n_above = mid, n_mid
            else:
                below, n_below = mid, n_mid
        lo, hi = float(self.s[below]), float(self.s[above])
        s = lo + (hi - lo) * n_below / (n_below - n_above)   # the secant's zero
        for _ in range(PROXY_STEPS):
            value, slope = branch(*self._at(s, scaled, dcoef))
            if value > 0:
                hi = s
            else:
                lo = s
            target = s - value / (slope * math.exp(s)) if slope > 0 else math.nan
            if lo < target < hi:
                if abs(target - s) <= PROXY_STEP:
                    return math.exp(target)
            else:
                target = 0.5 * (lo + hi)
                if hi - lo <= 1e-14 * max(1.0, abs(s)):
                    return math.exp(target)
            s = target
        return math.exp(s)


def _proxies(model, spec):
    """The model's proxy table, built once per (model, spec) by one block
    pass of the kernel at TABLE_POINTS Chebyshev points and kept on its fine
    far level, so that clearing _far_grids drops it."""
    spec = spec or default_spec(model)
    weights = _table_weights(model)

    def build():
        x = _chebyshev_nodes(TABLE_POINTS)[0]
        lo, hi = math.log(ALPHA_FLOOR), math.log(TABLE_ALPHA_MAX)
        s = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
        alphas = np.exp(s)
        values = _integrate_block(model, weights, alphas, spec)
        # (1 + alpha) I is of one scale over the table, ln(1/alpha) at most
        # below and int v above, so the interpolant's rounding is relative
        scaled = values * (1 + alphas[:, None])
        dcoef = np.polynomial.chebyshev.chebder(_chebyshev_basis(TABLE_POINTS) @ scaled)
        return np.concatenate((s[:, None], values, scaled,
                               np.vstack((dcoef, np.zeros_like(dcoef[:1])))), axis=1)

    n, m = TABLE_POINTS, len(weights)
    table = _node_sets(model, spec)[0].table((model, spec), build)
    return _Proxies(weights=weights, s=table[:, 0], values=table[:, 1:1 + m],
                    scaled=table[:, 1 + m:1 + 2 * m], dcoef=table[:n - 1, 1 + 2 * m:])


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
