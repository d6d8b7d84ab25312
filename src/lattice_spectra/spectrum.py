"""Full discrete spectrum above the band, phase diagram, eigenvalue curves,
and the constructive multiplicity-two example.

The operator decomposes over the four symmetry sectors, so the spectrum is
the union of the three rank-one roots and the zeros of the rank-two
determinant; counts follow the threshold table exactly.  On a model even per
coordinate solve copies the os record to oa and searches no oa root: the
reflection p2 -> -p2 keeps e and maps w_os onto w_oa.  The phase diagram
reads each cell's count off that table and searches no root.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import sectors
from .determinant import find_eigenvalue_rank_one, find_eigenvalues_es
from .dispersion import SteppedPhiA, is_even_per_coordinate
from .errors import (DomainError, NoConvergence, NotEvenPerCoordinate,
                     SignChangeAbsent, ZeroCoupling)
from .thresholds import coupling_thresholds, gammas, sector_count
from .torus_quad import FOUR_PI_SQ, _integrate, integrate_resolvent

TRIPLE_OFFSET_REL = 0.1   # triple_emergence_check's offset from mu0
BRENT_MAXITER = 100       # steps of _brentq, scipy.optimize.brentq's default


@dataclass(frozen=True)
class SpectrumResult:
    records: tuple
    total_count: int

    def sector_counts(self):
        out = {s: 0 for s in sectors.SECTORS}
        for rec in self.records:
            out[rec.sector] += rec.multiplicity
        return out


def solve(model, a, b, mu, spec=None):
    """All eigenvalues above e_max for the coupling triple (a, b, mu)."""
    if a == 0 or b == 0:
        raise ZeroCoupling("couplings a, b must be nonzero")
    os_rec = find_eigenvalue_rank_one(model, "os", b, mu, spec=spec)
    if is_even_per_coordinate(model):   # p2 -> -p2 maps w_os onto w_oa
        oa_rec = os_rec and replace(os_rec, sector="oa")
    else:
        oa_rec = find_eigenvalue_rank_one(model, "oa", b, mu, spec=spec)
    ea_rec = find_eigenvalue_rank_one(model, "ea", b, mu, spec=spec)
    records = [rec for rec in (os_rec, oa_rec, ea_rec) if rec is not None]
    records.extend(find_eigenvalues_es(model, a, b, mu, spec=spec))
    return SpectrumResult(records=tuple(records),
                          total_count=sum(r.multiplicity for r in records))


def predicted_sector_counts(model, a, b, mu, spec=None):
    """Counts predicted by the threshold table (no root finding)."""
    out = {s: sector_count(model, s, a, b, mu, spec=spec)
           for s in sectors.SECTORS}
    out["total"] = sum(out.values())
    return out


# ---------------------------------------------------------------------------
# phase diagram
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseDiagramCell:
    a: float
    b: float
    count: int


@dataclass(frozen=True)
class PhaseDiagram:
    mu: float
    cells: tuple
    boundaries: dict


def phase_diagram(model, mu, a_grid, b_grid, spec=None, threads=None):
    """Eigenvalue counts over an (a, b) grid, plus threshold overlays.

    Each cell's count is the count table's total, predicted_sector_counts,
    which the root finders of solve take their root counts from; no root is
    searched, so no cell raises UnresolvableRoots.  ``threads`` is accepted
    and ignored: the table needs no pool, and existing callers still pass it.
    """
    a_grid = [float(a) for a in a_grid]
    b_grid = [float(b) for b in b_grid]
    if any(a == 0 for a in a_grid) or any(b == 0 for b in b_grid):
        raise ZeroCoupling("grids must exclude a = 0 and b = 0")
    cells = tuple(PhaseDiagramCell(
        a=a, b=b, count=predicted_sector_counts(model, a, b, mu, spec)["total"])
        for a in a_grid for b in b_grid)

    g = gammas(model, spec=spec)
    hyperbola = []
    for a in np.linspace(min(a_grid), max(a_grid), 101):
        den = mu * a - 4 * g.gamma_es
        if a != 0 and den != 0:
            b = a * g.gamma_es / den
            if b != 0:
                hyperbola.append((float(a), float(b)))
    boundaries = {
        "b_os": g.gamma_os / mu,
        "b_oa": g.gamma_oa / mu,
        "b_ea": g.gamma_ea / mu,
        "es_hyperbola": tuple(hyperbola),
    }
    return PhaseDiagram(mu=mu, cells=cells, boundaries=boundaries)


# ---------------------------------------------------------------------------
# eigenvalue curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveReport:
    sector: str
    strictly_increasing: bool
    min_first_difference: float
    min_second_difference: float
    mus: tuple
    energies: tuple


def eigenvalue_curve(model, sector, a, b, mu_grid, spec=None, branch=1):
    """E(mu) along an increasing mu grid in one sector.

    For the rank-two sector, ``branch`` selects the record by descending
    energy (1 = largest).
    """
    if sector not in sectors.SECTORS:
        raise ValueError(f"unknown sector {sector!r}")
    mu_grid = [float(m) for m in mu_grid]
    if any(m2 <= m1 for m1, m2 in zip(mu_grid, mu_grid[1:])):
        raise ValueError("mu grid must be strictly increasing")
    if branch < 1:
        raise ValueError(f"branch must be at least 1, got {branch}")
    energies = []
    for mu in mu_grid:
        if sector in sectors.RANK_ONE_SECTORS:
            rec = find_eigenvalue_rank_one(model, sector, b, mu, spec=spec)
            if rec is None:
                raise DomainError(
                    f"no {sector} eigenvalue at mu = {mu:g} (outside existence range)")
            energies.append(rec.energy)
        else:
            recs = find_eigenvalues_es(model, a, b, mu, spec=spec)
            if len(recs) < branch:
                raise DomainError(
                    f"es branch {branch} absent at mu = {mu:g}")
            energies.append(recs[branch - 1].energy)
    e = np.array(energies)
    d1 = np.diff(e)
    d2 = np.diff(e, 2)
    return CurveReport(sector=sector, mus=tuple(mu_grid), energies=tuple(energies),
                       strictly_increasing=bool(np.all(d1 > 0)),
                       min_first_difference=float(np.min(d1)) if len(d1) else 0.0,
                       min_second_difference=float(np.min(d2)) if len(d2) else 0.0)


# ---------------------------------------------------------------------------
# triple emergence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TripleEmergenceReport:
    b: float
    a: float
    mu0: float
    count_below: int
    count_above: int
    jump: int


def triple_emergence_check(model, b, spec=None):
    """Tune a so the odd-sector and rank-two thresholds coincide, then verify
    the simultaneous release of three eigenvalues across the common threshold.

    The crossing is probed at mu0 (1 +- TRIPLE_OFFSET_REL); the 10% offset
    keeps the exponentially emerging rank-two root resolvable.
    """
    if not is_even_per_coordinate(model):
        raise NotEvenPerCoordinate(
            "triple emergence requires a per-coordinate-even dispersion")
    if b <= 0:
        raise ZeroCoupling("b must be positive")
    g = gammas(model, spec=spec)
    if g.gamma_os <= g.gamma_es:
        raise DomainError("no positive a solves the threshold matching")
    a = 4 * b * g.gamma_es / (g.gamma_os - g.gamma_es)

    ct = coupling_thresholds(model, a, b, spec=spec)
    mu0 = ct.mu0["os"]
    if abs(mu0 - ct.mu0["es"]) > 1e-10 * mu0:
        raise DomainError("threshold matching failed beyond tolerance")

    below = solve(model, a, b, mu0 * (1 - TRIPLE_OFFSET_REL), spec=spec).total_count
    above = solve(model, a, b, mu0 * (1 + TRIPLE_OFFSET_REL), spec=spec).total_count
    return TripleEmergenceReport(b=b, a=a, mu0=mu0, count_below=below,
                                 count_above=above, jump=above - below)


# ---------------------------------------------------------------------------
# multiplicity-two construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplicityTwoConstruction:
    z0: float
    mu: float
    A0: float
    a0: float
    b0: float
    g_residual: float
    verification: tuple  # (|Delta1|, |Delta2|, |Delta3|) at (mu, z0)


def _g_of_a(a_param, z0, spec):
    return integrate_resolvent(SteppedPhiA(a_param=a_param), sectors.es_cos_sum,
                               k=1, spec=spec, alpha=z0 - 1.0).value


def _brentq(f, xa, xb, xtol, rtol):
    """A root of f in [xa, xb], where f(xa) and f(xb) are of opposite signs
    or one is zero, by Brent's method (Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 4) with the steps of scipy's brentq.c:
    inverse quadratic or secant steps inside the bracket [xcur, xblk] while
    they shrink it fast enough, bisection otherwise, until half the bracket
    is below (xtol + rtol |xcur|) / 2.  It returns scipy.optimize.brentq's
    float and evaluates f at the same points."""
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):   # xcur holds the smaller |f|
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:   # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:              # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise NoConvergence(f"no root in [{xa:g}, {xb:g}] after {BRENT_MAXITER} steps")


def multiplicity_two_construct(z0, mu=1.0, spec=None, scan=False, scan_step=1e-3):
    """Find A0 with G_{z0}(A0) = 0 in the stepped family, then the couplings
    (a0, b0) that make z0 a multiplicity-two eigenvalue at coupling mu.

    G_{z0}(A) = int (cos p1 + cos p2)/(z0 - e_A); its zero kills the
    off-diagonal determinant component, and a0, b0 are chosen to zero the two
    diagonal components at the same z0.
    """
    for name, value in (("z0", z0), ("mu", mu)):
        if not math.isfinite(value):   # z0 <= 1.0 and mu <= 0 are False for NaN
            raise ValueError(f"{name} must be finite")
    if z0 <= 1.0:
        raise DomainError("z0 must exceed the family band top e_max = 1")
    if mu <= 0:
        raise ValueError("mu must be positive")
    if scan and not scan_step > 0:
        raise ValueError(f"scan_step must be positive, got {scan_step:g}")

    @functools.cache
    def g(A):
        # brentq's end points and g_residual revisit A already evaluated
        return _g_of_a(A, z0, spec)

    g_lo, g_hi = g(0.0), g(1.0)
    if not (g_lo < 0.0 < g_hi):
        raise SignChangeAbsent(
            f"G(0) = {g_lo:g}, G(1) = {g_hi:g}: no sign change")

    if scan:
        # at most scan_step apart, with both ends of [0, 1] on the grid
        grid = np.linspace(0.0, 1.0, int(np.ceil(1.0 / scan_step)) + 1)
        vals = [g(float(A)) for A in grid]
        brackets = [(grid[i], grid[i + 1]) for i in range(len(grid) - 1)
                    if (vals[i] < 0) != (vals[i + 1] < 0)]
        lo, hi = brackets[0]  # smallest root
    else:
        lo, hi = 0.0, 1.0
    a0_param = _brentq(g, lo, hi, xtol=1e-13, rtol=8.9e-16)
    g_res = g(a0_param)

    # one stacked call at z0; the verification is delta_es's arithmetic
    i1, i2, i3 = (r.value for r in _integrate(SteppedPhiA(a_param=a0_param),
                                              sectors.ES_WEIGHTS, z0 - 1.0, 1, spec))
    a0 = FOUR_PI_SQ / (mu * i1)
    b0 = FOUR_PI_SQ / (mu * i2)
    return MultiplicityTwoConstruction(
        z0=z0, mu=mu, A0=a0_param, a0=a0, b0=b0, g_residual=abs(g_res),
        verification=(abs(1.0 - a0 * mu * i1 / FOUR_PI_SQ),
                      abs(1.0 - b0 * mu * i2 / FOUR_PI_SQ), abs(i3 / FOUR_PI_SQ)))
