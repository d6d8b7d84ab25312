"""Sector constants, coupling thresholds, the count table,
threshold-solution classes and the L2 probe of the threshold profiles.

gamma_omega is the reciprocal of the normalized threshold integral of the
squared sector weight; the coupling threshold in a rank-one sector is
gamma_omega / b (for b > 0), and in the rank-two even-symmetric sector
(a + 4b) gamma_es / (ab) when that is positive.

The count table is sector_count, the negative inertia of N(0+) = lim
G(alpha)^-1 - mu V; predicted_sector_counts and the root finders ask it.

The es threshold data need no integral of their own: with
s = cos q1 + cos q2, w_os^2 + w_oa^2 + w_ea^2 + (2 + s)^2 = 4 (2 + s)
pointwise, so with R = 1/gamma_os + 1/gamma_oa + 1/gamma_ea,
theta_star = (R + 1/gamma_es)/4, theta_2star = 1/gamma_es - R, kappa1 = R.

The probe builds no quadrature of its own: it sums the cached node sets of
torus_quad, outside balls about pi_vec whose radii are the near rule's
graded panel edges.
"""

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import sectors
from .dispersion import is_even_per_coordinate
from .errors import NotIntegrable, NumericalError, ZeroCoupling
from .torus_quad import FOUR_PI_SQ, _integrate, _outside_balls

NO_THRESHOLD = None  # sentinel: no eigenvalue for any coupling in that sector

THETA_LINE_REL = 1e-8    # relative width of the line theta_star a = theta_2star b
PROBE_WINDOW = (1e-9, 0.1)  # range of the probe's radii


@dataclass(frozen=True)
class SectorConstants:
    gamma_os: float
    gamma_oa: float
    gamma_ea: float
    gamma_es: float


@dataclass(frozen=True)
class EsConstants:
    theta_star: float
    theta_2star: float
    kappa1: float


@lru_cache(maxsize=32)
def gammas(model, spec=None):
    """The four sector constants gamma_omega (cached per model).

    A per-coordinate-even model has gamma_os = gamma_oa: the oa integral is
    checked against the os one to 1e-8, then gamma_oa = gamma_os, so the
    count table agrees with solve, which copies the os root to oa there.
    """
    out = {}
    weights = {"os": sectors.w_os_sq, "oa": sectors.w_oa_sq,
               "ea": sectors.w_ea_sq, "es": sectors.es_plus_sq}
    # one stacked threshold integral (alpha = 0) over the four weights
    results = _integrate(model, tuple(weights.values()), 0.0, 1, spec)
    for name, res in zip(weights, results):
        val = res.value / FOUR_PI_SQ
        if val <= 0:
            raise NumericalError(f"threshold integral for {name} not positive")
        out[name] = 1.0 / val
    if is_even_per_coordinate(model):
        if abs(out["os"] - out["oa"]) > 1e-8 * out["os"]:
            raise NumericalError(
                "gamma_os and gamma_oa must coincide for per-coordinate-even models")
        out["oa"] = out["os"]
    return SectorConstants(gamma_os=out["os"], gamma_oa=out["oa"],
                           gamma_ea=out["ea"], gamma_es=out["es"])


@lru_cache(maxsize=32)
def es_constants(model, spec=None):
    """Theta*, Theta**, kappa1 (cached per model) from the four gammas.

    They integrate 2 + s, 2 s (2 + s) and 4 - s^2, s = cos q1 + cos q2, and
    w_os^2 + w_oa^2 + w_ea^2 + (2 + s)^2 = 4 (2 + s) pointwise, so with
    R = 1/gamma_os + 1/gamma_oa + 1/gamma_ea: Theta* = (R + 1/gamma_es)/4,
    Theta** = 1/gamma_es - R and kappa1 = R.
    """
    g = gammas(model, spec=spec)
    r = 1.0 / g.gamma_os + 1.0 / g.gamma_oa + 1.0 / g.gamma_ea
    return EsConstants(theta_star=(r + 1.0 / g.gamma_es) / 4,
                       theta_2star=1.0 / g.gamma_es - r, kappa1=r)


@dataclass(frozen=True)
class CouplingThresholds:
    a: float
    b: float
    mu0: dict          # sector -> threshold, or NO_THRESHOLD sentinel


def _check_couplings(a, b):
    if not math.isfinite(b) or a is not None and not math.isfinite(a):
        raise ValueError("couplings a, b must be finite")
    if a == 0 or b == 0:
        raise ZeroCoupling("couplings a, b must be nonzero reals")


def coupling_thresholds(model, a, b, spec=None):
    _check_couplings(a, b)
    g = gammas(model, spec=spec)
    return CouplingThresholds(a=a, b=b,
                              mu0={s: _mu0(g, s, a, b) for s in sectors.SECTORS})


def _mu0(g, sector, a, b):
    if sector == "es":
        if a < 0 and b < 0:
            return NO_THRESHOLD        # no es root at any mu
        ratio = (a + 4 * b) / (a * b)
        # 0.0 where a b < 0 <= a + 4b: a root at every mu > 0
        return ratio * g.gamma_es if ratio > 0 else 0.0
    return getattr(g, f"gamma_{sector}") / b if b > 0 else NO_THRESHOLD


# ---------------------------------------------------------------------------
# count table
# ---------------------------------------------------------------------------

AT_THRESHOLD_REL = 1e-9


def sector_count(model, sector, a, b, mu, spec=None):
    """Eigenvalues above the band in one sector at mu > 0 (a is unused in a
    rank-one sector): the negative inertia of N(0+) = lim G(alpha)^-1 - mu V,
    each of whose eigenvalues crosses zero once as alpha grows (determinant).

    Rank-one, N(0+) = gamma - b mu: one root iff b > 0 and mu > gamma / b.
    In es, G's entry I[1] diverges along u(pi) = (1, -2), so G^-1 tends to
    gamma_es n n^T, n = (2, 1), and det N(0+) = mu (mu a b - gamma_es (a + 4b))
    vanishes at mu0_es.  For a, b < 0, N(0+) > 0: no root.  For a b < 0,
    -mu V has one positive direction: one root iff det < 0, for every mu if
    a + 4b >= 0, else above mu0_es.  For a, b > 0, N(0+) < 0 orthogonal to
    n: one root, two above mu0_es.  Within a relative AT_THRESHOLD_REL above
    mu0 counts as at threshold: the computed mu0 carries quadrature error,
    and equal thresholds (gamma_os = gamma_oa) differ in their last digits.
    """
    _check_couplings(a, b)
    if not 0 < mu < math.inf:
        raise ValueError("mu must be positive" if mu <= 0 else "mu must be finite")
    mu0 = _mu0(gammas(model, spec=spec), sector, a, b)
    above = mu0 is not NO_THRESHOLD and mu > mu0 * (1 + AT_THRESHOLD_REL)
    if sector != "es":
        return int(above)
    if a < 0 and b < 0:
        return 0
    if a * b < 0:
        return int(a + 4 * b >= 0 or above)
    return 1 + above


class ThresholdKind(enum.Enum):
    RESONANCE = "resonance"
    EIGENFUNCTION = "eigenfunction"
    NO_SOLUTION = "no_solution"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class ThresholdClassification:
    os: ThresholdKind
    oa: ThresholdKind
    ea: ThresholdKind
    es: ThresholdKind


def classify_threshold_solutions(model, a, b, spec=None):
    """Per-sector solution type at the coupling threshold.

    Odd sectors emit a resonance (L1 but not L2 profile), the even
    swap-antisymmetric sector a genuine threshold eigenfunction; the
    rank-two sector has an eigenfunction exactly on the line
    theta_star * a = theta_2star * b and no nonzero solution off it.
    """
    _check_couplings(a, b)
    rank_one = ThresholdKind.RESONANCE if b > 0 else ThresholdKind.NOT_APPLICABLE
    ea = ThresholdKind.EIGENFUNCTION if b > 0 else ThresholdKind.NOT_APPLICABLE
    if (a + 4 * b) / (a * b) > 0:
        th = es_constants(model, spec=spec)
        num = abs(th.theta_star * a - th.theta_2star * b)
        den = abs(th.theta_star * a) + abs(th.theta_2star * b)
        es = (ThresholdKind.EIGENFUNCTION if num <= THETA_LINE_REL * den
              else ThresholdKind.NO_SOLUTION)
    else:
        es = ThresholdKind.NOT_APPLICABLE
    return ThresholdClassification(os=rank_one, oa=rank_one, ea=ea, es=es)


@dataclass(frozen=True)
class GrowthReport:
    sector: str
    classification: str   # "log-divergent" | "convergent"
    slope: float
    r_squared: float
    rs: tuple
    values: tuple
    cauchy_diffs: tuple


def resonance_integrability_probe(model, sector, a=1.0, b=1.0, spec=None):
    """L2 probe of the threshold profile |Phi_omega|^2 = w^2 / deficit^2.

    I(r) = (1/4pi^2) int_{T2 minus B_r} |Phi_omega|^2 at the near rule's
    graded edges r in PROBE_WINDOW is fitted against ln(1/r): a good linear
    fit flags the resonance (log-divergent) case, vanishing Cauchy
    differences over the annuli inside r = 1e-3 the square-integrable case.
    """
    if sector not in sectors.SECTORS:
        raise ValueError(f"unknown sector {sector!r}")
    if sector in sectors.RANK_ONE_SECTORS:
        if b <= 0:
            raise ZeroCoupling("probe requires b > 0 in the rank-one sectors")
    elif (classify_threshold_solutions(model, a, b, spec=spec).es
          is not ThresholdKind.EIGENFUNCTION):
        raise NotIntegrable(
            "es probe requires the threshold-eigenfunction coupling line")
    # on the es eigenfunction line the profile shape reduces to w = es_plus
    w_sq = sectors.RANK_ONE_WEIGHTS_SQ.get(sector, sectors.es_plus_sq)
    rs, values = _outside_balls(model, w_sq, PROBE_WINDOW, spec)
    values = values / FOUR_PI_SQ

    x = np.log(1.0 / rs)
    slope = np.polyfit(x, values, 1)[0]
    r_squared = np.corrcoef(x, values)[0, 1] ** 2  # of the least-squares line
    diffs = tuple(float(d) for d in np.abs(np.diff(values)))
    # convergent when the Cauchy differences over the annuli inside r = 1e-3
    # (by outer radius) vanish, divergent when the log fit explains the growth
    tail = max(d for r, d in zip(rs, diffs) if r <= 1e-3)
    divergent = tail >= 1e-6 and r_squared > 0.999
    return GrowthReport(sector=sector, rs=tuple(float(r) for r in rs),
                        values=tuple(float(v) for v in values),
                        classification="log-divergent" if divergent else "convergent",
                        slope=float(slope), r_squared=float(r_squared),
                        cauchy_diffs=diffs)
