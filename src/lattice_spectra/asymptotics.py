"""Leading near-threshold coefficients and their validation against measured
eigenvalue curves.

The rank-one sectors open linearly in lambda = mu - mu0 (with a logarithmic
correction in the odd sectors, where the natural variable is
tau = lambda / (-ln lambda)).  The rank-two sector opens exponentially: the
small-coupling branch behaves like exp(-1/(J0 (a+4b) mu)) and the branch
emerging at mu0 like exp(-Lambda/lambda), degenerating to a linear law on the
coupling line theta_star a = theta_2star b.

Each fit hands its measured opening alpha = E - e_max, read off a root's
log_alpha (E holds alpha only to an ulp of e_max), to one of three laws:
linear, log-corrected linear or exponential.  The fixed sampling grids are the
module constants LINEAR_LAMBDAS, ODD_LAMBDAS and LOG_ALPHAS.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import sectors
from .determinant import find_eigenvalue_rank_one, find_eigenvalues_es
from .dispersion import PI, morse_data
from .errors import DomainError, FitFailure, UnresolvableRoots
from .thresholds import (NO_THRESHOLD, ThresholdKind, _check_couplings,
                         classify_threshold_solutions, coupling_thresholds,
                         es_constants, gammas)
from .torus_quad import FOUR_PI_SQ, integrate_resolvent, integrate_threshold

ALPHA_WINDOW = (1e-10, 1e-2)   # resolvable and leading-order-dominated
# sampling grids, read at call time; lambdas descend towards threshold
LINEAR_LAMBDAS = np.geomspace(1e-6, 1e-4, 5)[::-1]
ODD_LAMBDAS = np.geomspace(1e-8, 1e-5, 4)[::-1]
LOG_ALPHAS = np.geomspace(1e-6, 1e-3, 8)


@dataclass(frozen=True)
class LeadingCoefficients:
    c_os: float          # None for b <= 0
    c_oa: float
    c_ea: float          # None for b <= 0
    es_exponent_rate: float   # 1/(J0 (a+4b)), None when a+4b <= 0
    Lambda: float        # None when (a+4b)/(ab) <= 0
    c_es_linear: float   # slope on the theta_star a = theta_2star b line, None as Lambda


def _rank_one_coefficient(model, sector, b, spec):
    """c_omega of one rank-one sector at b > 0.  Only c_ea reads an integral
    (its k = 2 one).  os and oa take w ~ g.u near pi_vec, g_os = (1, 1) and
    g_oa = (1, -1), so their law reads s = 2 g^T A^-1 g with A = -Hessian."""
    gamma = getattr(gammas(model, spec=spec), f"gamma_{sector}")
    if sector == "ea":
        i2 = integrate_threshold(model, sectors.w_ea_sq, k=2,
                                 spec=spec).value / FOUR_PI_SQ
        return 1.0 / (b * (gamma / b) ** 2 * i2)
    md = morse_data(model)
    g = np.array([1.0, 1.0 if sector == "os" else -1.0])
    s = 2.0 * g @ np.linalg.solve(-md.hessian_matrix, g)
    return 2.0 / (b * md.j0 * (gamma / b) ** 2 * s)


def leading_coefficients(model, a, b, spec=None):
    """All leading coefficients applicable at the coupling pair (a, b)."""
    _check_couplings(a, b)
    md = morse_data(model)
    g = gammas(model, spec=spec)
    c = {sector: _rank_one_coefficient(model, sector, b, spec) if b > 0
         else None for sector in sectors.RANK_ONE_SECTORS}

    rate = 1.0 / (md.j0 * (a + 4 * b)) if a + 4 * b > 0 else None
    lam = c_es_linear = None
    if (a + 4 * b) / (a * b) > 0:   # es has a threshold
        th = es_constants(model, spec=spec)
        lam = (g.gamma_es ** 2 * (th.theta_star * a - th.theta_2star * b) ** 2
               / (md.j0 * a * b * (a + 4 * b)))
        i2es = integrate_threshold(model, sectors.es_plus_sq, k=2,
                                   spec=spec).value / FOUR_PI_SQ
        c_es_linear = a * b / ((a + 4 * b) * g.gamma_es ** 2 * i2es)

    return LeadingCoefficients(c_os=c["os"], c_oa=c["oa"], c_ea=c["ea"],
                               es_exponent_rate=rate, Lambda=lam,
                               c_es_linear=c_es_linear)


def leading_coefficient(model, sector, a=1.0, b=1.0, spec=None):
    """Single-sector entry; the full record for the rank-two sector.  A
    rank-one coefficient computes only itself."""
    if sector == "es":
        return leading_coefficients(model, a, b, spec=spec)
    _check_couplings(a, b)
    if sector not in sectors.RANK_ONE_SECTORS:
        raise ValueError(f"unknown sector {sector!r}")
    if b <= 0:
        raise DomainError(f"no {sector} threshold for b <= 0")
    return _rank_one_coefficient(model, sector, b, spec)


# ---------------------------------------------------------------------------
# measured curves vs predictions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitReport:
    predicted: float
    measured: float
    relative_error: float
    sample_range: tuple
    residual: float
    samples: tuple   # (x, E - e_max, predicted leading term)


def _report(predicted, measured, xs, residual, samples):
    rel = (abs(measured - predicted) / abs(predicted) if predicted != 0
           else abs(measured))
    return FitReport(predicted=float(predicted), measured=float(measured),
                     relative_error=float(rel),
                     sample_range=(float(min(xs)), float(max(xs))),
                     residual=float(residual), samples=tuple(samples))


def _linear_law(lambdas, opening, c):
    """alpha ~ c lambda: the slope alpha/lambda at the smallest lambda (last
    sample) against c; the residual is the spread of the slopes."""
    samples, slopes = [], []
    for lam in lambdas:
        alpha = opening(lam)
        slopes.append(alpha / lam)
        samples.append((float(lam), float(alpha), float(c * lam)))
    return _report(c, slopes[-1], lambdas, max(slopes) - min(slopes), samples)


def _log_corrected_law(lambdas, opening, c):
    """alpha ~ c tau with tau = lambda / (-ln lambda).  The correction decays
    only like lnln(1/lambda)/ln(1/lambda), so the check is the trend of the
    ratio alpha/(c tau) towards 1, not a tight tolerance."""
    samples, ratios = [], []
    for lam in lambdas:
        tau = lam / (-np.log(lam))
        alpha = opening(lam)
        ratios.append(alpha / (c * tau))
        samples.append((float(lam), float(alpha), float(c * tau)))
    return _report(1.0, ratios[-1], lambdas, abs(ratios[-1] - 1.0), samples)


def _exponential_law(xs, opening, predicted):
    """alpha ~ exp(-predicted/x): ln alpha = -slope/x + intercept fitted over
    the openings inside ALPHA_WINDOW; slope against predicted."""
    keep = [(x, al) for x, al in [(x, opening(x)) for x in xs]
            if ALPHA_WINDOW[0] <= al <= ALPHA_WINDOW[1]]
    if len(keep) < 3:
        raise FitFailure(
            "fewer than 3 samples with E - e_max inside the fit window")
    xs = np.array([-1.0 / x for x, _ in keep])
    ys = np.array([np.log(al) for _, al in keep])
    slope, intercept = np.polyfit(xs, ys, 1)
    res = float(np.max(np.abs(ys - (slope * xs + intercept))))
    samples = [(float(x), float(al), float(np.exp(-slope / x + intercept)))
               for x, al in keep]
    return _report(predicted, slope, [x for x, _ in keep], res, samples)


def fit_eigenvalue_asymptotics(model, sector, a=1.0, b=1.0, spec=None,
                               branch="exponential"):
    """Regression of measured eigenvalue openings against the predicted law.

    ea takes the linear law over LINEAR_LAMBDAS, os and oa the log-corrected
    law over ODD_LAMBDAS.  For sector 'es', ``branch`` selects 'exponential'
    (the small-coupling branch, exponential law in mu over
    [rate/16, rate/4.5]) or 'threshold' (the branch emerging at mu0: linear
    law over LINEAR_LAMBDAS on the theta_star a = theta_2star b line,
    exponential law in lambda over [Lambda/20, Lambda/5] off it).
    """
    if sector in sectors.RANK_ONE_SECTORS:
        mu0 = coupling_thresholds(model, a, b, spec=spec).mu0[sector]
        if mu0 is NO_THRESHOLD:
            raise DomainError(f"no {sector} threshold for b <= 0")
        c = leading_coefficient(model, sector, a, b, spec=spec)

        def opening(lam):
            mu = mu0 + lam
            rec = find_eigenvalue_rank_one(model, sector, b, mu, spec=spec)
            if rec is None:
                # fits sample strictly above threshold, so a missing root
                # means the opening fell inside the at-threshold band
                raise UnresolvableRoots(f"{sector} eigenvalue at mu = "
                                        f"{mu:.17g} is too close to threshold")
            return math.exp(rec.log_alpha)

        if sector == "ea":
            return _linear_law(LINEAR_LAMBDAS, opening, c)
        return _log_corrected_law(ODD_LAMBDAS, opening, c)
    if sector != "es":
        raise ValueError(f"unknown sector {sector!r}")
    if branch not in ("exponential", "threshold"):
        raise ValueError(f"unknown es branch {branch!r}")

    def es_opening(mu, pick):
        # pick = max: the small-coupling (outer) root; min: the emergent one
        recs = find_eigenvalues_es(model, a, b, mu, spec=spec)
        if not recs:
            raise DomainError(f"no es eigenvalue at mu = {mu:g}")
        return math.exp(pick(r.log_alpha for r in recs))

    lc = leading_coefficients(model, a, b, spec=spec)
    if branch == "exponential":
        rate = lc.es_exponent_rate
        if rate is None:
            raise DomainError("exponential branch requires a + 4b > 0")
        return _exponential_law(np.geomspace(rate / 16.0, rate / 4.5, 8),
                                lambda mu: es_opening(mu, max), rate)
    mu0 = coupling_thresholds(model, a, b, spec=spec).mu0["es"]
    if mu0 is NO_THRESHOLD or mu0 <= 0:
        raise DomainError("threshold branch requires (a + 4b)/(ab) > 0")
    emergent = lambda lam: es_opening(mu0 + lam, min)
    if (classify_threshold_solutions(model, a, b, spec=spec).es
            is ThresholdKind.EIGENFUNCTION):
        return _linear_law(LINEAR_LAMBDAS, emergent, lc.c_es_linear)
    return _exponential_law(np.geomspace(lc.Lambda / 20, lc.Lambda / 5, 6),
                            emergent, lc.Lambda)


# ---------------------------------------------------------------------------
# logarithmic coefficient of the resolvent integral
# ---------------------------------------------------------------------------

def extract_log_coefficient(model, v, spec=None):
    """Fit B(e_max + alpha) = p ln(alpha) + q + r alpha over LOG_ALPHAS; p is
    compared against -pi J(psi0) v(pi_vec)."""
    alphas = LOG_ALPHAS
    values = np.array([integrate_resolvent(model, v, k=1, spec=spec,
                                           alpha=al).value for al in alphas])
    design = np.column_stack([np.log(alphas), np.ones_like(alphas), alphas])
    coef, _, _, _ = np.linalg.lstsq(design, values, rcond=None)
    p = float(coef[0])
    fitted = design @ coef
    residual = float(np.max(np.abs(values - fitted)))

    md = morse_data(model)
    v_at_pi = float(np.asarray(v(np.array(PI), np.array(PI))))
    predicted = -PI * md.j_psi0 * v_at_pi
    samples = [(float(al), float(val), float(predicted * np.log(al)))
               for al, val in zip(alphas, values)]
    return _report(predicted, p, alphas, residual, samples)
