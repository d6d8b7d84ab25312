"""Leading near-threshold coefficients and their validation against measured
eigenvalue curves.

The rank-one sectors open linearly in lambda = mu - mu0 (with a logarithmic
correction in the odd sectors, where the natural variable is
tau = lambda / (-ln lambda)).  The rank-two sector opens exponentially: the
small-coupling branch behaves like exp(-1/(J0 (a+4b) mu)) and the branch
emerging at mu0 like exp(-Lambda/lambda), degenerating to a linear law on the
coupling line theta_star a = theta_2star b.
"""

from dataclasses import dataclass

import numpy as np

from . import sectors
from .determinant import (ALPHA_FLOOR, find_eigenvalue_rank_one,
                          find_eigenvalues_es)
from .dispersion import PI, morse_data
from .errors import (DomainError, FitFailure, NonDiagonalHessian,
                     UnresolvableRoots)
from .thresholds import (NO_THRESHOLD, ThresholdKind,
                         classify_threshold_solutions, coupling_thresholds,
                         es_constants, gammas)
from .torus_quad import (FOUR_PI_SQ, default_spec, integrate_resolvent,
                         integrate_threshold)

ALPHA_WINDOW = (1e-10, 1e-2)   # resolvable and leading-order-dominated


@dataclass(frozen=True)
class LeadingCoefficients:
    c_os: float          # None for non-diagonal Hessians or b <= 0
    c_oa: float
    c_ea: float          # None for b <= 0
    es_exponent_rate: float   # 1/(J0 (a+4b)), None when a+4b <= 0
    Lambda: float        # None when (a+4b)/(ab) <= 0
    c_es_linear: float   # slope on the theta_star a = theta_2star b line, None as Lambda


def leading_coefficients(model, a, b, spec=None):
    """All leading coefficients applicable at the coupling pair (a, b)."""
    md = morse_data(model)
    g = gammas(model, spec=spec)

    c_os = c_oa = c_ea = None
    if b > 0:
        if md.psi_deriv_sq is not None:
            s = md.psi_deriv_sq[0] + md.psi_deriv_sq[1]
            c_os = 2.0 / (b * md.j0 * (g.gamma_os / b) ** 2 * s)
            c_oa = 2.0 / (b * md.j0 * (g.gamma_oa / b) ** 2 * s)
        i2 = integrate_threshold(model, sectors.w_ea_sq, k=2,
                                 spec=spec).value / FOUR_PI_SQ
        c_ea = 1.0 / (b * (g.gamma_ea / b) ** 2 * i2)

    rate = 1.0 / (md.j0 * (a + 4 * b)) if a + 4 * b > 0 else None
    lam = c_es_linear = None
    if (a + 4 * b) / (a * b) > 0:   # es has a threshold
        th = es_constants(model, spec=spec)
        lam = (g.gamma_es ** 2 * (th.theta_star * a - th.theta_2star * b) ** 2
               / (md.j0 * a * b * (a + 4 * b)))
        i2es = integrate_threshold(model, sectors.es_plus_sq, k=2,
                                   spec=spec).value / FOUR_PI_SQ
        c_es_linear = a * b / ((a + 4 * b) * g.gamma_es ** 2 * i2es)

    return LeadingCoefficients(c_os=c_os, c_oa=c_oa, c_ea=c_ea,
                               es_exponent_rate=rate, Lambda=lam,
                               c_es_linear=c_es_linear)


def leading_coefficient(model, sector, a=1.0, b=1.0, spec=None):
    """Single-sector entry; the full record for the rank-two sector."""
    lc = leading_coefficients(model, a, b, spec=spec)
    if sector == "es":
        return lc
    if sector not in sectors.RANK_ONE_SECTORS:
        raise ValueError(f"unknown sector {sector!r}")
    if b <= 0:
        raise DomainError(f"no {sector} threshold for b <= 0")
    val = getattr(lc, f"c_{sector}")
    if val is None:
        raise NonDiagonalHessian(
            "c_os/c_oa require a diagonal Hessian at the maximizer")
    return val


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


def _alpha_or_raise(energy, e_max):
    alpha = energy - e_max
    if alpha < ALPHA_FLOOR:
        raise UnresolvableRoots(
            f"E - e_max = {alpha:.3g} below the resolvable floor")
    return alpha


def _rank_one_alpha(model, sector, b, mu, spec, e_max):
    rec = find_eigenvalue_rank_one(model, sector, b, mu, spec=spec)
    if rec is None:
        # fits sample strictly above threshold, so a missing root means the
        # opening fell inside the count table's at-threshold band
        raise UnresolvableRoots(
            f"{sector} eigenvalue at mu = {mu:.17g} is too close to threshold")
    return _alpha_or_raise(rec.energy, e_max)


def fit_eigenvalue_asymptotics(model, sector, a=1.0, b=1.0, sample_spec=None,
                               spec=None, branch="exponential"):
    """Regression of measured eigenvalue openings against the predicted law.

    sample_spec is a sequence of lambda offsets (rank-one sectors, es
    threshold branches) or of mu values (es exponential branch); defaults
    are chosen so the openings stay inside the resolvable window.
    For sector 'es', ``branch`` selects 'exponential' (small coupling) or
    'threshold' (the branch emerging at mu0, automatically linear on the
    theta_star a = theta_2star b line).
    """
    e_max = float(model.e_max)
    if sector in sectors.RANK_ONE_SECTORS:
        return _fit_rank_one(model, sector, a, b, sample_spec, spec, e_max)
    if sector != "es":
        raise ValueError(f"unknown sector {sector!r}")
    if branch == "exponential":
        return _fit_es_exponential(model, a, b, sample_spec, spec, e_max)
    if branch == "threshold":
        return _fit_es_threshold(model, a, b, sample_spec, spec, e_max)
    raise ValueError(f"unknown es branch {branch!r}")


def _fit_rank_one(model, sector, a, b, sample_spec, spec, e_max):
    ct = coupling_thresholds(model, a, b, spec=spec)
    mu0 = ct.mu0[sector]
    if mu0 is NO_THRESHOLD:
        raise DomainError(f"no {sector} threshold for b <= 0")
    if sample_spec is not None and np.any(np.asarray(sample_spec) <= 0):
        raise ValueError("lambda samples must be positive")

    if sector == "ea":
        lambdas = np.sort(np.asarray(
            sample_spec if sample_spec is not None
            else np.geomspace(1e-6, 1e-4, 5), dtype=float))[::-1]
        c = leading_coefficient(model, "ea", a, b, spec=spec)
        samples, slopes = [], []
        for lam in lambdas:
            alpha = _rank_one_alpha(model, sector, b, mu0 + lam, spec, e_max)
            slopes.append(alpha / lam)
            samples.append((float(lam), float(alpha), float(c * lam)))
        residual = max(slopes) - min(slopes)
        return _report(c, slopes[-1], lambdas, residual, samples)

    # odd sectors: the natural variable is tau = lambda / (-ln lambda); the
    # correction decays only like lnln(1/lambda)/ln(1/lambda), so the check
    # is a trend ratio, not a tight tolerance
    lambdas = np.sort(np.asarray(
        sample_spec if sample_spec is not None
        else np.geomspace(1e-8, 1e-5, 4), dtype=float))[::-1]
    c = leading_coefficient(model, sector, a, b, spec=spec)
    samples, ratios = [], []
    for lam in lambdas:
        tau = lam / (-np.log(lam))
        alpha = _rank_one_alpha(model, sector, b, mu0 + lam, spec, e_max)
        ratios.append(alpha / (c * tau))
        samples.append((float(lam), float(alpha), float(c * tau)))
    residual = abs(ratios[-1] - 1.0)
    return _report(1.0, ratios[-1], lambdas, residual, samples)


def _es_window_filter(mus_or_lams, alphas):
    keep = [(x, al) for x, al in zip(mus_or_lams, alphas)
            if ALPHA_WINDOW[0] <= al <= ALPHA_WINDOW[1]]
    if len(keep) < 3:
        raise FitFailure(
            "fewer than 3 samples with E - e_max inside the fit window")
    return keep


def _fit_es_exponential(model, a, b, sample_spec, spec, e_max):
    lc = leading_coefficients(model, a, b, spec=spec)
    rate = lc.es_exponent_rate
    if rate is None:
        raise DomainError("exponential branch requires a + 4b > 0")
    mus = np.sort(np.asarray(
        sample_spec if sample_spec is not None
        else np.geomspace(rate / 16.0, rate / 4.5, 8), dtype=float))
    alphas = []
    for mu in mus:
        recs = find_eigenvalues_es(model, a, b, mu, spec=spec)
        if not recs:
            raise DomainError(f"no es eigenvalue at mu = {mu:g}")
        alphas.append(_alpha_or_raise(recs[0].energy, e_max))
    keep = _es_window_filter(mus, alphas)
    xs = np.array([-1.0 / mu for mu, _ in keep])
    ys = np.array([np.log(al) for _, al in keep])
    slope, intercept = np.polyfit(xs, ys, 1)
    res = float(np.max(np.abs(ys - (slope * xs + intercept))))
    samples = [(float(mu), float(al), float(np.exp(-slope / mu + intercept)))
               for mu, al in keep]
    return _report(rate, slope, [mu for mu, _ in keep], res, samples)


def _fit_es_threshold(model, a, b, sample_spec, spec, e_max):
    lc = leading_coefficients(model, a, b, spec=spec)
    ct = coupling_thresholds(model, a, b, spec=spec)
    mu0 = ct.mu0["es"]
    if mu0 <= 0:
        raise DomainError("threshold branch requires (a + 4b)/(ab) > 0")
    on_line = (classify_threshold_solutions(model, a, b, spec=spec).es
               is ThresholdKind.EIGENFUNCTION)

    def emergent_alpha(mu):
        recs = find_eigenvalues_es(model, a, b, mu, spec=spec)
        if not recs:
            raise DomainError(f"no es eigenvalue at mu = {mu:g}")
        return _alpha_or_raise(min(r.energy for r in recs), e_max)

    if on_line:
        lambdas = np.sort(np.asarray(
            sample_spec if sample_spec is not None
            else np.geomspace(1e-6, 1e-4, 5), dtype=float))[::-1]
        c = lc.c_es_linear
        samples, slopes = [], []
        for lam in lambdas:
            alpha = emergent_alpha(mu0 + lam)
            slopes.append(alpha / lam)
            samples.append((float(lam), float(alpha), float(c * lam)))
        residual = max(slopes) - min(slopes)
        return _report(c, slopes[-1], lambdas, residual, samples)

    lam_big = lc.Lambda
    lambdas = np.sort(np.asarray(
        sample_spec if sample_spec is not None
        else np.geomspace(lam_big / 20.0, lam_big / 5.0, 6), dtype=float))
    alphas = [emergent_alpha(mu0 + lam) for lam in lambdas]
    keep = _es_window_filter(lambdas, alphas)
    xs = np.array([-1.0 / lam for lam, _ in keep])
    ys = np.array([np.log(al) for _, al in keep])
    slope, intercept = np.polyfit(xs, ys, 1)
    res = float(np.max(np.abs(ys - (slope * xs + intercept))))
    samples = [(float(lam), float(al),
                float(np.exp(-slope / lam + intercept)))
               for lam, al in keep]
    return _report(lam_big, slope, [lam for lam, _ in keep], res, samples)


# ---------------------------------------------------------------------------
# logarithmic coefficient of the resolvent integral
# ---------------------------------------------------------------------------

def extract_log_coefficient(model, v, alpha_grid=None, spec=None):
    """Fit B(e_max + alpha) = p ln(alpha) + q + r alpha over a geometric
    alpha grid; p is compared against -pi J(psi0) v(pi_vec)."""
    alphas = np.sort(np.asarray(
        alpha_grid if alpha_grid is not None
        else np.geomspace(1e-6, 1e-3, 8), dtype=float))
    if len(alphas) < 6:
        raise ValueError("alpha grid needs at least 6 points")
    sp = spec if spec is not None else default_spec(model)
    values = np.array([integrate_resolvent(model, v, k=1, spec=sp,
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
