"""Torus quadrature for resolvent-type integrals with a peak at (pi, pi).

Every integral in the artifact has the form

    B(z) = int_T2 v(q) / (z - e(q))^k dq,   z = e_max + alpha,  alpha > 0,

whose integrand develops a peak of width ~ sqrt(alpha) at the dispersion
maximum.  The domain is split by a smooth radial cutoff chi supported on the
ball B_delta(pi_vec):

  * far field, weight (1 - chi): periodic offset trapezoid (spectrally
    accurate for analytic kinds) or a composite Gauss rule with panel edges
    on the kink lines for the piecewise kinds;
  * near field, weight chi: polar coordinates about pi_vec with the radial
    substitution r = sqrt(alpha) sinh(s), which flattens the peak into a
    smooth bounded profile uniformly in alpha down to 1e-13.

The threshold limit alpha -> 0 runs the same rule at alpha = 0.  The far
field is unchanged there, because the deficit is bounded below where
1 - chi is nonzero.  When v vanishes at pi_vec to an order above 2k - 2,
r v / deficit^k is bounded and smooth in polar coordinates, so the near
field takes plain Gauss nodes in r on [0, delta].

Denominators are evaluated as alpha + (e_max - e), with the deficit
e_max - e supplied in a cancellation-free form by the model.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .dispersion import PI, wrap_torus
from .errors import BelowThreshold, NoConvergence, NotIntegrable

FOUR_PI_SQ = 4 * PI ** 2


@dataclass(frozen=True)
class QuadratureSpec:
    grid_n: int = 256          # far-field points per axis
    patch_radius: float = 0.5  # radius delta of the near patch
    radial_tol: float = 1e-10  # relative target for the near-field refinement
    max_refine: int = 6
    n_theta: int = 64          # initial angular points in the near patch
    n_panels: int = 8          # initial radial Gauss panels
    gauss_order: int = 16

    def __post_init__(self):
        if self.grid_n < 32 or self.grid_n % 2:
            raise ValueError("grid_n must be even and >= 32")
        if not 0.0 < self.patch_radius < 1.0:
            raise ValueError("patch_radius must lie in (0, 1)")
        if self.radial_tol <= 0 or self.max_refine < 1:
            raise ValueError("radial_tol > 0 and max_refine >= 1 required")


def default_spec(model, **overrides):
    grid_n = getattr(model, "grid_n_default", 256)
    radius = getattr(model, "analytic_radius", np.inf)
    delta = 0.5 if not np.isfinite(radius) else min(0.5, 0.8 * radius)
    base = QuadratureSpec(grid_n=grid_n, patch_radius=delta)
    return replace(base, **overrides) if overrides else base


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float


# ---------------------------------------------------------------------------
# smooth cutoff
# ---------------------------------------------------------------------------

def _bump(x):
    """exp(-1/x) for x > 0, 0 otherwise; C-infinity at 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def chi_cutoff(r, delta):
    """Smooth radial cutoff: 1 for r <= delta/2, 0 for r >= delta."""
    r = np.asarray(r, dtype=float)
    s = (delta - r) / (delta / 2)
    g1 = _bump(s)
    g2 = _bump(1.0 - s)
    out = g1 / (g1 + g2 + 1e-300)
    out = np.where(r <= delta / 2, 1.0, out)
    return np.where(r >= delta, 0.0, out)


# ---------------------------------------------------------------------------
# far field
# ---------------------------------------------------------------------------

def _axis_nodes_trapezoid(n):
    h = 2 * PI / n
    x = -PI + (np.arange(n) + 0.5) * h
    w = np.full(n, h)
    return x, w

def _axis_nodes_gauss(breakpoints, n_target, order=12):
    """Composite Gauss nodes on [-pi, pi] with panel edges on the kinks."""
    edges = sorted(set([-PI, PI] + [float(b) for b in breakpoints]))
    xg, wg = np.polynomial.legendre.leggauss(order)
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        m = max(2, int(math.ceil((hi - lo) / (2 * PI) * n_target / order)))
        sub = np.linspace(lo, hi, m + 1)
        for a, b in zip(sub[:-1], sub[1:]):
            mid, half = (a + b) / 2, (b - a) / 2
            xs.append(mid + half * xg)
            ws.append(half * wg)
    return np.concatenate(xs), np.concatenate(ws)


def _far_level(model, n, delta, breakpoints):
    if breakpoints is None:
        x, w = _axis_nodes_trapezoid(n)
    else:
        x, w = _axis_nodes_gauss(breakpoints, n)
    p1, p2 = np.meshgrid(x, x, indexing="ij")
    w2 = np.outer(w, w)
    r = np.hypot(wrap_torus(p1 - PI), wrap_torus(p2 - PI))
    weight = w2 * (1.0 - chi_cutoff(r, delta))
    mask = weight > 0
    p1f, p2f = p1[mask], p2[mask]
    # direct subtraction is fine here: e_max - e is bounded below by the
    # deficit at delta/2 on the support of (1 - chi)
    deficit = float(model.e_max) - model.values(p1f, p2f)
    return {"p1": p1f, "p2": p2f, "w": weight[mask], "deficit": deficit,
            "vcache": {}}


@lru_cache(maxsize=32)
def _far_grids(model, grid_n, patch_radius):
    breakpoints = getattr(model, "breakpoints", None)
    fine = _far_level(model, grid_n, patch_radius, breakpoints)
    coarse = _far_level(model, grid_n // 2, patch_radius, breakpoints)
    return (fine, coarse)


def _far_value(level, v, alpha, k):
    key = id(v)
    cached = level["vcache"].get(key)
    if cached is None or cached[0] is not v:
        vals = np.asarray(v(level["p1"], level["p2"]), dtype=float)
        level["vcache"][key] = (v, vals)
        if len(level["vcache"]) > 64:
            level["vcache"].clear()
            level["vcache"][key] = (v, vals)
        cached = (v, vals)
    vv = cached[1]
    den = (alpha + level["deficit"]) ** k
    return float(np.sum(level["w"] * vv / den))


# ---------------------------------------------------------------------------
# near field (polar patch)
# ---------------------------------------------------------------------------

def _near_value(model, v, alpha, k, delta, n_theta, n_panels, order=16):
    """Integral of chi * v / (alpha + deficit)^k over B_delta(pi_vec).

    Returns (value, abs_value) where abs_value integrates the modulus, used
    as a scale for relative-tolerance decisions.
    """
    sq = math.sqrt(alpha)
    smax = float(np.arcsinh(delta / sq)) if alpha > 0 else delta
    xg, wg = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, smax, n_panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    s = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    ws = (half[:, None] * wg[None, :]).ravel()

    if alpha > 0:
        r, jac = sq * np.sinh(s), sq * np.cosh(s)
    else:
        r, jac = s, 1.0

    theta = (np.arange(n_theta) + 0.5) * (2 * PI / n_theta)
    wtheta = 2 * PI / n_theta
    u1 = r[:, None] * np.cos(theta)[None, :]
    u2 = r[:, None] * np.sin(theta)[None, :]
    den = (alpha + model.deficit(u1, u2)) ** k
    vv = np.asarray(v(wrap_torus(PI + u1), wrap_torus(PI + u2)), dtype=float)
    chi = chi_cutoff(r, delta)

    radial_w = ws * r * jac * chi * wtheta
    core = vv / den
    value = float(np.sum(radial_w[:, None] * core))
    abs_value = float(np.sum(radial_w[:, None] * np.abs(core)))
    return value, abs_value


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def integrate_smooth(v, spec=None):
    """Periodic trapezoid integral of v over the torus, with a doubled-grid
    error estimate."""
    spec = spec or QuadratureSpec()

    def level(n):
        x, w = _axis_nodes_trapezoid(n)
        p1, p2 = np.meshgrid(x, x, indexing="ij")
        return float(np.sum(np.outer(w, w) * np.asarray(v(p1, p2), dtype=float)))

    coarse = level(spec.grid_n)
    fine = level(2 * spec.grid_n)
    return IntegralResult(value=fine, error_estimate=abs(fine - coarse))


def integrate_resolvent(model, v, z=None, k=1, spec=None, alpha=None):
    """int v(q) / (z - e(q))^k dq for z = e_max + alpha above the band top.

    Pass ``alpha`` directly when z - e_max is known exactly (root finding
    near threshold); otherwise it is derived from z.
    """
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    if alpha is None:
        if z is None:
            raise ValueError("either z or alpha is required")
        alpha = z - float(model.e_max)
    if alpha <= 0:
        raise BelowThreshold(f"z = e_max + {alpha:g} is not above the band top")
    return _integrate(model, v, alpha, k, spec or default_spec(model))


def _integrate(model, v, alpha, k, spec):
    """Far field plus nested near-field refinement at alpha >= 0."""
    fine, coarse = _far_grids(model, spec.grid_n, spec.patch_radius)
    far = _far_value(fine, v, alpha, k)
    far_err = abs(far - _far_value(coarse, v, alpha, k))

    n_theta, n_panels = spec.n_theta, spec.n_panels
    near, near_abs = _near_value(model, v, alpha, k, spec.patch_radius,
                                 n_theta, n_panels, spec.gauss_order)
    near_err = None
    for _ in range(spec.max_refine):
        n_theta *= 2
        n_panels *= 2
        refined, refined_abs = _near_value(model, v, alpha, k, spec.patch_radius,
                                           n_theta, n_panels, spec.gauss_order)
        near_err = abs(refined - near)
        near, near_abs = refined, refined_abs
        scale = max(abs(far + near), 1e-2 * (abs(far) + near_abs), 1e-300)
        if near_err <= spec.radial_tol * scale:
            break
    else:
        raise NoConvergence(
            f"near-field refinement stalled at change {near_err:g} "
            f"(alpha = {alpha:g}, k = {k})")

    return IntegralResult(value=far + near, error_estimate=far_err + near_err)


def _vanishing_order(v):
    """Order to which v vanishes at pi_vec, read off the decay of max |v|
    from the ring of radius 1e-2 to the ring of radius 1e-3."""
    theta = np.linspace(0.0, 2 * PI, 64, endpoint=False)
    big, small = (float(np.max(np.abs(v(wrap_torus(PI + r * np.cos(theta)),
                                        wrap_torus(PI + r * np.sin(theta))))))
                  for r in (1e-2, 1e-3))
    if small == 0.0:
        return math.inf
    return math.log10(max(big, 1e-300) / small)


def integrate_threshold(model, v, k=1, spec=None):
    """Limit alpha -> 0 of the resolvent integral: int v / (e_max - e)^k dq.

    Evaluated directly at alpha = 0 by the resolvent rule.  The integral
    converges iff v vanishes at pi_vec to an order above 2k - 2; otherwise
    it diverges and NotIntegrable is raised.
    """
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    # analytic weights vanish to integer orders; the ring estimate is
    # accurate to far better than the half-integer margin
    order = _vanishing_order(v)
    if order < 2 * k - 1.5:
        raise NotIntegrable(
            f"threshold integral with k = {k} needs v vanishing to order "
            f"{2 * k - 1} at (pi, pi); it vanishes to order {order:.2g}")
    return _integrate(model, v, 0.0, k, spec or default_spec(model))
