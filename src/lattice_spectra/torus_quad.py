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
    smooth bounded profile uniformly in alpha down to 1e-13.  The radial
    Gauss panels break at r = delta/2, where chi starts to fall, so both
    sides are smooth at every alpha.  In angle the periodic trapezoid rule
    converges geometrically (Trefethen & Weideman, SIAM Rev. 2014), and its
    every-other-node subrule gives an angular error estimate for free.
    Each refinement pass doubles the radial panels; it doubles the angular
    nodes only when that estimate is above the tolerance.  An integral has
    converged when the radial change plus the angular estimate is below
    radial_tol times its scale.

The threshold limit alpha -> 0 runs the same rule at alpha = 0.  The far
field is unchanged there, because the deficit is bounded below where
1 - chi is nonzero.  When v vanishes at pi_vec to an order above 2k - 2,
r v / deficit^k is bounded and smooth in polar coordinates, so the near
field takes plain Gauss nodes in r on [0, delta].

Denominators are evaluated as alpha + (e_max - e), with the deficit
e_max - e supplied in a cancellation-free form by the model.

The kernel _integrate takes a stack of weights at one (alpha, k), e.g. the
three of the rank-two determinant; integrate_resolvent and
integrate_threshold are its one-weight case.  The weights share each far
level's denominator and each near-field pass's nodes, built once per
(n_theta, n_panels); each refines and stops on its own, as it would alone.

The far-field node set (nodes, weights, 1 - chi) depends only on
(grid_n, patch_radius, breakpoints), so every model with that key shares
one, e.g. the whole SteppedPhiA(A) family that the multiplicity-two
construction tunes.  Per model it keeps only the deficit on its nodes, and
per weight function v the product w * v of the rule's weights and v's
values; both sit in small bounded read-only maps on the node set, so
clearing _far_grids drops every far-field array.  A far sum then builds one
temporary, the denominator raised and divided into in place; a stack adds one.
"""

import math
import threading
from dataclasses import dataclass, replace
from functools import cache, lru_cache

import numpy as np

from .dispersion import PI, wrap_torus
from .errors import BelowThreshold, NoConvergence, NotIntegrable

FOUR_PI_SQ = 4 * PI ** 2

MAX_REFINE = 6        # near-field refinement passes
N_THETA = 32          # initial angular trapezoid points in the near patch
                      # (even: the subrule takes half)
N_PANELS = 4          # initial radial Gauss panels on each side of
                      # r = delta/2, where chi starts to fall
GAUSS_ORDER = 16      # Gauss points per radial panel
FAR_GAUSS_ORDER = 12  # Gauss points per far-field panel on a kinked model


@dataclass(frozen=True)
class QuadratureSpec:
    """The settable part of the rule.  The near-field rule is fixed by the
    module constants MAX_REFINE, N_THETA, N_PANELS and GAUSS_ORDER, read at
    call time."""

    grid_n: int = 256          # far-field points per axis
    patch_radius: float = 0.5  # radius delta of the near patch
    radial_tol: float = 1e-10  # relative target for the near-field refinement

    def __post_init__(self):
        if self.grid_n < 32 or self.grid_n % 2:
            raise ValueError("grid_n must be even and >= 32")
        if not 0.0 < self.patch_radius < 1.0:
            raise ValueError("patch_radius must lie in (0, 1)")
        if self.radial_tol <= 0:
            raise ValueError("radial_tol must be positive")


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


@lru_cache(maxsize=None)
def _gauss_legendre(order):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order
    (leggauss is an eigenvalue solve)."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _panel_nodes(edges, order):
    """Composite Gauss nodes and weights on the panels between consecutive
    edges."""
    xg, wg = _gauss_legendre(order)
    mid = (edges[:-1] + edges[1:]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    return ((mid[:, None] + half[:, None] * xg[None, :]).ravel(),
            (half[:, None] * wg[None, :]).ravel())


def _panel_counts(edges, n_target):
    """Gauss panels per segment between consecutive kinks for about
    n_target nodes on [-pi, pi], at least 2 per segment."""
    return [max(2, int(math.ceil((hi - lo) / (2 * PI) * n_target / FAR_GAUSS_ORDER)))
            for lo, hi in zip(edges[:-1], edges[1:])]


def _axis_nodes_gauss(edges, counts):
    """Composite Gauss nodes on [-pi, pi], counts[i] uniform panels of
    FAR_GAUSS_ORDER points on the segment [edges[i], edges[i + 1]] between
    kinks."""
    starts = [np.linspace(lo, hi, m + 1)[:-1]
              for lo, hi, m in zip(edges[:-1], edges[1:], counts)]
    return _panel_nodes(np.append(np.concatenate(starts), PI), FAR_GAUSS_ORDER)


class _FarLevel:
    """One far-field node set: the axis nodes x of the tensor grid, the
    mask of the grid nodes where 1 - chi > 0, and the masked nodes p1, p2
    with their weights w (the rule's weights times 1 - chi).  None of it
    depends on the model.

    Two small maps ride on it, each written under the level's lock (two
    threads may compute the same entry; both get equal arrays).  Their
    arrays are read-only, so no in-place operation can write into an array
    that threads share:
      * deficits, model -> e_max - e on the masked nodes, the last
        DEFICITS_KEPT models;
      * vcache, weight function v -> w * v on the masked nodes, the last
        VALUES_KEPT weights.  A weight is a function of p alone, so these
        products serve every model of the family.
    """

    DEFICITS_KEPT = 4
    VALUES_KEPT = 64

    def __init__(self, x, w, delta):
        p1, p2 = np.meshgrid(x, x, indexing="ij")
        w2 = np.outer(w, w)
        r = np.hypot(wrap_torus(p1 - PI), wrap_torus(p2 - PI))
        weight = w2 * (1.0 - chi_cutoff(r, delta))
        self.x = x
        self.mask = weight > 0
        self.p1, self.p2 = p1[self.mask], p2[self.mask]
        self.w = weight[self.mask]
        self.deficits = {}
        self.vcache = {}
        self._lock = threading.Lock()

    def _cached(self, cache, key, kept, compute):
        with self._lock:
            hit = cache.get(key)
        if hit is None:
            hit = compute()
            hit.flags.writeable = False
            with self._lock:
                if key not in cache and len(cache) >= kept:
                    del cache[next(iter(cache))]
                cache[key] = hit
        return hit

    def deficit(self, model):
        # direct subtraction is fine here: e_max - e is bounded below by the
        # deficit at delta/2 on the support of (1 - chi).  The model is
        # evaluated on the broadcast axes, so a separable profile costs two
        # axis evaluations; each entry is the float a per-node call gives.
        return self._cached(
            self.deficits, model, self.DEFICITS_KEPT,
            lambda: float(model.e_max)
            - model.values(self.x[:, None], self.x[None, :])[self.mask])

    def weighted(self, v):
        return self._cached(
            self.vcache, v, self.VALUES_KEPT,
            lambda: self.w * np.asarray(v(self.p1, self.p2), dtype=float))


@lru_cache(maxsize=32)
def _far_grids(grid_n, patch_radius, breakpoints):
    """The (fine, coarse) far-field levels for one node-set key; their
    difference estimates the error of the coarse one.  On a kinked model
    the coarse level takes fewer panels than the fine one on every segment:
    at small grid_n both would otherwise sit on the 2-panel floor, and the
    estimate read roundoff.

    Every model with the same (grid_n, patch_radius, breakpoints) shares
    the levels, e.g. the whole SteppedPhiA(A) family.  Memory per key: the
    node set holds three float arrays (p1, p2, w) over the masked nodes
    plus a boolean mask over the grid, about 27 MB fine and 8 MB coarse at
    the kinked default grid_n = 1024 (1.08M and 0.30M nodes), a sixteenth
    of that on the 256 smooth grid; each cached deficit or w * v product
    adds one read-only float array of the level's node count, and a far sum
    makes one temporary of that size.  cache_clear drops all of it."""
    if breakpoints is None:
        axes = (_axis_nodes_trapezoid(grid_n), _axis_nodes_trapezoid(grid_n // 2))
    else:
        edges = sorted(set([-PI, PI] + [float(b) for b in breakpoints]))
        fine = _panel_counts(edges, grid_n)
        coarse = [min(c, f - 1)
                  for c, f in zip(_panel_counts(edges, grid_n // 2), fine)]
        axes = (_axis_nodes_gauss(edges, fine), _axis_nodes_gauss(edges, coarse))
    return tuple(_FarLevel(x, w, patch_radius) for x, w in axes)


def _far_values(level, model, vs, alpha, k):
    """sum of w v / (alpha + deficit)^k over the level's nodes, for each v
    in vs.  The float operations are those of that expression, in its
    order, so each sum is the same to the bit; the denominator is formed
    once for the stack, and the quotients share one more temporary."""
    wvs = [level.weighted(v) for v in vs]  # first, so v's temporaries are freed
    den = level.deficit(model) + alpha
    if k == 2:
        np.square(den, out=den)
    out = den if len(wvs) == 1 else np.empty_like(den)
    return [float(np.sum(np.divide(wv, den, out=out))) for wv in wvs]


# ---------------------------------------------------------------------------
# near field (polar patch)
# ---------------------------------------------------------------------------

def _near_nodes(model, alpha, k, delta, n_theta, n_panels):
    """The nodes of one near-field pass over B_delta(pi_vec), which every
    weight at (alpha, k) reads: (radial_w, den, p1, p2), the radial weights
    times chi and the angular step, (alpha + deficit)^k on the polar grid,
    and the grid's images on the torus.

    Polar coordinates about pi_vec.  Radially, n_panels Gauss panels of
    GAUSS_ORDER points lie on each side of r = delta/2, where chi starts to
    fall, in the variable s of r = sqrt(alpha) sinh(s) (r itself at
    alpha = 0).  Angularly, the periodic trapezoid rule on n_theta nodes
    theta_j = 2 pi j / n_theta; its every-other-node subrule is the
    trapezoid rule on n_theta / 2 nodes, so their difference estimates the
    angular error of the coarser rule at no extra cost.  The nodes include
    theta = 0.  Were they offset by half a step, the subrule would sit a
    quarter step off the axes, where it integrates exactly the
    cos(n_theta theta / 2) mode that the swap symmetry leaves at that order;
    the difference would then read roundoff whatever the error.
    """
    if alpha > 0:
        sq = math.sqrt(alpha)
        s_break = math.asinh(delta / 2 / sq)
        s_max = math.asinh(delta / sq)
    else:
        s_break, s_max = delta / 2, delta
    edges = np.concatenate((np.linspace(0.0, s_break, n_panels + 1),
                            np.linspace(s_break, s_max, n_panels + 1)[1:]))
    s, ws = _panel_nodes(edges, GAUSS_ORDER)
    if alpha > 0:
        r, jac = sq * np.sinh(s), sq * np.cosh(s)
    else:
        r, jac = s, 1.0

    theta = np.arange(n_theta) * (2 * PI / n_theta)
    u1 = r[:, None] * np.cos(theta)[None, :]
    u2 = r[:, None] * np.sin(theta)[None, :]
    radial_w = ws * r * jac * chi_cutoff(r, delta) * (2 * PI / n_theta)
    return (radial_w, (alpha + model.deficit(u1, u2)) ** k,
            wrap_torus(PI + u1), wrap_torus(PI + u2))


def _near_value(nodes, v):
    """Integral of chi * v / (alpha + deficit)^k over B_delta(pi_vec) on the
    nodes of one pass.

    Returns (value, abs_value, theta_err): abs_value integrates the modulus
    and serves as a scale for relative-tolerance decisions; theta_err is the
    subrule difference.
    """
    radial_w, den, p1, p2 = nodes
    core = np.asarray(v(p1, p2), dtype=float) / den
    value = float(radial_w @ core.sum(axis=1))
    half_rule = 2.0 * float(radial_w @ core[:, ::2].sum(axis=1))
    abs_value = float(radial_w @ np.abs(core).sum(axis=1))
    return value, abs_value, abs(value - half_rule)


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


def integrate_resolvent(model, v, k=1, spec=None, *, alpha):
    """int v(q) / (z - e(q))^k dq at z = e_max + alpha above the band top.

    alpha is passed directly: forming it as z - e_max would lose its digits
    near threshold.
    """
    if alpha <= 0:
        raise BelowThreshold(f"z = e_max + {alpha:g} is not above the band top")
    return _integrate(model, (v,), alpha, k, spec)[0]


def integrate_threshold(model, v, k=1, spec=None):
    """Limit alpha -> 0 of the resolvent integral: int v / (e_max - e)^k dq.

    Evaluated directly at alpha = 0 by the resolvent rule.  The integral
    converges iff v vanishes at pi_vec to an order above 2k - 2; otherwise
    it diverges and NotIntegrable is raised.
    """
    return _integrate(model, (v,), 0.0, k, spec)[0]


def _integrate(model, vs, alpha, k, spec=None):
    """One IntegralResult per weight in vs at alpha >= 0: far field plus
    nested near-field refinement, the weights sharing the nodes of each
    pass (see the module docstring)."""
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    # analytic weights vanish to integer orders; the ring estimate is
    # accurate to far better than the half-integer margin
    for v in vs if alpha == 0 else ():
        if (order := _vanishing_order(v)) < 2 * k - 1.5:
            raise NotIntegrable(
                f"threshold integral with k = {k} needs v vanishing to order "
                f"{2 * k - 1} at (pi, pi); it vanishes to order {order:.2g}")
    spec = spec or default_spec(model)
    fine, coarse = _far_grids(spec.grid_n, spec.patch_radius, model.breakpoints)
    nodes = cache(lambda n_theta, n_panels: _near_nodes(
        model, alpha, k, spec.patch_radius, n_theta, n_panels))
    return [_near_refined(nodes, v, far, abs(far - far_coarse), spec, alpha, k)
            for v, far, far_coarse in zip(vs, _far_values(fine, model, vs, alpha, k),
                                          _far_values(coarse, model, vs, alpha, k))]


def _near_refined(nodes, v, far, far_err, spec, alpha, k):
    """far plus the near field of v, refined pass by pass on nodes(...)."""
    n_theta, n_panels = N_THETA, N_PANELS
    near, near_abs, theta_err = _near_value(nodes(n_theta, n_panels), v)

    def tol():
        return spec.radial_tol * max(abs(far + near),
                                     1e-2 * (abs(far) + near_abs), 1e-300)

    for _ in range(MAX_REFINE):
        if theta_err > tol():
            n_theta *= 2
        n_panels *= 2
        previous = near
        near, near_abs, theta_err = _near_value(nodes(n_theta, n_panels), v)
        radial_change = abs(near - previous)
        near_err = radial_change + theta_err
        if near_err <= tol():
            break
    else:
        raise NoConvergence(
            f"near-field refinement stalled at radial change "
            f"{radial_change:g} and angular estimate {theta_err:g} "
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
