"""Torus quadrature for resolvent-type integrals with a peak at (pi, pi).

Every integral in the artifact has the form

    B(z) = int_T2 v(q) / (z - e(q))^k dq,   z = e_max + alpha,  alpha > 0,

whose integrand develops a peak of width ~ sqrt(alpha) at the dispersion
maximum.  The domain is split by a smooth radial cutoff chi supported on the
ball B_delta(pi_vec):

  * far field, weight (1 - chi): periodic offset trapezoid (spectrally
    accurate for analytic kinds) or a composite Gauss rule with panel edges
    on the kink lines for the piecewise kinds;
  * near field, weight chi: polar coordinates about pi_vec, on one rule
    for every alpha.  Radial Gauss panels graded by the ratio GRADING
    toward r = 0, from an inner edge below INNER_EDGE up to delta/2,
    resolve the peak of width sqrt(alpha) for every alpha down to about
    INNER_EDGE^2 at once: a geometric mesh converges exponentially at a
    point singularity (Babuska & Guo; Schwab, p- and hp-Finite Element
    Methods, 1998).  Uniform panels cover [delta/2, delta], where chi
    falls.  In angle the periodic trapezoid rule converges geometrically
    (Trefethen & Weideman, SIAM Rev. 2014).  The error estimate is that of
    the every-other-node angular subrule plus that of a lower Gauss order
    on the same panels; above radial_tol times the integral's scale, the
    integral raises NoConvergence.

The threshold limit alpha -> 0 runs the same rule at alpha = 0.  The far
field is unchanged there, because the deficit is bounded below where
1 - chi is nonzero.  When v vanishes at pi_vec to an order above 2k - 2,
r v / deficit^k is bounded in polar coordinates, and the graded panels
take it like any other integrand.

Denominators are evaluated as alpha + (e_max - e), with the deficit
e_max - e supplied in a cancellation-free form by the model.

The node sets, far and near, depend only on (grid_n, patch_radius,
breakpoints), so every model with that key shares them, e.g. the whole
SteppedPhiA(A) family that the multiplicity-two construction tunes.  Per
model a set keeps only the deficit on its nodes, and per weight function v
the product w * v of the rule's weights and v's values, in small bounded
read-only maps, so clearing _far_grids drops every node array.  A far
level forms no node coordinates: it evaluates the cutoff, the deficit and
each v on the broadcast axes of its tensor grid and masks the result.  An
integral at any alpha >= 0 is then sum(w v / (alpha + deficit)^k) over
cached arrays.

The kernel _integrate takes a stack of weights at one (alpha, k), e.g. the
three of the rank-two determinant; integrate_resolvent and
integrate_threshold are its one-weight case.  Per node set and call it forms
one reciprocal row r = 1/(alpha + deficit)^k in place, and each weight's sum
is the dot product of its cached w v with r.  Every weight is its own dot
with the same r, so a stacked result is bitwise that of the one-weight call.
The dot accumulates in BLAS order, not np.sum's pairwise order: a far sum
lies within about 1e3 eps sum |w v r| of the pairwise one.  At k = 1 the
kernel can also return each weight's k = 2 sum from r^2 (slopes), the
alpha-derivative that steers the determinant's Newton search.
"""

import math
import threading
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .dispersion import PI, wrap_torus
from .errors import BelowThreshold, NoConvergence, NotIntegrable

FOUR_PI_SQ = 4 * PI ** 2

N_THETA = 64          # angular trapezoid points in the near patch (even)
GAUSS_ORDER = 16      # Gauss points per radial panel,
COARSE_ORDER = 14     # and in the rule of the radial error estimate
GRADING = 4           # ratio of consecutive graded radial panel edges
INNER_EDGE = 1e-12    # bound on the innermost graded edge
RING_PANELS = 8       # uniform radial panels on [delta/2, delta]
FAR_GAUSS_ORDER = 12  # Gauss points per far-field panel on a kinked model


@dataclass(frozen=True)
class QuadratureSpec:
    """The settable part of the rule.  The near-field rule is fixed by the
    module constants N_THETA through RING_PANELS, read when _far_grids
    builds a node set."""

    grid_n: int = 256          # far-field points per axis
    patch_radius: float = 0.5  # radius delta of the near patch
    radial_tol: float = 1e-10  # relative acceptance of the near-field estimate

    def __post_init__(self):
        if self.grid_n < 32 or self.grid_n % 2:
            raise ValueError("grid_n must be even and >= 32")
        if not 0.0 < self.patch_radius < 1.0:
            raise ValueError("patch_radius must lie in (0, 1)")
        if self.radial_tol <= 0:
            raise ValueError("radial_tol must be positive")


def default_spec(model, **overrides):
    """QuadratureSpec() on a kind without kinks; on a kinked one 1024 far
    points per axis and the patch radius min(0.5, 0.8 (0.9 d)): 0.9 d, d the
    distance from pi to the nearest kink, bounds where e is analytic."""
    kinks = model.breakpoints
    base = QuadratureSpec() if kinks is None else QuadratureSpec(
        grid_n=1024, patch_radius=min(0.5, 0.8 * (0.9 * min(PI - abs(k) for k in kinks))))
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


class _NodeSet:
    """Quadrature weights w of a node set on the torus, which depend on
    neither the model nor alpha.  A subclass says where its nodes lie: its
    _values(v) is v on the nodes, in the order of w.

    Two small maps ride on it, each written under the set's lock (two
    threads may compute the same entry; both get equal arrays).  Their
    arrays are read-only, so no in-place operation can write into an array
    that threads share:
      * deficits, model -> e_max - e on the nodes, the last DEFICITS_KEPT
        models;
      * vcache, weight function v -> w * v on the nodes, the last
        VALUES_KEPT weights.  A weight is a function of p alone, so these
        products serve every model of the family.
    """

    DEFICITS_KEPT = 4
    VALUES_KEPT = 64

    def __init__(self, w):
        self.w = w
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
        return self._cached(self.deficits, model, self.DEFICITS_KEPT,
                            lambda: self._deficit(model))

    def weighted(self, v):
        return self._cached(
            self.vcache, v, self.VALUES_KEPT,
            lambda: self.w * np.asarray(self._values(v), dtype=float))


class _FarLevel(_NodeSet):
    """One far-field node set: the axis nodes x of the tensor grid, the
    mask of the grid nodes where 1 - chi > 0, and the weights w on the
    masked nodes (the rule's weights times 1 - chi), in the grid's row-major
    order.  The nodes themselves are never formed: the cutoff, the deficit
    and every weight are evaluated on the broadcast axes x[:, None],
    x[None, :] and then masked, so a function applied per coordinate costs
    two axis evaluations.  Each entry is the float that the same expression
    gives on the node (wrap_torus, hypot, chi_cutoff and the ufuncs act
    elementwise)."""

    def __init__(self, x, w, delta):
        d = wrap_torus(x - PI)
        r = np.hypot(d[:, None], d[None, :])
        weight = np.outer(w, w)
        inside = r < delta          # chi = 0, so 1 - chi = 1, elsewhere
        weight[inside] *= 1.0 - chi_cutoff(r[inside], delta)
        self.x = x
        self.mask = weight > 0
        super().__init__(weight[self.mask])

    def _values(self, v):
        grid = np.broadcast_to(v(self.x[:, None], self.x[None, :]), self.mask.shape)
        return grid[self.mask]

    def _deficit(self, model):
        # direct subtraction is fine here: e_max - e is bounded below by the
        # deficit at delta/2 on the support of (1 - chi)
        return float(model.e_max) - self._values(model.values)


class _NearSet(_NodeSet):
    """The near-field rule on B_delta(pi_vec) (see the module docstring):
    radial panel edges, offsets u1, u2 from pi_vec, their images p1, p2 on
    the torus, and weights w, the radial weights times r chi(r) and the
    angular step.

    Three parts (slices): the even and the odd angular nodes
    theta_j = 2 pi j / N_THETA of the rule, and the even angular nodes of
    the same panels at COARSE_ORDER.  The even nodes alone are the rule on
    N_THETA / 2 nodes, so odd minus even estimates the angular error of
    that rule, and the coarse part the radial one.  The nodes include
    theta = 0.  Were they offset by half a step, the subrule would sit a
    quarter step off the axes, where it integrates exactly the
    cos(N_THETA theta / 2) mode that the swap symmetry leaves at that
    order; the difference would then read roundoff whatever the error.
    """

    def __init__(self, delta):
        graded = math.ceil(math.log(delta / 2 / INNER_EDGE, GRADING))
        edges = np.concatenate(
            ([0.0], delta / 2 * float(GRADING) ** np.arange(-graded, 0),
             np.linspace(delta / 2, delta, RING_PANELS + 1)))
        step = 2 * PI / N_THETA
        theta = np.arange(N_THETA) * step
        u1, u2, w = [], [], []
        for order, angles, h in ((GAUSS_ORDER, theta[::2], step),
                                 (GAUSS_ORDER, theta[1::2], step),
                                 (COARSE_ORDER, theta[::2], 2 * step)):
            r, wr = _panel_nodes(edges, order)
            u1.append(np.outer(r, np.cos(angles)).ravel())
            u2.append(np.outer(r, np.sin(angles)).ravel())
            w.append(np.repeat(wr * r * chi_cutoff(r, delta) * h, len(angles)))
        ends = np.cumsum([0] + [len(part) for part in w])
        self.edges = edges
        self.parts = tuple(map(slice, ends[:-1], ends[1:]))
        self.u1, self.u2 = np.concatenate(u1), np.concatenate(u2)
        self.p1, self.p2 = wrap_torus(PI + self.u1), wrap_torus(PI + self.u2)
        super().__init__(np.concatenate(w))

    def _values(self, v):
        return v(self.p1, self.p2)

    def _deficit(self, model):
        return model.deficit(self.u1, self.u2)

    def weighted_abs(self, v):
        """|w v| on the fine part (the even and odd nodes), kept in vcache
        next to w v."""
        return self._cached(
            self.vcache, (abs, v), self.VALUES_KEPT,
            lambda: np.abs(self.weighted(v)[:self.parts[1].stop]))


@lru_cache(maxsize=32)
def _far_grids(grid_n, patch_radius, breakpoints):
    """The node sets for one key: the (fine, coarse) far-field levels, whose
    difference estimates the error of the coarse one, and the near-field
    set of the patch.  On a kinked model the coarse level takes fewer
    panels than the fine one on every segment: at small grid_n both would
    otherwise sit on the 2-panel floor, and the estimate read roundoff.

    Every model with the same (grid_n, patch_radius, breakpoints) shares
    the sets, e.g. the whole SteppedPhiA(A) family.  Memory per key: a far
    level holds its axis, one float array w over the masked nodes and a
    boolean mask over the grid, about 9.8 MB fine and 2.7 MB coarse at the
    kinked default grid_n = 1024 (1.08M and 0.30M nodes), a sixteenth of
    that on the 256 smooth grid; the near set holds five float arrays over
    its 41k nodes (at delta = 0.5), 1.6 MB.  Each cached deficit or w * v
    product adds one read-only float array of its set's node count (and on
    the near set |w v| over its fine nodes), and a kernel call makes one
    reciprocal row of that size per set, two with slopes, which every
    weight of its stack reads by a dot product.  cache_clear drops all of
    it."""
    if breakpoints is None:
        axes = (_axis_nodes_trapezoid(grid_n), _axis_nodes_trapezoid(grid_n // 2))
    else:
        edges = sorted(set([-PI, PI] + [float(b) for b in breakpoints]))
        fine = _panel_counts(edges, grid_n)
        coarse = [min(c, f - 1)
                  for c, f in zip(_panel_counts(edges, grid_n // 2), fine)]
        axes = (_axis_nodes_gauss(edges, fine), _axis_nodes_gauss(edges, coarse))
    return (*(_FarLevel(x, w, patch_radius) for x, w in axes),
            _NearSet(patch_radius))


def _reciprocals(nodes, model, alpha, k, slopes=False):
    """Rows of 1/(alpha + deficit)^k on the node set and, with slopes
    (k = 1), of its square 1/(alpha + deficit)^2, formed in place: add,
    reciprocal, square.  Both rows come from one allocation: as two arrays,
    a call paid page faults for fresh memory every time."""
    deficit = nodes.deficit(model)
    rows = np.empty((1 + slopes, deficit.size))
    r = np.add(deficit, alpha, out=rows[0])
    np.reciprocal(r, out=r)
    if k == 2:
        np.square(r, out=r)
    if slopes:
        np.square(r, out=rows[1])
    return rows


def _far_values(level, model, vs, alpha, k, slopes=False):
    """sum of w v / (alpha + deficit)^k over the level's nodes, for each v
    in vs: the dot product of the cached w v with the one reciprocal row of
    the call, so a stacked sum is the very float of a one-weight call.
    With slopes (k = 1), (values, slopes), slopes the sums of
    w v / (alpha + deficit)^2 from the same row."""
    wvs = [level.weighted(v) for v in vs]  # first, so v's temporaries are freed
    rows = _reciprocals(level, model, alpha, k, slopes)
    values = [float(np.dot(wv, rows[0])) for wv in wvs]
    if not slopes:
        return values
    return values, [float(np.dot(wv, rows[1])) for wv in wvs]


def _near_values(near, model, vs, alpha, k, slopes=False):
    """(value, abs_value, radial_err, angular_err) of the near field of each
    v in vs: the integral of chi v / (alpha + deficit)^k over the patch, the
    integral of its modulus (a scale for relative-tolerance decisions), and
    the two error estimates of the rule (see _NearSet).  Each is a dot
    product with the call's reciprocal row r; the denominator is positive,
    so the modulus integral is the dot of the cached |w v| with r.  With
    slopes (k = 1), (rows, slopes), slopes the sums of
    w v / (alpha + deficit)^2 over the fine nodes (the even and odd parts)."""
    fine = slice(0, near.parts[1].stop)
    wvs = [(near.weighted(v), near.weighted_abs(v)) for v in vs]
    rows = _reciprocals(near, model, alpha, k, slopes)
    r = rows[0]
    out = []
    for wv, abs_wv in wvs:
        even, odd, coarse = (float(np.dot(wv[part], r[part]))
                             for part in near.parts)
        out.append((even + odd, float(np.dot(abs_wv, r[fine])),
                    abs(2 * even - coarse), abs(odd - even)))
    if not slopes:
        return out
    return out, [float(np.dot(wv[fine], rows[1][fine])) for wv, _ in wvs]


def _outside_balls(model, v, window, spec=None):
    """(rs, values): the near rule's graded panel edges r in the window
    (r_min, r_max), descending, and at each the integral of v / deficit^2
    over the torus minus B_r(pi_vec), the fine far level's sum plus that of
    the near rule's fine nodes outside r.  Inside delta/2, chi = 1, so each
    sum covers whole panels at their full weight."""
    spec = spec or default_spec(model)
    fine, _, near = _far_grids(spec.grid_n, spec.patch_radius, model.breakpoints)
    stop = near.parts[1].stop
    wv = near.weighted(v)[:stop]
    q = _reciprocals(near, model, 0.0, 2)[0, :stop]
    np.multiply(wv, q, out=q)
    # both angular halves on the same radial nodes: (half, panel, node, angle)
    panels = q.reshape(2, len(near.edges) - 1, GAUSS_ORDER, -1).sum(axis=(0, 2, 3))
    outside = (_far_values(fine, model, (v,), 0.0, 2)[0]
               + np.cumsum(panels[::-1])[::-1])  # outside each inner edge
    r = near.edges[:-1]
    keep = (window[0] <= r) & (r <= min(window[1], spec.patch_radius / 2))
    return r[keep][::-1], outside[keep][::-1]


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


def _integrate(model, vs, alpha, k, spec=None, slopes=False):
    """One IntegralResult per weight in vs at alpha >= 0: the far field plus
    the near field, each a sum over cached node arrays (see the module
    docstring).

    With slopes (k = 1 only), (results, slopes): each slope is the sum of
    w v / (alpha + deficit)^2 over the fine far level and the near set's fine
    nodes, -d/dalpha of the value, from the same reciprocal rows.  It steers
    a root search and carries no error estimate or convergence check."""
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    if slopes and k != 1:
        raise ValueError("slopes are the k = 2 sums beside k = 1")
    # analytic weights vanish to integer orders; the ring estimate is
    # accurate to far better than the half-integer margin
    for v in vs if alpha == 0 else ():
        if (order := _vanishing_order(v)) < 2 * k - 1.5:
            raise NotIntegrable(
                f"threshold integral with k = {k} needs v vanishing to order "
                f"{2 * k - 1} at (pi, pi); it vanishes to order {order:.2g}")
    spec = spec or default_spec(model)
    fine, coarse, near = _far_grids(spec.grid_n, spec.patch_radius,
                                    model.breakpoints)
    fars = _far_values(fine, model, vs, alpha, k, slopes)
    nears = _near_values(near, model, vs, alpha, k, slopes)
    if slopes:
        (fars, far_slopes), (nears, near_slopes) = fars, nears
    results = []
    for far, far_coarse, (value, abs_value, radial_err, angular_err) in zip(
            fars, _far_values(coarse, model, vs, alpha, k), nears):
        near_err = radial_err + angular_err
        if near_err > spec.radial_tol * max(abs(far + value),
                                            1e-2 * (abs(far) + abs_value), 1e-300):
            raise NoConvergence(
                f"near-field estimate above tolerance: radial {radial_err:g}, "
                f"angular {angular_err:g} (alpha = {alpha:g}, k = {k})")
        results.append(IntegralResult(value=far + value,
                                      error_estimate=abs(far - far_coarse) + near_err))
    if slopes:
        return results, [f + n for f, n in zip(far_slopes, near_slopes)]
    return results


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
