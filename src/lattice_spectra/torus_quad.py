"""Torus quadrature for resolvent-type integrals with a peak at (pi, pi).

Every integral in the artifact has the form

    B(z) = int_T2 v(q) / (z - e(q))^k dq,   z = e_max + alpha,  alpha > 0,

whose integrand develops a peak of width ~ sqrt(alpha) at the dispersion
maximum.  The domain is split by a smooth radial cutoff chi supported on the
ball B_delta(pi_vec):

  * far field, weight (1 - chi): periodic offset trapezoid (spectrally
    accurate for analytic kinds) or, for the piecewise kinds, a composite
    Gauss rule with panel edges on the kink lines and at +-(pi - delta),
    dense only on the two segments within delta of +-pi, where 1 - chi
    falls, and FAR_SPARSE times sparser on the others, where the integrand
    is analytic (the bump, not the kinks, limits the far rule: Trefethen &
    Weideman, SIAM Rev. 2014, sec. 4);
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

Each set holds one node per orbit of a symmetry group of the model's
deficit, picked from the model (_node_sets): the square's group D4 of the
eight signed swaps (+-p1, +-p2), (+-p2, +-p1) when e is even per coordinate,
as every separable kind and the next-nearest table are, else the order-4
group {1, inversion p -> -p, swap (p1, p2) -> (p2, p1), both} (models
must be swap-symmetric; every kind is even under inversion).  A sum over
the torus is the sum over the representatives of w times v summed over the
orbit, exact for every v (see _NodeSet).  That is about an eighth of the
nodes under D4: 8,211 fine, 2,067 coarse and 5,992 near on the Laplacian,
against 65,204, 16,296 and 41,216 unfolded, and twice that under the
order-4 group, e.g. on the t = 0.1 diagonal-hop table.  The far node sets depend only on
(grid_n, patch_radius, breakpoints, group order), so every model with that
key shares them, e.g. the whole SteppedPhiA(A) family that the
multiplicity-two construction tunes; the near set depends on the patch
radius and the group alone, so every key of one radius and group shares it,
e.g. the Laplacian's (256, 0.5, None, 8) and stepped:0.5's
(2048, 0.5, kinks, 8).  Per model a set keeps only the deficit on its
representatives, and per weight function v the product w * v of the rule's
weights and v's orbit sums, in small bounded read-only maps, so clearing
_far_grids drops every node array.  A far level forms no node coordinates:
it evaluates the cutoff, the deficit and each v on the broadcast axes of
its tensor grid, folds v by slices and masks the result.
An integral at any alpha >= 0 is then sum(w v / (alpha + deficit)^k) over
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
alpha-derivative that steers the determinant's Newton search.  Such a call
returns the values alone, without error estimates, and reads one far level,
the fine one; every call without slopes also sums the coarse level, whose
difference from the fine one is the far part of its error estimate.

_integrate_block is the kernel over a vector of alphas at k = 1: per block
of BLOCK_ALPHAS alphas it forms one reciprocal row per alpha on the fine far
level and the near set and multiplies the block with the stacked cached w v
rows, with the near-field check of every (alpha, weight).  It builds the
root search's proxy table (determinant).
"""

import math
import threading
import weakref
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .dispersion import PI, _invariant, is_even_per_coordinate, wrap_torus
from .errors import BelowThreshold, NoConvergence, NotIntegrable

FOUR_PI_SQ = 4 * PI ** 2

N_THETA = 64          # angular trapezoid points in the near patch (even)
GAUSS_ORDER = 16      # Gauss points per radial panel,
COARSE_ORDER = 14     # and in the rule of the radial error estimate
GRADING = 4           # ratio of consecutive graded radial panel edges
INNER_EDGE = 1e-12    # bound on the innermost graded edge
RING_PANELS = 8       # uniform radial panels on [delta/2, delta]
FAR_GAUSS_ORDER = 12  # Gauss points per far-field panel on a kinked model
FAR_SPARSE = 16       # its panel density within delta of +-pi over elsewhere


@dataclass(frozen=True)
class QuadratureSpec:
    """The settable part of the rule.  The near-field rule is fixed by the
    module constants N_THETA through RING_PANELS, read when _far_grids
    builds a node set."""

    grid_n: int = 256          # far points per 2 pi: per axis, or on a kinked
                               # kind within patch_radius of +-pi
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
    """QuadratureSpec() on a kind without kinks; on a kinked one 2048 far
    points per 2 pi within the patch radius of +-pi (1/FAR_SPARSE of that
    elsewhere) and the patch radius min(0.5, 0.8 (0.9 d)): 0.9 d, d the
    distance from pi to the nearest kink, bounds where e is analytic, so
    every kink lies farther than the patch radius from pi."""
    kinks = model.breakpoints
    base = QuadratureSpec() if kinks is None else QuadratureSpec(
        grid_n=2048, patch_radius=min(0.5, 0.8 * (0.9 * min(PI - abs(k) for k in kinks))))
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


def _panel_counts(edges, n_dense, delta):
    """Gauss panels per segment between consecutive edges: about n_dense
    points per 2 pi on the two segments within delta of +-pi, where the
    cutoff 1 - chi falls, and 1/FAR_SPARSE of that on every other segment,
    where the far integrand is analytic; at least 2 per segment."""
    def count(lo, hi):
        dense = lo >= PI - delta or hi <= -(PI - delta)
        n = n_dense if dense else n_dense / FAR_SPARSE
        return max(2, int(math.ceil((hi - lo) / (2 * PI) * n / FAR_GAUSS_ORDER)))
    return [count(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def _axis_nodes_gauss(edges, counts):
    """Composite Gauss nodes on [-pi, pi], counts[i] uniform panels of
    FAR_GAUSS_ORDER points on the segment [edges[i], edges[i + 1]] between
    kinks."""
    starts = [np.linspace(lo, hi, m + 1)[:-1]
              for lo, hi, m in zip(edges[:-1], edges[1:], counts)]
    return _panel_nodes(np.append(np.concatenate(starts), PI), FAR_GAUSS_ORDER)


class _NodeSet:
    """Quadrature weights w of a node set on the torus, which depend on
    neither the model nor alpha, one node per orbit of a symmetry group of
    the deficit, named by its order: 4, the group {1, inversion p -> -p,
    swap (p1, p2) -> (p2, p1), both} of every swap-symmetric model, or 8,
    the square's group D4 of the signed swaps (+-p1, +-p2), (+-p2, +-p1)
    of a model also even per coordinate.  The deficit is invariant under
    the group, so a sum of w v / (alpha + deficit)^k over the torus is the
    sum over the representatives of w (v summed over the orbit) /
    (alpha + deficit)^k, whatever v (Monkhorst & Pack, Phys. Rev. B 13,
    5188 (1976)).  w is the weight of the representative divided by the
    order of its stabilizer, 2 on the orbits of half the group's order, so
    that every orbit counts as the sum of all its images.  A subclass says where its nodes
    lie: its _values(v) is v summed over the group's images of each
    representative, in the order of w (the near set adds a row of |v|
    summed so), and its _deficit(model) the deficit on the representatives.

    Two small maps ride on it, each written under the set's lock (two
    threads may compute the same entry; both get equal arrays).  Their
    arrays are read-only, so no in-place operation can write into an array
    that threads share:
      * deficits, model -> e_max - e on the nodes, the last DEFICITS_KEPT
        models;
      * vcache, weight function v -> w * v on the nodes, the last
        VALUES_KEPT weights.  A weight is a function of p alone, so these
        products serve every model of the family;
      * tables, a key such as (model, spec) -> an array its caller derives
        from the set's sums, e.g. the root search's Chebyshev table in
        ln alpha (determinant), the last TABLES_KEPT keys.
    """

    DEFICITS_KEPT = 4
    VALUES_KEPT = 64
    TABLES_KEPT = 4

    def __init__(self, w, order):
        self.w = w
        self.order = order
        self.deficits = {}
        self.vcache = {}
        self.tables = {}
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
        def compute():   # the fold needs the group; inversion holds for every kind
            if not _invariant(model, lambda x1, x2: (x2, x1)):
                raise ValueError("e must satisfy e(p1, p2) = e(p2, p1): the torus "
                                 "quadrature sums one node per orbit of the swap")
            if self.order == 8 and not is_even_per_coordinate(model):
                raise ValueError("e must satisfy e(p1, p2) = e(-p1, p2): this node "
                                 "set sums one node per orbit of the square's group")
            return self._deficit(model)
        return self._cached(self.deficits, model, self.DEFICITS_KEPT, compute)

    def weighted(self, v):
        return self._cached(
            self.vcache, v, self.VALUES_KEPT,
            lambda: self.w * np.asarray(self._values(v), dtype=float))

    def table(self, key, compute):
        return self._cached(self.tables, key, self.TABLES_KEPT, compute)


class _FarLevel(_NodeSet):
    """One far-field node set: the axis nodes x of the tensor grid, the
    mask of its representatives where 1 - chi > 0, and their weights w
    (the rule's weights times 1 - chi, over the stabilizer's order), in
    the grid's row-major order.  The axis is mirror-symmetric with an even
    number n of nodes, so the mirror p1 -> -p1 maps node (i, j) to
    (n-1-i, j), inversion to (n-1-i, n-1-j), the swap to (j, i), and no
    mirror fixes a node.  With h = n / 2, the representatives are, under
    the order-8 group, (i, j) with i <= j in the top-left h x h block,
    stabilized by the swap on the diagonal; under the order-4 group, (i, j)
    in the top h rows with i <= j left of the middle, and on or above the
    antidiagonal i + j = n - 1 right of it.  So the mask covers the
    top-left block or the top h rows.

    The nodes themselves are never formed: the cutoff and the deficit are
    evaluated on the broadcast axes x[:h, None], x[None, :cols] of the
    mask's block and masked, and every weight on the whole broadcast grid,
    which _fold sums onto the representatives by slices, so a function
    applied per coordinate costs two axis evaluations.  Each entry of the
    cutoff and the deficit is the float that the same expression gives on
    the node (wrap_torus, hypot, chi_cutoff and the ufuncs act
    elementwise)."""

    def __init__(self, x, w, delta, order):
        # mirror-symmetric to rounding: node n-1-i at -x[i], with its weight
        assert (np.allclose(x[::-1], -x, rtol=0.0, atol=1e-12)
                and np.allclose(w[::-1], w, rtol=1e-12, atol=0.0)), "far axis not mirrored"
        n = x.size
        assert n % 2 == 0, "far axis of odd length"
        rows = n // 2
        cols = rows if order == 8 else n
        d = wrap_torus(x - PI)
        r = np.hypot(d[:rows, None], d[None, :cols])
        weight = np.outer(w[:rows], w[:cols])
        inside = r < delta          # chi = 0, so 1 - chi = 1, elsewhere
        weight[inside] *= 1.0 - chi_cutoff(r[inside], delta)
        i, j = np.ogrid[:rows, :cols]
        if order == 8:
            reps, stabilizer = i <= j, 1 + (i == j)
        else:
            reps = np.where(j < rows, i <= j, i + j <= n - 1)
            stabilizer = (1 + (i == j)) * (1 + (i + j == n - 1))
        self.x = x
        self.mask = reps & (weight > 0)
        weight /= stabilizer
        super().__init__(weight[self.mask], order)

    def _fold(self, grid):
        """The sum of grid's entries over the group's images of each
        representative, on the mask.  Order 8: the mirror p1 -> -p1 by
        reversing the bottom rows onto the top ones, the mirror p2 -> -p2
        by reversing the right columns onto the left ones, then the swap by
        a transpose.  Order 4: inversion by reversing the bottom rows onto
        the top ones in both axes, then the swap by a transpose, left of
        the middle column onto itself, right of it onto its reversal."""
        h = grid.shape[0] // 2
        top, bottom = grid[:h], grid[h:][::-1]
        if self.order == 8:
            rows = top + bottom
            fold = rows[:, :h] + rows[:, h:][:, ::-1]
            return (fold + fold.T)[self.mask]
        fold = np.add(top, bottom[:, ::-1])
        left, right = fold[:, :h], fold[:, h:]
        left[...] = left + left.T
        right[...] = right + right[::-1, ::-1].T
        return fold[self.mask]

    def _values(self, v):
        n = self.x.size
        return self._fold(np.broadcast_to(v(self.x[:, None], self.x[None, :]), (n, n)))

    def _deficit(self, model):
        # direct subtraction is fine here: e_max - e is bounded below by the
        # deficit at delta/2 on the support of (1 - chi)
        rows, cols = self.mask.shape
        values = model.values(self.x[:rows, None], self.x[None, :cols])
        return float(model.e_max) - np.broadcast_to(values, self.mask.shape)[self.mask]


class _NearSet(_NodeSet):
    """The near-field rule on B_delta(pi_vec) (see the module docstring) on
    the representatives of its orbits: radial panel edges, offsets u1, u2
    from pi_vec, the group's images of each on the torus, (u1, u2),
    (-u1, -u2), (u2, u1), (-u2, -u1) and, under the order-8 group, the
    same with one sign flipped, p1 and p2 of shape (order, nodes), and
    weights w, the radial weights times r chi(r) and the angular step, over
    the stabilizer's order.

    Three parts (slices): the even and the odd angular nodes
    theta_j = 2 pi j / N_THETA of the rule, and the even angular nodes of
    the same panels at COARSE_ORDER.  The even nodes alone are the rule on
    N_THETA / 2 nodes, so odd minus even estimates the angular error of
    that rule, and the coarse part the radial one.  The group maps j to
    -j, j + N_THETA / 2 and N_THETA / 4 - j and their products, which keep
    the parity of j when 8 divides N_THETA, so each part is folded on its
    own: its representatives are its j in [0, N_THETA / 8] under the
    order-8 group, whose ends are fixed by a mirror or by the swap, and in
    [-N_THETA / 8, N_THETA / 8] under the order-4 group, whose ends are
    fixed by the swap or by the swap and inversion; each part's sum is that
    of the unfolded part.  The nodes include theta = 0.  Were they offset
    by half a step, the subrule would sit a quarter step off the axes,
    where it integrates exactly the cos(N_THETA theta / 2) mode that the
    swap symmetry leaves at that order; the difference would then read
    roundoff whatever the error.
    """

    def __init__(self, delta, order):
        assert N_THETA % 8 == 0, "the parts fold on their own when 8 | N_THETA"
        graded = math.ceil(math.log(delta / 2 / INNER_EDGE, GRADING))
        edges = np.concatenate(
            ([0.0], delta / 2 * float(GRADING) ** np.arange(-graded, 0),
             np.linspace(delta / 2, delta, RING_PANELS + 1)))
        step = 2 * PI / N_THETA
        eighth = N_THETA // 8       # theta in [0, pi/4] or [-pi/4, pi/4]
        js = np.arange(0 if order == 8 else -eighth, eighth + 1)
        share = np.where((js == js[0]) | (js == js[-1]), 0.5, 1.0)   # the fixed ends
        u1, u2, w = [], [], []
        for gauss, parity, h in ((GAUSS_ORDER, 0, step), (GAUSS_ORDER, 1, step),
                                 (COARSE_ORDER, 0, 2 * step)):
            j = js % 2 == parity
            r, wr = _panel_nodes(edges, gauss)
            u1.append(np.outer(r, np.cos(js[j] * step)).ravel())
            u2.append(np.outer(r, np.sin(js[j] * step)).ravel())
            w.append(np.outer(wr * r * chi_cutoff(r, delta) * h, share[j]).ravel())
        ends = np.cumsum([0] + [len(part) for part in w])
        self.edges = edges
        self.parts = tuple(map(slice, ends[:-1], ends[1:]))
        u1, u2 = np.concatenate(u1), np.concatenate(u2)
        self.u1, self.u2 = u1, u2
        images = [(u1, u2), (-u1, -u2), (u2, u1), (-u2, -u1)]
        if order == 8:
            images += [(-u1, u2), (u1, -u2), (-u2, u1), (u2, -u1)]
        self.p1, self.p2 = (wrap_torus(PI + np.stack(axis)) for axis in zip(*images))
        super().__init__(np.concatenate(w), order)

    def _values(self, v):
        """Two rows: v and |v|, each summed over the group's images.  The
        second, times w, integrates the modulus (a scale for the tolerance
        decisions) from the same evaluation of v."""
        images = np.broadcast_to(v(self.p1, self.p2), self.p1.shape)
        return np.stack((images.sum(axis=0), np.abs(images).sum(axis=0)))

    def _deficit(self, model):
        return model.deficit(self.u1, self.u2)


def _node_sets(model, spec):
    """The (fine, coarse, near) node sets of the model under spec, folded
    onto its group: order 8 when e is even per coordinate, else order 4."""
    return _far_grids(spec.grid_n, spec.patch_radius, model.breakpoints,
                      8 if is_even_per_coordinate(model) else 4)


@lru_cache(maxsize=32)
def _far_grids(grid_n, patch_radius, breakpoints, order):
    """The node sets for one key, folded onto the orbits of the group of
    that order (see _NodeSet): the (fine, coarse) far-field levels, whose
    difference estimates the error of the coarse one, and the near-field
    set of the patch.  Every level has an even number of points per axis:
    on a smooth model the trapezoid axes take grid_n and 2 (grid_n // 4)
    points.  On a kinked model the axis is graded: its segments
    run between the kinks, +-pi and +-(pi - patch_radius), the two within
    patch_radius of +-pi take grid_n points per 2 pi and every other
    grid_n / FAR_SPARSE (_panel_counts); the coarse level takes half that
    and fewer panels than the fine one on every segment: at small grid_n
    both would otherwise sit on the 2-panel floor, and the estimate read
    roundoff.

    Every model with the same key shares the sets, e.g. the whole
    SteppedPhiA(A) family, and every key with the same patch_radius and
    order the near set (``_near_set``).  Memory per key of order 8: a far
    level holds its axis, one float array w over its representatives and a
    boolean mask over the top-left quarter of the grid, about 0.30 MB fine
    and 0.08 MB coarse at the kinked default grid_n = 2048 on stepped:0.5
    (29k and 7k nodes, of 254k and 64k unfolded), 0.08 and 0.02 MB on the
    256 smooth grid (8k and 2k nodes); the near set holds three float
    arrays over its 6k representatives (at delta = 0.5) and two over their
    eight images each, 0.9 MB, once per patch radius.  Order 4 keeps about
    twice the nodes, and its masks cover the top half of the grid.  Each
    cached deficit or w * v product adds one read-only float array of its
    set's node count (on the near set two rows, w v and w |v|), and a
    kernel call makes one reciprocal row of that size per set it reads, two
    with slopes (which skip the coarse level), which every weight of its
    stack reads by a dot product.  The fine level also keeps the root
    search's proxy table per (model, spec) (determinant._proxies): 128
    rows of 1 + 3 m floats for m searched weights, 16 kB at m = 5
    (even models) and 19 kB at m = 6; a block pass builds it from blocks
    of BLOCK_ALPHAS reciprocal rows, 0.26 MB on the Laplacian's fine level
    and 0.93 MB on stepped:0.5's, freed after the pass.
    cache_clear drops all of it."""
    if breakpoints is None:
        axes = (_axis_nodes_trapezoid(grid_n), _axis_nodes_trapezoid(2 * (grid_n // 4)))
    else:
        edges = sorted(set([-PI, -(PI - patch_radius), PI - patch_radius, PI]
                           + [float(b) for b in breakpoints]))
        fine = _panel_counts(edges, grid_n, patch_radius)
        coarse = [min(c, f - 1) for c, f in
                  zip(_panel_counts(edges, grid_n // 2, patch_radius), fine)]
        axes = (_axis_nodes_gauss(edges, fine), _axis_nodes_gauss(edges, coarse))
    return (*(_FarLevel(x, w, patch_radius, order) for x, w in axes),
            _near_set(patch_radius, order))


_NEAR_SETS = weakref.WeakValueDictionary()   # (patch radius, order) -> its _NearSet
_NEAR_LOCK = threading.Lock()


def _near_set(patch_radius, order):
    """The one _NearSet of a patch radius and group order, built under a
    lock when no _far_grids key holds it: the map keeps it only while a key
    does, so _far_grids.cache_clear still drops it."""
    with _NEAR_LOCK:
        near = _NEAR_SETS.get((patch_radius, order))
        if near is None:
            near = _NEAR_SETS[patch_radius, order] = _NearSet(patch_radius, order)
    return near


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
    so the modulus integral is the dot of the cached w |v| with r.  With
    slopes (k = 1), (rows, slopes), slopes the sums of
    w v / (alpha + deficit)^2 over the fine nodes (the even and odd parts)."""
    fine = slice(0, near.parts[1].stop)
    wvs = [near.weighted(v) for v in vs]   # rows w v and w |v|
    rows = _reciprocals(near, model, alpha, k, slopes)
    r = rows[0]
    out = []
    for wv, abs_wv in wvs:
        even, odd, coarse = (float(np.dot(wv[part], r[part]))
                             for part in near.parts)
        out.append((even + odd, float(np.dot(abs_wv[fine], r[fine])),
                    abs(2 * even - coarse), abs(odd - even)))
    if not slopes:
        return out
    return out, [float(np.dot(wv[fine], rows[1][fine])) for wv, _ in wvs]


BLOCK_ALPHAS = 4   # alphas per block of reciprocal rows in _integrate_block


def _integrate_block(model, vs, alphas, spec=None):
    """The k = 1 values of every weight in vs at every alpha > 0 of alphas,
    an array of shape (alphas, weights): the one-alpha kernel's fine far
    level plus near field, BLOCK_ALPHAS alphas at a time.  Per level a block
    forms one reciprocal row per alpha and multiplies the block with the
    stacked cached w v rows, one matrix product per level and near part;
    the sums lie within rounding of the one-alpha dot products, not bitwise
    on them.  The near-field check of _integrate runs on every (alpha,
    weight), and the first failing pair, alpha first, raises NoConvergence.
    No coarse far level is read: a block returns no error estimate."""
    spec = spec or default_spec(model)
    fine, _, near = _node_sets(model, spec)
    far_wv = np.stack([fine.weighted(v) for v in vs]).T         # (nodes, weights)
    near_rows = [near.weighted(v) for v in vs]
    near_wv = np.stack([rows[0] for rows in near_rows]).T
    fine_stop = near.parts[1].stop
    abs_wv = np.stack([rows[1, :fine_stop] for rows in near_rows]).T
    alphas = np.asarray(alphas, dtype=float)
    out = np.empty((alphas.size, len(vs)))
    for start in range(0, alphas.size, BLOCK_ALPHAS):
        block = alphas[start:start + BLOCK_ALPHAS, None]
        r = np.add(block, fine.deficit(model))
        far = np.reciprocal(r, out=r) @ far_wv
        r = np.add(block, near.deficit(model))
        np.reciprocal(r, out=r)
        even, odd, coarse = (r[:, part] @ near_wv[part] for part in near.parts)
        abs_value = r[:, :fine_stop] @ abs_wv
        value = even + odd
        radial, angular = np.abs(2 * even - coarse), np.abs(odd - even)
        scale = np.maximum(np.maximum(np.abs(far + value),
                                      1e-2 * (np.abs(far) + abs_value)), 1e-300)
        bad = np.argwhere(radial + angular > spec.radial_tol * scale)
        if bad.size:
            i, j = bad[0]
            raise NoConvergence(
                f"near-field estimate above tolerance: radial {radial[i, j]:g}, "
                f"angular {angular[i, j]:g} (alpha = {block[i, 0]:g}, k = 1, "
                f"weight {vs[j].__name__})")
        out[start:start + block.shape[0]] = far + value
    return out


def _outside_balls(model, v, window, spec=None):
    """(rs, values): the near rule's graded panel edges r in the window
    (r_min, r_max), descending, and at each the integral of v / deficit^2
    over the torus minus B_r(pi_vec), the fine far level's sum plus that of
    the near rule's fine nodes outside r.  Inside delta/2, chi = 1, so each
    sum covers whole panels at their full weight."""
    spec = spec or default_spec(model)
    fine, _, near = _node_sets(model, spec)
    stop = near.parts[1].stop
    q = _reciprocals(near, model, 0.0, 2)[0, :stop]
    np.multiply(near.weighted(v)[0, :stop], q, out=q)
    # each angular part on its own radial nodes: (panel, node, angle)
    panels = sum(q[part].reshape(len(near.edges) - 1, GAUSS_ORDER, -1).sum(axis=(1, 2))
                 for part in near.parts[:2])
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
    if not math.isfinite(alpha):   # alpha <= 0 is False for NaN
        raise ValueError("alpha = z - e_max must be finite")
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

    With slopes (k = 1 only), (values, slopes) as floats: the values of the
    results and, for each, the sum of w v / (alpha + deficit)^2 over the
    fine far level and the near set's fine nodes, -d/dalpha of the value,
    from the same reciprocal rows.  They steer a root search, which reads
    no error estimate, so this call skips the coarse far level; the
    near-field check still raises NoConvergence on every weight."""
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
    fine, coarse, near = _node_sets(model, spec)
    fars = _far_values(fine, model, vs, alpha, k, slopes)
    nears = _near_values(near, model, vs, alpha, k, slopes)
    if slopes:
        (fars, far_slopes), (nears, near_slopes) = fars, nears
    values, near_errs = [], []
    for far, (value, abs_value, radial_err, angular_err) in zip(fars, nears):
        near_err = radial_err + angular_err
        if near_err > spec.radial_tol * max(abs(far + value),
                                            1e-2 * (abs(far) + abs_value), 1e-300):
            raise NoConvergence(
                f"near-field estimate above tolerance: radial {radial_err:g}, "
                f"angular {angular_err:g} (alpha = {alpha:g}, k = {k})")
        values.append(far + value)
        near_errs.append(near_err)
    if slopes:
        return values, [f + n for f, n in zip(far_slopes, near_slopes)]
    return [IntegralResult(value=value, error_estimate=abs(far - far_coarse) + near_err)
            for value, far, far_coarse, near_err in zip(
                values, fars, _far_values(coarse, model, vs, alpha, k), near_errs)]


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
