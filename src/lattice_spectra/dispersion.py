"""Dispersion relations on the torus (-pi, pi]^2 and their maximum data.

Four model kinds are provided; each satisfies (or is validated against) the
standing hypotheses: real, even, swap-symmetric, with a unique non-degenerate
maximum at pi_vec = (pi, pi).  All downstream quadrature leans on exact
structure exposed here, read by one formula for every kind off the cosine
terms of e near pi_vec (``_CosineTerms``), which give e itself where the
kind has no kink and its symmetries exactly (``_invariant``).  Per kind:

  * ``e_max`` is exact per kind, so the spectral offset alpha = z - e_max
    is never computed by cancellation-prone subtraction;
  * ``hessian_at_max()`` is the kind's closed-form Hessian at pi_vec.
    morse_data takes both as given and checks the maximum by comparison:
    no node of a scan may exceed e_max;
  * ``deficit(u1, u2)`` evaluates e_max - e(pi_vec + u) in a numerically
    stable form (half-angle identities), accurate in *relative* terms down to
    |u| ~ 1e-8 where the naive difference loses every digit.

The two local searches, for e_min and for a second maximizer, are one
compass search (``_refine``) on the broadcasting ``values``, so the
module, like the package, imports no scipy.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import CutoffTooSmall, DegenerateHessian, NonMaxAtPi

PI = np.pi
PI_VEC = (np.pi, np.pi)

DROP_BELOW = 1e-14        # fourier_coefficients drops smaller coefficients
VALIDATION_GRID_N = 400   # validate_hypothesis grid points per axis
MAX_SCAN_TOL = 1e-12      # excess of a scan node over e_max, relative to e_max - e_min
REFINE_TOL = 1e-13        # _refine stops once its stencil's half-width is this small
REFINE_CALLS = 200        # _refine's budget of stencils


def wrap_torus(t):
    """Map angles to the fundamental domain (-pi, pi]."""
    out = np.mod(np.asarray(t, dtype=float) + PI, 2 * PI) - PI
    # mod sends pi to -pi; put it back on the closed right end
    return np.where(out == -PI, PI, out)


# ---------------------------------------------------------------------------
# model kinds
# ---------------------------------------------------------------------------

class _CosineTerms:
    """A kind whose e near pi_vec is sum v cos(x1 p1 + x2 p2) over the terms
    (x1, x2, v) of ``_terms``.  values(p1, p2) is that sum in table order,
    a term on one axis taken on that axis's p alone.  With a term's value w
    = v (-1)^(x1 + x2) at pi_vec, e_max = sum w, the Hessian -sum w x x^T
    and the stable deficit e_max - e(pi_vec + u) = sum w 2 sin^2(x.u / 2)."""

    def values(self, p1, p2):
        p1, p2 = np.asarray(p1, dtype=float)[()], np.asarray(p2, dtype=float)[()]
        out = sum((v * (_cos(x1, p1) if not x2 else _cos(x2, p2) if not x1
                        else np.cos(x1 * p1 + x2 * p2)) if x1 or x2 else v
                   for x1, x2, v in self._terms), 0.0)
        shape = p1.shape if p1.shape == p2.shape else np.broadcast(p1, p2).shape
        return out if getattr(out, "shape", None) == shape else out + np.zeros(shape)

    def _at_max(self):
        return [((x1, x2), v * (-1) ** (x1 + x2)) for x1, x2, v in self._terms]

    @property
    def e_max(self):
        return sum(w for _, w in self._at_max())

    def hessian_at_max(self):   # 0.0 - keeps a vanishing entry at +0.0
        return np.array([[0.0 - sum(w * (x[i] * x[j]) for x, w in self._at_max())
                          for j in (0, 1)] for i in (0, 1)])

    def deficit(self, u1, u2):   # a term on one axis takes that axis's u alone
        drops = [w * 2.0 * np.sin(u1 * (x1 / 2) if not x2 else u2 * (x2 / 2) if not x1
                                  else (x1 * u1 + x2 * u2) / 2) ** 2
                 for (x1, x2), w in self._at_max() if x1 or x2]
        return sum(drops[1:], drops[0])


def _cos(m, t):   # cos(m t), with no copy of t at m = 1
    return np.cos(t if m == 1 else m * t)


def _invariant(model, image):
    """Whether e(p) = e(image(p)), image a signed swap of the coordinates,
    read exactly off the terms: the coefficient of cos(x.p), each offset x
    merged with -x, equals that of the image of x."""
    merged, canon = {}, lambda x1, x2: max((x1, x2), (-x1, -x2))
    for x1, x2, v in model._terms:
        merged[canon(x1, x2)] = merged.get(canon(x1, x2), 0.0) + v
    return all(v == merged.get(canon(*image(*x)), 0.0) for x, v in merged.items())


class _CosinePieces(_CosineTerms):
    """A separable kind e(p) = g(p1) + g(p2) with g(t) = sum_m c_m cos(m t)
    for |t| in (the previous hi, hi] on each piece (hi, ((m, c_m), ...)) of
    ``pieces``, the first from 0.  All else is read off it: the terms as
    (0, 0, 2 c_0), (m, 0, c_m), (0, m, c_m) on the last piece, and the
    kinks +-hi; a kinked profile takes its values piece by piece."""

    def values(self, p1, p2):
        if len(self.pieces) > 1:
            return self._profile(p1) + self._profile(p2)
        return super().values(p1, p2)

    def _profile(self, t):
        t = np.abs(wrap_torus(t))
        return np.select([t <= hi for hi, _ in self.pieces],
                         [_cosine_sum(terms, t) for _, terms in self.pieces])

    @cached_property   # values reads it on every call, each polish stencil's too
    def _terms(self):   # g(p1) + g(p2) on the last piece
        return [t for m, c in self.pieces[-1][1]
                for t in (((m, 0, c), (0, m, c)) if m else ((0, 0, 2.0 * c),))]

    @property
    def breakpoints(self):
        kinks = tuple(hi for hi, _ in self.pieces[:-1])
        return tuple(-k for k in reversed(kinks)) + kinks if kinks else None


def _cosine_sum(terms, t):
    """sum_m c_m cos(m t) over the terms ((m, c_m), ...), in table order."""
    return sum((c * _cos(m, t) if m else c for m, c in terms), 0.0)


@dataclass(frozen=True)
class DiscreteLaplacian(_CosinePieces):
    """e(p) = 2 - cos p1 - cos p2 (negative discrete Laplacian symbol)."""

    kind = "laplacian"
    pieces = ((PI, ((0, 1.0), (1, -1.0))),)


@dataclass(frozen=True)
class ExponentialHopping(_CosineTerms):
    """Finite hopping table: e(p) = sum_x ehat(x) exp(i p.x).

    ``table`` is a tuple of (x1, x2, value) covering every nonzero entry,
    including both members of each +-x pair, once each: integer offsets and
    finite real values with ehat(x) = ehat(-x), which makes e real.
    """

    table: tuple

    kind = "hopping"
    breakpoints = None

    def __post_init__(self):
        entries = {}
        for x1, x2, v in self.table:
            x, v = (x1, x2), float(v)
            problem = ("offsets must be integers" if x1 % 1 or x2 % 1 else
                       "values must be finite" if not np.isfinite(v) else
                       "offsets must not repeat" if x in entries else None)
            if problem:
                raise ValueError(f"hopping table entry {(x1, x2, v)}: {problem}")
            entries[x] = v
        object.__setattr__(self, "table", tuple(
            sorted((int(x1), int(x2), v) for (x1, x2), v in entries.items())))
        for (x1, x2), v in entries.items():
            if entries.get((-x1, -x2)) != v:
                raise ValueError(f"hopping table entry {(x1, x2, v)}: "
                                 "must satisfy ehat(x) = ehat(-x)")

    _terms = property(lambda self: self.table)


@dataclass(frozen=True)
class PiecewisePhi(_CosinePieces):
    """Separable kinked profile: e = phi(p1) + phi(p2),
    phi(t) = -cos t - cos(eps) for |t| > pi - eps, else 0, with eps in (0,1)."""

    eps: float

    kind = "piecewise_phi"

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")

    @property
    def pieces(self):
        return ((PI - self.eps, ()), (PI, ((0, -np.cos(self.eps)), (1, -1.0))))


@dataclass(frozen=True)
class SteppedPhiA(_CosinePieces):
    """One-parameter kinked family used for the multiplicity-two construction.

    phi_A(t) = A cos t on |t| <= pi/2, 0 on pi/2 < |t| <= 3pi/4, cos 2t on
    3pi/4 < |t| <= pi; the dispersion is e_A(p) = (phi_A(p1) + phi_A(p2))/2,
    normalized so e_max = e_A(pi_vec) = 1 and e_min = 0 for every A in [0,1].
    The maximum at pi_vec is unique iff A < 1, and validate_hypothesis
    enforces it: at A = 1 the value 1 is also attained at (0,0), (0,pi),
    (pi,0) and is rejected as not unique; below 1 the lower local maximum A
    at the origin passes while 1 - A exceeds the check's 1e-9.
    """

    a_param: float

    kind = "stepped_phi"

    def __post_init__(self):
        if not 0.0 <= self.a_param <= 1.0:
            raise ValueError("A must lie in [0, 1]")

    @property
    def pieces(self):   # g = phi_A / 2
        return ((PI / 2, ((1, 0.5 * self.a_param),)), (3 * PI / 4, ()), (PI, ((2, 0.5),)))


# ---------------------------------------------------------------------------
# Morse data at the maximizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MorseData:
    e_max: float
    e_min: float
    maximizer: tuple
    hessian: tuple  # 2x2, row tuples
    j_psi0: float
    j0: float

    @property
    def hessian_matrix(self):
        return np.array(self.hessian)


def _grid_values(model, n):
    """(e on the offset n x n grid, the grid's axis).  e is evaluated on the
    broadcast axes, so a separable model costs two axis evaluations."""
    grid = -PI + (np.arange(n) + 0.5) * (2 * PI / n)
    return model.values(grid[:, None], grid[None, :]), grid


def _check_not_above(e_max, e_min, e, p):
    """NonMaxAtPi when e = e(p) exceeds e_max by more than
    MAX_SCAN_TOL (e_max - e_min), a bound that scales with e."""
    if e > e_max + MAX_SCAN_TOL * (e_max - e_min):
        raise NonMaxAtPi(f"e({p[0]:.6g}, {p[1]:.6g}) = {e:.17g} exceeds "
                         f"e(pi, pi) = {e_max:.17g}")


_STENCIL = np.linspace(-1.0, 1.0, 9)


def _refine(f, x0, step):
    """(min f, its argument) near x0 by a compass search (Hooke & Jeeves,
    J. ACM 8, 212 (1961); Torczon, SIAM J. Optim. 7, 1 (1997)): f, which
    takes broadcast coordinate arrays, on the 9 x 9 stencil spanning
    +-step around the best point so far; a move to a strictly lower node
    keeps step, else step shrinks by 4, until it is at most REFINE_TOL or
    REFINE_CALLS stencils are spent."""
    x, fx = np.array(x0, dtype=float), None
    for _ in range(REFINE_CALLS):
        if step <= REFINE_TOL:
            break
        p1, p2 = x[0] + step * _STENCIL[:, None], x[1] + step * _STENCIL[None, :]
        vals = f(p1, p2)
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        fx = vals[4, 4]
        if vals[i, j] < fx:
            x, fx = np.array([p1[i, 0], p2[0, j]]), vals[i, j]
        else:
            step /= 4
    return float(fx), x


@lru_cache(maxsize=64)
def morse_data(model):
    """Maximum data at pi_vec and the minimum of e (cached per model).

    e_max and the Hessian are the kind's closed forms.  The maximum at
    pi_vec is checked by comparison: NonMaxAtPi when a node of the offset
    512 x 512 scan (which never holds pi_vec) exceeds e_max by more than
    MAX_SCAN_TOL (e_max - e_min), e_min the scan's lowest node.
    DegenerateHessian when |det H| is below 1e-10 max|H_ij|^2; both bounds
    scale with e.  The same scan's lowest node seeds the polish of e_min, a
    compass search (``_refine``) from a stencil as wide as the scan's step,
    whose value is taken when it is below that node's.
    """
    e_max = float(model.e_max)
    vals, grid = _grid_values(model, 512)
    lo = np.unravel_index(np.argmin(vals), vals.shape)   # the scan's lowest node
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    _check_not_above(e_max, vals[lo], vals[i, j], (grid[i], grid[j]))

    hessian = model.hessian_at_max()
    det = float(np.linalg.det(hessian))
    if abs(det) < 1e-10 * np.max(np.abs(hessian)) ** 2:
        raise DegenerateHessian(f"det(hessian) = {det:g} at the maximizer")
    if np.max(np.linalg.eigvalsh(hessian)) >= 0:
        raise DegenerateHessian("hessian at the maximizer is not negative definite")

    # minimum: the scan's lowest node plus local polish
    fun, _ = _refine(model.values, (grid[lo[0]], grid[lo[1]]), 2 * PI / 512)
    e_min = float(min(fun, vals[lo]))

    j_psi0 = 2.0 / np.sqrt(det)
    return MorseData(e_max=e_max, e_min=e_min, maximizer=PI_VEC,
                     hessian=tuple(tuple(float(x) for x in row) for row in hessian),
                     j_psi0=float(j_psi0), j0=float(j_psi0 / (4 * PI)))


# ---------------------------------------------------------------------------
# Fourier analysis / validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HoppingTable:
    entries: tuple   # sorted ((x1, x2), value) pairs, |x|_inf <= cutoff
    cutoff: int
    tail: float      # l1 mass on the first excluded shell |x|_inf = cutoff + 1

    def as_dict(self):
        return dict(self.entries)


def fourier_coefficients(model, cutoff, tol=None):
    """Hopping coefficients ehat(x), |x|_inf <= cutoff, by 2-D FFT.

    The tail estimate is the l1 mass on the first shell outside the table;
    CutoffTooSmall is raised when it exceeds ``tol``.
    """
    R = int(cutoff)
    if R < 1:
        raise ValueError("cutoff must be >= 1")
    N = max(256, 8 * (R + 2))
    grid = -PI + 2 * PI * np.arange(N) / N
    coef = np.fft.fft2(model.values(grid[:, None], grid[None, :])) / N ** 2

    def ehat(x1, x2):
        c = coef[x1 % N, x2 % N] * (-1) ** (x1 + x2)
        return float(np.real(c))

    entries = []
    for x1 in range(-R, R + 1):
        for x2 in range(-R, R + 1):
            v = ehat(x1, x2)
            if abs(v) > DROP_BELOW:
                entries.append(((x1, x2), v))

    shell = R + 1
    tail = 0.0
    for x1 in range(-shell, shell + 1):
        for x2 in range(-shell, shell + 1):
            if max(abs(x1), abs(x2)) == shell:
                tail += abs(ehat(x1, x2))

    if tol is not None and tail > tol:
        raise CutoffTooSmall(f"l1 tail {tail:g} beyond |x|_inf = {R} exceeds {tol:g}")
    return HoppingTable(entries=tuple(sorted(entries)), cutoff=R, tail=tail)


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    failures: tuple


def validate_hypothesis(model):
    """Swap symmetry read exactly off the terms (every kind is even by
    construction); morse_data's checks of the maximum at pi_vec and its
    Hessian; a polish of the best node of the offset 400 x 400 grid off the
    square |p - pi_vec|_inf <= 0.5 for a second maximizer, by ``_refine``
    on -e from a stencil as wide as the grid's step, run only when that
    node comes within 1e-3 (e_max - e_min) of e_max; the maximum is not
    unique when the polished value comes within 1e-9 (e_max - e_min)."""
    failures = []
    if not _invariant(model, lambda x1, x2: (x2, x1)):
        failures.append("swap symmetry: e(p1,p2) != e(p2,p1)")
    vals, grid = _grid_values(model, VALIDATION_GRID_N)

    try:
        md = morse_data(model)
        near = np.abs(wrap_torus(grid - PI)) <= 0.5
        outside = np.where(near[:, None] & near[None, :], -np.inf, vals)
        i, j = np.unravel_index(np.argmax(outside), outside.shape)
        if md.e_max - outside[i, j] < 1e-3 * (md.e_max - md.e_min):
            # candidate competing maximum; polish it before judging
            fun, x = _refine(lambda p1, p2: -model.values(p1, p2),
                             (grid[i], grid[j]), 2 * PI / VALIDATION_GRID_N)
            _check_not_above(md.e_max, md.e_min, -fun, x)
            if -fun >= md.e_max - 1e-9 * (md.e_max - md.e_min):
                failures.append("maximum: not unique (second maximizer away from (pi, pi))")
    except NonMaxAtPi:
        failures.append("maximum: e exceeds e(pi, pi) away from (pi, pi)")
    except DegenerateHessian:
        failures.append("hessian: degenerate at (pi, pi)")

    return ValidationReport(passed=not failures, failures=tuple(failures))


@lru_cache(maxsize=64)
def is_even_per_coordinate(model):
    """True when e(p1, p2) = e(-p1, p2), read exactly off the terms (cached
    per model: every torus integral asks, to pick its node sets)."""
    return _invariant(model, lambda x1, x2: (-x1, x2))


# ---------------------------------------------------------------------------
# JSON model specs
# ---------------------------------------------------------------------------

def model_from_spec(spec):
    """Build a model from {"kind": ..., "params": {...}}; ValueError names a bad spec."""
    try:
        kind = spec.get("kind")
        params = spec.get("params", {}) or {}
        if kind == "laplacian":
            return DiscreteLaplacian()
        if kind == "hopping":
            return ExponentialHopping(table=tuple(map(tuple, params["table"])))
        if kind == "piecewise_phi":
            return PiecewisePhi(eps=float(params["eps"]))
        if kind == "stepped_phi":
            return SteppedPhiA(a_param=float(params["A"]))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad model spec {spec!r}: {type(exc).__name__}: {exc}") from exc
    raise ValueError(f"unknown model kind: {kind!r}")


def model_to_spec(model):
    if model.kind == "laplacian":
        return {"kind": "laplacian", "params": {}}
    if model.kind == "hopping":
        return {"kind": "hopping",
                "params": {"table": [[x1, x2, v] for x1, x2, v in model.table]}}
    if model.kind == "piecewise_phi":
        return {"kind": "piecewise_phi", "params": {"eps": model.eps}}
    if model.kind == "stepped_phi":
        return {"kind": "stepped_phi", "params": {"A": model.a_param}}
    raise ValueError(f"unknown model kind: {model.kind!r}")
