"""Independent finite-box oracle in the coordinate representation.

The operator acts on the box [-L, L]^2 by the hopping convolution plus the
five-point potential mu * (a at the origin, b at the four neighbors).  Bound
states above the band decay exponentially, so box eigenvalues converge
exponentially in L and an Aitken-type extrapolation recovers the limit.

A box holds its free operator H0 as hopping entries ehat(x), read off the
model's own data without the torus quadrature: a table's entries, or the
axis entries ehat(+-n, 0) = ehat(0, +-n) = c_n, ehat(0, 0) = 2 c_0 of a
separable kind's 1-D profile coefficients c_0..c_2L (closed form, cosine
pieces).  Its operator is the CSR matrix of this sum of shifts, the
compression of H0 to the box less the entries of size at most 16 eps
times the largest.  When every nonzero entry lies on an axis,
H0 = Phi (x) I + I (x) Phi with the Toeplitz matrix Phi = c_|i-j|
(``phi_row``), whichever kind the entries came from.

Negation x -> -x and the coordinate swap preserve the box and V, so the
operator splits into the four sectors os, oa, ea, es.  Each sector block
Q^T H Q (Q a sparse isometry onto the sector) holds its sector's
eigenvalues.  The box restriction of H0 has no eigenvalue above e_max, so by
min-max a block holds no more eigenvalues above it than mu V has positive
eigenvalues in its sector: 1 in os, oa and ea, 2 in es.

Every box counts the same way.  On a sector, mu V is D = mu b (mu diag(a,
b) in es) on the potential's one or two sector vectors Y.  For t above the
free box's spectrum the sector holds n_-(N(t)) eigenvalues above t, where
N(E) = G(E)^-1 - D with G(E) = Y^T (E - H0)^-1 Y is the box's
Birman-Schwinger matrix; N increases with E, so each of its negative
eigenvalues at t crosses zero once above t, at an eigenvalue of H.  A
Kronecker-sum box finds each such root by Newton on its branch of N, from
one ``eigh`` of the (2L + 1) x (2L + 1) matrix Phi: a secular equation of
size 1 or 2 (Golub, SIAM Rev. 15, 318 (1973)), whose eigenpairs each
Newton step takes in closed form.  Any other box keeps its CSR sector
blocks and Lanczos; an es block first counts its eigenvalues above the
cut, from one sparse LU of t - H0, and asks Lanczos for just that many.

Only the CSR matrix and Lanczos use scipy (scipy.sparse and .linalg), each
function importing it when it runs, so that importing the package, building
a box, or counting a Kronecker-sum box loads no scipy.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FitFailure, NoConvergence
from .dispersion import PI, _invariant
from .sectors import RANK_ONE_SECTORS, SECTORS

# sector blocks of at most this dimension are formed densely for eigvalsh
# (eigsh needs k < dim - 1); larger ones go to Lanczos.  The L = 30 blocks
# have dimension 900 to 961
DENSE_LIMIT = 400
# a secular root is taken once a Newton step moves it by at most this
# fraction of max(1, |E|); quadratic convergence leaves roundoff after it
_SECULAR_TOL = 1e-14
_SECULAR_STEPS = 100

_SECTOR_CHARACTERS = {
    # (parity under x -> -x, parity under coordinate swap)
    "os": (-1, +1),
    "oa": (-1, -1),
    "ea": (+1, -1),
    "es": (+1, +1),
}


@dataclass(frozen=True)   # keeps its matrix (_table_matrix) once built
class TruncatedHamiltonian:
    L: int
    a: float
    b: float
    mu: float
    hopping: dict   # (x1, x2) -> ehat(x)

    @property
    def dimension(self):
        return (2 * self.L + 1) ** 2

    def _potential_diag(self):
        n = 2 * self.L + 1
        v = np.zeros((n, n))
        c = self.L
        v[c, c] = self.a
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            v[c + dx, c + dy] = self.b
        return self.mu * v

    @cached_property
    def phi_row(self):
        """c[0..2L] of the Toeplitz row Phi when H0 = Phi (x) I + I (x) Phi,
        that is when every nonzero entry lies on an axis (c_0 = ehat(0, 0)/2,
        c_n = ehat(n, 0)); None otherwise."""
        hop = self.hopping
        if any(v for (x1, x2), v in hop.items() if x1 and x2):
            return None
        row = np.array([hop.get((n, 0), 0.0) for n in range(2 * self.L + 1)])
        row[0] /= 2.0
        return row

    @cached_property
    def _table_matrix(self):
        """The box operator as a CSR matrix, built on first use and kept:
        the four sector blocks and the operator share it.  It skips the
        entries of size at most 16 eps times the largest, such as a smooth
        profile's rounding-level tail, which would fill every row; hopping
        and phi_row keep them."""
        import scipy.sparse
        n = 2 * self.L + 1
        i, j = np.divmod(np.arange(n * n), n)
        diag = np.arange(n * n)
        rows, cols, vals = [diag], [diag], [self._potential_diag().ravel()]
        floor = 16 * np.finfo(float).eps * max(map(abs, self.hopping.values()),
                                               default=0.0)
        for (x1, x2), val in self.hopping.items():
            if abs(val) <= floor:
                continue
            site = np.flatnonzero((i + x1 >= 0) & (i + x1 < n)
                                  & (j + x2 >= 0) & (j + x2 < n))
            rows.append(site)
            cols.append(site + x1 * n + x2)
            vals.append(np.full(site.size, val))
        return scipy.sparse.csr_matrix(  # sums the diagonal duplicates
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n * n, n * n))

    def operator(self):
        """The box operator on row-major flattened (x1, x2) arrays."""
        import scipy.sparse.linalg
        return scipy.sparse.linalg.aslinearoperator(self._table_matrix)

    def sector_block(self, sector):
        return SectorBlock(self, sector, _sector_basis(self.L, sector))


@dataclass(frozen=True)
class SectorBlock:
    """The box operator restricted to one symmetry sector, Q^T H Q."""
    h: TruncatedHamiltonian
    sector: str
    basis: "scipy.sparse.csr_matrix"  # Q: orthonormal columns in the box

    @property
    def dimension(self):
        return self.basis.shape[1]

    def operator(self):
        """Q^T H Q as a CSR matrix, formed from the box's own matrix."""
        q = self.basis
        return (q.T.tocsr() @ self.h._table_matrix @ q).tocsr()


def _sector_basis(L, sector):
    """Sparse isometry Q onto one sector of the box [-L, L]^2.

    One column per orbit of {1, N, S, NS} (N: x -> -x, S: coordinate swap),
    the projection of the orbit's first point: a generic orbit gives
    (d_x + c_n d_-x + c_s d_Sx + c_n c_s d_-Sx) / 2.  On the diagonal, the
    antidiagonal and at the origin the four terms fall onto fewer points and
    cancel unless the stabilizer's characters are trivial, so those orbits
    enter only the sectors their stabilizer allows.
    """
    import scipy.sparse
    cn, cs = _SECTOR_CHARACTERS[sector]
    n = 2 * L + 1
    i, j = np.divmod(np.arange(n * n), n)
    r = n - 1                                    # index of -x is r - i
    images = ((i * n + j, 1.0), ((r - i) * n + (r - j), cn),
              (j * n + i, cs), ((r - j) * n + (r - i), cn * cs))
    first = np.minimum.reduce([idx for idx, _ in images])
    reps = np.flatnonzero(first == np.arange(n * n))
    rows = np.concatenate([idx[reps] for idx, _ in images])
    vals = np.repeat([c for _, c in images], len(reps)).astype(float)
    cols = np.tile(np.arange(len(reps)), len(images))
    q = scipy.sparse.csc_matrix((vals, (rows, cols)),
                                shape=(n * n, len(reps)))  # sums duplicates
    q.eliminate_zeros()
    norms = np.sqrt(np.asarray(q.multiply(q).sum(axis=0)).ravel())
    keep = np.flatnonzero(norms)
    return (q[:, keep] @ scipy.sparse.diags(1.0 / norms[keep])).tocsr()


def _phi_coefficients(model, n_max):
    """c_n = (1/pi) int_0^pi g(t) cos(n t) dt, n <= n_max, of the separable
    profile g in closed form: on a piece (hi, terms) of ``pieces``, from lo
    = the previous hi (or 0), of width w about mid, a term c_m cos(m t)
    gives c_m/2 (S(n - m) + S(n + m)) with S(k) = int_lo^hi cos(k t) dt =
    w cos(k mid) sinc(k w / 2pi) (numpy's sinc)."""
    n, c, lo = np.arange(n_max + 1), np.zeros(n_max + 1), 0.0
    for hi, terms in model.pieces:
        width, mid = hi - lo, 0.5 * (lo + hi)
        for m, coef in terms:
            for k in (n - m, n + m):
                c += 0.5 * coef * width * np.cos(k * mid) * np.sinc(k * width / (2 * PI))
        lo = hi
    return c / PI


def build(model, L, a=1.0, b=1.0, mu=0.0):
    """Box truncation of the operator, its H0 read off the model's own data.

    A hopping table gives its entries as they are, and ValueError when it
    is not invariant under the coordinate swap, which the sector split
    needs.  A separable kind (one with ``pieces``) gives the axis entries of
    its 1-D profile coefficients c_0..c_2L, every one the box sees:
    ehat(0, 0) = 2 c_0 and ehat(+-n, 0) = ehat(0, +-n) = c_n, so
    ``phi_row`` reads the row back bitwise.  ValueError also for an L that
    is not an integer >= 1 and for a non-finite a, b or mu.
    """
    if not isinstance(L, (int, np.integer)) or L < 1:
        raise ValueError(f"L must be an integer >= 1, got {L!r}")
    if not all(map(math.isfinite, (a, b, mu))):
        raise ValueError(f"(a, b, mu) = ({a!r}, {b!r}, {mu!r}) must be finite")
    if hasattr(model, "pieces"):
        c = _phi_coefficients(model, 2 * L)
        tail, zeros = c[1:].tolist(), [0] * (2 * L)
        hopping = {(0, 0): 2.0 * float(c[0])}
        for shifts in (range(1, 2 * L + 1), range(-1, -2 * L - 1, -1)):
            hopping.update(zip(zip(shifts, zeros), tail))
            hopping.update(zip(zip(zeros, shifts), tail))
    elif not _invariant(model, lambda x1, x2: (x2, x1)):
        raise ValueError("hopping table must satisfy ehat(x1, x2) = "
                         "ehat(x2, x1): the sector split needs the swap")
    else:
        hopping = {(x1, x2): v for x1, x2, v in model.table}
    return TruncatedHamiltonian(L=int(L), a=a, b=b, mu=mu, hopping=hopping)


# ---------------------------------------------------------------------------
# diagonalization
# ---------------------------------------------------------------------------

def _branches_above(d, g):
    """The ascending eigenvalue indices of N = G^-1 - D that cross zero
    above t.

    D (diagonal ``d``) is mu V on the potential's sector vectors Y, and
    G = Y^T X^-1 Y with X = t - H0 positive definite, because the box
    restriction of H0 stays below e_max < t.  H has as many eigenvalues
    above t as X - Y D Y^T, congruent to I - Z D Z^T with Z = X^-1/2 Y, has
    negative ones; Z D Z^T shares its nonzero eigenvalues with
    G^1/2 D G^1/2 (Z^T Z = G), so #{eig(H) > t} = n_-(I - G^1/2 D G^1/2) =
    n_-(N).  N(E) increases with E without bound, so its branches
    0 .. n_-(N(t)) - 1 are the ones that cross zero above t, each once, at
    an eigenvalue of H.
    """
    negative = np.linalg.eigvalsh(np.linalg.inv(g) - np.diag(d)) < 0
    return range(int(np.sum(negative)))


def _count_above(blk, mat, t):
    """Exact number of eigenvalues above t of a sector block held as the CSR
    matrix ``mat``.

    Write mat = H0 + W with W = Q^T diag(mu v) Q, the potential's block.
    The columns of Q have disjoint supports, so W is diagonal; its nonzero
    columns J (at most 2) are the potential's sector vectors, and
    G = S^-1[J, J] with S = t - H0 (``_branches_above``): one sparse LU of S
    and |J| solves.
    """
    import scipy.sparse.linalg
    q = blk.basis
    w = (q.T @ scipy.sparse.diags(blk.h._potential_diag().ravel()) @ q).diagonal()
    j = np.flatnonzero(w)
    if j.size == 0:
        return 0
    s = scipy.sparse.diags(t + w) - mat
    unit = np.zeros((blk.dimension, j.size))
    unit[j, np.arange(j.size)] = 1.0
    g = scipy.sparse.linalg.splu(s.tocsc()).solve(unit)[j]
    return len(_branches_above(w[j], g))


def _secular_matrix(y, poles, e):
    """G(E) = Y^T (E - H0)^-1 Y and -G'(E) from the potential's sector
    vectors ``y`` expanded in the eigenvectors of H0, whose eigenvalues are
    ``poles``."""
    inv = 1.0 / (e - poles)
    scaled = y * inv
    return scaled @ y.T, (scaled * inv) @ y.T


def _sector_potential(h, sector, u):
    """(Y, D): the potential's sector vectors expanded in U (x) U, and mu V
    on them.

    The neighbours' vector is (d_e1 + c_n d_-e1 + c_s d_e2 + c_n c_s d_-e2)/2
    with the sector's characters (c_n, c_s); es adds the origin's d_0.  The
    component of d_(x1, x2) on U_i (x) U_k is U[L + x1, i] U[L + x2, k].
    """
    cn, cs = _SECTOR_CHARACTERS[sector]
    c = h.L
    vectors = [0.5 * (np.outer(u[c + 1], u[c]) + cn * np.outer(u[c - 1], u[c])
                      + cs * np.outer(u[c], u[c + 1])
                      + cn * cs * np.outer(u[c], u[c - 1])).ravel()]
    d = [h.mu * h.b]
    if sector == "es":
        vectors.insert(0, np.outer(u[c], u[c]).ravel())
        d.insert(0, h.mu * h.a)
    return np.array(vectors), np.array(d, dtype=float)


def _symmetric_eigenpair(p, q, r, branch):
    """Eigenvalue ``branch`` (ascending) of the symmetric [[p, q], [q, r]]
    and its unit eigenvector, in closed form: the matrix is m I + h R with
    m = (p + r)/2, h = hypot((p - r)/2, q) and R the reflection whose +1
    eigenvector is (cos theta, sin theta), theta = atan2(q, (p - r)/2) / 2,
    so its eigenpairs are m - h with (-sin theta, cos theta) and m + h with
    (cos theta, sin theta)."""
    mean, half = 0.5 * (p + r), 0.5 * (p - r)
    h, theta = math.hypot(half, q), 0.5 * math.atan2(q, half)
    c, s = math.cos(theta), math.sin(theta)
    return (mean + h, (c, s)) if branch else (mean - h, (-s, c))


def _branch_value(g, d, branch):
    """(f, x): eigenvalue ``branch`` (ascending) of N = G^-1 - D for a 1x1
    or 2x2 G, and x = G^-1 v with v its unit eigenvector, with G^-1 by
    cofactors and the eigenpair by ``_symmetric_eigenpair`` on the lower
    triangle of N, the one eigh reads."""
    if len(d) == 1:
        inverse = 1.0 / g[0, 0]
        return inverse - d[0], np.array([inverse])
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    inverse = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / det
    f, v = _symmetric_eigenpair(inverse[0, 0] - d[0], inverse[1, 0],
                                inverse[1, 1] - d[1], branch)
    return f, inverse @ v


def _branch_root(y, poles, d, branch, lo, hi, at_lo, where):
    """The zero of eigenvalue ``branch`` (ascending) of N(E) = G(E)^-1 - D
    in (lo, hi), by Newton safeguarded with bisection; ``at_lo`` is
    ``_secular_matrix`` at lo, and N' = G^-1 (-G') G^-1, so the slope of a
    branch with unit eigenvector v is x^T (-G') x, x = G^-1 v
    (``_branch_value``).  NoConvergence names ``where`` and the last
    bracket."""
    e, (g, slope) = lo, at_lo
    for _ in range(_SECULAR_STEPS):
        f, x = _branch_value(g, d, branch)
        if f < 0.0:
            lo = e
        else:
            hi = e
        step = e - f / (x @ slope @ x)
        if abs(step - e) <= _SECULAR_TOL * max(1.0, abs(step)):
            return step
        e = step if lo < step < hi else 0.5 * (lo + hi)
        g, slope = _secular_matrix(y, poles, e)
    raise NoConvergence(f"secular equation did not converge {where}, last "
                        f"bracket [{lo!r}, {hi!r}]")


def _secular_entries(h, t, margin):
    """(energy, sector) of every eigenvalue above t of a separable box.

    One ``eigh`` of Phi gives the eigenpairs of H0 = Phi (x) I + I (x) Phi;
    per sector, ``_branches_above`` counts the roots of det N(E) above t,
    and each is found on its branch, bracketed by
    [t, 2 max lam + max D + margin] (the top of H0 plus that of mu V bounds
    every eigenvalue).  G(E) sums B B^T / (E - pole) with positive weights,
    so G^-1 is a parallel sum of terms linear in E and N is operator-concave
    (Anderson & Duffin, J. Math. Anal. Appl. 1969): Newton from t climbs its
    lowest branch monotonically to the root, and on N's nearly linear
    branches it takes few steps.  A step that leaves the bracket bisects it
    instead.
    """
    idx = np.arange(2 * h.L + 1)
    lam, u = np.linalg.eigh(h.phi_row[np.abs(idx[:, None] - idx[None, :])])
    if t <= 2.0 * lam[-1]:
        raise ValueError(f"cut t = {t!r} is not above the free box's top "
                         f"eigenvalue {2.0 * lam[-1]!r}")
    poles = (lam[:, None] + lam[None, :]).ravel()
    entries = []
    for sector in SECTORS:
        y, d = _sector_potential(h, sector, u)
        at_t = _secular_matrix(y, poles, t)
        hi = 2.0 * lam[-1] + np.max(d) + margin
        where = (f"in the {sector} sector of the L = {h.L} box at (a, b, mu)"
                 f" = ({h.a}, {h.b}, {h.mu}) above t = {t!r}")
        entries += [(float(_branch_root(y, poles, d, branch, t, hi, at_t,
                                        where)), sector)
                    for branch in _branches_above(d, at_t[0])]
    return entries


def eigen_pairs(h, k, above=None):
    """The k largest eigenvalues (descending) of a sector block ``h``.

    Blocks up to DENSE_LIMIT are formed densely for eigvalsh; larger ones
    go to Lanczos from a seeded start vector, so repeated runs agree to the
    bit.  Only eigenvalues are returned: sectors come from blocks.

    With a cut ``above = t``, a Lanczos-size block is asked for no more
    than its exact number of eigenvalues above t (``_count_above``), so
    Lanczos converges no eigenvalue below the cut; a returned value at or
    below t then raises NoConvergence.
    """
    import scipy.sparse.linalg
    dim = h.dimension
    op = h.operator()
    if dim <= DENSE_LIMIT:
        return np.linalg.eigvalsh(op.toarray())[::-1][:k]
    if above is not None:
        k = min(k, _count_above(h, op, above))
        if k == 0:
            return np.empty(0)
    try:
        vals = scipy.sparse.linalg.eigsh(
            op, k=min(k, dim - 2), which="LA", maxiter=10000,
            ncv=min(dim, max(40, 2 * k + 10)), return_eigenvectors=False,
            v0=np.random.default_rng(0).uniform(-1.0, 1.0, dim))
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise NoConvergence(f"Lanczos failed to converge: {exc}") from exc
    vals = np.sort(vals)[::-1]
    if above is not None and vals[-1] <= above:
        box = h.h
        raise NoConvergence(
            f"Lanczos returned {vals[-1]!r} <= t = {above!r} in the "
            f"{h.sector} block of the L = {box.L} box at (a, b, mu) = "
            f"({box.a}, {box.b}, {box.mu}), where inertia counts {k} "
            f"eigenvalue(s) above t")
    return vals


def top_eigenvalues(h, k):
    """The k largest box eigenvalues, merged from the four sector blocks."""
    vals = np.concatenate([eigen_pairs(h.sector_block(s), k) for s in SECTORS])
    return [float(v) for v in np.sort(vals)[::-1][:k]]


@dataclass(frozen=True)
class SectorCounts:
    os: int
    oa: int
    ea: int
    es: int
    total: int
    entries: tuple  # (energy, sector) descending

    @property
    def ambiguous(self):
        """Always False: every eigenvalue comes from the block of one sector,
        so its sector is never in doubt."""
        return False


def sector_count_above(h, e_max, margin, k=None):
    """Count box eigenvalues above t = e_max + margin in each symmetry sector.

    The box restriction of H0 has no eigenvalue above e_max, so by min-max a
    sector holds no more eigenvalues above it than mu V has positive
    eigenvalues there: at most 1 in os, oa and ea, 2 in es.

    Every box counts a sector's eigenvalues above t as n_-(N(t)), the
    negative inertia of N(E) = G(E)^-1 - D (``_branches_above``).  A
    Kronecker-sum box (``phi_row`` not None: every nonzero hopping entry on
    an axis, as on every separable kind) forms no block: each counted root
    is found by Newton on its branch of N, a secular equation of size 1, or
    2 in es (``_secular_entries``).  ValueError when t is not above the free
    box's top eigenvalue; NoConvergence when a root is not resolved.

    Any other box keeps its sector blocks.  On a rank-one sector mu V is
    the 1x1 matrix mu b, so where mu b <= 0 the block holds none and is not
    diagonalized; otherwise it is asked for its largest eigenvalue.  The es
    block is asked for at most 2 above t: a Lanczos-size block counts them
    first (``_count_above``) and converges only those (``eigen_pairs``),
    while a dense block is asked for 2.  The rank-one blocks skip the
    count: a factorization per block measured slower on the (1, 3, 1)
    boxes at L = 30, 45, 60, where each of them holds its bound state.

    Either way the count is exact.  ValueError for a non-finite e_max or
    margin, or a margin <= 0.  ``k`` is ignored; it is accepted so that
    callers still passing it keep working.
    """
    if not (math.isfinite(e_max) and math.isfinite(margin) and margin > 0):
        raise ValueError(f"e_max = {e_max!r} must be finite and margin = "
                         f"{margin!r} finite and positive")
    t = e_max + margin

    def block_values(s):
        if s not in RANK_ONE_SECTORS:
            return eigen_pairs(h.sector_block(s), 2, above=t)
        return eigen_pairs(h.sector_block(s), 1) if h.mu * h.b > 0 else ()

    if h.phi_row is not None:
        found = _secular_entries(h, t, margin)
    else:
        found = [(float(v), s) for s in SECTORS for v in block_values(s) if v > t]
    entries = sorted(found, key=lambda entry: -entry[0])
    counts = {s: sum(1 for _, sec in entries if sec == s) for s in SECTORS}
    return SectorCounts(**counts, total=len(entries), entries=tuple(entries))


# ---------------------------------------------------------------------------
# extrapolation in L
# ---------------------------------------------------------------------------

def extrapolate(l_values, values):
    """Limit of an exponentially converging sequence E(L) = E_inf + c rho^L.

    Uses the last three points (exact for the geometric model); the error bar
    compares against the previous triple when available.
    """
    l_values = list(l_values)
    values = [float(v) for v in values]
    if len(values) < 3:
        raise ValueError("need at least 3 values")
    if any(l2 <= l1 for l1, l2 in zip(l_values, l_values[1:])):
        raise ValueError("L values must be increasing")

    scale = max(1.0, max(abs(v) for v in values))
    spread = max(values) - min(values)

    def aitken(v1, v2, v3):
        d1, d2 = v2 - v1, v3 - v2
        # plateau at the eigensolver noise floor: the sequence has converged
        if abs(d1) < 1e-12 * scale and abs(d2) < 1e-12 * scale:
            return v3, max(abs(d1), abs(d2))
        if d2 == d1:
            raise FitFailure("degenerate differences in the L sequence")
        # a step after a flat one (d1 = 0) is no geometric tail
        rho = d2 / d1 if d1 != 0 else np.inf
        if not 0.0 <= rho < 1.0:
            raise FitFailure(
                f"sequence is not exponentially converging (rho = {rho:g})")
        limit = v3 - d2 * d2 / (d2 - d1)
        return limit, abs((limit - v3) * rho)

    limit, err = aitken(*values[-3:])
    if len(values) >= 4:
        try:
            prev, _ = aitken(*values[-4:-1])
            err = max(abs(limit - prev), 1e-16 * scale)
        except FitFailure:
            pass
    if err > spread and spread > 0:
        raise FitFailure("extrapolation residual exceeds the data spread")
    return limit, err
