import ast
import functools
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse
from hypothesis import assume, example, given, settings, strategies as st

from lattice_spectra import lattice_oracle as lo
from lattice_spectra.determinant import find_eigenvalue_rank_one
from lattice_spectra.dispersion import (DiscreteLaplacian, ExponentialHopping,
                                        PiecewisePhi, SteppedPhiA,
                                        validate_hypothesis)
from lattice_spectra.errors import FitFailure, NoConvergence
from test_dispersion import diagonal_hop_table, hopping_table, laplacian_table


def test_separable_coefficients_laplacian(lap):
    h = lo.build(lap, 6, a=1.0, b=1.0, mu=0.0)
    assert h.phi_row[0] == pytest.approx(1.0, abs=1e-12)
    assert h.phi_row[1] == pytest.approx(-0.5, abs=1e-12)
    assert np.max(np.abs(h.phi_row[2:])) < 1e-12


@pytest.mark.parametrize("model", [DiscreteLaplacian(), PiecewisePhi(eps=0.5),
                                   SteppedPhiA(a_param=0.5)],
                         ids=("laplacian", "piecewise-0.5", "stepped-0.5"))
def test_phi_coefficients_match_quadrature_of_values(model):
    # an independent reference: adaptive quadrature of g(t) cos(n t), with
    # g(t) = e(t, t)/2 read from values and the kinks as break points, for
    # every n <= 160 at once (quad_vec, the vector form of quad)
    n = np.arange(161)
    kinks = [k for k in (model.breakpoints or ()) if k > 0] or None
    ref, _ = scipy.integrate.quad_vec(
        lambda t: model.values(t, t) / 2 * np.cos(n * t), 0.0, np.pi,
        points=kinks, epsabs=1e-15, epsrel=0.0, norm="max", limit=10000)
    assert np.max(np.abs(lo._phi_coefficients(model, 160) - ref / np.pi)) < 1e-14


def test_separable_and_sparse_paths_agree(lap):
    # the profile box of the Laplacian and the table box of its hopping table
    h1 = lo.build(lap, 10, a=1.0, b=3.0, mu=1.0)
    h2 = lo.build(laplacian_table(), 10, a=1.0, b=3.0, mu=1.0)
    assert h1.phi_row is not None and h2.hopping is not None
    v1 = lo.top_eigenvalues(h1, 5)
    v2 = lo.top_eigenvalues(h2, 5)
    assert np.max(np.abs(np.array(v1) - np.array(v2))) < 1e-12


def test_profile_matrix_drops_the_rounding_tail(lap):
    # the Laplacian profile's rounding-level axis entries stay out of its
    # CSR matrix, which then holds the five-point stencil of its table
    h1 = lo.build(lap, 45, a=1.0, b=3.0, mu=1.0)
    h2 = lo.build(laplacian_table(), 45, a=1.0, b=3.0, mu=1.0)
    assert h1._table_matrix.nnz == h2._table_matrix.nnz
    v1, v2 = lo.top_eigenvalues(h1, 6), lo.top_eigenvalues(h2, 6)
    assert np.max(np.abs(np.array(v1) - np.array(v2))) < 1e-12


def _kron_reference(h, model):
    """Dense box matrix from the five-point potential and the untruncated
    1-D profile, or the model's own hopping table."""
    n = 2 * h.L + 1
    v = np.zeros((n, n))
    v[h.L, h.L] = h.a
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        v[h.L + dx, h.L + dy] = h.b
    eye = np.eye(n)
    if hasattr(model, "table"):
        hop = sum(val * np.kron(np.eye(n, k=x1), np.eye(n, k=x2))
                  for x1, x2, val in model.table)
    else:
        idx = np.arange(n)
        phi = h.phi_row[np.abs(idx[:, None] - idx[None, :])]
        hop = np.kron(phi, eye) + np.kron(eye, phi)
    return hop + np.diag(h.mu * v.ravel())


def _sector_traces(vecs, n):
    """Sum over the columns of |P_s v|^2 for each sector projection P_s."""
    out = {}
    for s, (cn, cs) in (("os", (-1, 1)), ("oa", (-1, -1)),
                        ("ea", (1, -1)), ("es", (1, 1))):
        total = 0.0
        for vec in vecs.T:
            m = vec.reshape(n, n)
            mn = m[::-1, ::-1]
            p = (m + cn * mn + cs * m.T + cn * cs * mn.T) / 4.0
            total += float(np.sum(p * p))
        out[s] = total
    return out


def test_operator_matches_dense(lap):
    h = lo.build(lap, 4, a=1.0, b=2.0, mu=1.5)
    ref = _kron_reference(h, lap)
    assert np.allclose(h.operator() @ np.eye(h.dimension), ref, atol=1e-12)
    blocks = [h.sector_block(s) for s in ("os", "oa", "ea", "es")]
    assert sum(blk.dimension for blk in blocks) == (2 * h.L + 1) ** 2
    union = np.sort(np.concatenate([lo.eigen_pairs(blk, blk.dimension)
                                    for blk in blocks]))
    assert np.max(np.abs(union - np.linalg.eigvalsh(ref))) < 1e-12


# nearest plus next-nearest hopping with t2 = 0.1
NEXT_NEAREST = ExponentialHopping(table=(
    (0, 0, 2.0), (1, 0, -0.5), (-1, 0, -0.5), (0, 1, -0.5), (0, -1, -0.5),
    (1, 1, -0.05), (-1, -1, -0.05), (1, -1, -0.05), (-1, 1, -0.05)))
# a table with off-axis hopping and two separable profiles
BLOCK_MODELS = {"laplacian": DiscreteLaplacian(),
                "next-nearest-t2-0.1": NEXT_NEAREST,
                "stepped-0.5": SteppedPhiA(a_param=0.5)}


@pytest.mark.parametrize("model", [DiscreteLaplacian(), laplacian_table(),
                                   NEXT_NEAREST, SteppedPhiA(a_param=0.5)],
                         ids=("laplacian", "laplacian-table", "next-nearest",
                              "stepped-0.5"))
def test_every_operator_is_csr_backed(model):
    # one operator path: the box operator is the box's own CSR matrix,
    # whichever kind the hopping entries came from
    h = lo.build(model, 4, a=1.0, b=2.0, mu=1.5)
    op = h.operator()
    assert op.A is h._table_matrix and op.A.format == "csr"
    ref = _kron_reference(h, model)
    assert np.max(np.abs(op @ np.eye(h.dimension) - ref)) < 1e-13


@pytest.mark.parametrize("name", BLOCK_MODELS)
@settings(max_examples=20)
@given(L=st.integers(3, 6), a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0),
       mu=st.floats(0.2, 4.0))
def test_sector_blocks_match_reference(name, L, a, b, mu):
    model = BLOCK_MODELS[name]
    h = lo.build(model, L, a=a, b=b, mu=mu)
    assert (h.phi_row is not None) == (not hasattr(model, "table"))
    ref = _kron_reference(h, model)
    for s in ("os", "oa", "ea", "es"):
        blk = h.sector_block(s)
        op = blk.operator()
        assert op.format == "csr"
        q = blk.basis.toarray()
        assert np.max(np.abs(op @ np.eye(blk.dimension) - q.T @ ref @ q)) < 1e-13


def _spy_lanczos(monkeypatch):
    """Record the k each sector block is asked for by ``sector_count_above``,
    and the k and operator products of the block's Lanczos solve."""
    asked, lanczos = {}, {}
    eigen_pairs, eigsh = lo.eigen_pairs, scipy.sparse.linalg.eigsh

    def spy_pairs(blk, k, above=None):
        asked[blk.sector] = k
        return eigen_pairs(blk, k, above)

    def spy_eigsh(op, k, **kwargs):
        record = lanczos[next(reversed(asked))] = {"k": k, "products": 0}

        def matvec(x):
            record["products"] += 1
            return op @ x

        return eigsh(scipy.sparse.linalg.LinearOperator(
            op.shape, matvec=matvec, dtype=float), k=k, **kwargs)

    monkeypatch.setattr(lo, "eigen_pairs", spy_pairs)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy_eigsh)
    return asked, lanczos


# the spies run on a table with off-axis hopping: an axis-only one takes the
# secular path and forms no block
E_MAX_NN = float(NEXT_NEAREST.e_max)


@pytest.mark.parametrize("L", (8, 20))   # dense and Lanczos blocks
def test_sector_count_asks_each_block_for_its_rank(monkeypatch, L):
    h = lo.build(NEXT_NEAREST, L, a=1.0, b=3.0, mu=1.0)
    asked, lanczos = _spy_lanczos(monkeypatch)
    sc = lo.sector_count_above(h, E_MAX_NN, 1e-3)
    # min-max bounds each block's count by its rank; the Lanczos-size blocks
    # (all but ea at L = 20) are asked for exactly their count, which for
    # es is its inertia count
    assert asked == {"os": 1, "oa": 1, "ea": 1, "es": 2}
    assert ({s: rec["k"] for s, rec in lanczos.items()}
            == ({} if L == 8 else {"os": 1, "oa": 1, "es": 1}))
    for s in ("os", "oa", "ea", "es"):
        blk = h.sector_block(s)
        full = np.linalg.eigvalsh(blk.operator() @ np.eye(blk.dimension))
        want = np.sort(full[full > E_MAX_NN + 1e-3])
        got = np.sort([v for v, t in sc.entries if t == s])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) < 1e-10


def test_es_lanczos_work_stays_near_a_rank_one_block(monkeypatch):
    # es holds one bound state at (1, 3, 1): asked for 2 without the cut,
    # Lanczos converged a continuum state near e_max in 707 products,
    # against 41 for os
    h = lo.build(NEXT_NEAREST, 45, a=1.0, b=3.0, mu=1.0)
    _, lanczos = _spy_lanczos(monkeypatch)
    lo.sector_count_above(h, E_MAX_NN, 5e-3)
    assert lanczos["es"]["products"] <= 2 * lanczos["os"]["products"]


@pytest.mark.parametrize("a, b, mu, es", ((-1.0, -1.0, 2.0, ()),
                                          (2.0, -1.0, 2.0, (6.162178264876797,))))
def test_rank_one_blocks_without_positive_mu_b_are_skipped(monkeypatch, a, b,
                                                           mu, es):
    # mu V is the 1x1 matrix mu b on a rank-one sector, so by min-max such a
    # block holds nothing above e_max when mu b <= 0; Lanczos spent 301
    # products per block converging a continuum state there at L = 45
    h = lo.build(NEXT_NEAREST, 45, a=a, b=b, mu=mu)
    asked, lanczos = _spy_lanczos(monkeypatch)
    sc = lo.sector_count_above(h, E_MAX_NN, 1e-3)
    assert asked == {"es": 2}
    assert set(lanczos) == ({"es"} if es else set())
    assert (sc.os, sc.oa, sc.ea, sc.es, sc.total) == (0, 0, 0, len(es), len(es))
    assert [v for v, _ in sc.entries] == pytest.approx(list(es), abs=1e-10)


def test_lanczos_value_below_the_cut_raises(monkeypatch):
    # an es block whose inertia count is 1 must not drop a Lanczos value
    # below the cut; the rank-one blocks filter theirs
    h = lo.build(NEXT_NEAREST, 20, a=1.0, b=3.0, mu=1.0)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                        lambda op, k, **kwargs: np.full(k, 3.7))
    with pytest.raises(NoConvergence, match=r"t = 3\.801 in the es block of "
                       r"the L = 20 box at \(a, b, mu\) = \(1\.0, 3\.0, 1\.0\)"):
        lo.sector_count_above(h, E_MAX_NN, 1e-3)


DIAGONAL_HOP = diagonal_hop_table(0.1)


@settings(max_examples=8, deadline=None)
@given(model=st.sampled_from((NEXT_NEAREST, DIAGONAL_HOP)),
       L=st.sampled_from((28, 30)),
       a=st.one_of(st.just(0.0), st.floats(-3.0, 6.0)),
       b=st.one_of(st.just(0.0), st.floats(-3.0, 6.0)),
       mu=st.one_of(st.just(0.0), st.floats(0.2, 3.0)))
# es holds 0, 1 and 2 bound states; then a = 0, b = 0 and mu = 0; then 2 on
# the diagonal-hop table, which is not even per coordinate; neither H0 is a
# Kronecker sum, so neither box takes the secular path
@example(model=NEXT_NEAREST, L=28, a=-1.0, b=-1.0, mu=2.0)
@example(model=NEXT_NEAREST, L=28, a=1.0, b=3.0, mu=1.0)
@example(model=NEXT_NEAREST, L=28, a=3.0, b=3.0, mu=1.0)
@example(model=NEXT_NEAREST, L=30, a=0.0, b=3.0, mu=1.0)
@example(model=NEXT_NEAREST, L=28, a=5.0, b=0.0, mu=1.0)
@example(model=NEXT_NEAREST, L=30, a=1.0, b=1.0, mu=0.0)
@example(model=DIAGONAL_HOP, L=28, a=3.0, b=3.0, mu=1.0)
def test_lanczos_blocks_match_dense_eigvalsh(model, L, a, b, mu):
    # every block of these table boxes is larger than DENSE_LIMIT, so es
    # takes the inertia count and the others Lanczos for their rank
    cutoff = float(model.e_max) + 1e-3
    h = lo.build(model, L, a=a, b=b, mu=mu)
    want = {}
    for s in ("os", "oa", "ea", "es"):
        blk = h.sector_block(s)
        assert blk.dimension > lo.DENSE_LIMIT
        full = np.linalg.eigvalsh(blk.operator().toarray())
        assume(np.min(np.abs(full - cutoff)) > 1e-8)
        want[s] = np.sort(full[full > cutoff])
    sc = lo.sector_count_above(h, float(model.e_max), 1e-3)
    for s in ("os", "oa", "ea", "es"):
        got = np.sort([v for v, t in sc.entries if t == s])
        assert getattr(sc, s) == got.size == want[s].size
        assert np.max(np.abs(got - want[s]), initial=0.0) < 1e-10


def _table_box_entries(table, L, a, b, mu, margin):
    """{sector: ascending energies above e_max + margin} of a table box."""
    model = ExponentialHopping(table=table)
    sc = lo.sector_count_above(lo.build(model, L, a=a, b=b, mu=mu),
                               float(model.e_max), margin)
    return {s: sorted(v for v, t in sc.entries if t == s)
            for s in ("os", "oa", "ea", "es")}


@settings(max_examples=10, deadline=None)
@given(t=st.floats(-1.0, -0.1), d1=st.floats(-0.2, 0.2),
       d2=st.floats(-0.2, 0.2), s=st.floats(-0.05, 0.05),
       L=st.sampled_from((10, 24)), a=st.floats(-3.0, 6.0),
       b=st.floats(-3.0, 6.0), mu=st.floats(0.2, 3.0))
# d1 != d2: os and oa apart, so the reflection has something to exchange
@example(t=-0.5, d1=0.1, d2=-0.1, s=0.01, L=24, a=1.0, b=3.0, mu=1.0)
def test_table_box_relations(t, d1, d2, s, L, a, b, mu):
    # three exact relations of H = H0 + mu V, each made on the table: it
    # doubles with (ehat, mu), shifts with ehat(0, 0), and the reflection
    # (x1, x2) -> (x1, -x2), which keeps V, conjugates the swap into the
    # swap times negation, so it exchanges os and oa and keeps ea and es
    model = hopping_table(t, d1, d2, s)
    assume(validate_hypothesis(model).passed)
    table, margin = model.table, 1e-3
    base = _table_box_entries(table, L, a, b, mu, margin)
    related = {
        "doubled": (tuple((x1, x2, 2.0 * v) for x1, x2, v in table), 2.0,
                    {sec: [2.0 * v for v in vals] for sec, vals in base.items()}),
        "shifted": (tuple((x1, x2, v + 0.375 * (x1 == x2 == 0))
                          for x1, x2, v in table), 1.0,
                    {sec: [v + 0.375 for v in vals] for sec, vals in base.items()}),
        "reflected": (tuple((x1, -x2, v) for x1, x2, v in table), 1.0,
                      {**base, "os": base["oa"], "oa": base["os"]}),
    }
    for name, (image, scale, want) in related.items():
        got = _table_box_entries(image, L, a, b, scale * mu, scale * margin)
        assert {sec: len(v) for sec, v in got.items()} == {
            sec: len(v) for sec, v in want.items()}, name
        for sec in got:
            assert np.max(np.abs(np.subtract(got[sec], want[sec])),
                          initial=0.0) < 1e-12, (name, sec)


SEPARABLE_MODELS = {"laplacian": DiscreteLaplacian(),
                    "stepped-0.5": SteppedPhiA(a_param=0.5),
                    "piecewise-0.5": PiecewisePhi(eps=0.5)}
_COUPLING = st.one_of(st.just(0.0), st.floats(-3.0, 6.0))


@pytest.mark.parametrize("name", SEPARABLE_MODELS)
@settings(max_examples=25, deadline=None)
@given(L=st.integers(3, 6), a=_COUPLING, b=_COUPLING,
       mu=st.one_of(st.just(0.0), st.floats(0.2, 4.0)))
def test_secular_counts_match_dense_sector_blocks(name, L, a, b, mu):
    # a separable box is counted and solved from one eigh of Phi; compare
    # with eigvalsh of each sector's projection of the dense box matrix
    model = SEPARABLE_MODELS[name]
    cutoff = float(model.e_max) + 1e-3
    h = lo.build(model, L, a=a, b=b, mu=mu)
    ref = _kron_reference(h, model)
    want = {}
    for s in ("os", "oa", "ea", "es"):
        q = h.sector_block(s).basis.toarray()
        full = np.linalg.eigvalsh(q.T @ ref @ q)
        assume(np.min(np.abs(full - cutoff)) > 1e-8)
        want[s] = np.sort(full[full > cutoff])
    sc = lo.sector_count_above(h, float(model.e_max), 1e-3)
    for s in ("os", "oa", "ea", "es"):
        got = np.sort([v for v, t in sc.entries if t == s])
        assert getattr(sc, s) == got.size == want[s].size
        assert np.max(np.abs(got - want[s]), initial=0.0) < 1e-10


@pytest.mark.parametrize("model, L", ((DiscreteLaplacian(), 45),
                                      (SteppedPhiA(a_param=0.5), 20)))
def test_separable_boxes_call_no_eigensolver(monkeypatch, model, L):
    # the reference top_eigenvalues runs Lanczos on the CSR blocks of both
    h = lo.build(model, L, a=1.0, b=3.0, mu=1.0)
    t = float(model.e_max) + 5e-3
    want = [v for v in lo.top_eigenvalues(h, 6) if v > t]
    _forbid_eigensolvers(monkeypatch)
    sc = lo.sector_count_above(h, float(model.e_max), 5e-3)
    assert sc.total == len(want) >= 4
    assert [v for v, _ in sc.entries] == pytest.approx(want, abs=1e-12)


def _forbid_eigensolvers(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a Kronecker-sum box is solved without eigsh")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", forbidden)
    monkeypatch.setattr(lo, "eigen_pairs", forbidden)


@pytest.mark.parametrize("L", (30, 45))
def test_laplacian_profile_and_table_boxes_take_the_secular_path(monkeypatch,
                                                                  lap, L):
    # the profile's axis entries and the table's five entries give the same
    # Toeplitz row up to the profile's rounding-level tail
    _forbid_eigensolvers(monkeypatch)
    h1 = lo.build(lap, L, a=1.0, b=3.0, mu=1.0)
    h2 = lo.build(laplacian_table(), L, a=1.0, b=3.0, mu=1.0)
    assert np.max(np.abs(h1.phi_row - h2.phi_row)) < 1e-15
    sc1 = lo.sector_count_above(h1, 4.0, 5e-3)
    sc2 = lo.sector_count_above(h2, 4.0, 5e-3)
    assert (sc1.os, sc1.oa, sc1.ea, sc1.es) == (sc2.os, sc2.oa, sc2.ea, sc2.es) \
        == (1, 1, 1, 1)
    for (v1, s1), (v2, s2) in zip(sc1.entries, sc2.entries):
        assert s1 == s2 and abs(v1 - v2) < 1e-13


@settings(max_examples=15, deadline=None)
@given(t=st.floats(-1.0, -0.1), s=st.one_of(st.just(0.0), st.floats(-0.05, 0.05)),
       L=st.integers(3, 6), a=_COUPLING, b=_COUPLING,
       mu=st.one_of(st.just(0.0), st.floats(0.2, 4.0)))
def test_axis_only_tables_take_the_secular_path(t, s, L, a, b, mu):
    # hopping_table(t, 0, 0, s) lists its diagonals with the value 0.0: only
    # an entry with a nonzero value off the axes needs the sector blocks
    model = hopping_table(t, 0.0, 0.0, s)
    assume(validate_hypothesis(model).passed)
    cutoff = float(model.e_max) + 1e-3
    h = lo.build(model, L, a=a, b=b, mu=mu)
    assert h.phi_row is not None
    ref = _kron_reference(h, model)
    want = {}
    for sec in ("os", "oa", "ea", "es"):
        q = h.sector_block(sec).basis.toarray()
        full = np.linalg.eigvalsh(q.T @ ref @ q)
        assume(np.min(np.abs(full - cutoff)) > 1e-8)
        want[sec] = np.sort(full[full > cutoff])
    with pytest.MonkeyPatch.context() as patch:
        _forbid_eigensolvers(patch)
        sc = lo.sector_count_above(h, float(model.e_max), 1e-3)
    for sec in ("os", "oa", "ea", "es"):
        got = np.sort([v for v, u in sc.entries if u == sec])
        assert getattr(sc, sec) == got.size == want[sec].size
        assert np.max(np.abs(got - want[sec]), initial=0.0) < 1e-10


def test_symmetric_eigenpair_matches_eigh():
    # the closed form that steers each secular Newton step, against LAPACK
    # on seeded random symmetric 2x2 matrices with entries of mixed scales,
    # and on the degenerate and diagonal ones
    rng = np.random.default_rng(11)
    mats = rng.normal(size=(2000, 3)) * rng.choice([1e-3, 1.0, 1e3], (2000, 3))
    mats = np.vstack((mats, [[1.0, 0.0, 1.0], [2.0, 0.0, -1.0], [-1.0, 0.0, 2.0],
                             [0.0, 1.0, 0.0], [1.0, -1e-300, 1.0]]))
    for p, q, r in mats:
        vals, vecs = np.linalg.eigh([[p, q], [q, r]])
        scale = np.abs(vals).max()
        for branch in (0, 1):
            f, v = lo._symmetric_eigenpair(p, q, r, branch)
            assert abs(f - vals[branch]) <= 1e-14 * scale
            # a unit eigenvector is fixed up to its sign, and to roundoff
            # over the relative gap between the eigenvalues
            off = min(np.abs(np.subtract(v, vecs[:, branch])).max(),
                      np.abs(np.add(v, vecs[:, branch])).max())
            assert off * (vals[1] - vals[0]) <= 1e-14 * scale
            assert np.hypot(*v) == pytest.approx(1.0, abs=1e-15)


def test_secular_es_root_with_a_negative_coupling(lap):
    # D = mu diag(a, b) has one negative entry at (-1, 2, 2.5); es's one
    # root above t lies on branch 0 of N(E) = G(E)^-1 - D
    h = lo.build(lap, 20, a=-1.0, b=2.0, mu=2.5)
    blk = lo.build(laplacian_table(), 20, a=-1.0, b=2.0, mu=2.5).sector_block("es")
    full = np.linalg.eigvalsh(blk.operator().toarray())
    want = full[full > 4.0 + 1e-3]
    sc = lo.sector_count_above(h, 4.0, 1e-3)
    assert sc.es == want.size == 1
    assert [v for v, s in sc.entries if s == "es"] == pytest.approx(want, abs=1e-12)


def test_secular_cut_must_clear_the_free_box(lap):
    h = lo.build(lap, 5, a=1.0, b=3.0, mu=1.0)
    n = 2 * h.L + 1
    idx = np.arange(n)
    # the same eigh of Phi as the oracle's, so the same last bits
    top = 2.0 * np.linalg.eigh(h.phi_row[np.abs(idx[:, None] - idx[None, :])])[0][-1]
    margin = 2.0 ** -10
    assert (top - margin) + margin == top
    for e_max in (top - margin, top - 0.25):
        with pytest.raises(ValueError, match="free box's top eigenvalue"):
            lo.sector_count_above(h, e_max, margin)


def test_secular_nonconvergence_names_its_state(lap, monkeypatch):
    monkeypatch.setattr(lo, "_SECULAR_STEPS", 1)
    h = lo.build(lap, 10, a=1.0, b=3.0, mu=1.0)
    with pytest.raises(NoConvergence, match=r"os sector of the L = 10 box at "
                       r"\(a, b, mu\) = \(1\.0, 3\.0, 1\.0\) above t = 4\.001, "
                       r"last bracket \[4\.001, "):
        lo.sector_count_above(h, 4.0, 1e-3)


@settings(max_examples=20)
@given(L=st.sampled_from((3, 4, 5)),
       a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0),
       mu=st.floats(0.2, 4.0))
def test_sector_counts_match_reference_projections(L, a, b, mu):
    lap = DiscreteLaplacian()
    cutoff = 4.0 + 1e-3
    h = lo.build(lap, L, a=a, b=b, mu=mu)
    vals, vecs = np.linalg.eigh(_kron_reference(h, lap))
    assume(np.min(np.abs(vals - cutoff)) > 1e-6)
    traces = _sector_traces(vecs[:, vals > cutoff], 2 * L + 1)
    sc = lo.sector_count_above(h, 4.0, 1e-3)
    for s, bound in (("os", 1), ("oa", 1), ("ea", 1), ("es", 2)):
        assert traces[s] == pytest.approx(round(traces[s]), abs=1e-8)
        assert getattr(sc, s) == round(traces[s]) <= bound
    assert sc.total == int(np.sum(vals > cutoff))


def test_free_box_stays_below_band_top(lap):
    h = lo.build(lap, 10, mu=0.0)
    top = lo.top_eigenvalues(h, 1)[0]
    assert top < 4.0


def test_sector_attribution_reference(lap):
    h = lo.build(lap, 20, a=1.0, b=3.0, mu=1.0)
    sc = lo.sector_count_above(h, 4.0, 1e-3)
    assert (sc.os, sc.oa, sc.ea, sc.es) == (1, 1, 1, 1)
    assert sc.total == 4
    assert not sc.ambiguous
    by_sector = {s: v for v, s in sc.entries}
    ref = find_eigenvalue_rank_one(lap, "os", 3.0, 1.0).energy
    assert by_sector["os"] == pytest.approx(ref, abs=1e-6)


def test_sector_count_empty(lap):
    h = lo.build(lap, 10, a=-1.0, b=-1.0, mu=2.0)
    sc = lo.sector_count_above(h, 4.0, 1e-3)
    assert sc.total == 0
    assert sc.entries == ()


def test_margin_must_be_positive(lap):
    h = lo.build(lap, 5, mu=0.0)
    with pytest.raises(ValueError):
        lo.sector_count_above(h, 4.0, 0.0)


def test_build_validation(lap):
    with pytest.raises(ValueError):
        lo.build(lap, 0)



NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kwargs, match", [
    ({"L": 2.5}, "L must be an integer >= 1, got 2.5"),
    ({"L": NAN}, "L must be an integer >= 1, got nan"),
    ({"L": 10.0}, "L must be an integer >= 1, got 10.0"),
    ({"L": 10, "a": NAN}, r"\(a, b, mu\) = \(nan, 1.0, 0.0\) must be finite"),
    ({"L": 10, "b": -INF}, r"\(a, b, mu\) = \(1.0, -inf, 0.0\) must be finite"),
    ({"L": 10, "mu": INF}, r"\(a, b, mu\) = \(1.0, 1.0, inf\) must be finite"),
    ({"L": 10, "mu": NAN}, r"\(a, b, mu\) = \(1.0, 1.0, nan\) must be finite"),
], ids=("L-2.5", "L-nan", "L-float", "a-nan", "b-inf", "mu-inf", "mu-nan"))
def test_build_rejects_bad_inputs(lap, kwargs, match):
    # they once leaked numpy's errors, or gave boxes whose eigenvalues were
    # inf or whose secular solve failed to converge
    with pytest.raises(ValueError, match=match):
        lo.build(lap, **kwargs)


@pytest.mark.parametrize("e_max, margin", [(4.0, NAN), (4.0, INF), (NAN, 5e-3),
                                           (INF, 5e-3)])
def test_sector_count_rejects_non_finite_inputs(lap, e_max, margin):
    # a NaN once counted 0 eigenvalues and an infinite margin leaked
    # LinAlgError; zero couplings stay legal
    h = lo.build(lap, np.int64(6), a=0.0, b=0.0, mu=0.0)
    assert lo.sector_count_above(h, 4.0, 5e-3).total == 0
    with pytest.raises(ValueError, match=f"e_max = {e_max!r} must be finite "
                                         f"and margin = {margin!r} finite"):
        lo.sector_count_above(h, e_max, margin)


def test_build_rejects_swap_asymmetric_table():
    # e(p) = 1 - cos p1 is even but not swap-invariant: the sector split
    # would give wrong counts
    model = ExponentialHopping(table=((0, 0, 1.0), (1, 0, -0.5), (-1, 0, -0.5)))
    with pytest.raises(ValueError, match="swap"):
        lo.build(model, 6)


def test_table_box_builds_its_matrix_once(monkeypatch):
    # the four sector blocks of a table box share the box's CSR matrix
    built = []
    build = lo.TruncatedHamiltonian._table_matrix.func

    def counted(h):
        built.append(h)
        return build(h)

    matrix = functools.cached_property(counted)
    matrix.__set_name__(lo.TruncatedHamiltonian, "_table_matrix")
    monkeypatch.setattr(lo.TruncatedHamiltonian, "_table_matrix", matrix)
    model = diagonal_hop_table(0.1)
    h = lo.build(model, 12, a=1.0, b=3.0, mu=1.0)
    counts = lo.sector_count_above(h, float(model.e_max), 5e-3)
    assert counts.total > 0
    assert built == [h]


def test_extrapolate_geometric_exact():
    ls = (10, 20, 30)
    vals = [5 + 0.1 * 0.9 ** L for L in ls]
    limit, err = lo.extrapolate(ls, vals)
    assert limit == pytest.approx(5.0, abs=1e-10)
    assert err < 1e-2


def test_extrapolate_constant_sequence():
    limit, err = lo.extrapolate((1, 2, 3), (2.0, 2.0, 2.0))
    assert limit == 2.0
    assert err == 0.0
    # a sequence that lands on its limit: rho = 0, and the error is +0.0
    limit, err = lo.extrapolate((1, 2, 3), (2.0, 1.0, 1.0))
    assert limit == 1.0
    assert err == 0.0 and not np.signbit(err)


def test_extrapolate_four_points_error_estimate():
    ls = (10, 20, 30, 40)
    vals = [3 + 0.5 * 0.8 ** L for L in ls]
    limit, err = lo.extrapolate(ls, vals)
    assert limit == pytest.approx(3.0, abs=1e-8)


def test_extrapolate_failures():
    with pytest.raises(FitFailure):
        lo.extrapolate((1, 2, 3), (1.0, 2.0, 4.0))   # growing differences
    with pytest.raises(FitFailure):
        lo.extrapolate((1, 2, 3), (1.0, 2.0, 1.5))   # alternating
    with pytest.raises(FitFailure):
        lo.extrapolate((1, 2, 3), (1.0, 1.0, 1.5))   # a step after a flat one
    with pytest.raises(FitFailure):
        lo.extrapolate((1, 2, 3, 4), (0.5, 1.0, 1.0, 1.5))
    with pytest.raises(ValueError):
        lo.extrapolate((1, 2), (1.0, 2.0))
    with pytest.raises(ValueError):
        lo.extrapolate((3, 2, 1), (1.0, 1.1, 1.11))


def test_separable_path_kinked_models():
    # box spectrum must stay below e_max for the free kinked models
    for model in (PiecewisePhi(eps=0.5), SteppedPhiA(a_param=0.4)):
        h = lo.build(model, 8, mu=0.0)
        top = lo.top_eigenvalues(h, 1)[0]
        assert top < float(model.e_max) + 1e-9


def test_oracle_imports_no_determinant_layer():
    # the oracle counts by its own inertia, an independent check of the
    # determinant path only while it shares no code with it
    tree = ast.parse(Path(lo.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                imported.add(node.module.split(".")[-1])
            if not node.module or node.module == "lattice_spectra":
                imported.update(alias.name for alias in node.names)
    assert imported, "no imports read"
    assert not imported & {"torus_quad", "thresholds", "determinant",
                           "spectrum"}, imported
