import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import laplacian_exact
from lattice_spectra import sectors, torus_quad
from lattice_spectra.dispersion import (PI, DiscreteLaplacian,
                                        ExponentialHopping, PiecewisePhi,
                                        SteppedPhiA, validate_hypothesis,
                                        wrap_torus)
from lattice_spectra.errors import BelowThreshold, NoConvergence, NotIntegrable
from lattice_spectra.thresholds import gammas
from lattice_spectra.torus_quad import (FOUR_PI_SQ, QuadratureSpec,
                                        default_spec, integrate_resolvent,
                                        integrate_smooth, integrate_threshold)


def next_nearest_hopping(t2):
    # nearest plus next-nearest hopping, e = 2 - (cos p1 + cos p2)
    # - 2 t2 cos p1 cos p2: a non-degenerate maximum at (pi, pi) for t2 < 1/2
    table = [(0, 0, 2.0)]
    table += [(x1, x2, -0.5) for x1, x2 in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    table += [(x1, x2, -t2 / 2) for x1, x2 in ((1, 1), (-1, -1), (1, -1), (-1, 1))]
    return ExponentialHopping(table=tuple(table))


def diagonal_hop_table(t=0.1):
    # the Laplacian plus ehat(+-(1, 1)) = t: swap-symmetric, not even per
    # coordinate, with a non-diagonal Hessian at (pi, pi)
    return ExponentialHopping(table=(
        (0, 0, 2.0), (1, 0, -0.5), (-1, 0, -0.5), (0, 1, -0.5), (0, -1, -0.5),
        (1, 1, t), (-1, -1, t)))


def hopping_table(t, d1, d2, s, skew=0.0):
    # the constant 2, nearest hopping t, the diagonals +-(1, 1) and +-(1, -1)
    # with weights d1 and d2 (even per coordinate iff d1 = d2), and the axis
    # terms +-(2, 0), +-(0, 2) with weights s and s + skew (swap-symmetric
    # iff skew = 0); each offset once
    table = [(0, 0, 2.0)]
    for x1, x2, v in ((1, 0, t), (0, 1, t), (1, 1, d1), (1, -1, d2),
                      (2, 0, s), (0, 2, s + skew)):
        table += [(x1, x2, v), (-x1, -x2, v)]
    return ExponentialHopping(table=tuple(table))


# the first four are even per coordinate and fold onto the square's eight
# symmetries; the diagonal-hop table is swap-symmetric only, and keeps the
# order-4 group's node sets tested
MODELS = (DiscreteLaplacian(), SteppedPhiA(a_param=0.5), PiecewisePhi(eps=0.5),
          next_nearest_hopping(0.1), diagonal_hop_table())
MODEL_IDS = ("laplacian", "stepped-0.5", "piecewise-0.5", "hopping-t2-0.1",
             "diagonal-hop-0.1")

# the weights whose resolvent integrals enter the sector determinants
DETERMINANT_WEIGHTS = (sectors.w_os_sq, sectors.w_oa_sq, sectors.w_ea_sq,
                       sectors.es_one, sectors.es_cos_sum,
                       sectors.es_cos_sum_sq)


def test_integrate_smooth_known_values(lap):
    spec = default_spec(lap)
    one = integrate_smooth(lambda p1, p2: np.ones_like(p1), spec)
    assert one.value == pytest.approx(FOUR_PI_SQ, rel=1e-12)
    cos2 = integrate_smooth(lambda p1, p2: np.cos(p1) ** 2, spec)
    assert cos2.value == pytest.approx(2 * PI ** 2, rel=1e-12)


def test_quadrature_spec_validation(lap):
    with pytest.raises(ValueError):
        QuadratureSpec(grid_n=31)
    with pytest.raises(ValueError):
        QuadratureSpec(patch_radius=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(radial_tol=0.0)
    sp = default_spec(lap, grid_n=64)
    assert sp.grid_n == 64


def test_resolvent_large_z_limit(lap):
    # geometric expansion: int 1/(z - e) = (4 pi^2 / z)(1 + ebar/z + O(1/z^2))
    # with mean dispersion ebar = 2 for the Laplacian
    alpha = 1e6
    z = 4.0 + alpha
    res = integrate_resolvent(lap, sectors.es_one, alpha=alpha)
    assert res.value == pytest.approx(FOUR_PI_SQ / z * (1 + 2.0 / z), rel=1e-6)


@pytest.mark.parametrize("alpha", [1e-20, 1e-16, 1e-13, 1e-6, 1e-2, 1.0, 20.0])
def test_laplacian_es_integrals_within_their_error_estimates(lap, alpha):
    # exact values from the complete elliptic integral; each reported
    # error_estimate must cover the true error, also below ALPHA_FLOOR,
    # where the graded near-field rule still resolves the peak
    weights = (sectors.es_one, sectors.es_cos_sum, sectors.es_cos_sum_sq)
    for v, exact in zip(weights, laplacian_exact.es_integrals(alpha)):
        res = integrate_resolvent(lap, v, alpha=alpha)
        assert abs(res.value - exact) <= res.error_estimate, v.__name__


@pytest.mark.parametrize("alpha", [1e-13, 1e-6, 1e-2, 1.0, 20.0])
def test_laplacian_squared_weight_integrals_within_their_error_estimates(lap, alpha):
    # exact values from the closed-form q2 integrals and a 1-D quad in q1
    for name, exact in laplacian_exact.squared_weight_integrals(alpha).items():
        res = integrate_resolvent(lap, getattr(sectors, name), alpha=alpha)
        assert abs(res.value - exact) <= res.error_estimate, name


def test_laplacian_squared_weight_reference_at_threshold():
    # at alpha = 0 the reference gives the closed-form sector constants
    exact = laplacian_exact.squared_weight_integrals(0.0)
    for name, gamma in (("w_os_sq", PI / (2 * PI - 4)), ("w_oa_sq", PI / (2 * PI - 4)),
                        ("w_ea_sq", PI / (8 - 2 * PI)), ("es_plus_sq", 0.5)):
        assert FOUR_PI_SQ / exact[name] == pytest.approx(gamma, rel=1e-12), name


def test_resolvent_matches_brute_force(lap):
    # moderate alpha where a plain offset trapezoid is accurate
    alpha = 0.5
    n = 2048
    grid = -PI + (np.arange(n) + 0.5) * (2 * PI / n)
    g1, g2 = np.meshgrid(grid, grid, indexing="ij")
    w = sectors.w_os_sq(g1, g2)
    brute = float(np.sum(w / (alpha + lap.deficit(g1 - PI, g2 - PI)))) * (2 * PI / n) ** 2
    res = integrate_resolvent(lap, sectors.w_os_sq, alpha=alpha)
    assert res.value == pytest.approx(brute, rel=1e-8)


def test_resolvent_below_threshold(lap):
    with pytest.raises(BelowThreshold):
        integrate_resolvent(lap, sectors.es_one, alpha=-0.5)
    with pytest.raises(BelowThreshold):
        integrate_resolvent(lap, sectors.es_one, alpha=0.0)


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_resolvent_rejects_a_non_finite_alpha(lap, alpha):
    # nan passed alpha <= 0 and returned nan; inf returned 0
    with pytest.raises(ValueError, match="must be finite"):
        integrate_resolvent(lap, sectors.es_one, alpha=alpha)


def test_resolvent_rejects_a_swap_asymmetric_model():
    # e = 2 - cos p1 - 0.5 cos p2 is even but not swap-symmetric: the node
    # sets hold one node per orbit of the swap, so no integral is formed
    model = ExponentialHopping(table=((0, 0, 2.0), (1, 0, -0.5), (-1, 0, -0.5),
                                      (0, 1, -0.25), (0, -1, -0.25)))
    with pytest.raises(ValueError, match="swap"):
        integrate_resolvent(model, sectors.es_one, alpha=1.0)


def test_resolvent_monotone_in_alpha(lap):
    vals = [integrate_resolvent(lap, sectors.w_os_sq, alpha=a).value
            for a in (1e-2, 1e-4, 1e-6, 1e-9, 1e-12)]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    assert np.isfinite(vals[-1])


@pytest.fixture
def fresh_grids():
    # node sets built under patched rule constants must not outlive the test
    torus_quad._far_grids.cache_clear()
    yield
    torus_quad._far_grids.cache_clear()


def _node_sets(model):
    return torus_quad._node_sets(model, default_spec(model))


def _order(model):
    # the order of the group whose orbits the model's node sets hold
    return _node_sets(model)[2].order


def _cached_arrays(node_set):
    return {key: array for cache in (node_set.deficits, node_set.vcache)
            for key, array in cache.items()}


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_warm_integral_fills_no_node_array(model, monkeypatch):
    # once a weight has been integrated on a model, an integral at any alpha
    # is a sum over cached arrays: no deficit is evaluated, and the deficit
    # and w * v maps of the far levels and the near set keep their arrays
    for v in DETERMINANT_WEIGHTS:
        integrate_resolvent(model, v, alpha=1.0)
    sets = _node_sets(model)
    before = [_cached_arrays(node_set) for node_set in sets]
    calls = []
    monkeypatch.setattr(type(model), "deficit",
                        lambda self, *args: calls.append(args))
    monkeypatch.setattr(type(model), "values",
                        lambda self, *args: calls.append(args))
    for alpha in (1e-13, 1e-9, 1e-6, 1e-2, 1.0):
        for v in DETERMINANT_WEIGHTS:
            integrate_resolvent(model, v, alpha=alpha)
    assert calls == []
    for node_set, cached in zip(sets, before):
        after = _cached_arrays(node_set)
        assert after.keys() == cached.keys()
        assert all(after[key] is cached[key] for key in cached)


def test_cache_clear_drops_the_near_arrays(lap):
    # perfbench clears _far_grids between set-ups; no node array may survive
    integrate_resolvent(lap, sectors.w_ea_sq, alpha=1e-6)
    fine, _, near = _node_sets(lap)
    arrays = (near, near.w, near.p1, near.u1, near.deficit(lap),
              near.weighted(sectors.w_ea_sq), fine, fine.x, fine.mask,
              fine.w, fine.deficit(lap), fine.weighted(sectors.w_ea_sq))
    refs = [weakref.ref(a) for a in arrays]
    del fine, near, arrays
    torus_quad._far_grids.cache_clear()
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_keys_of_one_patch_radius_share_the_near_set(lap, fresh_grids):
    # the Laplacian's (256, 0.5, None) and stepped:0.5's (2048, 0.5, kinks)
    # hold one near set; cache_clear drops it, and the next key builds anew
    stepped = SteppedPhiA(a_param=0.5)
    near = _node_sets(lap)[2]
    assert _node_sets(stepped)[2] is near
    ref = weakref.ref(near)
    del near
    torus_quad._far_grids.cache_clear()
    gc.collect()
    assert ref() is None
    assert _node_sets(stepped)[2] is _node_sets(lap)[2]


def test_threads_asking_for_a_near_set_get_one(fresh_grids):
    # more threads than cores, switching often: each gets the one set built
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(torus_quad._near_set, 0.3, 8) for _ in range(8)]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(near is got[0] for near in got)


@settings(max_examples=20)
@given(model=st.sampled_from(MODELS),
       v=st.sampled_from(DETERMINANT_WEIGHTS),
       log_alpha=st.floats(-13.0, 0.0))
def test_near_field_matches_finer_rule(model, v, log_alpha):
    # the finer near-field rule, built directly rather than through the
    # cache, halves the grading ratio and doubles the ring panels and the
    # angular nodes; the far field is the same, so the difference is the
    # near-field error alone.  Patched in the body: hypothesis rejects a
    # function-scoped monkeypatch fixture
    alpha = 10.0 ** log_alpha
    value = integrate_resolvent(model, v, alpha=alpha).value
    fine, _, near = _node_sets(model)
    with mock.patch.multiple(torus_quad, GRADING=2,
                             RING_PANELS=2 * torus_quad.RING_PANELS,
                             N_THETA=2 * torus_quad.N_THETA):
        finer = torus_quad._NearSet(default_spec(model).patch_radius, near.order)
    assert finer.w.size > 2 * near.w.size
    far, = torus_quad._far_values(fine, model, (v,), alpha, 1)
    (reference, *_), = torus_quad._near_values(finer, model, (v,), alpha, 1)
    assert value == pytest.approx(far + reference, rel=1e-10, abs=0.0)


def _near_rule(model, n_theta, v, alpha):
    with mock.patch.object(torus_quad, "N_THETA", n_theta):
        near = torus_quad._NearSet(default_spec(model).patch_radius, _order(model))
    return torus_quad._near_values(near, model, (v,), alpha, 1)[0]


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_angular_estimate_is_the_half_rule_error(model):
    # the estimate of an n-node rule is the error of the n/2-node rule, also
    # for the swap-symmetric integrands of the sector weights
    near = lambda n: _near_rule(model, n, sectors.w_os_sq, 1e-6)
    exact = near(256)[0]
    coarse = near(8)[0]
    estimate = near(16)[3]
    assert abs(coarse - exact) > 1e-12 * abs(exact)
    assert estimate == pytest.approx(abs(coarse - exact), rel=1e-2)


def test_near_field_stall_raises(lap, monkeypatch, fresh_grids):
    # two Gauss points per radial panel: the radial estimate sees the error
    monkeypatch.setattr(torus_quad, "GAUSS_ORDER", 2)
    with pytest.raises(NoConvergence, match=r"alpha = 1e-13, k = 1"):
        integrate_resolvent(lap, sectors.es_one, alpha=1e-13)


# the determinant weights plus the es threshold weight behind gamma_es
STACK_WEIGHTS = DETERMINANT_WEIGHTS + (sectors.es_plus_sq,)


def _one_weight_call(model, v, alpha, k):
    if alpha == 0:
        return integrate_threshold(model, v, k=k)
    return integrate_resolvent(model, v, k=k, alpha=alpha)


def _assert_stack_is_bitwise_one_weight_calls(model, vs, alpha, k):
    # every stacked result must be the one-weight call's, compared with ==;
    # at alpha = 0 a weight that is not integrable makes the stack raise
    alone = {}
    for v in vs:
        try:
            alone[v] = _one_weight_call(model, v, alpha, k)
        except NotIntegrable:
            with pytest.raises(NotIntegrable):
                torus_quad._integrate(model, vs, alpha, k)
    vs = tuple(alone)
    for v, res in zip(vs, torus_quad._integrate(model, vs, alpha, k)):
        assert res.value == alone[v].value, (v.__name__, alpha, k)
        assert res.error_estimate == alone[v].error_estimate, (
            v.__name__, alpha, k)


@settings(max_examples=25)
@given(model=st.sampled_from(MODELS),
       vs=st.lists(st.sampled_from(STACK_WEIGHTS), min_size=2, max_size=7,
                   unique=True),
       alpha=st.sampled_from((0.0, 1e-13, 20.0))
       | st.floats(-13.0, np.log10(20.0)).map(lambda x: 10.0 ** x),
       k=st.sampled_from((1, 2)))
def test_stacked_kernel_is_bitwise_one_weight_calls(model, vs, alpha, k):
    _assert_stack_is_bitwise_one_weight_calls(model, tuple(vs), alpha, k)


def test_stacked_near_field_stall_raises(lap, monkeypatch, fresh_grids):
    # a weight that converges does not keep the stack from raising for the
    # one that does not
    monkeypatch.setattr(torus_quad, "GAUSS_ORDER", 2)
    zero = lambda p1, p2: np.zeros_like(p1)
    torus_quad._integrate(lap, (zero,), 1e-13, 2)
    with pytest.raises(NoConvergence, match=r"alpha = 1e-13, k = 2"):
        torus_quad._integrate(lap, (zero, sectors.es_one), 1e-13, 2)


def test_resolvent_kinked_model():
    model = PiecewisePhi(eps=0.5)
    res = integrate_resolvent(model, sectors.es_one, alpha=1.0)
    # brute check on a fine offset grid (integrand smooth at alpha = 1)
    n = 4096
    grid = -PI + (np.arange(n) + 0.5) * (2 * PI / n)
    g1, g2 = np.meshgrid(grid, grid, indexing="ij")
    brute = float(np.sum(1.0 / (1.0 + model.e_max - model.values(g1, g2))))
    brute *= (2 * PI / n) ** 2
    assert res.value == pytest.approx(brute, rel=1e-6)


def test_threshold_integral_not_integrable_k1(lap):
    # v(pi_vec) != 0 makes the k = 1 threshold integral log-divergent
    with pytest.raises(NotIntegrable):
        integrate_threshold(lap, sectors.es_one, k=1)


def test_threshold_integral_k2_requires_second_order(lap):
    # w_os^2 vanishes to second order only; at k = 2 that still diverges
    with pytest.raises(NotIntegrable):
        integrate_threshold(lap, sectors.w_os_sq, k=2)


def test_threshold_integral_k2_es_plus(lap):
    res = integrate_threshold(lap, sectors.es_plus_sq, k=2)
    assert res.value > 0
    assert res.error_estimate < 1e-6 * res.value


def es_theta2_weight(q1, q2):
    # 2 (cos q1 + cos q2)(2 + cos q1 + cos q2): Theta** integrates it
    return 2.0 * sectors.es_cos_sum(q1, q2) * sectors.es_plus(q1, q2)


def es_kappa1_weight(q1, q2):
    # 4 - (cos q1 + cos q2)^2 = (2 - cos q1 - cos q2)(2 + cos q1 + cos q2):
    # kappa1 integrates it
    return (2.0 - sectors.es_cos_sum(q1, q2)) * sectors.es_plus(q1, q2)


# the k = 1 weights behind gammas and the es threshold data; es_constants
# reads the last three off the gammas, and they stay here as threshold
# integrals in their own right (es_theta2_weight changes sign)
K1_WEIGHTS = (sectors.w_os_sq, sectors.w_oa_sq, sectors.w_ea_sq,
              sectors.es_plus_sq, sectors.es_plus, es_theta2_weight,
              es_kappa1_weight)


def _assert_threshold_is_resolvent_limit(model):
    # the alpha -> 0 correction at alpha = 1e-9 is O(alpha ln alpha), about
    # 1e-6 in absolute terms on these weights; the absolute floor covers
    # es_theta2_weight, whose limit crosses zero at the Laplacian (t2 = 0)
    for v in K1_WEIGHTS:
        direct = integrate_threshold(model, v, k=1).value
        near = integrate_resolvent(model, v, k=1, alpha=1e-9).value
        assert direct == pytest.approx(near, rel=1e-6, abs=1e-5), v.__name__


@pytest.mark.parametrize("model", [SteppedPhiA(a_param=0.5),
                                   PiecewisePhi(eps=0.5)], ids=repr)
def test_threshold_integral_kinked_models(model):
    _assert_threshold_is_resolvent_limit(model)


@settings(max_examples=10)
@given(t2=st.floats(0.0, 0.2, exclude_min=True, exclude_max=True))
def test_threshold_integral_hopping_table(t2):
    _assert_threshold_is_resolvent_limit(next_nearest_hopping(t2))


def test_far_field_estimate_sees_the_kinks():
    # at a small grid_n the two far levels both sat on the 2-panel floor of
    # every segment between kinks, and the estimate read 3e-11 against a
    # true error of 9e-6
    model = SteppedPhiA(a_param=0.5)

    def far(grid_n):
        return integrate_resolvent(model, sectors.w_os_sq, alpha=1e-2,
                                   spec=default_spec(model, grid_n=grid_n))

    res = far(64)
    assert res.error_estimate >= abs(res.value - far(2048).value)


# the seven weights whose integrals src/ forms: the determinants' and the
# es threshold data's es_plus_sq
SECTOR_WEIGHTS = DETERMINANT_WEIGHTS + (sectors.es_plus_sq,)
KINKED_MODELS = (SteppedPhiA(a_param=0.5), PiecewisePhi(eps=0.5),
                 SteppedPhiA(a_param=0.9))


@pytest.mark.parametrize("model", KINKED_MODELS, ids=repr)
def test_graded_far_rule_matches_a_doubled_rule(model):
    # the graded far axis against the same rule at twice its dense panel
    # density: every sector weight within 1e-11 and within its own estimate
    spec = default_spec(model)
    finer = default_spec(model, grid_n=2 * spec.grid_n)
    for alpha in (0.0, 1e-6, 1.0, 20.0):
        for k in (1, 2):
            vs = [v for v in SECTOR_WEIGHTS
                  if alpha > 0 or torus_quad._vanishing_order(v) > 2 * k - 1.5]
            got = torus_quad._integrate(model, vs, alpha, k, spec)
            ref = torus_quad._integrate(model, vs, alpha, k, finer)
            for v, res, exact in zip(vs, got, ref):
                err = abs(res.value - exact.value)
                assert err <= 1e-11 * abs(exact.value), (v.__name__, alpha, k)
                assert err <= res.error_estimate, (v.__name__, alpha, k)


def _panel_edges(level):
    # the Gauss panels of a far axis, FAR_GAUSS_ORDER nodes each, read back
    # from its first and last nodes: (lower edges, upper edges)
    xg, _ = torus_quad._gauss_legendre(torus_quad.FAR_GAUSS_ORDER)
    panels = level.x.reshape(-1, torus_quad.FAR_GAUSS_ORDER)
    half = (panels[:, -1] - panels[:, 0]) / (xg[-1] - xg[0])
    mid = (panels[:, -1] + panels[:, 0]) / 2
    return mid - half, mid + half


@pytest.mark.parametrize("model", KINKED_MODELS[:2], ids=repr)
def test_graded_far_axis_is_dense_only_within_the_patch_radius(model):
    # panel edges at +-(pi - delta) and at every kink, mirror-symmetric; the
    # fine panels within delta of +-pi hold grid_n points per 2 pi, and the
    # widest elsewhere is about FAR_SPARSE times as wide
    spec = default_spec(model)
    delta = spec.patch_radius
    fine, coarse, _ = _node_sets(model)
    for level in (fine, coarse):
        assert np.allclose(level.x[::-1], -level.x, rtol=0.0, atol=1e-12)
        lo, hi = _panel_edges(level)
        assert np.allclose(lo[1:], hi[:-1], rtol=0.0, atol=1e-12)
        for edge in (-PI, -(PI - delta), *model.breakpoints, PI - delta):
            assert np.min(np.abs(lo - edge)) < 1e-12
    lo, hi = _panel_edges(fine)
    width = hi - lo
    dense = (lo >= PI - delta - 1e-12) | (hi <= -(PI - delta) + 1e-12)
    assert np.max(width[dense]) <= 2 * PI * torus_quad.FAR_GAUSS_ORDER / spec.grid_n
    assert np.max(width[~dense]) > torus_quad.FAR_SPARSE / 2 * np.max(width[dense])


def test_far_levels_hold_their_node_counts(lap):
    # the graded kinked axis cut stepped:0.5's fine level from 271,508
    # nodes; the square's group halves the order-4 group's node sets, which
    # the diagonal-hop table keeps
    fine, coarse, _ = _node_sets(SteppedPhiA(a_param=0.5))
    assert fine.w.size <= 30_000 and coarse.w.size < fine.w.size
    assert [s.w.size for s in _node_sets(lap)] == [8_211, 2_067, 5_992]
    assert [s.w.size for s in _node_sets(diagonal_hop_table())] == [16_422, 4_134, 11_144]


@pytest.mark.parametrize("model, order", zip(MODELS, (8, 8, 8, 8, 4)), ids=MODEL_IDS)
def test_node_sets_fold_onto_the_models_group(model, order):
    # the square's eight symmetries exactly when e is even per coordinate,
    # else the order-4 group {1, inversion, swap, both}
    assert [node_set.order for node_set in _node_sets(model)] == [order] * 3


def test_a_square_set_refuses_a_model_not_even_per_coordinate(lap):
    # the diagonal-hop table is swap-symmetric, so the order-4 sets take it;
    # the square's group would fold e(p1, p2) onto e(-p1, p2), a different value
    spec = default_spec(lap)
    for node_set in torus_quad._far_grids(spec.grid_n, spec.patch_radius, None, 8):
        with pytest.raises(ValueError, match="square's group"):
            node_set.deficit(diagonal_hop_table())


def _level_nodes(level):
    # the representatives p1, p2 of a far level, which keeps only its axis
    # and the mask of its representatives over a block of its grid
    rows, cols = level.mask.shape
    p1, p2 = np.meshgrid(level.x[:rows], level.x[:cols], indexing="ij")
    return p1[level.mask], p2[level.mask]


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_far_deficit_broadcast_is_bitwise_nodewise(model):
    # the deficit is evaluated on the broadcast axes of the node set; it
    # must be the very floats of e_max - e on its representatives
    for level in _node_sets(model)[:2]:
        nodewise = float(model.e_max) - model.values(*_level_nodes(level))
        assert level.deficit(model).tobytes() == nodewise.tobytes()


def _unfolded_far(x, w, delta):
    # the far level's rule on the whole tensor grid, as it was before the
    # fold: its masked nodes p1, p2, their weights, and the grid's mask
    p1, p2 = np.meshgrid(x, x, indexing="ij")
    r = np.hypot(wrap_torus(p1 - PI), wrap_torus(p2 - PI))
    weight = np.outer(w, w) * (1.0 - torus_quad.chi_cutoff(r, delta))
    mask = weight > 0
    return p1[mask], p2[mask], weight[mask], mask


def _unfolded_near(edges, delta):
    # the near rule on every angular node, as it was before the fold: per
    # part (even, odd, coarse) the offsets u1, u2 and the weights
    step = 2 * PI / torus_quad.N_THETA
    theta = np.arange(torus_quad.N_THETA) * step
    parts = []
    for order, angles, h in ((torus_quad.GAUSS_ORDER, theta[::2], step),
                             (torus_quad.GAUSS_ORDER, theta[1::2], step),
                             (torus_quad.COARSE_ORDER, theta[::2], 2 * step)):
        r, wr = torus_quad._panel_nodes(edges, order)
        parts.append((np.outer(r, np.cos(angles)).ravel(),
                      np.outer(r, np.sin(angles)).ravel(),
                      np.repeat(wr * r * torus_quad.chi_cutoff(r, delta) * h,
                                len(angles))))
    return parts


def _orbit_ids(n, order):
    # each node of the n x n grid labelled by the least flat index in its
    # orbit under the group: inversion (i, j) -> (n-1-i, n-1-j) and the
    # swap, and under the order-8 group also the mirror (i, j) -> (n-1-i, j)
    i, j = np.divmod(np.arange(n * n), n)
    flips = ((i, j), (n - 1 - i, n - 1 - j))
    if order == 8:
        flips += ((n - 1 - i, j), (i, n - 1 - j))
    return np.minimum.reduce([a * n + b for x, y in flips
                              for a, b in ((x, y), (y, x))]).reshape(n, n)


# the half-angle product forms that the odd weights and w_ea once took
def product_w_os(q1, q2):
    return 2.0 * np.sin((q1 + q2) / 2) * np.cos((q1 - q2) / 2)


def product_w_oa(q1, q2):
    return 2.0 * np.cos((q1 + q2) / 2) * np.sin((q1 - q2) / 2)


def product_w_ea(q1, q2):
    return -2.0 * np.sin((q1 + q2) / 2) * np.sin((q1 - q2) / 2)


def _squared(w):
    return lambda q1, q2: w(q1, q2) ** 2


# each sector weight and the one it replaced: the squared product forms,
# and es_one as ones_like, whose shape is its first argument's
PRODUCT_FORMS = {
    sectors.w_os_sq: _squared(product_w_os),
    sectors.w_oa_sq: _squared(product_w_oa),
    sectors.w_ea_sq: _squared(product_w_ea),
    sectors.es_plus_sq: sectors.es_plus_sq,
    sectors.es_one: lambda q1, q2: np.ones_like(np.asarray(q1, dtype=float)),
    sectors.es_cos_sum_sq: sectors.es_cos_sum_sq,
    sectors.es_cos_sum: sectors.es_cos_sum,
}
SECTOR_WEIGHTS = tuple(PRODUCT_FORMS)


def _far_levels_with_axes(model, spec=None):
    # fresh far levels of the model's key, each with the axis nodes and
    # weights (x, w) and the patch radius that _far_grids passed to it; the
    # key is _node_sets', group order included
    calls = []

    class Recorded(torus_quad._FarLevel):
        def __init__(self, x, w, delta, order):
            calls.append((x, w, delta))
            super().__init__(x, w, delta, order)

    spec = spec or default_spec(model)
    with mock.patch.object(torus_quad, "_FarLevel", Recorded), \
            mock.patch.object(torus_quad, "_far_grids", torus_quad._far_grids.__wrapped__):
        levels = torus_quad._node_sets(model, spec)[:2]
    return zip(levels, calls)


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_far_level_axis_build_is_bitwise_the_grid_build(model):
    # the cutoff and the weights are evaluated on the broadcast axes and then
    # masked: the level keeps one node of every orbit of the unfolded rule's
    # masked nodes, at the very weight that the whole tensor grid gives
    # there over the stabilizer's order, and each folded weight is the sum
    # over the orbit's images under the model's group of the very floats of
    # v on the nodes, within the rounding of that sum
    for level, (x, w, delta) in _far_levels_with_axes(model):
        n = x.size
        p1, p2 = np.meshgrid(x, x, indexing="ij")
        r = np.hypot(wrap_torus(p1 - PI), wrap_torus(p2 - PI))
        weight = np.outer(w, w) * (1.0 - torus_quad.chi_cutoff(r, delta))
        rows, cols = level.mask.shape
        orbits = _orbit_ids(n, level.order)
        assert level.x is x
        assert (rows, cols) == (n // 2, n // 2 if level.order == 8 else n)
        assert np.array_equal(np.sort(orbits[:rows, :cols][level.mask]),
                              np.unique(orbits[weight > 0]))
        i, j = np.ogrid[:rows, :cols]
        stabilizer = 1 + (i == j)
        if level.order == 4:
            stabilizer = stabilizer * (1 + (i + j == n - 1))
        block = weight[:rows, :cols]
        assert level.w.tobytes() == (block / stabilizer)[level.mask].tobytes()
        keep, back = slice(None), slice(None, None, -1)
        flips = [(keep, keep), (back, back)]
        if level.order == 8:
            flips += [(back, keep), (keep, back)]
        for v in (*SECTOR_WEIGHTS, sectors.w_os, sectors.w_oa, sectors.w_ea,
                  sectors.es_plus, *PRODUCT_FORMS.values()):
            grid = np.broadcast_to(v(p1, p2), p1.shape)
            terms = [g[flip][:rows, :cols][level.mask] for g in (grid, grid.T)
                     for flip in flips]
            folded = level._values(v)
            assert np.all(np.abs(folded - sum(terms))
                          <= FEW_EPS * sum(np.abs(t) for t in terms))
            assert level.weighted(v).tobytes() == (level.w * folded).tobytes()


FEW_EPS = 4 * np.finfo(float).eps


def _assert_sum_forms_agree(q1, q2):
    # a few eps, absolute: both forms see the same rounded coordinates
    for w, product in ((sectors.w_os, product_w_os),
                       (sectors.w_oa, product_w_oa),
                       (sectors.w_ea, product_w_ea)):
        assert np.max(np.abs(w(q1, q2) - product(q1, q2))) <= FEW_EPS


@given(q1=st.floats(-PI, PI), q2=st.floats(-PI, PI))
def test_sum_form_weights_agree_with_the_product_forms(q1, q2):
    _assert_sum_forms_agree(np.float64(q1), np.float64(q2))


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_sum_form_weights_agree_on_the_near_rule(model):
    near = _node_sets(model)[2]
    _assert_sum_forms_agree(near.p1, near.p2)


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_integrals_agree_with_the_product_form_weights(model):
    # the product forms on the same node sets give the integrals as they
    # were before the sum forms (the far levels evaluate them bitwise as
    # the nodes did, see above); every kernel result stays within 1e-14
    for alpha in (0.0, 1e-13, 1e-6, 1.0, 20.0):
        for k in (1, 2):
            for v, product in PRODUCT_FORMS.items():
                try:
                    ref, = torus_quad._integrate(model, (product,), alpha, k)
                except NotIntegrable:
                    with pytest.raises(NotIntegrable):
                        torus_quad._integrate(model, (v,), alpha, k)
                    continue
                got, = torus_quad._integrate(model, (v,), alpha, k)
                assert got.value == pytest.approx(ref.value, rel=1e-14, abs=0.0), (
                    v.__name__, alpha, k)


# a far sum is a BLAS dot product of the cached w * v with the reciprocal
# row, not np.sum's pairwise order; the dot accumulates in its own order
DOT_EPS = 1e3 * np.finfo(float).eps


FAR_ALPHAS = (0.0, 1e-13, 1e-9, 1e-3, 1.0, 20.0)


def _assert_far_sums_are_the_unfolded_sums(model, spec, vs, alphas=FAR_ALPHAS):
    # each far sum lies within DOT_EPS sum |w v| / (alpha + d)^k of the plain
    # sum over the unfolded rule's nodes, and a stack of weights, which
    # shares the reciprocal row, gives each sum to the bit of its one-weight
    # call
    for level, (x, w, delta) in _far_levels_with_axes(model, spec):
        p1, p2, weight, _ = _unfolded_far(x, w, delta)
        deficit = float(model.e_max) - model.values(p1, p2)
        vvs = [np.broadcast_to(np.asarray(v(p1, p2), dtype=float), p1.shape) for v in vs]
        for k in (1, 2):
            for alpha in alphas:
                stacked = torus_quad._far_values(level, model, vs, alpha, k)
                for v, vv, got in zip(vs, vvs, stacked):
                    terms = weight * vv / (alpha + deficit) ** k
                    plain = float(np.sum(terms))
                    alone, = torus_quad._far_values(level, model, (v,), alpha, k)
                    assert got.hex() == alone.hex(), (v.__name__, k, alpha)
                    assert abs(got - plain) <= DOT_EPS * np.sum(np.abs(terms)), (
                        v.__name__, k, alpha)


def cos_p1_sin_p2(p1, p2):
    # invariant under neither inversion nor the swap
    return np.cos(p1) + 0.3 * np.sin(p2)


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_far_value_matches_the_plain_sum(model):
    _assert_far_sums_are_the_unfolded_sums(
        model, default_spec(model), (sectors.w_os_sq, sectors.es_cos_sum, sectors.es_one))


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_folded_sums_of_a_non_invariant_weight_are_the_unfolded_sums(model):
    # the fold is exact for every v once the deficit is invariant: on the far
    # levels and on each part of the near set
    vs = (sectors.w_os, cos_p1_sin_p2)
    _assert_far_sums_are_the_unfolded_sums(model, default_spec(model), vs)
    _assert_near_sums_are_the_unfolded_sums(model, vs, (1e-13, 1e-6, 1.0))


def _assert_near_sums_are_the_unfolded_sums(model, vs, alphas):
    # each part's folded sum within DOT_EPS sum |terms| of the plain sum over
    # the part's every angular node
    delta = default_spec(model).patch_radius
    near = _node_sets(model)[2]
    for k in (1, 2):
        for alpha in alphas:
            r = torus_quad._reciprocals(near, model, alpha, k)[0]
            for v in vs:
                wv = near.weighted(v)[0]
                for part, (u1, u2, w) in zip(near.parts, _unfolded_near(near.edges, delta)):
                    p1, p2 = wrap_torus(PI + u1), wrap_torus(PI + u2)
                    terms = w * v(p1, p2) / (alpha + model.deficit(u1, u2)) ** k
                    got = float(np.dot(wv[part], r[part]))
                    assert abs(got - np.sum(terms)) <= DOT_EPS * np.sum(np.abs(terms)), (
                        v.__name__, k, alpha)


@settings(max_examples=8, deadline=None)
@given(t=st.floats(-1.0, -0.1), d1=st.floats(-0.2, 0.2), d2=st.floats(-0.2, 0.2),
       s=st.floats(-0.05, 0.05), even=st.booleans())
@example(t=-0.5, d1=0.05, d2=0.05, s=0.01, even=True)
@example(t=-0.5, d1=0.05, d2=-0.03, s=0.01, even=False)
def test_folded_sums_are_the_unfolded_sums_on_hopping_tables(t, d1, d2, s, even):
    # a table even per coordinate (d1 = d2) folds onto the square's group,
    # any other onto the order-4 group; on either, each sector weight's far
    # and near sums are the plain sums over the unfolded rule.  The square's
    # mirror p2 -> -p2 maps w_os onto w_oa, so on an even table their
    # threshold integrals, and gamma_os and gamma_oa, agree to rounding
    d2 = d1 if even else d2
    model = hopping_table(t, d1, d2, s)
    assume(validate_hypothesis(model).passed)
    assert _order(model) == (8 if d1 == d2 else 4)
    _assert_far_sums_are_the_unfolded_sums(model, default_spec(model), SECTOR_WEIGHTS,
                                           (0.0, 1e-6, 1.0))
    _assert_near_sums_are_the_unfolded_sums(model, SECTOR_WEIGHTS, (1e-6, 1.0))
    if d1 == d2:
        g = gammas(model)
        assert abs(g.gamma_os - g.gamma_oa) <= FEW_EPS * g.gamma_os


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_grid_n_34_levels_give_the_unfolded_integral(model):
    # grid_n = 34 is 2 mod 4: the smooth kinds' coarse level takes 16
    # points per axis, not 17, so every level folds without a middle row
    spec = default_spec(model, grid_n=34)
    levels = list(_far_levels_with_axes(model, spec))
    if model.breakpoints is None:
        assert [level.x.size for level, _ in levels] == [34, 16]
    _assert_far_sums_are_the_unfolded_sums(
        model, spec, (sectors.w_os_sq, sectors.es_one, cos_p1_sin_p2))


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_outside_balls_are_the_unfolded_sums(model):
    # the resonance probe's radii are the near rule's graded edges, and its
    # values the unfolded rule's sums outside each of them
    spec = default_spec(model)
    v = sectors.w_os_sq
    window = (1e-9, 1.0)
    rs, values = torus_quad._outside_balls(model, v, window, spec)
    (_, (x, w, delta)), _ = _far_levels_with_axes(model, spec)
    p1, p2, weight, _ = _unfolded_far(x, w, delta)
    far = np.sum(weight * v(p1, p2) / (float(model.e_max) - model.values(p1, p2)) ** 2)
    edges = _node_sets(model)[2].edges
    panels = 0.0
    for u1, u2, wu in _unfolded_near(edges, delta)[:2]:
        q = wu * v(wrap_torus(PI + u1), wrap_torus(PI + u2)) / model.deficit(u1, u2) ** 2
        panels = panels + q.reshape(len(edges) - 1, -1).sum(axis=1)
    outside = far + np.cumsum(panels[::-1])[::-1]
    r = edges[:-1]
    keep = (window[0] <= r) & (r <= delta / 2)
    assert rs.tobytes() == r[keep][::-1].tobytes()
    np.testing.assert_allclose(values, outside[keep][::-1], rtol=1e-13, atol=0.0)


def test_far_caches_are_read_only_and_kept_by_sums(lap):
    # the pool threads share the cached arrays of the far levels and the
    # near set, so no sum may write into them
    vs = (sectors.w_ea_sq, sectors.es_one)
    torus_quad._integrate(lap, vs, 1.0, 1)
    arrays = [(node_set.deficit(lap), *(node_set.weighted(v) for v in vs))
              for node_set in _node_sets(lap)]
    before = [[a.tobytes() for a in group] for group in arrays]
    for alpha, k in ((0.0, 1), (1e-13, 1), (1e-13, 2), (1e-3, 2), (20.0, 1)):
        torus_quad._integrate(lap, vs if alpha else vs[:1], alpha, k)
        torus_quad._integrate(lap, vs[:1], alpha, k)
    for node_set, group, saved in zip(_node_sets(lap), arrays, before):
        assert not any(a.flags.writeable for a in group)
        assert node_set.deficit(lap) is group[0]
        assert all(node_set.weighted(v) is a for v, a in zip(vs, group[1:]))
        assert [a.tobytes() for a in group] == saved


def test_stepped_integral_unchanged_by_a_warm_family():
    model = SteppedPhiA(a_param=0.5)

    def integral():
        return integrate_resolvent(model, sectors.es_cos_sum, alpha=1e-2)

    torus_quad._far_grids.cache_clear()
    cold = integral()
    torus_quad._far_grids.cache_clear()
    integrate_resolvent(SteppedPhiA(a_param=0.7), sectors.es_cos_sum, alpha=1e-2)
    warm = integral()
    assert torus_quad._far_grids.cache_info().misses == 1
    assert warm == cold
