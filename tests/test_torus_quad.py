import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_spectra import sectors
from lattice_spectra.dispersion import (PI, ExponentialHopping, PiecewisePhi,
                                        SteppedPhiA, wrap_torus)
from lattice_spectra.errors import BelowThreshold, NoConvergence, NotIntegrable
from lattice_spectra.torus_quad import (FOUR_PI_SQ, QuadratureSpec,
                                        default_spec, integrate_resolvent,
                                        integrate_smooth, integrate_threshold)


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
    sp = default_spec(lap, grid_n=64)
    assert sp.grid_n == 64


def test_resolvent_large_z_limit(lap):
    # geometric expansion: int 1/(z - e) = (4 pi^2 / z)(1 + ebar/z + O(1/z^2))
    # with mean dispersion ebar = 2 for the Laplacian
    z = 4.0 + 1e6
    res = integrate_resolvent(lap, sectors.es_one, z=z)
    assert res.value == pytest.approx(FOUR_PI_SQ / z * (1 + 2.0 / z), rel=1e-6)


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
        integrate_resolvent(lap, sectors.es_one, z=3.5)
    with pytest.raises(BelowThreshold):
        integrate_resolvent(lap, sectors.es_one, alpha=0.0)


def test_resolvent_z_alpha_consistency(lap):
    a = integrate_resolvent(lap, sectors.w_ea_sq, alpha=0.25)
    b = integrate_resolvent(lap, sectors.w_ea_sq, z=4.25)
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_resolvent_monotone_in_alpha(lap):
    vals = [integrate_resolvent(lap, sectors.w_os_sq, alpha=a).value
            for a in (1e-2, 1e-4, 1e-6, 1e-9, 1e-12)]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    assert np.isfinite(vals[-1])


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


# the k = 1 weights behind gammas and es_constants
K1_WEIGHTS = (sectors.w_os_sq, sectors.w_oa_sq, sectors.w_ea_sq,
              sectors.es_plus_sq, sectors.es_plus, sectors.es_theta2_weight,
              sectors.es_kappa1_weight)


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


@settings(derandomize=True, max_examples=10, deadline=None)
@given(t2=st.floats(0.0, 0.2, exclude_min=True, exclude_max=True))
def test_threshold_integral_hopping_table(t2):
    # nearest plus next-nearest hopping, e = 2 - (cos p1 + cos p2)
    # - 2 t2 cos p1 cos p2: a non-degenerate maximum at (pi, pi) for t2 < 1/2
    table = [(0, 0, 2.0)]
    table += [(x1, x2, -0.5) for x1, x2 in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    table += [(x1, x2, -t2 / 2) for x1, x2 in ((1, 1), (-1, -1), (1, -1), (-1, 1))]
    _assert_threshold_is_resolvent_limit(ExponentialHopping(table=tuple(table)))
