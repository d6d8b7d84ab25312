from unittest import mock

import numpy as np
import pytest

from lattice_spectra import asymptotics as asy
from lattice_spectra import sectors, thresholds, torus_quad
from lattice_spectra.dispersion import PI, ExponentialHopping
from lattice_spectra.errors import (DomainError, UnresolvableRoots,
                                    ZeroCoupling)
from test_dispersion import diagonal_hop_table

GAMMA_OS = PI / (2 * PI - 4)


def test_leading_coefficients_closed_forms(lap):
    lc = asy.leading_coefficients(lap, 1.0, 1.0)
    # 1/(J0 (a+4b)) with J0 = 1/(2 pi)
    assert lc.es_exponent_rate == pytest.approx(2 * PI / 5, rel=1e-12)
    # Lambda with Theta** = 0 reduces to 0.25 a 2 pi / (b (a+4b))
    assert lc.Lambda == pytest.approx(PI / 10, rel=1e-6)
    # c_os = 2/(b J0 mu0^2 * 4) = pi / gamma_os^2
    assert lc.c_os == pytest.approx(PI / GAMMA_OS ** 2, rel=1e-6)
    assert lc.c_oa == pytest.approx(lc.c_os, rel=1e-6)
    assert lc.c_ea > 0
    assert lc.c_es_linear > 0


def test_c_ea_power_law(lap):
    c1 = asy.leading_coefficients(lap, 1.0, 1.0).c_ea
    c2 = asy.leading_coefficients(lap, 1.0, 2.0).c_ea
    assert c2 / c1 == pytest.approx(2.0, rel=1e-10)


def test_lambda_scaling_invariance(lap):
    t = 2.0
    l1 = asy.leading_coefficients(lap, 1.0, 2.0).Lambda
    l2 = asy.leading_coefficients(lap, t * 1.0, t * 2.0).Lambda
    assert t * l2 == pytest.approx(l1, rel=1e-8)


def test_no_rate_when_a_plus_4b_negative(lap):
    lc = asy.leading_coefficients(lap, 1.0, -1.0)
    assert lc.es_exponent_rate is None
    assert lc.Lambda is not None   # (a+4b)/(ab) = 3 > 0
    lc2 = asy.leading_coefficients(lap, -1.0, 1.0)
    assert lc2.Lambda is None      # ratio negative


def test_no_es_threshold_constants_off_the_threshold_region(lap):
    # (a + 4b)/(ab) <= 0: es has no threshold, so neither Lambda nor the
    # slope on the theta line exists; at a + 4b = 0 the slope divided by zero
    for a, b in ((-4.0, 1.0), (-1.0, 1.0)):
        lc = asy.leading_coefficients(lap, a, b)
        assert lc.Lambda is None and lc.c_es_linear is None
    assert asy.leading_coefficients(lap, -4.0, 1.0).es_exponent_rate is None


def test_leading_coefficient_dispatch(lap):
    assert asy.leading_coefficient(lap, "ea", 1.0, 1.0) > 0
    lc = asy.leading_coefficient(lap, "es", 1.0, 1.0)
    assert lc.es_exponent_rate == pytest.approx(2 * PI / 5, rel=1e-12)
    with pytest.raises(DomainError):
        asy.leading_coefficient(lap, "os", 1.0, -1.0)
    with pytest.raises(ValueError):
        asy.leading_coefficient(lap, "bogus", 1.0, 1.0)


def _k2_integrals(call):
    with mock.patch.object(torus_quad, "_integrate",
                           wraps=torus_quad._integrate) as spy:
        call()
    return sum(1 for c in spy.call_args_list if c.args[3] == 2)


def test_leading_coefficient_integrates_only_its_own_weight(lap):
    # each rank-one coefficient reads at most its own k = 2 integral: none
    # for os and oa, w_ea_sq for ea
    thresholds.gammas(lap, spec=None)
    assert _k2_integrals(lambda: asy.leading_coefficient(lap, "os", 1, 1)) == 0
    assert _k2_integrals(lambda: asy.leading_coefficient(lap, "oa", 1, 1)) == 0
    assert _k2_integrals(lambda: asy.leading_coefficient(lap, "ea", 1, 1)) == 1
    lc = asy.leading_coefficients(lap, 1.0, 1.0)
    for sector in ("os", "oa", "ea"):
        assert (asy.leading_coefficient(lap, sector, 1.0, 1.0)
                == getattr(lc, f"c_{sector}"))


def test_odd_coefficients_at_a_non_diagonal_hessian():
    # a diagonal hop makes the Hessian at (pi, pi) non-diagonal and splits
    # os from oa; each reads its own g^T A^-1 g, and the measured openings
    # approach each law as the Laplacian's do (criterion 8: 0.805 -> 0.852)
    model = diagonal_hop_table(0.1)
    lc = asy.leading_coefficients(model, 1.0, 1.0)
    assert lc.c_os == pytest.approx(1.8490, rel=1e-4)
    assert lc.c_oa == pytest.approx(1.7149, rel=1e-4)
    for sector in ("os", "oa"):
        assert asy.leading_coefficient(model, sector) == getattr(lc, f"c_{sector}")
        rep = asy.fit_eigenvalue_asymptotics(model, sector, 1.0, 1.0)
        ratios = [al / pred for _, al, pred in rep.samples]
        assert all(0.7 <= r <= 1.3 for r in ratios), (sector, ratios)
        assert np.all(np.diff(ratios) > 0), (sector, ratios)


def test_zero_coupling_rejected_before_any_work(lap, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("work ran before the couplings were checked")

    monkeypatch.setattr(asy, "morse_data", fail)
    monkeypatch.setattr(asy, "gammas", fail)
    for a, b in ((0.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ZeroCoupling):
            asy.leading_coefficients(lap, a, b)


def test_fit_ea_coarse(lap):
    with mock.patch.object(asy, "LINEAR_LAMBDAS", (1e-4, 1e-5)):
        rep = asy.fit_eigenvalue_asymptotics(lap, "ea", 1.0, 1.0)
    assert rep.relative_error < 0.05
    assert rep.sample_range == (1e-5, 1e-4)


def test_fit_unresolvable_lambda(lap):
    with mock.patch.object(asy, "LINEAR_LAMBDAS", (1e-14,)):
        with pytest.raises(UnresolvableRoots):
            asy.fit_eigenvalue_asymptotics(lap, "ea", 1.0, 1.0)


def test_extract_log_coefficient_scaling(lap):
    one = lambda p1, p2: np.ones_like(np.asarray(p1, dtype=float))
    two = lambda p1, p2: 2.0 * np.ones_like(np.asarray(p1, dtype=float))
    r1 = asy.extract_log_coefficient(lap, one)
    r2 = asy.extract_log_coefficient(lap, two)
    assert r1.predicted == pytest.approx(-2 * PI, rel=1e-12)
    assert r2.measured == pytest.approx(2 * r1.measured, rel=1e-8)


def test_extract_log_coefficient_additivity(lap):
    one = lambda p1, p2: np.ones_like(np.asarray(p1, dtype=float))
    both = lambda p1, p2: 1.0 + sectors.es_plus(p1, p2)
    p_one = asy.extract_log_coefficient(lap, one).measured
    p_es = asy.extract_log_coefficient(lap, sectors.es_plus).measured
    p_both = asy.extract_log_coefficient(lap, both).measured
    assert p_both == pytest.approx(p_one + p_es, abs=1e-6)


@pytest.mark.parametrize("branch, b", [("exponential", 1.0),
                                       ("threshold", 2.0)])
def test_es_fit_predicts_the_sampled_openings(lap, branch, b):
    # the predicted column is the fitted law exp(-slope/x + intercept), so
    # it misses each sampled opening in ln by at most the fit residual
    rep = asy.fit_eigenvalue_asymptotics(lap, "es", 1.0, b, branch=branch)
    gaps = [abs(np.log(pred) - np.log(al)) for _, al, pred in rep.samples]
    assert max(gaps) <= rep.residual + 1e-12


# nearest plus next-nearest hopping with t2 = 0.1: theta_2star < 0, so the
# theta line theta_star a = theta_2star b runs through a > 0 > b
NEXT_NEAREST = ExponentialHopping(table=(
    (0, 0, 2.0), (1, 0, -0.5), (-1, 0, -0.5), (0, 1, -0.5), (0, -1, -0.5),
    (1, 1, -0.05), (-1, -1, -0.05), (1, -1, -0.05), (-1, 1, -0.05)))


def test_es_threshold_branch_is_linear_on_the_theta_line():
    th = thresholds.es_constants(NEXT_NEAREST)
    b = -1.0
    a = th.theta_2star * b / th.theta_star
    assert (thresholds.classify_threshold_solutions(NEXT_NEAREST, a, b).es
            is thresholds.ThresholdKind.EIGENFUNCTION)
    rep = asy.fit_eigenvalue_asymptotics(NEXT_NEAREST, "es", a, b,
                                         branch="threshold")
    lc = asy.leading_coefficients(NEXT_NEAREST, a, b)
    assert rep.predicted == lc.c_es_linear
    assert rep.sample_range == (1e-6, 1e-4)
    assert rep.relative_error < 1e-6
    # the linear law predicts c lambda at every sample
    assert all(pred == pytest.approx(al, rel=1e-6)
               for _, al, pred in rep.samples)
