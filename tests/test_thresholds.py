import csv
import dataclasses
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lattice_spectra import cli, sectors, spectrum, thresholds, torus_quad
from lattice_spectra.dispersion import (PI, DiscreteLaplacian, PiecewisePhi,
                                        SteppedPhiA, morse_data)
from lattice_spectra.errors import NumericalError, ZeroCoupling
from lattice_spectra.thresholds import (AT_THRESHOLD_REL, NO_THRESHOLD,
                                        PROBE_WINDOW, ThresholdKind,
                                        classify_threshold_solutions,
                                        coupling_thresholds,
                                        es_constants, gammas,
                                        resonance_integrability_probe)
from lattice_spectra.torus_quad import FOUR_PI_SQ, integrate_threshold
from test_dispersion import diagonal_hop_table
from test_torus_quad import (es_kappa1_weight, es_theta2_weight,
                             next_nearest_hopping)

GAMMA_OS = PI / (2 * PI - 4)
GAMMA_EA = PI / (8 - 2 * PI)


def test_laplacian_closed_form_constants(lap):
    g = gammas(lap)
    assert g.gamma_os == pytest.approx(GAMMA_OS, rel=1e-6)
    assert g.gamma_oa == pytest.approx(GAMMA_OS, rel=1e-6)
    assert g.gamma_ea == pytest.approx(GAMMA_EA, rel=1e-6)
    assert g.gamma_es == pytest.approx(0.5, rel=1e-6)
    assert g.gamma_oa == pytest.approx(g.gamma_os, rel=1e-7)


def test_laplacian_es_constants(lap):
    th = es_constants(lap)
    assert th.theta_star == pytest.approx(1.0, rel=1e-6)
    assert abs(th.theta_2star) < 1e-6
    assert th.kappa1 == pytest.approx(2.0, rel=1e-6)


def _assert_es_constants_are_their_integrals(model):
    # es_constants reads Theta*, Theta** and kappa1 off the gammas; they
    # must equal the direct threshold integrals of their own weights
    th = es_constants(model, spec=None)
    for value, v, floor in ((th.theta_star, sectors.es_plus, 0.0),
                            (th.theta_2star, es_theta2_weight, 1e-12),
                            (th.kappa1, es_kappa1_weight, 0.0)):
        direct = integrate_threshold(model, v, k=1).value / FOUR_PI_SQ
        assert value == pytest.approx(direct, rel=1e-12, abs=floor), v.__name__


@pytest.mark.parametrize("model", [DiscreteLaplacian(), PiecewisePhi(eps=0.5)],
                         ids=repr)
def test_es_constants_equal_their_integrals(model):
    _assert_es_constants_are_their_integrals(model)


@settings(max_examples=10)
@given(t2=st.floats(0.0, 0.2, exclude_min=True, exclude_max=True),
       a_param=st.floats(0.05, 0.95))
def test_es_constants_equal_their_integrals_property(t2, a_param):
    _assert_es_constants_are_their_integrals(next_nearest_hopping(t2))
    _assert_es_constants_are_their_integrals(SteppedPhiA(a_param=a_param))


@pytest.mark.parametrize("model", [DiscreteLaplacian(), SteppedPhiA(a_param=0.5)],
                         ids=repr)
def test_es_constants_make_no_integral(model):
    gammas(model, spec=None)
    es_constants.cache_clear()
    # thresholds binds _integrate at import, so the spy goes on that name
    with mock.patch.object(thresholds, "_integrate",
                           wraps=thresholds._integrate) as spy:
        es_constants(model, spec=None)
    assert spy.call_count == 0


def test_coupling_thresholds_positive_b(lap):
    ct = coupling_thresholds(lap, 1.0, 2.0)
    assert ct.mu0["os"] == pytest.approx(GAMMA_OS / 2, rel=1e-6)
    assert ct.mu0["ea"] == pytest.approx(GAMMA_EA / 2, rel=1e-6)
    # (a + 4b) gamma_es / (ab) for a=1, b=2
    assert ct.mu0["es"] == pytest.approx(9 * 0.5 / 2, rel=1e-6)


def test_coupling_thresholds_reference_values(lap):
    assert coupling_thresholds(lap, 1.0, 1.0).mu0["es"] == pytest.approx(2.5, rel=1e-6)
    assert coupling_thresholds(lap, 1.0, 3.0).mu0["es"] == pytest.approx(13.0 / 6.0, rel=1e-6)


def test_coupling_thresholds_negative_b(lap):
    ct = coupling_thresholds(lap, 1.0, -1.0)
    for s in ("os", "oa", "ea"):
        assert ct.mu0[s] is NO_THRESHOLD
    # a + 4b < 0 and ab < 0: ratio positive, threshold at 1.5
    assert ct.mu0["es"] == pytest.approx(1.5, rel=1e-6)


def test_coupling_thresholds_no_es_threshold(lap):
    # ab < 0 with a + 4b > 0: eigenvalue for every mu > 0
    assert coupling_thresholds(lap, -1.0, 1.0).mu0["es"] == 0.0


def test_zero_coupling_rejected(lap):
    with pytest.raises(ZeroCoupling):
        coupling_thresholds(lap, 0.0, 1.0)
    with pytest.raises(ZeroCoupling):
        coupling_thresholds(lap, 1.0, 0.0)
    # in the count table the es threshold (a + 4b)/(ab) would divide by zero
    with pytest.raises(ZeroCoupling):
        spectrum.predicted_sector_counts(lap, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("a, b, mu", [(1.0, np.inf, 1.0), (np.nan, 1.0, 1.0),
                                      (1.0, 1.0, np.nan), (1.0, 3.0, np.inf),
                                      (-np.inf, 1.0, 1.0)])
def test_non_finite_coupling_rejected(lap, a, b, mu):
    # nan passes every comparison with 0 and inf divides to 0 or nan: the
    # count table takes finite numbers only
    for sector in sectors.SECTORS:
        with pytest.raises(ValueError, match="finite"):
            thresholds.sector_count(lap, sector, a, b, mu)
    if np.isfinite(mu):
        with pytest.raises(ValueError, match="finite"):
            coupling_thresholds(lap, a, b)


def test_gammas_rejects_unequal_odd_constants_on_an_even_model(lap,
                                                                 monkeypatch):
    # the Laplacian is even per coordinate, so gamma_os = gamma_oa; an oa
    # integral moved by 1e-6 relative must be caught
    original = thresholds._integrate

    def skewed(model, vs, *args, **kwargs):
        results = original(model, vs, *args, **kwargs)
        return [dataclasses.replace(r, value=r.value * (1 + 1e-6))
                if v is sectors.w_oa_sq else r for v, r in zip(vs, results)]

    monkeypatch.setattr(thresholds, "_integrate", skewed)
    gammas.cache_clear()
    try:
        with pytest.raises(NumericalError, match="coincide"):
            gammas(lap)
    finally:
        gammas.cache_clear()


COUNT_MODELS = {"laplacian": DiscreteLaplacian(),
                "stepped:0.5": SteppedPhiA(a_param=0.5),
                "diagonal-hop-0.1": diagonal_hop_table(0.1)}


def _paper_table(g, a, b, mu):
    # the count table as the paper states it, with the 1e-9 at-threshold
    # band: mu0 (1 + 1e-9) still counts as at threshold
    def above(mu0):
        return mu > mu0 * (1 + 1e-9)

    counts = {s: int(b > 0 and above(getattr(g, f"gamma_{s}") / b))
              for s in sectors.RANK_ONE_SECTORS}
    mu0_es = (a + 4 * b) / (a * b) * g.gamma_es
    if a < 0 and b < 0:
        counts["es"] = 0
    elif a * b < 0:                 # one root unless a + 4b < 0, mu <= mu0
        counts["es"] = 1 if a + 4 * b >= 0 else int(above(mu0_es))
    else:                           # one root, two above mu0
        counts["es"] = 2 if above(mu0_es) else 1
    return counts


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(COUNT_MODELS)),
       signs=st.sampled_from(((1, 1), (1, -1), (-1, 1), (-1, -1))),
       size_a=st.floats(0.03, 30.0), size_b=st.floats(0.03, 30.0),
       mu=st.floats(0.01, 100.0),
       edge=st.sampled_from((None,) + sectors.SECTORS),
       rel=st.sampled_from((AT_THRESHOLD_REL, 2e-9)))
def test_counts_follow_the_paper_table(name, signs, size_a, size_b, mu, edge,
                                       rel):
    # the count table against the paper's, written out above; with an edge
    # sector, mu sits on its band edge mu0 (1 + 1e-9) or just above it
    model = COUNT_MODELS[name]
    a, b = signs[0] * size_a, signs[1] * size_b
    mu0 = coupling_thresholds(model, a, b).mu0
    if edge is not None:
        assume(mu0[edge] is not NO_THRESHOLD and mu0[edge] > 0)
        mu = mu0[edge] * (1 + rel)
    pred = spectrum.predicted_sector_counts(model, a, b, mu)
    table = _paper_table(gammas(model), a, b, mu)
    assert pred == {**table, "total": sum(table.values())}
    if edge in sectors.RANK_ONE_SECTORS:
        assert table[edge] == (rel == 2e-9)
    elif edge == "es":              # the edge adds the es root above mu0
        assert table["es"] == (a > 0 and b > 0) + (rel == 2e-9)


def test_classification_positive_b(lap):
    cls = classify_threshold_solutions(lap, 1.0, 1.0)
    assert cls.os is ThresholdKind.RESONANCE
    assert cls.oa is ThresholdKind.RESONANCE
    assert cls.ea is ThresholdKind.EIGENFUNCTION
    # off the theta_star a = theta_2star b line there is no threshold solution
    assert cls.es is ThresholdKind.NO_SOLUTION


def test_classification_negative_b(lap):
    cls = classify_threshold_solutions(lap, 1.0, -1.0)
    assert cls.os is ThresholdKind.NOT_APPLICABLE
    assert cls.ea is ThresholdKind.NOT_APPLICABLE
    assert cls.es is ThresholdKind.NO_SOLUTION
    cls2 = classify_threshold_solutions(lap, -1.0, -1.0)
    assert cls2.es is ThresholdKind.NOT_APPLICABLE


def test_probe_os_log_divergent(lap):
    rep = resonance_integrability_probe(lap, "os")
    assert rep.classification == "log-divergent"
    assert rep.r_squared > 0.999
    # slope of I(r) against ln(1/r) is 2/pi for the discrete Laplacian
    assert rep.slope == pytest.approx(2.0 / PI, rel=1e-3)


def test_probe_ea_convergent(lap):
    rep = resonance_integrability_probe(lap, "ea")
    assert rep.classification == "convergent"
    tail = [d for r, d in zip(rep.rs[1:], rep.cauchy_diffs) if r <= 1e-3]
    assert max(tail) < 1e-6


SEPARABLE = (DiscreteLaplacian(), SteppedPhiA(a_param=0.5), PiecewisePhi(eps=0.5))


def _inner_tail(rep):
    # Cauchy differences over the annuli inside r = 1e-3, by outer radius
    return max(d for r, d in zip(rep.rs, rep.cauchy_diffs) if r <= 1e-3)


@pytest.mark.parametrize("model", [
    *SEPARABLE, pytest.param(diagonal_hop_table(0.1), id="diagonal-hop-0.1"),
    pytest.param(diagonal_hop_table(0.3), id="diagonal-hop-0.3")], ids=repr)
@pytest.mark.parametrize("sector", ["os", "oa"])
def test_probe_odd_slope_is_leading_order(model, sector):
    # w ~ g.u and e_max - e ~ u^T A u / 2 near pi_vec, with A = -Hessian and
    # g = (1, +-1), so I(r) grows like g^T A^-1 g / (pi sqrt(det A)) ln(1/r);
    # 2 / (pi h^2) for A = h I
    a = -morse_data(model).hessian_matrix
    g = np.array([1.0, 1.0 if sector == "os" else -1.0])
    slope = g @ np.linalg.solve(a, g) / (PI * np.sqrt(np.linalg.det(a)))
    rep = resonance_integrability_probe(model, sector)
    assert rep.classification == "log-divergent"
    assert rep.slope == pytest.approx(slope, rel=5e-5)


@pytest.mark.parametrize("model", SEPARABLE, ids=repr)
def test_probe_square_integrable_sectors_converge(model):
    th = es_constants(model)
    for rep in (resonance_integrability_probe(model, "ea"),
                resonance_integrability_probe(model, "es", a=th.theta_2star,
                                              b=th.theta_star)):
        assert rep.classification == "convergent", rep.sector
        assert _inner_tail(rep) < 1e-6, rep.sector


@pytest.mark.parametrize("model, delta", [(m, None) for m in SEPARABLE]
                         + [(DiscreteLaplacian(), 0.15)], ids=repr)
def test_probe_radii_are_graded_near_rule_edges(model, delta):
    # below delta = 0.2 the window reaches past delta/2, where chi < 1 and a
    # ring edge would not bound a ball: the radii stop at delta/2
    spec = (torus_quad.default_spec(model) if delta is None
            else torus_quad.default_spec(model, patch_radius=delta))
    delta = spec.patch_radius
    near = torus_quad._node_sets(model, spec)[2]
    rep = resonance_integrability_probe(model, "os", spec=spec)
    graded = {float(r) for r in near.edges if 0 < r <= delta / 2}
    lo, hi = PROBE_WINDOW
    assert rep.rs == tuple(sorted((r for r in graded if lo <= r <= hi),
                                  reverse=True))
    assert len(rep.rs) == (13 if delta / 2 > hi else 14)
    assert rep.classification == "log-divergent"


def test_probe_after_gammas_fills_no_node_array(lap, monkeypatch):
    gammas.cache_clear()
    gammas(lap)
    fills = []
    cached = torus_quad._NodeSet._cached

    def counting(self, cache, key, kept, compute):
        def fill():
            fills.append(key)
            return compute()
        return cached(self, cache, key, kept, fill)

    monkeypatch.setattr(torus_quad._NodeSet, "_cached", counting)
    th = es_constants(lap)
    for sector in ("os", "oa", "ea"):
        resonance_integrability_probe(lap, sector)
    resonance_integrability_probe(lap, "es", a=th.theta_2star, b=th.theta_star)
    assert fills == []


def test_probe_requires_positive_b(lap):
    with pytest.raises(ZeroCoupling):
        resonance_integrability_probe(lap, "os", b=-1.0)



def test_probe_rejects_an_unknown_sector(lap, monkeypatch):
    # an unknown name once took the es branch: NotIntegrable off the es
    # eigenfunction line, an es report under that label on it
    def fail(*args, **kwargs):
        raise AssertionError("the probe ran before the sector was checked")

    monkeypatch.setattr(thresholds, "classify_threshold_solutions", fail)
    monkeypatch.setattr(thresholds, "_outside_balls", fail)
    with pytest.raises(ValueError, match="unknown sector 'bogus'"):
        resonance_integrability_probe(lap, "bogus")

def test_constants_csv(capsys):
    assert cli.main(["thresholds", "--model", "laplacian"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1
    assert rows[0]["model"] == "laplacian"
    assert float(rows[0]["gamma_es"]) == pytest.approx(0.5, rel=1e-6)
    assert float(rows[0]["kappa1"]) == pytest.approx(2.0, rel=1e-6)
