import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lattice_spectra import sectors, spectrum, torus_quad
from lattice_spectra.asymptotics import leading_coefficients
from lattice_spectra.determinant import (delta_es, delta_rank_one,
                                         eigenfunction_es,
                                         find_eigenvalue_rank_one,
                                         find_eigenvalues_es,
                                         multiplicity_check)
from lattice_spectra.errors import UnresolvableRoots, ZeroCoupling
from lattice_spectra.thresholds import NO_THRESHOLD, coupling_thresholds

# frozen reference roots for the discrete Laplacian (independently confirmed
# against box-truncation diagonalization in test_lattice_oracle /
# test_acceptance)
E_OS_B3_MU1 = 5.254915151904183
E_EA_B3_MU1 = 5.088580139631247
E_ES_A1B1_MU3 = (6.171696061794117, 4.297936217563654)


def test_delta_limits(lap):
    assert delta_rank_one(lap, "os", 1.0, 0.0, alpha=1.0) == pytest.approx(1.0)
    assert delta_rank_one(lap, "os", 1.0, 1.0, alpha=1e6) == pytest.approx(1.0, abs=1e-5)
    parts = delta_es(lap, 1.0, 1.0, 1.0, alpha=1e6)
    assert parts.combined == pytest.approx(1.0, abs=1e-5)


def test_rank_one_root_frozen(lap):
    rec = find_eigenvalue_rank_one(lap, "os", 3.0, 1.0)
    assert rec.energy == pytest.approx(E_OS_B3_MU1, abs=1e-9)
    assert rec.residual < 1e-10
    rec_ea = find_eigenvalue_rank_one(lap, "ea", 3.0, 1.0)
    assert rec_ea.energy == pytest.approx(E_EA_B3_MU1, abs=1e-9)
    # odd sectors coincide for per-coordinate-even models
    rec_oa = find_eigenvalue_rank_one(lap, "oa", 3.0, 1.0)
    assert rec_oa.energy == pytest.approx(rec.energy, abs=1e-7)


def test_rank_one_below_threshold(lap):
    assert find_eigenvalue_rank_one(lap, "os", 1.0, 1.0) is None
    assert find_eigenvalue_rank_one(lap, "os", -1.0, 5.0) is None
    with pytest.raises(ZeroCoupling):
        find_eigenvalue_rank_one(lap, "os", 0.0, 1.0)


def test_rank_one_monotone_in_mu(lap):
    e1 = find_eigenvalue_rank_one(lap, "os", 1.0, 2.0).energy
    e2 = find_eigenvalue_rank_one(lap, "os", 1.0, 2.5).energy
    assert e2 > e1 > 4.0


def test_es_counts_by_regime(lap):
    # a, b > 0: one root below the threshold mu0 = 2.5, two above
    assert len(find_eigenvalues_es(lap, 1.0, 1.0, 2.0)) == 1
    assert len(find_eigenvalues_es(lap, 1.0, 1.0, 2.5)) == 1
    assert len(find_eigenvalues_es(lap, 1.0, 1.0, 3.0)) == 2
    # a, b < 0: none
    assert len(find_eigenvalues_es(lap, -1.0, -1.0, 5.0)) == 0
    # ab < 0 with a + 4b >= 0: one for every mu
    assert len(find_eigenvalues_es(lap, -1.0, 1.0, 0.7)) == 1
    # ab < 0 with a + 4b < 0: none until mu0 = 1.5
    assert len(find_eigenvalues_es(lap, 1.0, -1.0, 1.0)) == 0
    assert len(find_eigenvalues_es(lap, 1.0, -1.0, 2.0)) == 1
    # just above mu0 the inner root lies below the resolvable floor
    mu = coupling_thresholds(lap, 1.0, 1.0).mu0["es"] * (1 + 1e-7)
    with pytest.raises(UnresolvableRoots, match=r"\(a, b, mu\) = \(1, 1, 2\.5"):
        find_eigenvalues_es(lap, 1.0, 1.0, mu)


def test_es_two_roots_frozen(lap):
    recs = find_eigenvalues_es(lap, 1.0, 1.0, 3.0)
    assert [r.multiplicity for r in recs] == [1, 1]
    assert recs[0].energy == pytest.approx(E_ES_A1B1_MU3[0], abs=1e-9)
    assert recs[1].energy == pytest.approx(E_ES_A1B1_MU3[1], abs=1e-9)
    assert recs[0].energy > recs[1].energy
    for r in recs:
        assert r.residual < 1e-9


def _kernel_log(monkeypatch):
    # one entry per weight integrated by the kernel, (weight, alpha, k),
    # whoever calls the kernel, and a count of the node arrays it fills
    # (deficits and w * v products)
    log = {"integrals": [], "fills": 0}
    near_values, cached = torus_quad._near_values, torus_quad._NodeSet._cached

    def integrating(near, model, vs, alpha, k):
        log["integrals"] += [(v.__name__, alpha, k) for v in vs]
        return near_values(near, model, vs, alpha, k)

    def caching(node_set, cache, key, kept, compute):
        def filling():
            log["fills"] += 1
            return compute()
        return cached(node_set, cache, key, kept, filling)

    monkeypatch.setattr(torus_quad, "_near_values", integrating)
    monkeypatch.setattr(torus_quad._NodeSet, "_cached", caching)
    return log


def test_es_two_roots_integral_count(lap, monkeypatch):
    # both eigenvalue branches of M share one memo of delta_es points, and
    # a warm search reads every node array from the caches
    find_eigenvalues_es(lap, 1.0, 1.0, 3.0)  # warm the constants and arrays
    log = _kernel_log(monkeypatch)
    find_eigenvalues_es(lap, 1.0, 1.0, 3.0)
    assert len(log["integrals"]) <= 45, log["integrals"]
    assert log["fills"] == 0


@pytest.mark.parametrize("find", [
    lambda lap: find_eigenvalue_rank_one(lap, "os", 3.0, 1.0),
    lambda lap: find_eigenvalue_rank_one(lap, "ea", 3.0, 1.0),
    lambda lap: find_eigenvalues_es(lap, 1.0, 1.0, 3.0),      # two roots
    lambda lap: find_eigenvalues_es(lap, 1.0, 3.0, 1.0),      # one root
], ids=["os", "ea", "es-two", "es-one"])
def test_root_search_evaluates_no_alpha_twice(lap, find, monkeypatch):
    # brentq's bracket ends, the residual and the es coefficients read the
    # points the search has already evaluated
    find(lap)  # warm the threshold constants
    log = _kernel_log(monkeypatch)
    records = find(lap)
    assert records
    assert len(log["integrals"]) == len(set(log["integrals"])), sorted(
        log["integrals"])


@settings(max_examples=20)
@given(signs=st.sampled_from(((1, 1), (1, -1), (-1, 1), (-1, -1))),
       size_a=st.floats(0.1, 3.0), size_b=st.floats(0.1, 3.0),
       mu=st.floats(0.2, 6.0))
def test_solve_counts_and_es_residuals_over_sign_regimes(lap, signs, size_a,
                                                         size_b, mu):
    a, b = signs[0] * size_a, signs[1] * size_b
    mu0 = coupling_thresholds(lap, a, b).mu0
    assume(all(abs(mu - m) > 1e-3 * m for m in mu0.values()
               if m is not NO_THRESHOLD))
    # keep the es roots resolvable: alpha ~ exp(-exponent), exponent <= 20
    lc = leading_coefficients(lap, a, b)
    if lc.es_exponent_rate is not None:
        assume(lc.es_exponent_rate / mu <= 20)
    if lc.Lambda is not None and mu > mu0["es"]:
        assume(lc.Lambda / (mu - mu0["es"]) <= 20)
    res = spectrum.solve(lap, a, b, mu)
    pred = spectrum.predicted_sector_counts(lap, a, b, mu)
    assert res.sector_counts() == {s: pred[s] for s in sectors.SECTORS}
    for rec in res.records:
        if rec.sector == "es":
            assert rec.residual < 1e-9


def test_es_records_ordered_and_coefficients(lap):
    recs = find_eigenvalues_es(lap, 1.0, 1.0, 3.0)
    for r in recs:
        pairs = eigenfunction_es(lap, r, 1.0, 1.0)
        assert len(pairs) == 1
        c1, c2 = pairs[0]
        assert abs(c1) + abs(c2) > 0
        assert (r.c1, r.c2) == (pytest.approx(c1), pytest.approx(c2))


def test_delta3_nonzero_above_band(lap):
    # the off-diagonal component is nonzero for z > e_max (its sign is a
    # normalization convention; only its square enters the determinant)
    for alpha in (0.1, 1.0, 10.0):
        parts = delta_es(lap, 1.0, 1.0, 1.0, alpha=alpha)
        assert abs(parts.delta3) > 1e-8
        assert parts.combined == pytest.approx(
            parts.delta1 * parts.delta2 - 1.0 * parts.delta3 ** 2, rel=1e-12)


def test_multiplicity_check_rejects_simple_roots(lap):
    recs = find_eigenvalues_es(lap, 1.0, 1.0, 3.0)
    assert not multiplicity_check(lap, 1.0, 1.0, 3.0, recs[0].energy)


def test_record_as_dict(lap):
    rec = find_eigenvalue_rank_one(lap, "os", 3.0, 1.0)
    d = dataclasses.asdict(rec)
    assert d["sector"] == "os"
    assert d["multiplicity"] == 1
    assert set(d) == {"sector", "mu", "energy", "multiplicity", "c1", "c2",
                      "residual"}
