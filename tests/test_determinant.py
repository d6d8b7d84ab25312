import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lattice_spectra import determinant, sectors, spectrum, torus_quad
from lattice_spectra.asymptotics import leading_coefficients
from lattice_spectra.determinant import (ALPHA_FLOOR, delta_es,
                                         delta_rank_one,
                                         eigenfunction_es,
                                         find_eigenvalue_rank_one,
                                         find_eigenvalues_es,
                                         multiplicity_check)
from lattice_spectra.dispersion import DiscreteLaplacian, SteppedPhiA
from lattice_spectra.errors import (BracketFailure, UnresolvableRoots,
                                    ZeroCoupling)
from lattice_spectra.thresholds import NO_THRESHOLD, coupling_thresholds
from test_dispersion import diagonal_hop_table

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


@pytest.mark.parametrize("call", [
    lambda m: delta_es(m, np.nan, 1.0, 1.0, alpha=1.0),
    lambda m: delta_es(m, 1.0, -np.inf, 1.0, alpha=1.0),
    lambda m: delta_es(m, 1.0, 1.0, np.nan, alpha=1.0),
    lambda m: delta_rank_one(m, "os", np.inf, 1.0, alpha=1.0),
    lambda m: delta_rank_one(m, "os", 1.0, np.inf, alpha=1.0),
    lambda m: multiplicity_check(m, np.nan, 1.0, 1.0, 5.0),
    lambda m: multiplicity_check(m, 1.0, 1.0, np.inf, 5.0),
    lambda m: delta_es(m, 1.0, 1.0, 1.0, alpha=np.nan),
    lambda m: delta_rank_one(m, "os", 1.0, 1.0, alpha=np.nan),
    lambda m: multiplicity_check(m, 1.0, 1.0, 1.0, np.nan),
    lambda m: multiplicity_check(m, 1.0, 1.0, 1.0, np.inf)],
    ids=("es-a-nan", "es-b-inf", "es-mu-nan", "os-b-inf", "os-mu-inf",
         "multiplicity-a-nan", "multiplicity-mu-inf", "es-alpha-nan",
         "os-alpha-nan", "multiplicity-z0-nan", "multiplicity-z0-inf"))
def test_determinant_helpers_reject_non_finite_couplings(lap, call):
    # as sector_count does, rather than return NaN parts, -inf or False; a
    # NaN alpha passed the alpha <= 0 check
    with pytest.raises(ValueError, match="must be finite"):
        call(lap)


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
    # whoever calls the kernel, a count of the kernel calls, and a count of
    # the node arrays it fills (deficits and w * v products)
    log = {"integrals": [], "calls": 0, "fills": 0}
    near_values, cached = torus_quad._near_values, torus_quad._NodeSet._cached

    def integrating(near, model, vs, alpha, k, *args, **kwargs):
        log["integrals"] += [(v.__name__, alpha, k) for v in vs]
        log["calls"] += 1
        return near_values(near, model, vs, alpha, k, *args, **kwargs)

    def caching(node_set, cache, key, kept, compute):
        def filling():
            log["fills"] += 1
            return compute()
        return cached(node_set, cache, key, kept, filling)

    monkeypatch.setattr(torus_quad, "_near_values", integrating)
    monkeypatch.setattr(torus_quad._NodeSet, "_cached", caching)
    return log


def test_es_two_roots_integral_count(lap, monkeypatch):
    # both eigenvalue branches of N share one memo of kernel points, and
    # a warm search reads every node array from the caches
    find_eigenvalues_es(lap, 1.0, 1.0, 3.0)  # warm the constants and arrays
    log = _kernel_log(monkeypatch)
    find_eigenvalues_es(lap, 1.0, 1.0, 3.0)
    assert len(log["integrals"]) <= 30, log["integrals"]
    assert log["fills"] == 0


def test_warm_solve_integral_count(lap, monkeypatch):
    # the Newton search costs a few kernel points per root (the bracketed
    # descent and Brent took 43 integrals here)
    spectrum.solve(lap, 1.0, 3.0, 1.0)
    log = _kernel_log(monkeypatch)
    assert spectrum.solve(lap, 1.0, 3.0, 1.0).total_count == 4
    assert len(log["integrals"]) <= 32, log["integrals"]
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


def test_newton_safeguards_on_a_synthetic_branch(monkeypatch):
    # a slope that steers nowhere (0) leaves only the bracket's geometric
    # midpoints, which still close on the zero; every failure names the
    # last alpha and the bracket
    root = 1e-3
    steerless = lambda al: (math.log(al / root), 0.0)
    assert determinant._root(steerless, 10.0, "test") == pytest.approx(
        root, rel=1e-11)
    with pytest.raises(BracketFailure,
                       match=r"^test: .*last alpha = 1e-05, .*bracket \(1e-13, 1e-05\)"):
        determinant._root(steerless, 1e-5, "test")
    monkeypatch.setattr(determinant, "MAX_STEPS", 3)
    with pytest.raises(UnresolvableRoots, match=r"no convergence in 3 steps "
                       r"\(last alpha = \S+, N = \S+, bracket \(\S+, \S+\)\)$"):
        determinant._root(steerless, 10.0, "test")


def _keeps_roots_resolvable(model, a, b, mu):
    # at least 1e-3 relative from every threshold, and es roots at
    # alpha ~ exp(-exponent) with exponent <= 20
    mu0 = coupling_thresholds(model, a, b).mu0
    if not all(abs(mu - m) > 1e-3 * m for m in mu0.values()
               if m is not NO_THRESHOLD):
        return False
    lc = leading_coefficients(model, a, b)
    if lc.es_exponent_rate is not None and lc.es_exponent_rate / mu > 20:
        return False
    return not (lc.Lambda is not None and mu > mu0["es"]
                and lc.Lambda / (mu - mu0["es"]) > 20)


NEWTON_MODELS = {"laplacian": DiscreteLaplacian(),
                 "diagonal-hop-0.1": diagonal_hop_table(0.1)}


@settings(max_examples=25)
@given(name=st.sampled_from(sorted(NEWTON_MODELS)),
       signs=st.sampled_from(((1, 1), (1, -1), (-1, 1), (-1, -1))),
       size_a=st.floats(0.1, 3.0), size_b=st.floats(0.1, 3.0),
       mu=st.floats(0.2, 6.0))
# an es root at alpha = 4.6e-9, which E = e_max + alpha keeps to 1e-7 only
@example(name="laplacian", signs=(-1, 1), size_a=0.5, size_b=0.5, mu=0.21875)
def test_newton_roots_are_sign_changes_of_the_determinant(name, signs, size_a,
                                                          size_b, mu):
    # the Newton search on N against the public determinants, which it does
    # not call: each simple root must sit inside a sign change of Delta
    # between alpha (1 - 1e-8) and alpha (1 + 1e-8), alpha from the record's
    # log_alpha
    model = NEWTON_MODELS[name]
    a, b = signs[0] * size_a, signs[1] * size_b
    assume(_keeps_roots_resolvable(model, a, b, mu))
    res = spectrum.solve(model, a, b, mu)
    pred = spectrum.predicted_sector_counts(model, a, b, mu)
    assert res.sector_counts() == {s: pred[s] for s in sectors.SECTORS}
    for rec in res.records:
        alpha = math.exp(rec.log_alpha)
        if rec.sector == "es":
            delta = lambda al: delta_es(model, a, b, mu, alpha=al).combined
        else:
            delta = lambda al: delta_rank_one(model, rec.sector, b, mu, alpha=al)
        h = 1e-8 * alpha
        below, above = delta(alpha - h), delta(alpha + h)
        assert below * above < 0, (rec, below, above)


def test_es_records_ordered_and_coefficients(lap):
    recs = find_eigenvalues_es(lap, 1.0, 1.0, 3.0)
    for r in recs:
        pairs = eigenfunction_es(lap, r, 1.0, 1.0)
        assert len(pairs) == 1
        c1, c2 = pairs[0]
        assert abs(c1) + abs(c2) > 0
        assert (r.c1, r.c2) == (pytest.approx(c1), pytest.approx(c2))


# c2/c1 of the box's es kernel vector c = G_L^-1 x, x spanning the kernel of
# N(E_L) on the L = 30 Laplacian box: independent of the torus quadrature
BOX_ES_RATIOS = {(1.0, 3.0, 1.0): (-8.18616693557789,),
                 (1.0, 1.0, 3.0): (-1.17169621784798, 0.70206376298293)}


@pytest.mark.parametrize("a, b, mu", [(1.0, 3.0, 1.0), (1.0, 1.0, 3.0),
                                      (-0.5, 0.5, 0.21875)])
def test_es_coefficients_solve_the_eigenvalue_equation(lap, a, b, mu):
    # Psi = (c1 + c2 (cos p1 + cos p2))/(E - e) is an eigenfunction iff
    # M c = 0, M = [[Delta1, -a mu Delta3], [-b mu Delta3, Delta2]].  At a
    # root resolved to |det M|, a row of adj(M) of norm at least
    # |M|_F / sqrt 2 leaves |M c| <= sqrt 2 |det M| |c| / |M|_F
    recs = find_eigenvalues_es(lap, a, b, mu)
    for rec in recs:
        parts = delta_es(lap, a, b, mu, alpha=math.exp(rec.log_alpha))
        d1, d2, d3 = parts.delta1, parts.delta2, parts.delta3
        m = np.array([[d1, -a * mu * d3], [-b * mu * d3, d2]])
        c = np.array([rec.c1, rec.c2])
        size = np.linalg.norm(m)
        assert np.linalg.norm(m @ c) <= (
            1e-12 * size + math.sqrt(2) * abs(parts.combined) / size
        ) * np.linalg.norm(c)
    if (a, b, mu) in BOX_ES_RATIOS:
        assert tuple(rec.c2 / rec.c1 for rec in recs) == pytest.approx(
            BOX_ES_RATIOS[a, b, mu], rel=1e-6)


def test_eigenfunction_es_at_the_record_alpha(lap):
    # alpha = 4.6e-9: energy - e_max holds it only to 1e-7 relative, which
    # moved (c1, c2) by 2e-10; log_alpha carries the root's own alpha
    rec, = find_eigenvalues_es(lap, -0.5, 0.5, 0.21875)
    (c1, c2), = eigenfunction_es(lap, rec, -0.5, 0.5)
    assert (c1, c2) == (pytest.approx(rec.c1, rel=1e-12),
                        pytest.approx(rec.c2, rel=1e-12))


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


def test_multiplicity_check_is_one_kernel_call(monkeypatch):
    # the z-derivative comes from the k = 2 slopes of the call at z0, not
    # from two more determinants at z0 +- h
    res = spectrum.multiplicity_two_construct(1.5, mu=1.0)
    model = SteppedPhiA(a_param=res.A0)
    log = _kernel_log(monkeypatch)
    assert multiplicity_check(model, res.a0, res.b0, 1.0, 1.5)
    assert log["calls"] == 1
    assert len(log["integrals"]) == 3


def test_unresolvable_root_names_its_state(lap):
    # the inner root just above mu0 lies far below the floor; the error
    # names the sector, the couplings, the last alpha and the bracket
    mu = coupling_thresholds(lap, 1.0, 1.0).mu0["es"] * (1 + 1e-7)
    with pytest.raises(UnresolvableRoots) as info:
        find_eigenvalues_es(lap, 1.0, 1.0, mu)
    message = str(info.value)
    assert message.startswith(
        f"inner es root at (a, b, mu) = (1, 1, {mu:.17g}): "), message
    match = re.search(r"last alpha = (\S+), N = \S+, "
                      r"bracket \((\S+), (\S+)\)\)$", message)
    assert match, message
    last, lo, hi = (float(x) for x in match.groups())
    assert last == lo == ALPHA_FLOOR < hi
    # Delta is negative strictly between the two roots, and hi is the outer
    # root itself, where Delta reads +-1e-16 as the BLAS thread count varies
    assert delta_es(lap, 1.0, 1.0, mu, alpha=math.sqrt(lo * hi)).combined < 0
    assert abs(delta_es(lap, 1.0, 1.0, mu, alpha=hi).combined) < 1e-14


def test_record_as_dict(lap):
    rec = find_eigenvalue_rank_one(lap, "os", 3.0, 1.0)
    d = dataclasses.asdict(rec)
    assert d["sector"] == "os"
    assert d["multiplicity"] == 1
    assert set(d) == {"sector", "mu", "energy", "multiplicity", "c1", "c2",
                      "residual", "log_alpha"}
