import dataclasses
import functools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lattice_spectra import sectors, spectrum, thresholds, torus_quad
from lattice_spectra.dispersion import (PI, DiscreteLaplacian, PiecewisePhi,
                                        SteppedPhiA, validate_hypothesis)
from lattice_spectra.errors import (DomainError, NoConvergence,
                                    NotEvenPerCoordinate, ZeroCoupling)
from lattice_spectra.thresholds import coupling_thresholds
from lattice_spectra.torus_quad import _far_grids, _node_sets, default_spec
from test_torus_quad import diagonal_hop_table, hopping_table, next_nearest_hopping


def test_solve_reference_config(lap):
    res = spectrum.solve(lap, 1.0, 3.0, 1.0)
    assert res.total_count == 4
    assert res.sector_counts() == {"os": 1, "oa": 1, "ea": 1, "es": 1}
    energies = sorted(r.energy for r in res.records)
    assert energies[0] == pytest.approx(5.088580139631247, abs=1e-9)
    assert energies[-1] == pytest.approx(5.728722156053265, abs=1e-9)


def test_cold_solve_fills_one_gammas_key(lap):
    # every sector passes the caller's spec through unresolved, so the
    # rank-one and es paths share one cache entry
    thresholds.gammas.cache_clear()
    spectrum.solve(lap, 1.0, 3.0, 1.0)
    assert thresholds.gammas.cache_info().currsize == 1


def test_solve_zero_coupling(lap):
    with pytest.raises(ZeroCoupling):
        spectrum.solve(lap, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("a,b,mu", [
    (1.0, 1.0, 3.0), (-1.0, 1.0, 2.0), (2.0, -1.0, 2.0),
    (-1.0, -1.0, 4.0), (1.0, 2.0, 0.9),
])
def test_solve_matches_predicted_counts(lap, a, b, mu):
    pred = spectrum.predicted_sector_counts(lap, a, b, mu)
    got = spectrum.solve(lap, a, b, mu).sector_counts()
    for s in ("os", "oa", "ea", "es"):
        assert got[s] == pred[s], (a, b, mu, s)


@pytest.mark.parametrize("a,b,sector", [
    (1.0, 1.0, "ea"), (1.0, 1.0, "os"), (1.0, 1.0, "es"), (1.0, -1.0, "es"),
])
def test_solve_matches_table_inside_threshold_band(lap, a, b, sector):
    # mu0 (1 + 5e-10) lies inside the table's at-threshold band, where the
    # root finders must agree with the table
    mu = coupling_thresholds(lap, a, b).mu0[sector] * (1 + 5e-10)
    pred = spectrum.predicted_sector_counts(lap, a, b, mu)
    got = spectrum.solve(lap, a, b, mu).sector_counts()
    assert got == {s: pred[s] for s in sectors.SECTORS}


EVEN_MODELS = {"laplacian": DiscreteLaplacian(), "stepped-0.5": SteppedPhiA(a_param=0.5),
               "piecewise-0.5": PiecewisePhi(eps=0.5),
               "next-nearest-0.1": next_nearest_hopping(0.1)}


@pytest.mark.parametrize("name", EVEN_MODELS)
@pytest.mark.parametrize("b", [3.0, -1.0])
def test_solve_copies_the_os_record_to_oa_on_even_models(name, b):
    # the reflection p2 -> -p2 keeps e and maps w_os onto w_oa: the oa
    # record is the os one, present exactly when it is
    res = spectrum.solve(EVEN_MODELS[name], 1.0, b, 1.0)
    os_recs, oa_recs = ([r for r in res.records if r.sector == s] for s in ("os", "oa"))
    assert len(os_recs) == len(oa_recs) == (1 if b > 0 else 0)
    for os_rec, oa_rec in zip(os_recs, oa_recs):
        assert dataclasses.replace(oa_rec, sector="os") == os_rec


def _integrated_weights(monkeypatch):
    # every weight the kernel integrates, one entry per weight of a stack
    weights, near_values = [], torus_quad._near_values

    def integrating(near, model, vs, *args, **kwargs):
        weights.extend(vs)
        return near_values(near, model, vs, *args, **kwargs)

    monkeypatch.setattr(torus_quad, "_near_values", integrating)
    return weights


def test_warm_solve_searches_no_oa_root_on_an_even_model(lap, monkeypatch):
    # os, ea and es searches only, each one kernel point at its proxy seed:
    # 5 integrals (23 when every search started at its upper bracket)
    spectrum.solve(lap, 1.0, 3.0, 1.0)
    weights = _integrated_weights(monkeypatch)
    assert spectrum.solve(lap, 1.0, 3.0, 1.0).sector_counts()["oa"] == 1
    assert len(weights) == 5
    assert sectors.w_oa_sq not in weights


def test_solve_searches_the_oa_root_on_the_diagonal_hop_table(monkeypatch):
    # not even per coordinate: os and oa are different sectors
    model = diagonal_hop_table(0.1)
    spectrum.solve(model, 1.0, 3.0, 1.0)
    weights = _integrated_weights(monkeypatch)
    res = spectrum.solve(model, 1.0, 3.0, 1.0)
    assert sectors.w_oa_sq in weights
    os_rec, oa_rec = ([r for r in res.records if r.sector == s] for s in ("os", "oa"))
    assert os_rec[0].energy != oa_rec[0].energy


_COUPLING = st.floats(0.5, 3.0) | st.floats(-3.0, -0.5)


@settings(max_examples=10, deadline=None)
@given(t=st.floats(-1.0, -0.1), d=st.floats(-0.2, 0.2), s=st.floats(-0.05, 0.05),
       a=_COUPLING, b=_COUPLING, mu=st.floats(1.0, 6.0))
def test_solve_counts_are_the_table_on_even_hopping_tables(t, d, s, a, b, mu):
    # the table reads gamma_oa = gamma_os on an even model, as solve copies
    # the os root to oa.  mu stays 10% off every threshold and mu |a|, mu |b|
    # at 0.5 or more, where every root lies above ALPHA_FLOOR: at a = 0.5,
    # b = 0.25, mu = 0.25 the es root sits far below it
    model = hopping_table(t, d, d, s)
    assume(validate_hypothesis(model).passed)
    mu0 = coupling_thresholds(model, a, b).mu0.values()
    assume(all(m is None or abs(mu - m) > 0.1 * m for m in mu0))
    pred = spectrum.predicted_sector_counts(model, a, b, mu)
    assert spectrum.solve(model, a, b, mu).sector_counts() == {
        sec: pred[sec] for sec in sectors.SECTORS}


def test_phase_diagram_small_grid(lap):
    a_grid = [-1.0, 1.0]
    b_grid = [-1.0, 1.0]
    pd = spectrum.phase_diagram(lap, 3.0, a_grid, b_grid)
    assert len(pd.cells) == 4
    by_pair = {(c.a, c.b): c.count for c in pd.cells}
    assert by_pair[(-1.0, -1.0)] == 0
    assert by_pair[(1.0, 1.0)] == 5
    assert set(pd.boundaries) == {"b_os", "b_oa", "b_ea", "es_hyperbola"}
    assert pd.boundaries["b_os"] == pytest.approx(PI / (2 * PI - 4) / 3.0, rel=1e-6)


def test_phase_diagram_counts_cells_where_roots_are_unresolvable(lap):
    # at mu = 0.5 the es roots of (-1, 0.3) and (1, -0.3) lie below the
    # finder's alpha floor; the diagram reads every count off the table
    grid = [-1.0, -0.3, 0.3, 1.0]
    pd = spectrum.phase_diagram(lap, 0.5, grid, grid)
    assert [(c.a, c.b) for c in pd.cells] == [(a, b) for a in grid for b in grid]
    for c in pd.cells:
        assert c.count == spectrum.predicted_sector_counts(
            lap, c.a, c.b, 0.5)["total"], (c.a, c.b)


@pytest.mark.parametrize("mu", [0.0, -1.0])
def test_counts_reject_nonpositive_mu(lap, mu):
    with pytest.raises(ValueError, match="mu must be positive"):
        spectrum.predicted_sector_counts(lap, 1.0, 1.0, mu)
    with pytest.raises(ValueError, match="mu must be positive"):
        spectrum.phase_diagram(lap, mu, [-1.0, 1.0], [1.0])


def test_shared_far_caches_under_threads(lap):
    # both pool threads fill the deficit and weight-value maps of the same
    # cold far levels and near set; every record and every cached array
    # must come out as in a serial run
    cases = [(1.0, 3.0, 1.0), (1.0, 1.0, 3.0), (-1.0, 1.0, 2.0), (2.0, -1.0, 2.0)]

    def run(case):
        return spectrum.solve(lap, *case).records

    def cached_arrays():
        # every array of the far levels' and the near set's maps, by key
        return [{key: array for cache in (node_set.deficits, node_set.vcache)
                 for key, array in cache.items()}
                for node_set in _node_sets(lap, default_spec(lap))]

    _far_grids.cache_clear()
    serial = [run(c) for c in cases]
    serial_arrays = [{key: a.tobytes() for key, a in cached.items()}
                     for cached in cached_arrays()]
    _far_grids.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(run, c) for c in cases]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    threaded_arrays = cached_arrays()
    assert len(threaded_arrays) == 3
    for cached, saved in zip(threaded_arrays, serial_arrays):
        assert not any(a.flags.writeable for a in cached.values())
        assert {key: a.tobytes() for key, a in cached.items()} == saved


def test_phase_diagram_rejects_zero_grid(lap):
    with pytest.raises(ZeroCoupling):
        spectrum.phase_diagram(lap, 1.0, [0.0, 1.0], [1.0])


def test_eigenvalue_curve_increasing(lap):
    rep = spectrum.eigenvalue_curve(lap, "ea", 1.0, 1.0,
                                    np.linspace(2.0, 2.5, 5))
    assert rep.strictly_increasing
    assert rep.energies[0] == pytest.approx(4.1472654125271546, abs=1e-9)
    assert rep.min_second_difference > -1e-10


def test_eigenvalue_curve_absent_sector(lap):
    with pytest.raises(DomainError):
        spectrum.eigenvalue_curve(lap, "os", 1.0, -1.0, [1.0, 2.0])
    with pytest.raises(ValueError):
        spectrum.eigenvalue_curve(lap, "os", 1.0, 1.0, [2.0, 1.5])


@pytest.mark.parametrize("branch", [0, -1])
def test_eigenvalue_curve_rejects_branch_below_one(lap, monkeypatch, branch):
    # branch 0 once read recs[-1], a curve mixing both es branches, and -1
    # an IndexError; both are refused before any root search
    def fail(*args, **kwargs):
        raise AssertionError("root search ran before the branch was checked")

    monkeypatch.setattr(spectrum, "find_eigenvalues_es", fail)
    with pytest.raises(ValueError, match="branch"):
        spectrum.eigenvalue_curve(lap, "es", 1.0, 1.0, [2.0, 2.5, 3.0],
                                  branch=branch)



def test_eigenvalue_curve_rejects_an_unknown_sector(lap, monkeypatch):
    # an unknown name once fell through to the es search and came back as
    # the es curve under that label
    def fail(*args, **kwargs):
        raise AssertionError("root search ran before the sector was checked")

    monkeypatch.setattr(spectrum, "find_eigenvalues_es", fail)
    monkeypatch.setattr(spectrum, "find_eigenvalue_rank_one", fail)
    with pytest.raises(ValueError, match="unknown sector 'bogus'"):
        spectrum.eigenvalue_curve(lap, "bogus", 1.0, 1.0, [1.0, 2.0, 3.0])

def test_triple_emergence(lap):
    rep = spectrum.triple_emergence_check(lap, 1.0)
    assert rep.a == pytest.approx(2 * PI - 4, rel=1e-6)
    assert rep.mu0 == pytest.approx(PI / (2 * PI - 4), rel=1e-6)
    assert rep.jump == 3
    assert rep.count_below == 1
    assert rep.count_above == 4


def test_triple_emergence_requires_even_model(lap):
    from lattice_spectra.dispersion import ExponentialHopping
    # e(p) = 2 - cos(p1 + p2) is jointly even but not even per coordinate
    skew = ExponentialHopping(table=(
        (0, 0, 2.0), (1, 1, -0.5), (-1, -1, -0.5)))
    with pytest.raises(NotEvenPerCoordinate):
        spectrum.triple_emergence_check(skew, 1.0)


def _assert_frozen_construction(res):
    assert res.A0 == pytest.approx(0.6862262237980128, abs=1e-6)
    assert res.a0 == pytest.approx(1.0730279128660294, abs=1e-6)
    assert res.b0 == pytest.approx(0.9773079172198559, abs=1e-6)
    assert res.g_residual < 1e-10
    assert max(res.verification) < 1e-8


def test_multiplicity_two_construct_frozen():
    _assert_frozen_construction(spectrum.multiplicity_two_construct(1.5, mu=1.0))


def test_multiplicity_two_construct_reuses_g_values(monkeypatch):
    # brentq's end points and g_residual revisit values of G already
    # computed.  G(A) reaches the kernel through torus_quad, and the stacked
    # call at A0 through the name spectrum bound at import; spy on both
    calls = []

    def spy(module):
        original = module._integrate

        def counting(model, weights, *args, **kwargs):
            calls.append((module.__name__, model.a_param, len(weights)))
            return original(model, weights, *args, **kwargs)

        monkeypatch.setattr(module, "_integrate", counting)

    spy(torus_quad)
    spy(spectrum)
    res = spectrum.multiplicity_two_construct(1.5, mu=1.0)
    _assert_frozen_construction(res)
    g_params = [a for name, a, n in calls if name.endswith("torus_quad") and n == 1]
    assert calls[-1] == (spectrum.__name__, res.A0, 3)
    assert len(set(g_params)) == len(g_params) == len(calls) - 1
    # G at A = 0 and 1, then brentq's 7 new points at xtol 1e-13; and the
    # one stacked call at A0 for a0, b0 and the verification
    assert len(calls) <= 10


def test_multiplicity_two_construct_builds_one_far_node_set():
    # every brentq step is a new SteppedPhiA(A); all share one node set
    _far_grids.cache_clear()
    res = spectrum.multiplicity_two_construct(1.5, mu=1.0)
    assert _far_grids.cache_info().misses == 1
    _assert_frozen_construction(res)
    # about 15 models passed through it; each level kept a bounded few
    model = SteppedPhiA(a_param=res.A0)
    for level in _node_sets(model, default_spec(model)):
        assert 0 < len(level.deficits) <= level.DEFICITS_KEPT
    assert _far_grids.cache_info().misses == 1


def test_multiplicity_two_scan_keeps_both_ends():
    # a step that does not divide 1 must not step past A = 1
    scanned = spectrum.multiplicity_two_construct(1.5, mu=1.0, scan=True,
                                                  scan_step=0.6)
    plain = spectrum.multiplicity_two_construct(1.5, mu=1.0)
    assert scanned.A0 == pytest.approx(plain.A0, abs=1e-12)


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0), (math.cos, 0.0, 3.0),
    (lambda x: math.exp(x) - 2, -1.0, 2.0), (lambda x: math.atan(1e3 * (x - 0.123)), -2.0, 5.0),
    (lambda x: (x - 0.7) ** 5, 0.0, 1.0), (lambda x: -1.0 if x < 0.4 else 1.0, 0.0, 1.0),
    (lambda x: x, 0.0, 1.0)])
@pytest.mark.parametrize("xtol, rtol", [(1e-13, 8.9e-16), (1e-3, 1e-6)])
def test_brent_loop_is_scipy_brentq(f, lo, hi, xtol, rtol):
    # the same root, evaluated at the same points, or the same failure
    # (the quintic at xtol 1e-13 spends the 100 steps)
    import scipy.optimize

    def run(solver):
        points = []
        try:
            root = solver(lambda x: points.append(x) or f(x), lo, hi, xtol=xtol, rtol=rtol)
        except (RuntimeError, NoConvergence):
            root = None
        return root, points

    assert run(spectrum._brentq) == run(scipy.optimize.brentq)


def test_brent_loop_is_scipy_brentq_on_the_construction():
    import scipy.optimize
    g = functools.cache(lambda A: spectrum._g_of_a(A, 1.5, None))
    root = spectrum._brentq(g, 0.0, 1.0, xtol=1e-13, rtol=8.9e-16)
    assert root == scipy.optimize.brentq(g, 0.0, 1.0, xtol=1e-13, rtol=8.9e-16)


@pytest.mark.parametrize("z0, mu", [(math.nan, 1.0), (math.inf, 1.0),
                                    (1.5, math.nan), (1.5, math.inf)])
def test_multiplicity_two_rejects_non_finite_inputs(monkeypatch, z0, mu):
    # nan passed z0 <= 1 and mu <= 0; mu = inf gave zero couplings
    def fail(*args, **kwargs):
        raise AssertionError("an integral ran before the inputs were checked")

    monkeypatch.setattr(torus_quad, "_integrate", fail)
    with pytest.raises(ValueError, match="must be finite"):
        spectrum.multiplicity_two_construct(z0, mu=mu)


def test_multiplicity_two_invalid_z0():
    with pytest.raises(DomainError):
        spectrum.multiplicity_two_construct(0.9)
    with pytest.raises(ValueError):
        spectrum.multiplicity_two_construct(1.5, mu=-1.0)


@pytest.mark.parametrize("step", [0.0, -0.1])
def test_multiplicity_two_rejects_nonpositive_scan_step(monkeypatch, step):
    def fail(*args, **kwargs):
        raise AssertionError("an integral ran before the step was checked")

    monkeypatch.setattr(torus_quad, "_integrate", fail)
    with pytest.raises(ValueError, match="scan_step"):
        spectrum.multiplicity_two_construct(1.5, mu=1.0, scan=True,
                                            scan_step=step)


def test_multiplicity_two_verified_by_determinant():
    from lattice_spectra.determinant import multiplicity_check
    res = spectrum.multiplicity_two_construct(1.5, mu=1.0)
    model = SteppedPhiA(a_param=res.A0)
    assert multiplicity_check(model, res.a0, res.b0, 1.0, 1.5)
    # the es root finder sees M = 0 there: one record of multiplicity 2
    sol = spectrum.solve(model, res.a0, res.b0, 1.0)
    es = [r for r in sol.records if r.sector == "es"]
    assert [r.multiplicity for r in es] == [2]
    assert abs(es[0].energy - 1.5) < 1e-8
    pred = spectrum.predicted_sector_counts(model, res.a0, res.b0, 1.0)
    assert sol.total_count == pred["total"] == 5
