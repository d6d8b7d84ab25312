"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Reference values are closed forms for the discrete Laplacian where they
exist; everything else is cross-validated between the determinant/quadrature
path and the independent finite-box oracle.
"""

import time

import numpy as np
import pytest

from lattice_spectra import asymptotics as asy
from lattice_spectra import lattice_oracle as lo
from lattice_spectra import sectors, spectrum
from lattice_spectra.dispersion import PI, SteppedPhiA, morse_data
from lattice_spectra.thresholds import (coupling_thresholds, es_constants,
                                        gammas, resonance_integrability_probe)
from lattice_spectra.torus_quad import _far_grids

GAMMA_OS = PI / (2 * PI - 4)
GAMMA_EA = PI / (8 - 2 * PI)


def report(n, ok, detail):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_closed_form_constants(lap):
    gammas.cache_clear()
    es_constants.cache_clear()
    morse_data.cache_clear()
    _far_grids.cache_clear()
    t0 = time.monotonic()
    g = gammas(lap)
    th = es_constants(lap)
    elapsed = time.monotonic() - t0
    checks = {
        "gamma_os": abs(g.gamma_os - GAMMA_OS) / GAMMA_OS,
        "gamma_oa": abs(g.gamma_oa - GAMMA_OS) / GAMMA_OS,
        "gamma_ea": abs(g.gamma_ea - GAMMA_EA) / GAMMA_EA,
        "gamma_es": abs(g.gamma_es - 0.5) / 0.5,
        "theta_star": abs(th.theta_star - 1.0),
        "theta_2star": abs(th.theta_2star),
        "kappa1": abs(th.kappa1 - 2.0) / 2.0,
    }
    worst = max(checks.values())
    ok = worst < 1e-6 and elapsed < 30.0
    report(1, ok, f"worst rel err {worst:.2e}, runtime {elapsed:.1f}s")


def test_criterion_2_log_coefficient(lap):
    one = lambda p1, p2: np.ones_like(np.asarray(p1, dtype=float))
    r1 = asy.extract_log_coefficient(lap, one)
    err1 = abs(r1.measured + 2 * PI) / (2 * PI)
    r2 = asy.extract_log_coefficient(lap, sectors.es_plus)
    ok = err1 < 0.01 and abs(r2.measured) < 1e-3
    report(2, ok, f"v=1 rel err {err1:.2e}, v(pi)=0 coeff {r2.measured:.2e}")


def test_criterion_3_oracle_equivalence(lap):
    configs = [(1, 3, 1), (2, 1, 2), (1, 1, 3), (-1, 2, 2), (-5, 1, 5),
               (2, -1, 2), (3, -0.5, 2), (-1, -1, 5), (1, 0.5, 4),
               (3, 2, 0.9)]
    ls = (40, 55, 70)
    worst = 0.0
    count_mismatches = 0
    for a, b, mu in configs:
        res = spectrum.solve(lap, a, b, mu)
        energies = sorted((r.energy for r in res.records
                           for _ in range(r.multiplicity)), reverse=True)
        assert all(e - 4.0 >= 1e-2 for e in energies)
        per_l = []
        for L in ls:
            h = lo.build(lap, L, a=a, b=b, mu=mu)
            per_l.append(lo.sector_count_above(h, 4.0, 5e-3))
        for c in per_l:
            if {s: getattr(c, s) for s in ("os", "oa", "ea", "es")} != res.sector_counts():
                count_mismatches += 1
        for i in range(len(energies)):
            limit, _ = lo.extrapolate(ls, [c.entries[i][0] for c in per_l])
            worst = max(worst, abs(limit - energies[i]))
    ok = worst < 1e-6 and count_mismatches == 0
    report(3, ok, f"10 configs, max |E_det - E_box| {worst:.2e}, "
                  f"{count_mismatches} count mismatches")


def test_criterion_4_count_table(lap):
    g = gammas(lap)
    regimes = [(1.0, 1.0), (-1.0, -1.0), (-1.0, 1.0), (-40.0, 1.0),
               (5.0, -1.0), (1.0, -1.0)]
    mismatches = 0
    checks = 0
    for a, b in regimes:
        ct = coupling_thresholds(lap, a, b)
        # mu0_es is NO_THRESHOLD (None) for a, b < 0 and 0.0 where es has
        # a root at every mu; both sample around mu = 1
        mu0_es = ct.mu0["es"]
        mus = {f * (mu0_es or 1.0) for f in (0.5, 1.0, 2.0)}
        if b > 0:
            for gam in (g.gamma_os, g.gamma_ea):
                mus.update(f * gam / b for f in (0.5, 1.0, 2.0))
        for mu in sorted(mus):
            pred = spectrum.predicted_sector_counts(lap, a, b, mu)
            got = spectrum.solve(lap, a, b, mu).sector_counts()
            checks += 1
            mismatches += sum(pred[s] != got[s]
                              for s in ("os", "oa", "ea", "es"))
    ok = mismatches == 0
    report(4, ok, f"{checks} coupling points, {mismatches} sector mismatches")


def test_criterion_5_monotone_convex_curves(lap):
    cases = [("os", 1.0, 1.0, 1.5, 3.0), ("oa", 1.0, 1.0, 1.5, 3.0),
             ("ea", 1.0, 1.0, 2.0, 3.5), ("es", 5.0, -1.0, 0.6, 2.0)]
    worst_d2 = np.inf
    all_inc = True
    for sector, a, b, lo_mu, hi_mu in cases:
        rep = spectrum.eigenvalue_curve(lap, sector, a, b,
                                        np.linspace(lo_mu, hi_mu, 50))
        all_inc = all_inc and rep.strictly_increasing
        worst_d2 = min(worst_d2, rep.min_second_difference)
    ok = all_inc and worst_d2 >= -1e-10
    report(5, ok, f"all increasing {all_inc}, min 2nd diff {worst_d2:.2e}")


def test_criterion_6_es_exponential_rate(lap):
    rep = asy.fit_eigenvalue_asymptotics(lap, "es", 1.0, 1.0,
                                         branch="exponential")
    ok = rep.relative_error < 0.05
    report(6, ok, f"rate {rep.measured:.6f} vs 2pi/5 = {2 * PI / 5:.6f}, "
                  f"rel err {rep.relative_error:.2e}")


def test_criterion_7_ea_linear_rate(lap):
    rep = asy.fit_eigenvalue_asymptotics(lap, "ea", 1.0, 1.0)
    # samples ordered by decreasing lambda; slope = opening / lambda
    slopes = [al / lam for lam, al, _ in rep.samples]
    err_coarse = abs(slopes[0] - rep.predicted) / rep.predicted
    err_fine = abs(slopes[-1] - rep.predicted) / rep.predicted
    ok = err_fine < 0.10 and err_fine < err_coarse
    report(7, ok, f"rel err {err_fine:.2e} at lambda=1e-6, "
                  f"{err_coarse:.2e} at lambda=1e-4")


def test_criterion_8_odd_sector_log_corrected_rate(lap):
    details = []
    ok = True
    for sector in ("os", "oa"):
        rep = asy.fit_eigenvalue_asymptotics(lap, sector, 1.0, 1.0)
        ratios = [al / pred for _, al, pred in rep.samples]
        r_coarse, r_fine = ratios[0], ratios[-1]
        ok = ok and 0.7 <= r_fine <= 1.3 and abs(r_fine - 1) < abs(r_coarse - 1)
        details.append(f"{sector}: {r_coarse:.3f} -> {r_fine:.3f}")
    report(8, ok, "; ".join(details))


def test_criterion_9_multiplicity_two():
    worst_res = 0.0
    worst_gap = 0.0
    ok = True
    for z0 in (1.3, 1.5, 2.0):
        c = spectrum.multiplicity_two_construct(z0, mu=1.0)
        worst_res = max(worst_res, max(c.verification))
        model = SteppedPhiA(a_param=c.A0)
        h = lo.build(model, 80, a=c.a0, b=c.b0, mu=1.0)
        sc = lo.sector_count_above(h, 1.0, 1e-2)
        near = sorted(v for v, s in sc.entries
                      if s == "es" and abs(v - z0) < 0.05)
        if len(near) != 2:
            ok = False
            continue
        worst_gap = max(worst_gap, near[1] - near[0])
        ok = ok and near[1] - near[0] < 1e-4 and abs(near[1] - z0) < 1e-3
    ok = ok and worst_res < 1e-8
    report(9, ok, f"max |Delta| {worst_res:.2e}, max es pair gap {worst_gap:.2e}")


def test_criterion_10_triple_emergence(lap):
    rep = spectrum.triple_emergence_check(lap, 1.0)
    ok = (abs(rep.a - (2 * PI - 4)) / (2 * PI - 4) < 1e-6 and rep.jump == 3)
    report(10, ok, f"a = {rep.a:.9f} (2pi-4 = {2 * PI - 4:.9f}), "
                   f"jump {rep.count_below} -> {rep.count_above}")


def test_criterion_11_resonance_dichotomy(lap):
    ok = True
    details = []
    for sector in ("os", "oa"):
        rep = resonance_integrability_probe(lap, sector)
        ok = ok and rep.classification == "log-divergent" and rep.r_squared > 0.999
        details.append(f"{sector} R2 {rep.r_squared:.6f}")
    rep = resonance_integrability_probe(lap, "ea")
    tail = max(d for r, d in zip(rep.rs[1:], rep.cauchy_diffs) if r <= 1e-3)
    ok = ok and rep.classification == "convergent" and tail < 1e-6
    details.append(f"ea tail diff {tail:.2e}")
    report(11, ok, "; ".join(details))
