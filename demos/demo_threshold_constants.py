"""Sector constants, coupling thresholds, and the resonance dichotomy.

For the discrete Laplacian every sector constant has a closed form, which
makes this a good end-to-end check of the singular torus quadrature. The
script then maps out the coupling thresholds for a few sign regimes of the
potential and probes integrability of the threshold solutions.
"""

from lattice_spectra.dispersion import DiscreteLaplacian, PI
from lattice_spectra.thresholds import (NO_THRESHOLD, coupling_thresholds,
                                        classify_threshold_solutions,
                                        es_constants, gammas,
                                        resonance_integrability_probe)

lap = DiscreteLaplacian()

g = gammas(lap)
th = es_constants(lap)
closed = {
    "gamma_os": (g.gamma_os, PI / (2 * PI - 4)),
    "gamma_oa": (g.gamma_oa, PI / (2 * PI - 4)),
    "gamma_ea": (g.gamma_ea, PI / (8 - 2 * PI)),
    "gamma_es": (g.gamma_es, 0.5),
    "theta_star": (th.theta_star, 1.0),
    "theta_2star": (th.theta_2star, 0.0),
    "kappa1": (th.kappa1, 2.0),
}
print("sector constants vs closed forms")
print("-" * 60)
for name, (num, ref) in closed.items():
    err = abs(num - ref) / max(abs(ref), 1.0)
    print(f"{name:12s} numeric {num:+.10f}  exact {ref:+.10f}  err {err:.1e}")

print()
print("coupling thresholds mu0 by potential sign regime")
print("-" * 60)
for a, b in [(1.0, 1.0), (1.0, 3.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)]:
    ct = coupling_thresholds(lap, a, b)
    cells = []
    for s in ("os", "oa", "ea", "es"):
        v = ct.mu0[s]
        cells.append(f"{s}={'none':>8s}" if v is NO_THRESHOLD else f"{s}={v:8.4f}")
    print(f"a={a:+.0f} b={b:+.0f}   " + "  ".join(cells))

print()
print("threshold solution type at mu = mu0 (a = b = 1)")
cls = classify_threshold_solutions(lap, 1.0, 1.0)
for s in ("os", "oa", "ea", "es"):
    print(f"  {s}: {getattr(cls, s).value}")

print()
print("integrability probe for the threshold solution")
print("-" * 60)
for s in ("os", "ea"):
    rep = resonance_integrability_probe(lap, s)
    if rep.classification == "log-divergent":
        print(f"{s}: log-divergent, slope {rep.slope:.6f} "
              f"(2/pi = {2 / PI:.6f}), R^2 = {rep.r_squared:.6f}")
    else:
        print(f"{s}: convergent, Cauchy tail {max(rep.cauchy_diffs[-3:]):.2e}")
