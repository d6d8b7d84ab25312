"""Cross-checking the determinant spectrum against finite lattice boxes.

The box oracle diagonalizes the operator restricted to [-L, L]^2 one
symmetry sector block at a time, counts the eigenvalues above the band in each
block, and extrapolates in L.
Boundary effects decay exponentially in L at rate set by the bound-state
depth, so a geometric extrapolation over three box sizes recovers the
infinite-lattice eigenvalues to high accuracy.
"""

from lattice_spectra import lattice_oracle as lo
from lattice_spectra.dispersion import DiscreteLaplacian
from lattice_spectra.spectrum import solve

lap = DiscreteLaplacian()
a, b, mu = 1.0, 3.0, 1.0

res = solve(lap, a, b, mu)
reference = sorted((r.energy for r in res.records), reverse=True)
print(f"determinant spectrum for a={a:g}, b={b:g}, mu={mu:g}")
for r in sorted(res.records, key=lambda r: -r.energy):
    print(f"  {r.sector:3s}  E = {r.energy:.12f}")

ls = (30, 45, 60)
per_l = []
print()
print("finite boxes")
for L in ls:
    h = lo.build(lap, L, a=a, b=b, mu=mu)
    sc = lo.sector_count_above(h, lap.e_max, 5e-3)
    per_l.append(sc)
    counts = {s: getattr(sc, s) for s in ("os", "oa", "ea", "es")}
    print(f"  L = {L:3d}  dim = {(2 * L + 1) ** 2:5d}  counts {counts}")

print()
print("extrapolation in L vs determinant roots")
for i, e_ref in enumerate(reference):
    vals = [sc.entries[i][0] for sc in per_l]
    limit, err = lo.extrapolate(ls, vals)
    print(f"  state {i}: box L=60 {vals[-1]:.10f}  extrapolated "
          f"{limit:.12f}  |diff from determinant| {abs(limit - e_ref):.2e}")
