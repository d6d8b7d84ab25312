"""Constructing a double eigenvalue in the even-symmetric sector.

The even-symmetric determinant is a two-by-two determinant, so a double
root needs both diagonal factors and the off-diagonal coupling to vanish
simultaneously. Within the stepped dispersion family this gives three
equations for the three parameters (A, a, b); the construction solves them
for a prescribed energy z0 and verifies the result two ways: against the
determinant parts, and against a large finite box.
"""

from lattice_spectra import lattice_oracle as lo
from lattice_spectra.determinant import multiplicity_check
from lattice_spectra.dispersion import SteppedPhiA
from lattice_spectra.spectrum import multiplicity_two_construct

z0, mu = 1.5, 1.0
c = multiplicity_two_construct(z0, mu=mu)
print(f"target energy z0 = {z0}, coupling mu = {mu}")
print("-" * 60)
print(f"dispersion parameter A0 = {c.A0:.12f}")
print(f"potential a0 = {c.a0:.12f}, b0 = {c.b0:.12f}")
print(f"determinant parts at (z0, mu): max |.| = {max(c.verification):.2e}")

model = SteppedPhiA(a_param=c.A0)
is_double = multiplicity_check(model, c.a0, c.b0, mu, z0)
print(f"multiplicity check: double root confirmed = {is_double}")

print()
print("finite-box cross-check (L = 60)")
h = lo.build(model, 60, a=c.a0, b=c.b0, mu=mu)
sc = lo.sector_count_above(h, model.e_max, 1e-2)
es_near = sorted(v for v, s in sc.entries if s == "es" and abs(v - z0) < 0.05)
print(f"es eigenvalues near z0: {['%.8f' % v for v in es_near]}")
if len(es_near) == 2:
    print(f"pair gap {es_near[1] - es_near[0]:.2e}, "
          f"offset from z0 {abs(es_near[1] - z0):.2e}")
