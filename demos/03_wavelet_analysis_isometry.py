"""Continuous wavelet analysis and the L2 isometry.

Builds a band-limited test bump, transforms it over a sampling of the
similitude group's chart, and checks the quadrature version of the isometry
||W f||^2_{L2(G)} = C_psi ||f||^2_2, where C_psi is the admissibility
(Calderon) constant measured from the wavelet itself.  The sampling carries
its group spec, so every transform call takes the sampling alone.  The p = 2
norm comes from the Calderon multiplier C(xi), with no analysis plane formed;
the other quasi-norms reduce each analysis plane as it is computed.
"""

import numpy as np

from coorbit2d import (
    GroupSpec,
    calderon_constant,
    default_sampling,
    default_wavelet,
    freq_bump,
    signal_coorbit_norm,
    similitude,
)

spec = GroupSpec(similitude())
psi = default_wavelet(spec)

# The default wavelet is a radial bump supported on the annulus 1/2 < |xi| < 2.
print("psi-hat on the unit circle:", psi.evaluate(1.0, 0.0))
print("psi-hat at the support edge:", psi.evaluate(2.0, 0.0))
print()

# The group's chart sampling: 32 log-scales in [-2, 2], one row per class of
# H/K_psi (the radial profile is rotation invariant, so each row stands for all
# angles).
sampling = default_sampling(spec, (-2.0, 2.0), 32)
print("chart points:", len(sampling))

# Admissibility: C(xi) should not depend on xi; it is summed at the 16 orbit
# samples of the family's record, given as eta = B^T xi.
cal = calderon_constant(sampling)
print(f"Calderon constant: {cal.mean:.6f} "
      f"(max relative deviation {cal.max_rel_deviation:.2e})")
print()

# A Gaussian frequency bump well inside the covered annulus.
f = freq_bump(128, 16.0, center=(1.0, 0.4), sigma=0.12)
print("test signal:", f.label, "  ||f||_2 =", round(f.signal.norm_l2(), 6))

w2 = signal_coorbit_norm(f.signal, sampling, 2)
print(f"p=2 norm from the multiplier: {w2:.15f}")
ratio = w2 ** 2 / (cal.mean * f.signal.norm_l2() ** 2)
print(f"||Wf||^2 / (C_psi ||f||^2) = {ratio:.6f}   (1 means exact isometry)")
print()

# Quasi-norms for a few exponents; smaller p weights sparsity more heavily.
for p in (0.5, 1.0, 2.0, np.inf):
    norm = signal_coorbit_norm(f.signal, sampling, p)
    print(f"  coorbit norm p={p}: {norm:.6f}")
