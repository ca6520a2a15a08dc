"""A quick tour of the special-function kernel.

Everything downstream leans on these three: erf feeds nothing yet but is
part of the kernel contract, K sets the elliptic period, and sn/cn/dn
build the Example 1 amplitude pair.  This script exercises the defining
identities and writes one period of the elliptic triple to CSV.
"""

import math
import os

import numpy as np

from modcnls import ellip_k, erf, jacobi_elliptic

out_dir = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(out_dir, exist_ok=True)

# the classic checkpoint value: K at the lemniscatic modulus
k0 = 1.0 / math.sqrt(2.0)
print(f"K(1/sqrt2) = {ellip_k(k0):.12f}  (tables: 1.854074677301...)")

# erf against the stdlib implementation
xs = np.linspace(-4.0, 4.0, 81)
gap = max(abs(erf(x) - math.erf(x)) for x in xs)
print(f"max |erf - math.erf| on [-4, 4]: {gap:.2e}")

# the two Pythagorean identities, worst case over a grid of (u, k)
worst_sc = worst_dk = 0.0
for k in (0.1, 0.5, 0.9, 0.99):
    for u in np.linspace(0.0, 8.0, 33):
        sn, cn, dn = jacobi_elliptic(u, k)
        worst_sc = max(worst_sc, abs(sn * sn + cn * cn - 1.0))
        worst_dk = max(worst_dk, abs(dn * dn + k * k * sn * sn - 1.0))
print(f"worst |sn^2+cn^2-1| = {worst_sc:.2e}, "
      f"worst |dn^2+k^2 sn^2-1| = {worst_dk:.2e}")

# sn has quarter period K: sn(K) = 1, cn(K) = 0, dn(K) = k'
k = 0.9
K = ellip_k(k)
sn, cn, dn = jacobi_elliptic(K, k)
print(f"k={k}: sn(K)={sn:.15f}, cn(K)={cn:.2e}, "
      f"dn(K)-k'={dn - math.sqrt(1 - k * k):.2e}")

# one full period 4K for the record
us = np.linspace(0.0, 4.0 * K, 201)
path = os.path.join(out_dir, "elliptic_triple.csv")
np.savetxt(path, np.column_stack([us, *jacobi_elliptic(us, k)]), fmt="%.17g",
           delimiter=",", header=f"# k = {k!r}\nu,sn,cn,dn", comments="")
print(f"wrote {path}")
