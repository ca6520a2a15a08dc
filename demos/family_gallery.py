"""Assemble the three analytic soliton families and look at their shapes.

Family one is the elliptic sn/dn pair in a modulated harmonic trap,
family two the coupled bright sech pair, family three the dark-bright
tanh/sech pair on a finite background.  One snapshot of each goes to
CSV, with a few shape diagnostics printed along the way.
"""

import os

import numpy as np

from modcnls import (assemble, dark_bright_family, default_grid,
                     default_trace, elliptic_family, sech_family)
from modcnls.export import write_fields

out_dir = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(out_dir, exist_ok=True)

t_snap = 0.7

for name, fam in (("elliptic", elliptic_family(n=1)),
                  ("sech", sech_family(gamma=6.0)),
                  ("dark_bright", dark_bright_family(lam=0.5))):
    trace = default_trace(fam, drive="periodic", t_end=1.0)
    grid = default_grid(fam, "export")
    fields = assemble(fam, trace, grid.x, t_snap)
    a1, a2 = np.abs(fields.psi1) ** 2, np.abs(fields.psi2) ** 2
    n1, n2 = a1.sum() * grid.dx, a2.sum() * grid.dx
    print(f"{name}: half width {grid.half_width:g}, "
          f"norms ({n1:.6f}, {n2:.6f}), "
          f"peak densities ({a1.max():.4f}, {a2.max():.4f})")
    write_fields(os.path.join(out_dir, f"fields_{name}.csv"), fields,
                 {"family": name, "t": repr(t_snap)})

# the dark component rides on a background that breathes with the width:
# |psi1|^2 -> 1/(2 chi) far from the dip
fam = dark_bright_family(lam=0.5)
trace = default_trace(fam, t_end=1.0, alpha=0.1, beta=0.0)
grid = default_grid(fam, "export")
for t in (0.0, 0.7):
    fields = assemble(fam, trace, grid.x, t)
    edge = np.abs(fields.psi1[0]) ** 2
    chi = 1.0 + 0.1 * np.sin(t)  # the two-tone width with beta = 0
    expected = 1.0 / (2.0 * chi)
    print(f"dark background at x={grid.x[0]:g}, t={t:g}: "
          f"{edge:.8f} vs 1/(2 chi) = {expected:.8f}")

print(f"wrote three field snapshots to {out_dir}")
