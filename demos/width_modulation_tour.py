"""How the condensate width trace chi(t) is produced.

The width obeys a Mathieu-type oscillator driven by the trap modulation
f(t).  For the periodic drive f = 1 there is a closed form; for the
cosine-modulated drive the oscillator pair is integrated and chi comes
out of the Wronskian combination.  Both paths are compared here, and
both traces' samples at the integration's nodes end up in CSV.
"""

import os

import numpy as np

from modcnls import closed_form_trace, mathieu_trace
from modcnls.export import write_modulation

out_dir = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(out_dir, exist_ok=True)

# periodic drive: integrated oscillator vs closed form, sampled at the
# integration's nodes
t_end = 10.0
integrated = mathieu_trace("periodic", t_end, dt=1e-4)
times = integrated.path.times
closed = closed_form_trace().samples(times)
gap = np.abs(integrated.chi_at(times) - closed.chi).max()
print(f"periodic drive, t in [0, {t_end:g}]:")
print(f"  max |chi_integrated - chi_closed| = {gap:.2e}")
print(f"  chi range [{closed.chi.min():.6f}, {closed.chi.max():.6f}]"
      "  (closed form pins [1/2, 2])")

# the breathing period is pi/2; shift the sampled trace by the nearest
# whole number of steps (the leftover reflects that pi/2 is not a lattice
# multiple, about 4e-6 in t times the peak slope)
n_quarter = round(np.pi / 2 / 1e-4)
shift_gap = np.abs(closed.chi[n_quarter:] - closed.chi[:-n_quarter]).max()
print(f"  |chi(t + pi/2) - chi(t)| with pi/2 rounded to the lattice: "
      f"{shift_gap:.2e}")

# cosine-modulated drive: no closed form, integration only
quasi_trace = mathieu_trace("quasiperiodic", t_end, dt=1e-4)
quasi = quasi_trace.samples(quasi_trace.path.times)
print("cosine-modulated drive (epsilon=0.5, omega0=1):")
print(f"  chi range [{quasi.chi.min():.6f}, {quasi.chi.max():.6f}]")
print("  the trace stays positive and bounded; no parametric resonance "
      "at these drive settings")

write_modulation(os.path.join(out_dir, "chi_constant.csv"), closed,
                 {"drive": "periodic", "dt": "1e-4"})
write_modulation(os.path.join(out_dir, "chi_quasiperiodic.csv"), quasi,
                 {"drive": "quasiperiodic", "dt": "1e-4"})
print(f"wrote chi_constant.csv and chi_quasiperiodic.csv to {out_dir}")
