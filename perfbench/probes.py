"""Layer probes: single public calls timed in isolation, untraced.

They regenerate the per-layer baseline quoted in the ROADMAP (one Strang
step, one elliptic assemble, the special functions on 1024 points, the
Mathieu integration of the quasiperiodic drive) from the benchmark's own
command.  Each figure is the median of several blocks of repeats.
"""

import statistics
import time

import numpy as np

BLOCKS = 7
MATHIEU_REPEATS = 3


def _per_call(fn, calls):
    """Median over BLOCKS of the mean time of one call in a block."""
    samples = []
    for _ in range(BLOCKS):
        t0 = time.perf_counter()
        for i in range(calls):
            fn(i)
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def probe_metrics(mc):
    """name -> (value, unit, samples) of every probe."""
    fam = mc.elliptic_family()
    trace = mc.default_trace(fam, drive="periodic", t_end=1.0)
    grid = mc.default_grid(fam, "propagate")
    dt = 5e-4
    cfg = mc.PropagationConfig(
        grid, dt=dt, t_end=1.0,
        coefficient_source=mc.CoefficientSampler(fam, trace))
    state = [mc.assemble(fam, trace, grid.x, 0.0)]

    def one_step(i):
        state[0] = mc.step(state[0], state[0].t, cfg)

    def one_assemble(i):
        mc.assemble(fam, trace, grid.x, 0.01 * i)

    a0 = mc.amplitude_a0(1)
    u = a0 * np.linspace(0.0, np.sqrt(np.pi), 1024)
    k = 1.0 / np.sqrt(2.0)
    x = np.linspace(-3.0, 3.0, 1024)

    out = {
        "propagator.step_us": (1e6 * _per_call(one_step, 50), "us"),
        "families.assemble_us": (1e6 * _per_call(one_assemble, 10), "us"),
        "specfun.jacobi_us": (
            1e6 * _per_call(lambda i: mc.jacobi_elliptic(u, k), 20), "us"),
        "specfun.erf_us": (1e6 * _per_call(lambda i: mc.erf(x), 20), "us"),
    }
    out = {name: (v, unit, BLOCKS) for name, (v, unit) in out.items()}
    runs = []
    for _ in range(MATHIEU_REPEATS):
        t0 = time.perf_counter()
        mc.mathieu_trace("quasiperiodic", 10.0, dt=1e-4)
        runs.append(time.perf_counter() - t0)
    out["modulation.mathieu_trace_s"] = (statistics.median(runs), "s",
                                         MATHIEU_REPEATS)
    return out
