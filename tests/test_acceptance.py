"""End-to-end acceptance checks.

Eight checks cover the whole chain: special functions against live
independent oracles, the integrated width against its closed form, the
transform constraints and potential identity, full-equation residuals of
the analytic solutions, split-step tracking and stability, figure-grade
data dumps through the CLI, and the free-propagation oracle.  Each test
prints a single [PASS]/[FAIL] line with the measured numbers (run pytest
with -s to see them on success).
"""

import json
import math
import time

import numpy as np
import pytest

from modcnls.cli import main, _constraint_lattice
from modcnls.families import (assemble, dark_bright_family, default_grid,
                              default_trace, elliptic_family, sech_family)
from modcnls.grid import SpatialGrid
from modcnls.modulation import mathieu_trace
from modcnls.propagator import (PropagationConfig, pde_residual, perturb,
                                propagate, stability_verdict, step)
from modcnls.specfun import ellip_k, erf, jacobi_elliptic
from modcnls.transform import (CoefficientSampler, potential_identity_check,
                               verify_constraints)

from coefficient_helpers import worst_of


def report(label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


def agm_ellip_k(k):
    # K(k) = pi / (2 agm(1, k')) with k' the complementary modulus;
    # the mean converges quadratically, so a fixed iteration cap is plenty
    a, b = 1.0, math.sqrt(1.0 - k * k)
    for _ in range(40):
        if a == b:
            break
        a, b = (a + b) / 2.0, math.sqrt(a * b)
    return math.pi / (2.0 * a)


def ode_jacobi(u_end, k, du=1e-4):
    # sn' = cn dn, cn' = -sn dn, dn' = -k^2 sn cn from (0, 1, 1)
    m = k * k

    def rhs(y):
        s, c, d = y
        return np.array([c * d, -s * d, -m * s * c])

    y = np.array([0.0, 1.0, 1.0])
    n = round(u_end / du)
    h = u_end / n
    for _ in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def test_criterion_1_special_functions():
    scipy_special = pytest.importorskip("scipy.special")
    t0 = time.perf_counter()

    k_ref = abs(ellip_k(1.0 / math.sqrt(2.0)) - 1.8540746773)
    ks = np.array([0.1, 0.3, 0.5, 1.0 / math.sqrt(2.0), 0.9, 0.99])
    k_agm = max(abs(ellip_k(k) - agm_ellip_k(k)) for k in ks)

    xs = np.linspace(-6.0, 6.0, 241)
    e_err = max(abs(erf(x) - math.erf(x)) for x in xs)

    j_err = 0.0
    for u in (0.3, 1.0, 2.7):
        for k in (0.2, 0.7, 0.95):
            sn, cn, dn = jacobi_elliptic(u, k)
            s2, c2, d2, _ = scipy_special.ellipj(u, k * k)
            j_err = max(j_err, abs(sn - s2), abs(cn - c2), abs(dn - d2))

    ode = ode_jacobi(1.3, 0.8)
    mine = jacobi_elliptic(1.3, 0.8)
    o_err = max(abs(a - b) for a, b in zip(mine, ode))

    ok = (k_ref <= 1e-10 and k_agm <= 1e-13 and e_err <= 1e-13
          and j_err <= 1e-12 and o_err <= 1e-9)
    assert report(
        "1 special functions", ok,
        f"|K(1/sqrt2)-ref|={k_ref:.2e}, agm={k_agm:.2e}, erf={e_err:.2e}, "
        f"ellipj={j_err:.2e}, ode={o_err:.2e} "
        f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_2_width_cross_validation():
    t0 = time.perf_counter()
    tr = mathieu_trace("periodic", 10.0, dt=1e-4)
    s = tr.samples(tr.path.times)
    chi_exact = np.sqrt(1.0 + 15.0 * np.cos(2.0 * s.times) ** 2) / 2.0
    gap = float(np.abs(s.chi - chi_exact).max())

    tr_scaled = mathieu_trace("periodic", 10.0, dt=1e-4, z2_init=(0.0, 3.0))
    invariance = float(np.abs(s.chi - tr_scaled.chi_at(s.times)).max())

    ok = gap <= 1e-6 and invariance <= 1e-12
    assert report(
        "2 width cross-validation", ok,
        f"max|chi-closed form|={gap:.2e}, rescale gap={invariance:.2e} "
        f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_3_constraint_suite():
    t0 = time.perf_counter()
    combos = [
        ("elliptic periodic", elliptic_family(), "periodic"),
        ("elliptic quasiperiodic", elliptic_family(), "quasiperiodic"),
        ("sech periodic", sech_family(), "periodic"),
        ("sech quasiperiodic", sech_family(), "quasiperiodic"),
        ("dark-bright", dark_bright_family(), "periodic"),
    ]
    worst_constraint = worst_identity = 0.0
    ok = True
    for label, fam, drive in combos:
        # verify's lattice over its default horizon
        tr = default_trace(fam, drive=drive, t_end=5.0)
        x_lat, t_lat = _constraint_lattice(fam, tr, 5.0)
        res = verify_constraints(fam, tr, x_lat, t_lat)
        worst_constraint = max(worst_constraint, worst_of(res))
        ok = ok and worst_of(res) <= 1e-5

        half = {"elliptic": 10.0, "sech": 20.0, "dark_bright": 15.0}[fam.kind]
        gap = potential_identity_check(fam, tr, np.linspace(-half, half, 768),
                                       1.3)
        worst_identity = max(worst_identity, gap)
        ok = ok and gap <= 1e-4

    assert report(
        "3 constraint suite", ok,
        f"worst constraint residual={worst_constraint:.2e} (<=1e-5), "
        f"worst potential identity gap={worst_identity:.2e} (<=1e-4) "
        f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_4_full_pde_residuals():
    t0 = time.perf_counter()
    # times drawn once in [0.05, 5]; the lower margin keeps the nine-level
    # stencil inside an integrated trace's tabulated window
    rng = np.random.Generator(np.random.PCG64(42))
    times = 0.05 + 4.95 * rng.random(5)

    combos = [("elliptic periodic", elliptic_family(), "periodic", {}),
              ("elliptic quasiperiodic", elliptic_family(), "quasiperiodic",
               {}),
              ("sech periodic", sech_family(), "periodic", {}),
              ("sech quasiperiodic", sech_family(), "quasiperiodic", {})]
    for lam in (0.5, -0.5):
        combos.append((f"dark lam={lam} periodic width",
                       dark_bright_family(lam), "periodic", {"beta": 0.0}))
        combos.append((f"dark lam={lam} two-tone width",
                       dark_bright_family(lam), "quasiperiodic", {}))

    ok = True
    worst = 0.0
    worst_label = ""
    for label, fam, drive, overrides in combos:
        tr = default_trace(fam, drive=drive, t_end=5.2, **overrides)
        grid = default_grid(fam, "residual", n_points=1024, drive=drive)
        for t in times:
            r1, r2 = pde_residual(fam, grid, float(t), tr)
            r = max(r1, r2)
            if r > worst:
                worst, worst_label = r, label
            ok = ok and r <= 1e-4

    assert report(
        "4 full-equation residuals", ok,
        f"worst={worst:.2e} (<=1e-4, at {worst_label}), "
        f"{len(combos)} family/drive combos x 5 times "
        f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_5_propagation_tracking():
    t0 = time.perf_counter()
    ok = True
    details = []
    for name, fam in (("elliptic", elliptic_family()),
                      ("sech", sech_family())):
        tr = default_trace(fam, drive="periodic", t_end=5.01)
        grid = default_grid(fam, "propagate", n_points=1024)
        cfg = PropagationConfig(grid, dt=5e-4, t_end=5.0,
                                coefficient_source=CoefficientSampler(fam, tr))
        diag = propagate(assemble(fam, tr, grid.x, 0.0), cfg,
                         reference=(fam, tr))
        err, drift = diag.max_profile_error(), diag.norm_drift()
        ok = ok and err <= 1e-3 and drift <= 1e-6
        details.append(f"{name}: profile={err:.2e}, drift={drift:.2e}")

    assert report(
        "5 propagation tracking", ok,
        "; ".join(details) + f" (<=1e-3, <=1e-6) "
        f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_6_stability_reproduction():
    t0 = time.perf_counter()
    ok = True
    details = []
    for name, fam in (("elliptic", elliptic_family()),
                      ("sech", sech_family())):
        tr = default_trace(fam, drive="periodic", t_end=10.01)
        grid = default_grid(fam, "propagate", n_points=1024)
        cfg = PropagationConfig(
            grid, dt=5e-4, t_end=10.0,
            coefficient_source=CoefficientSampler(fam, tr))
        psi0 = assemble(fam, tr, grid.x, 0.0)
        # the three seeds step together as one ensemble
        diags = propagate([perturb(psi0, 0.03, seed) for seed in (42, 43, 44)],
                          cfg, reference=(fam, tr))
        worst = 0.0
        for diag in diags:
            verdict = stability_verdict(diag, threshold=0.1)
            ok = ok and verdict.verdict
            worst = max(worst, verdict.max_profile_error)
        details.append(f"{name}: worst deviation {worst:.3f}")

    assert report(
        "6 stability reproduction", ok,
        "; ".join(details) + " over seeds 42/43/44 (threshold 0.1) "
        f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_7_figure_data(tmp_path):
    t0 = time.perf_counter()

    def load_abs2(path):
        rows = [line.split(",") for line in path.read_text().splitlines()
                if not line.startswith("#")][1:]
        data = np.array([[float(v) for v in row] for row in rows])
        return data[:, 0], data[:, 5]

    # breathing of the harmonic-trap pair: chi has period pi/2, so peak
    # density sampled every pi/32 must repeat after 16 snapshots
    sol = tmp_path / "sol"
    code = main(["solution", "--family", "elliptic", "--n", "1",
                 "--drive", "periodic", "--t-end", repr(math.pi),
                 "--dt", repr(math.pi / 3200), "--stride", "100",
                 "--out", str(sol)])
    manifest = json.loads((sol / "manifest.json").read_text())
    peaks = np.array([load_abs2(sol / f)[1].max()
                      for f in manifest["files"]])
    period_gap = max(abs(peaks[j + 16] - peaks[j]) / peaks[j]
                     for j in range(len(peaks) - 16))
    quarter_gap = max(abs(peaks[j + 8] - peaks[j]) / peaks[j]
                      for j in range(len(peaks) - 8))
    breathing_ok = (code == 0 and len(peaks) == 33 and period_gap <= 1e-9
                    and quarter_gap > 1e-2)

    # dark-bright background must follow 1/(2 chi) at the window edges,
    # for the single-tone and two-tone width laws of the figure captions
    bg_dev = 0.0
    bg_ok = True
    for alpha, beta, tag in ((0.1, 0.0, "d1"), (0.1, 0.1, "d2")):
        out = tmp_path / tag
        code = main(["solution", "--family", "dark-bright", "--lambda",
                     "0.5", "--alpha", repr(alpha), "--beta", repr(beta),
                     "--t-end", "3.0", "--dt", "0.01", "--stride", "25",
                     "--out", str(out)])
        bg_ok = bg_ok and code == 0
        man = json.loads((out / "manifest.json").read_text())
        for t, fname in zip(man["times"], man["files"]):
            x, abs2 = load_abs2(out / fname)
            chi = (1.0 + alpha * math.sin(t)
                   + beta * math.sin(math.sqrt(2.0) * t))
            expected = 1.0 / (2.0 * chi)
            for edge in (abs2[0], abs2[-1]):
                bg_dev = max(bg_dev, abs(edge - expected))
        bg_ok = bg_ok and bg_dev <= 1e-6

    # potential dumps for the captioned drives: modulated harmonic trap
    # (even in x at every time slice) and the dark-bright pair with its
    # zoomed well
    pot = tmp_path / "pot"
    code_p = main(["potential", "--family", "elliptic", "--drive",
                   "quasiperiodic", "--epsilon", "0.5", "--omega0", "1.0",
                   "--t-end", "2.0", "--stride", "250", "--out", str(pot)])
    lines = [line for line in (pot / "coefficients.csv").read_text()
             .splitlines() if not line.startswith("#")][1:]
    rows = np.array([[float(v) for v in line.split(",")] for line in lines])
    pot_ok = code_p == 0 and np.isfinite(rows).all()
    n = 1024
    for k0 in range(0, len(rows), n):
        v1 = rows[k0:k0 + n, 2]
        sym = np.abs(v1[1:] - v1[1:][::-1]).max() / np.abs(v1).max()
        pot_ok = pot_ok and sym <= 1e-12

    zoom = tmp_path / "zoom"
    code_z = main(["potential", "--family", "dark-bright", "--lambda", "0.5",
                   "--alpha", "0.1", "--beta", "0.0", "--t-end", "1.0",
                   "--stride", "500", "--out", str(zoom)])
    pot_ok = pot_ok and code_z == 0 and (zoom / "coefficients_zoom.csv").exists()

    ok = breathing_ok and bg_ok and pot_ok
    assert report(
        "7 figure data", ok,
        f"breathing period gap={period_gap:.2e} (<=1e-9, quarter-period "
        f"differs by {quarter_gap:.2f}), background dev={bg_dev:.2e} "
        f"(<=1e-6), potential dumps ok={pot_ok} "
        f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_8_free_propagation():
    t0 = time.perf_counter()
    grid = SpatialGrid(16.0, 512)
    from coefficient_helpers import ConstantCoefficients
    cfg = PropagationConfig(grid, dt=1e-3, t_end=1.0,
                            coefficient_source=ConstantCoefficients())
    psi0 = np.exp(-grid.x**2 / 2.0).astype(complex)
    from modcnls.families import FieldPair
    fields = FieldPair(grid.x, psi0.copy(), psi0.copy(), 0.0)
    t = 0.0
    for _ in range(cfg.n_steps):
        fields = step(fields, t, cfg)
        t += cfg.dt
    s1 = 1.0 + 2j * 1.0
    exact = np.sqrt(1.0 / s1) * np.exp(-grid.x**2 / (2.0 * s1))
    gauss_err = float(np.abs(fields.psi1 - exact).max())

    fam = sech_family()
    tr = default_trace(fam, drive="periodic", t_end=0.51)
    sgrid = SpatialGrid(25.0, 1024)
    sampler = CoefficientSampler(fam, tr)
    exact_pair = assemble(fam, tr, sgrid.x, 0.3)
    errs = []
    for dt in (1e-3, 5e-4):
        pcfg = PropagationConfig(sgrid, dt=dt, t_end=0.3,
                                 coefficient_source=sampler)
        pair = assemble(fam, tr, sgrid.x, 0.0)
        t = 0.0
        for _ in range(pcfg.n_steps):
            pair = step(pair, t, pcfg)
            t += dt
        errs.append(max(np.abs(pair.psi1 - exact_pair.psi1).max(),
                        np.abs(pair.psi2 - exact_pair.psi2).max()))
    ratio = errs[0] / errs[1]

    ok = gauss_err <= 1e-6 and 3.5 <= ratio <= 4.5
    assert report(
        "8 free-propagation oracle", ok,
        f"Gaussian Linf={gauss_err:.2e} (<=1e-6), "
        f"halving-dt error ratio={ratio:.3f} (in [3.5, 4.5]) "
        f"({time.perf_counter() - t0:.1f}s)")
