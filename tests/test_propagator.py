"""Split-step propagation: scheme correctness, perturbations, diagnostics,
and the full-equation residual oracle."""

import dataclasses
import itertools

import mpmath
import numpy as np
import pytest

from modcnls.errors import (DarkBackgroundError, DivergenceError,
                            ValidationError)
from modcnls.families import (assemble, dark_bright_family, default_grid,
                              default_trace, elliptic_family, sech_family,
                              FieldPair)
from modcnls.grid import SpatialGrid
from modcnls.propagator import (DiagnosticsTrace, PropagationConfig,
                                pde_residual, perturb, propagate,
                                stability_verdict, step)
from modcnls import propagator
from modcnls.transform import (STENCIL_DEPTH, CoefficientSampler,
                               interior_diff)

from coefficient_helpers import ConstantCoefficients

COLUMNS = ("times", "norm1", "norm2", "profile_error1", "profile_error2",
           "peak_pos1")


def free_gaussian(x, t, a=1.0):
    # i psi_t = -psi_xx with psi(x,0) = exp(-x^2/(2a)) spreads the complex
    # width linearly: s(t) = a + 2it
    s = a + 2j * t
    return np.sqrt(a / s) * np.exp(-(x**2) / (2 * s))


def same_bits(a, b):
    """Equal shapes and equal bits, so -0.0 and 0.0 differ and NaNs match."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def norm(grid, psi):
    """Discrete L2 norm squared, sum |psi|^2 dx."""
    return float(np.sum(np.abs(psi) ** 2) * grid.dx)


def family_setup(maker, drive="periodic", t_end=1.01, purpose="propagate"):
    fam = maker()
    tr = default_trace(fam, drive=drive, t_end=t_end)
    grid = default_grid(fam, purpose, drive=drive)
    return fam, tr, grid


class TestPropagationConfig:
    def config(self, grid=None, **kwargs):
        return PropagationConfig(grid or SpatialGrid(16.0, 512),
                                 coefficient_source=ConstantCoefficients(),
                                 **kwargs)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValidationError):
            self.config(dt=0.0, t_end=1.0)
        with pytest.raises(ValidationError):
            self.config(dt=-1e-3, t_end=1.0)

    def test_rejects_empty_time_window(self):
        with pytest.raises(ValidationError):
            self.config(dt=1e-3, t_end=0.0)
        with pytest.raises(ValidationError):
            self.config(dt=1e-3, t_end=-1.0)

    def test_rejects_bad_stride(self):
        with pytest.raises(ValidationError):
            self.config(dt=1e-3, t_end=1.0, record_stride=0)
        # refused when made, not as a TypeError once propagate records
        with pytest.raises(ValidationError, match="record_stride must be an "
                           "integer"):
            self.config(dt=1e-3, t_end=1.0, record_stride=2.5)
        # a bool is an int to isinstance, but no stride
        with pytest.raises(ValidationError, match="record_stride must be an "
                           "integer"):
            self.config(dt=1e-3, t_end=1.0, record_stride=True)
        assert self.config(dt=1e-3, t_end=1.0,
                           record_stride=np.int32(2)).record_stride == 2

    def test_rejects_dt_exceeding_resolution_bound(self):
        # N/4L = 25.6 cycles; dt (N/4L)^2 > pi refused
        with pytest.raises(ValidationError):
            self.config(SpatialGrid(10.0, 1024), dt=1e-2, t_end=1.0)
        self.config(SpatialGrid(10.0, 1024), dt=1e-3, t_end=1.0)

    def test_dark_background_refused(self):
        # refused when the config is built, so neither step() nor
        # propagate() can be handed a dark-bright source
        fam = dark_bright_family(0.5)
        tr = default_trace(fam, t_end=0.11)
        grid = default_grid(fam, "propagate")
        sampler = CoefficientSampler(fam, tr)
        psi0 = assemble(fam, tr, grid.x, 0.0)
        with pytest.raises(DarkBackgroundError, match="nonzero background"):
            PropagationConfig(grid, dt=1e-3, t_end=0.1,
                              coefficient_source=sampler)
        with pytest.raises(DarkBackgroundError):
            step(psi0, 0.0, PropagationConfig(grid, dt=1e-3, t_end=1e-3,
                                              coefficient_source=sampler))
        free = PropagationConfig(grid, dt=1e-3, t_end=0.1,
                                 coefficient_source=ConstantCoefficients())
        with pytest.raises(DarkBackgroundError):
            dataclasses.replace(free, coefficient_source=sampler)
        # a refusal like any other bad configuration: exit 1 in the CLI
        assert issubclass(DarkBackgroundError, ValidationError)

    def test_step_count(self):
        assert self.config(dt=1e-3, t_end=0.5).n_steps == 500

    def test_rejects_horizon_off_the_step_lattice(self):
        # round() would stop dt = 0.4 at t = 0.8 and dt = 0.3 at t = 0.9;
        # a coarse grid keeps these steps inside the resolution guard
        grid = SpatialGrid(16.0, 64)
        for dt, steps in ((0.4, "2.5 steps"), (0.3, "3.33333 steps")):
            with pytest.raises(ValidationError, match=steps) as exc:
                self.config(grid, dt=dt, t_end=1.0)
            assert "t_end 1 " in str(exc.value)
            assert f"dt {dt:g} " in str(exc.value)
        with pytest.raises(ValidationError, match="whole number of steps"):
            self.config(grid, dt=0.25, t_end=0.9)
        # rounding error in t_end or dt is no partial step: 0.3 / 0.1 and
        # 0.7 / 0.1 fall an ulp short of 3 and 7
        assert self.config(grid, dt=0.1, t_end=0.3).n_steps == 3
        assert self.config(grid, dt=0.1, t_end=0.7).n_steps == 7


class TestStep:
    def test_free_gaussian_dispersion(self):
        grid = SpatialGrid(16.0, 512)
        x = grid.x
        psi = free_gaussian(x, 0.0)
        cfg = PropagationConfig(grid, dt=1e-3, t_end=1.0,
                                coefficient_source=ConstantCoefficients())
        fields = FieldPair(x, psi.copy(), psi.copy(), 0.0)
        t = 0.0
        for _ in range(cfg.n_steps):
            fields = step(fields, t, cfg)
            t += cfg.dt
        exact = free_gaussian(x, 1.0)
        err = np.abs(fields.psi1 - exact).max()
        # free propagation is exact in the split scheme; only the initial
        # truncation of the Gaussian on the grid survives
        assert err <= 1e-9
        assert np.abs(fields.psi2 - exact).max() <= 1e-9

    def test_constant_potential_is_global_phase(self):
        grid = SpatialGrid(10.0, 128)
        v0 = 0.7
        coeffs = ConstantCoefficients(v=np.full((2, 128), v0))
        cfg = PropagationConfig(grid, dt=1e-3, t_end=0.2,
                                coefficient_source=coeffs)
        psi = np.full(128, 0.3 + 0.4j)
        fields = FieldPair(grid.x, psi.copy(), psi.copy(), 0.0)
        t = 0.0
        for _ in range(cfg.n_steps):
            fields = step(fields, t, cfg)
            t += cfg.dt
        expected = psi * np.exp(-1j * v0 * 0.2)
        assert np.abs(fields.psi1 - expected).max() <= 1e-12
        assert np.abs(np.abs(fields.psi1) - np.abs(psi)).max() <= 1e-12

    def test_single_step_preserves_norm(self):
        fam, tr, grid = family_setup(elliptic_family)
        cfg = PropagationConfig(grid, dt=5e-4, t_end=1.0,
                                coefficient_source=CoefficientSampler(fam, tr))
        f0 = assemble(fam, tr, grid.x, 0.0)
        f1 = step(f0, 0.0, cfg)
        for before, after in ((f0.psi1, f1.psi1), (f0.psi2, f1.psi2)):
            n0, n1 = norm(grid, before), norm(grid, after)
            assert abs(n1 - n0) / n0 <= 1e-10

    def test_requires_coefficient_source_and_matching_grid(self):
        grid = SpatialGrid(10.0, 128)
        with pytest.raises(TypeError, match="coefficient_source"):
            PropagationConfig(grid, dt=1e-3, t_end=1.0)
        cfg = PropagationConfig(grid, dt=1e-3, t_end=1.0,
                                coefficient_source=ConstantCoefficients())
        short = np.ones(64, dtype=complex)
        with pytest.raises(ValidationError):
            step(FieldPair(grid.x[:64], short, short, 0.0), 0.0, cfg)

    def test_divergence_reports_time(self):
        grid = SpatialGrid(10.0, 128)

        class BadSource:
            def potential(self, x, t):
                return np.full((2, len(x)), np.nan)

            def couplings(self, x, t):
                return np.zeros((2, 2, len(x)))

        cfg = PropagationConfig(grid, dt=1e-3, t_end=1.0,
                                coefficient_source=BadSource())
        psi = np.ones(128, dtype=complex)
        with pytest.raises(DivergenceError) as info:
            step(FieldPair(grid.x, psi, psi, 0.0), 0.0, cfg)
        assert info.value.t == pytest.approx(1e-3)


def profile_error_oracle(psi, ref):
    if ref is None:
        return float("nan")
    dens = np.abs(psi) ** 2
    dens_ref = np.abs(ref) ** 2
    scale = float(np.sqrt(np.sum(dens_ref**2)))
    if scale == 0.0:
        return float("nan")
    return float(np.sqrt(np.sum((dens - dens_ref) ** 2)) / scale)


def propagate_oracle(members, cfg, reference=None):
    """The per-record, per-member diagnostics loop, with one reference call
    per record, run on the package's stepping kernel."""
    if reference is None:
        ref = lambda t, x: FieldPair(x, None, None, t)  # noqa: E731
    else:
        family, trace = reference
        ref = lambda t, x: assemble(family, trace, x, t)  # noqa: E731
    psi = propagator._stack(members, cfg, "oracle")
    grid, x = cfg.grid, cfg.grid.x
    rows = [[] for _ in members]
    records = itertools.chain(
        [(0.0, psi)],
        propagator._strang(psi, cfg, 0.0, cfg.n_steps, cfg.record_stride))
    for t, fields in records:
        exact = ref(t, x)
        for (psi1, psi2), row in zip(fields, rows):
            row.append((t, norm(grid, psi1), norm(grid, psi2),
                        profile_error_oracle(psi1, exact.psi1),
                        profile_error_oracle(psi2, exact.psi2),
                        float(x[int(np.argmax(np.abs(psi1)))])))
    return [DiagnosticsTrace(*(np.asarray(col) for col in zip(*row)))
            for row in rows]


class TestTangentPhaseFactor:
    """propagator._phase_factor against cos + i sin and an mpmath oracle."""

    SPECIAL = (0.0, -0.0, 1e-300, -1e-300, np.pi, -np.pi, np.pi / 2,
               -np.pi / 2)

    def factor(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.empty(theta.shape, dtype=complex)
        return propagator._phase_factor(0.5 * theta, out,
                                        np.empty((2,) + theta.shape))

    def thetas(self):
        rng = np.random.default_rng(8)
        return np.concatenate([self.SPECIAL, rng.uniform(-50.0, 50.0, 600),
                               rng.uniform(-1e3, 1e3, 600)])

    def test_matches_cos_and_sin(self):
        theta = self.thetas()
        turn = self.factor(theta)
        direct = np.cos(theta) + 1j * np.sin(theta)
        assert np.abs(turn - direct).max() <= 4.5e-16
        assert np.abs(np.abs(turn) - 1.0).max() <= 4.5e-16

    def test_matches_mpmath(self):
        theta = self.thetas()
        turn = self.factor(theta)
        with mpmath.workdps(40):
            gap = max(abs(mpmath.mpc(complex(z)) - mpmath.expj(float(t)))
                      for z, t in zip(turn, theta))
        assert gap <= 4.5e-16

    def test_special_angles(self):
        turn = self.factor(self.SPECIAL)
        assert turn[0] == 1.0 and not np.signbit(turn[0].imag)
        # the sign of a zero angle survives into the imaginary part
        assert turn[1].real == 1.0 and np.signbit(turn[1].imag)
        assert turn[2].imag == 1e-300 and turn[3].imag == -1e-300
        assert turn[4].real == -1.0 and turn[5].real == -1.0

    def test_non_finite_angle_gives_non_finite_factor(self):
        with np.errstate(invalid="ignore"):
            turn = self.factor([np.nan, np.inf, -np.inf, 0.3])
        assert not np.isfinite(turn[:3]).any()
        assert np.isfinite(turn[3])

    def test_kernel_divergence_on_infinite_potential(self):
        grid = SpatialGrid(10.0, 128)
        cfg = PropagationConfig(
            grid, dt=1e-3, t_end=1.0,
            coefficient_source=ConstantCoefficients(v=np.inf))
        psi = np.ones(128, dtype=complex)
        with pytest.raises(DivergenceError), np.errstate(invalid="ignore"):
            step(FieldPair(grid.x, psi, psi, 0.0), 0.0, cfg)


class TestDiagnosticsOracle:
    """propagate's block references and vectorised records against the
    per-record loop, column for column, bit for bit."""

    def run(self, members, cfg, reference, monkeypatch, rows=3):
        # a few records per block, so the blocks and a short last one show
        monkeypatch.setattr(propagator, "_REFERENCE_POINTS",
                            rows * cfg.grid.n_points)
        got = propagate(members, cfg, reference=reference)
        want = propagate_oracle(members, cfg, reference)
        assert len(got) == len(want) == len(members)
        for a, b in zip(got, want):
            for name in COLUMNS:
                np.testing.assert_array_equal(getattr(a, name),
                                              getattr(b, name), name)
        return got

    def elliptic(self, stride, t_end=0.05):
        fam, tr, grid = family_setup(elliptic_family, t_end=t_end + 0.01)
        cfg = PropagationConfig(grid, dt=1e-3, t_end=t_end,
                                coefficient_source=CoefficientSampler(fam, tr),
                                record_stride=stride)
        psi0 = assemble(fam, tr, grid.x, 0.0)
        return fam, tr, cfg, psi0

    def test_short_last_block(self, monkeypatch):
        # 11 records in blocks of 3: the last block holds 2
        fam, tr, cfg, psi0 = self.elliptic(stride=5)
        diag, _ = self.run([psi0, perturb(psi0, 0.03, 4)], cfg, (fam, tr),
                           monkeypatch)
        assert len(diag) == 11 and np.isfinite(diag.profile_error1).all()

    def test_stride_beyond_the_horizon(self, monkeypatch):
        fam, tr, cfg, psi0 = self.elliptic(stride=1000)
        (diag,) = self.run([psi0], cfg, (fam, tr), monkeypatch)
        assert len(diag) == 2

    def test_without_reference(self, monkeypatch):
        fam, tr, cfg, psi0 = self.elliptic(stride=4)
        (diag,) = self.run([psi0], cfg, None, monkeypatch)
        assert np.isnan(diag.profile_error2).all()

    def test_three_member_ensemble(self, monkeypatch):
        fam, tr, grid = family_setup(sech_family, t_end=0.06)
        cfg = PropagationConfig(grid, dt=1e-3, t_end=0.05,
                                coefficient_source=CoefficientSampler(fam, tr),
                                record_stride=4)
        psi0 = assemble(fam, tr, grid.x, 0.0)
        members = [psi0] + [perturb(psi0, 0.03, seed, mode)
                            for seed, mode in ((1, "multiplicative"),
                                               (2, "additive"))]
        traces = self.run(members, cfg, (fam, tr), monkeypatch, rows=5)
        assert not np.array_equal(traces[1].norm1, traces[2].norm1)

    def test_default_block(self):
        # at N = 1024 a block holds four records; 13 records leave one over
        fam, tr, cfg, psi0 = self.elliptic(stride=4, t_end=0.048)
        assert propagator._REFERENCE_POINTS // cfg.grid.n_points == 4
        got = propagate([psi0], cfg, reference=(fam, tr))[0]
        want = propagate_oracle([psi0], cfg, (fam, tr))[0]
        for name in COLUMNS:
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name), name)


class TestPropagate:
    def test_elliptic_tracks_analytic_solution(self):
        fam, tr, grid = family_setup(elliptic_family)
        cfg = PropagationConfig(grid, dt=1e-3, t_end=1.0,
                                coefficient_source=CoefficientSampler(fam, tr))
        diag = propagate(assemble(fam, tr, grid.x, 0.0), cfg,
                         reference=(fam, tr))
        assert diag.max_profile_error() <= 1e-3
        assert diag.norm_drift() <= 1e-6

    def test_sech_tracks_analytic_solution(self):
        fam, tr, grid = family_setup(sech_family)
        cfg = PropagationConfig(grid, dt=1e-3, t_end=1.0,
                                coefficient_source=CoefficientSampler(fam, tr))
        diag = propagate(assemble(fam, tr, grid.x, 0.0), cfg,
                         reference=(fam, tr))
        assert diag.max_profile_error() <= 1e-3
        assert stability_verdict(diag, threshold=0.01).verdict

    def test_record_stride_and_endpoints(self):
        fam, tr, grid = family_setup(elliptic_family)
        cfg = PropagationConfig(grid, dt=1e-3, t_end=0.1,
                                coefficient_source=CoefficientSampler(fam, tr),
                                record_stride=10)
        diag = propagate(assemble(fam, tr, grid.x, 0.0), cfg)
        assert len(diag) == 11
        assert diag.times[0] == 0.0
        assert diag.times[-1] == pytest.approx(0.1)
        # no reference supplied: profile columns are all nan
        assert np.isnan(diag.profile_error1).all()
        with pytest.raises(ValidationError):
            stability_verdict(diag)

    def test_peak_stays_centered(self):
        fam, tr, grid = family_setup(elliptic_family)
        cfg = PropagationConfig(grid, dt=1e-3, t_end=0.5,
                                coefficient_source=CoefficientSampler(fam, tr))
        diag = propagate(assemble(fam, tr, grid.x, 0.0), cfg)
        assert np.abs(diag.peak_pos1).max() <= 2 * grid.dx

    def test_determinism_bitwise(self):
        fam, tr, grid = family_setup(sech_family, t_end=0.21)
        cfg = PropagationConfig(grid, dt=1e-3, t_end=0.2,
                                coefficient_source=CoefficientSampler(fam, tr))
        runs = []
        for _ in range(2):
            psi0 = perturb(assemble(fam, tr, grid.x, 0.0), 0.03, 7)
            runs.append(propagate(psi0, cfg, reference=(fam, tr)))
        a, b = runs
        for name in COLUMNS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_ensemble_members_match_solo_runs(self):
        fam, tr, grid = family_setup(sech_family, t_end=0.21)
        cfg = PropagationConfig(grid, dt=1e-3, t_end=0.2,
                                coefficient_source=CoefficientSampler(fam, tr),
                                record_stride=7)
        psi0 = assemble(fam, tr, grid.x, 0.0)
        members = [psi0] + [perturb(psi0, 0.03, seed) for seed in (1, 2)]
        solo = [propagate(m, cfg, reference=(fam, tr)) for m in members]
        for size in (2, 3):
            traces = propagate(members[:size], cfg, reference=(fam, tr))
            assert len(traces) == size
            for alone, together in zip(solo, traces):
                for name in COLUMNS:
                    assert np.array_equal(getattr(alone, name),
                                          getattr(together, name)), name

    def test_records_do_not_alias_the_kernel_buffers(self):
        # the kernel steps in buffers it reuses; every record it hands out,
        # kept past later steps, must still hold the fields of its own time
        fam, tr, grid = family_setup(elliptic_family, t_end=0.06)
        cfg = PropagationConfig(grid, dt=1e-3, t_end=0.05,
                                coefficient_source=CoefficientSampler(fam, tr))
        psi0 = assemble(fam, tr, grid.x, 0.0)
        psi = propagator._stack([psi0, perturb(psi0, 0.03, 4)], cfg, "test")
        start = psi.copy()
        kept = list(propagator._strang(psi, cfg, 0.0, cfg.n_steps, 3))
        # copied as they come, so this reference holds whatever happens
        # to the buffers afterwards
        fresh = {t: fields.copy() for t, fields in
                 propagator._strang(psi, cfg, 0.0, cfg.n_steps, 1)}
        assert len(kept) == 17 and same_bits(psi, start)
        for t, fields in kept:
            assert same_bits(fields, fresh[t]), t
        chain, fields = [], psi0
        for k in range(4):
            fields = step(fields, k * cfg.dt, cfg)
            chain.append(fields)
        fields = psi0
        for k, kept_fields in enumerate(chain):
            fields = step(fields, k * cfg.dt, cfg)
            assert same_bits(kept_fields.psi1, fields.psi1)
            assert same_bits(kept_fields.psi2, fields.psi2)

    @pytest.mark.parametrize("stride, times", [
        (1, np.arange(11) * 1e-3),
        (3, [0.0, 3e-3, 6e-3, 9e-3, 1e-2]),
        (25, [0.0, 1e-2]),
    ])
    def test_records_end_at_t_end(self, stride, times):
        grid = SpatialGrid(10.0, 128)
        cfg = PropagationConfig(grid, dt=1e-3, t_end=1e-2,
                                coefficient_source=ConstantCoefficients(),
                                record_stride=stride)
        psi = np.ones(128, dtype=complex)
        diag = propagate(FieldPair(grid.x, psi, psi, 0.0), cfg)
        np.testing.assert_allclose(diag.times, times, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("stride", [10, 40, 1000])
    def test_divergence_caught_within_check_stride(self, stride):
        # the fields are checked every 25 steps, whatever the record stride
        grid = SpatialGrid(10.0, 128)
        t_nan = 0.0405

        class TurnsNaN:
            def potential(self, x, t):
                return np.full((2, len(x)), np.nan if t >= t_nan else 0.0)

            def couplings(self, x, t):
                return np.zeros((2, 2, len(x)))

        cfg = PropagationConfig(grid, dt=1e-3, t_end=0.2,
                                coefficient_source=TurnsNaN(),
                                record_stride=stride)
        psi = np.ones(128, dtype=complex)
        with pytest.raises(DivergenceError) as info:
            propagate([FieldPair(grid.x, psi, psi, 0.0)] * 2, cfg)
        assert t_nan <= info.value.t <= t_nan + 25 * cfg.dt

    def test_member_off_the_grid_refused(self):
        grid = SpatialGrid(10.0, 128)
        cfg = PropagationConfig(grid, dt=1e-3, t_end=0.1,
                                coefficient_source=ConstantCoefficients())
        psi = np.ones(128, dtype=complex)
        good = FieldPair(grid.x, psi, psi, 0.0)
        wider = SpatialGrid(12.0, 128).x
        for bad in (FieldPair(wider, psi, psi, 0.0),
                    FieldPair(grid.x[:64], psi[:64], psi[:64], 0.0),
                    FieldPair(grid.x, psi, psi[:64], 0.0)):
            with pytest.raises(ValidationError, match="member 1"):
                propagate([good, bad], cfg)
        with pytest.raises(ValidationError, match="no initial fields"):
            propagate([], cfg)

    def test_rejects_nonfinite_initial_fields(self):
        grid = SpatialGrid(10.0, 128)
        cfg = PropagationConfig(grid, dt=1e-3, t_end=0.1,
                                coefficient_source=ConstantCoefficients())
        psi = np.ones(128, dtype=complex)
        bad = psi.copy()
        bad[3] = np.inf
        with pytest.raises(ValidationError):
            propagate(FieldPair(grid.x, bad, psi, 0.0), cfg)

    def test_requires_source(self):
        # a run without a coefficient source cannot even be configured
        with pytest.raises(TypeError, match="coefficient_source"):
            PropagationConfig(SpatialGrid(10.0, 128), dt=1e-3, t_end=0.1)


class TestPerturb:
    def sample(self):
        fam = sech_family()
        tr = default_trace(fam, t_end=0.01)
        grid = default_grid(fam)
        return assemble(fam, tr, grid.x, 0.0)

    def test_zero_amplitude_is_identity(self):
        f = self.sample()
        out = perturb(f, 0.0, seed=3)
        assert np.array_equal(out.psi1, f.psi1)
        assert np.array_equal(out.psi2, f.psi2)
        assert out.psi1 is not f.psi1

    def test_seed_reproducibility(self):
        f = self.sample()
        a = perturb(f, 0.03, seed=42)
        b = perturb(f, 0.03, seed=42)
        c = perturb(f, 0.03, seed=43)
        assert np.array_equal(a.psi1, b.psi1)
        assert np.array_equal(a.psi2, b.psi2)
        assert not np.array_equal(a.psi1, c.psi1)

    def test_multiplicative_bounds(self):
        f = self.sample()
        out = perturb(f, 0.03, seed=0)
        mask = np.abs(f.psi1) > 1e-12
        rel = np.abs(out.psi1[mask] / f.psi1[mask] - 1.0)
        assert rel.max() <= 0.03 + 1e-15
        assert rel.max() >= 0.025  # uniform draws do approach the bound
        n_in = np.sum(np.abs(f.psi1) ** 2)
        n_out = np.sum(np.abs(out.psi1) ** 2)
        assert (1 - 0.03) ** 2 <= n_out / n_in <= (1 + 0.03) ** 2

    def test_component_draw_order(self):
        # psi_1 consumes the first block of draws, psi_2 the second
        f = self.sample()
        rng = np.random.Generator(np.random.PCG64(11))
        u1 = rng.uniform(-1.0, 1.0, len(f.psi1))
        u2 = rng.uniform(-1.0, 1.0, len(f.psi2))
        out = perturb(f, 0.05, seed=11)
        assert np.array_equal(out.psi1, f.psi1 * (1 + 0.05 * u1))
        assert np.array_equal(out.psi2, f.psi2 * (1 + 0.05 * u2))

    def test_additive_mode(self):
        f = self.sample()
        out = perturb(f, 0.03, seed=5, mode="additive")
        cap1 = 0.03 * np.abs(f.psi1).max()
        assert np.abs(out.psi1 - f.psi1).max() <= cap1 + 1e-15
        assert not np.array_equal(out.psi1, f.psi1)

    def test_validation(self):
        f = self.sample()
        with pytest.raises(ValidationError):
            perturb(f, -0.01, seed=0)
        with pytest.raises(ValidationError):
            perturb(f, np.nan, seed=0)
        with pytest.raises(ValidationError):
            perturb(f, 0.03, seed=0, mode="squared")


class TestStabilityVerdict:
    def synthetic(self, peak):
        n = 5
        ones = np.ones(n)
        prof = np.linspace(0, peak, n)
        return DiagnosticsTrace(np.linspace(0, 1, n), ones, ones,
                                prof, prof / 2, np.zeros(n))

    def test_threshold_logic(self):
        assert stability_verdict(self.synthetic(0.05), 0.1).verdict
        report = stability_verdict(self.synthetic(0.5), 0.1)
        assert not report.verdict
        assert report.max_profile_error == pytest.approx(0.5)
        assert report.time_of_max == pytest.approx(1.0)

    def test_perturbed_short_run_is_stable(self):
        fam, tr, grid = family_setup(elliptic_family, t_end=0.51)
        cfg = PropagationConfig(grid, dt=1e-3, t_end=0.5,
                                coefficient_source=CoefficientSampler(fam, tr))
        psi0 = perturb(assemble(fam, tr, grid.x, 0.0), 0.03, 42)
        diag = propagate(psi0, cfg, reference=(fam, tr))
        report = stability_verdict(diag, threshold=0.1)
        assert report.verdict
        # the perturbation itself contributes a few percent from the start
        assert report.max_profile_error >= 0.01


def nine_assemble_residual(family, grid, t, trace, dt=1e-4):
    """Oracle: the full-equation residual with one assemble call per time
    level, the form pde_residual replaced by one assemble_rows call."""
    x = grid.x
    sampler = CoefficientSampler(family, trace)
    v = sampler.potential(x, t)
    g = sampler.couplings(x, t)
    d = STENCIL_DEPTH
    levels = [assemble(family, trace, x, t + k * dt) for k in range(-d, d + 1)]
    psis = [np.stack([lv.psi1 for lv in levels]),
            np.stack([lv.psi2 for lv in levels])]
    dens = [np.abs(psis[0][d]) ** 2, np.abs(psis[1][d]) ** 2]
    spectral = family.kind in ("elliptic", "sech")
    out = []
    for j in (0, 1):
        p = psis[j]
        psi_t = interior_diff(p, dt, axis=0)[0]
        mid = p[d]
        if spectral:
            psi_xx = np.fft.ifft(-grid.wavenumbers**2 * np.fft.fft(mid))
            core = slice(None)
        else:
            psi_xx = np.pad(interior_diff(mid, grid.dx, axis=0, order=2), d)
            core = slice(d, -d)
        res = (1j * psi_t + psi_xx - v[j] * mid
               - (g[j, 0] * dens[0] + g[j, 1] * dens[1]) * mid)
        out.append(float(np.max(np.abs(res[core]))))
    return out[0], out[1]


class TestPdeResidual:
    def test_sech_at_t_zero(self):
        fam = sech_family()
        tr = default_trace(fam, drive="periodic", t_end=2.01)
        grid = default_grid(fam, "residual")
        r1, r2 = pde_residual(fam, grid, 0.0, tr)
        assert r1 <= 1e-4 and r2 <= 1e-4

    def test_dark_bright_mild_modulation(self):
        fam = dark_bright_family(0.5)
        tr = default_trace(fam, alpha=0.1, beta=0.0, t_end=2.01)
        grid = default_grid(fam, "residual")
        r1, r2 = pde_residual(fam, grid, 1.0, tr)
        assert r1 <= 1e-4 and r2 <= 1e-4

    def test_elliptic_both_drives(self):
        fam = elliptic_family()
        for drive in ("periodic", "quasiperiodic"):
            tr = default_trace(fam, drive=drive, t_end=2.51)
            grid = default_grid(fam, "residual", drive=drive)
            r1, r2 = pde_residual(fam, grid, 2.0, tr)
            assert max(r1, r2) <= 1e-4, drive

    @pytest.mark.parametrize("n", [1, 2])
    def test_exact_elliptic_fields_leave_only_stencil_error(self, n):
        # fields at the rounding of their peak leave the stencils'
        # truncation and rounding, far below the 1e-4 gate
        fam = elliptic_family(n)
        tr = default_trace(fam, drive="periodic", t_end=1.2)
        grid = default_grid(fam, "residual")
        r1, r2 = pde_residual(fam, grid, 1.1, tr)
        assert max(r1, r2) < 2e-10, (r1, r2)

    def test_zero_fields_zero_residual(self, monkeypatch):
        fam = sech_family()
        tr = default_trace(fam, drive="periodic", t_end=1.01)
        grid = default_grid(fam, "residual")

        def zero_rows(family, trace, x, times):
            z = np.zeros((len(times), len(x)), dtype=complex)
            return z, z

        monkeypatch.setattr("modcnls.propagator.assemble_rows", zero_rows)
        assert pde_residual(fam, grid, 0.5, tr) == (0.0, 0.0)

    @pytest.mark.parametrize("kind, drive, t", [
        ("elliptic", "periodic", 0.3),
        ("elliptic", "quasiperiodic", 1.7),
        ("sech", "periodic", 0.0),
        ("sech", "quasiperiodic", 2.2),
        ("dark_bright", "periodic", 1.0),
    ])
    def test_matches_one_assemble_per_level(self, kind, drive, t):
        # default_trace gives the dark-bright pair its two-tone width
        fam = {"elliptic": elliptic_family(), "sech": sech_family(),
               "dark_bright": dark_bright_family(0.5)}[kind]
        tr = default_trace(fam, drive=drive, t_end=2.51)
        grid = default_grid(fam, "residual", drive=drive)
        got = pde_residual(fam, grid, t, tr)
        want = nine_assemble_residual(fam, grid, t, tr)
        assert same_bits(got, want), (got, want)

    def test_one_block_assembly_per_call(self, monkeypatch):
        fam = elliptic_family()
        tr = default_trace(fam, drive="quasiperiodic", t_end=1.01)
        grid = default_grid(fam, "residual", drive="quasiperiodic")
        rows, single = [], []
        real = propagator.assemble_rows

        def spy_rows(family, trace, x, times):
            rows.append(np.array(times))
            return real(family, trace, x, times)

        monkeypatch.setattr(propagator, "assemble_rows", spy_rows)
        monkeypatch.setattr(propagator, "assemble",
                            lambda *a: single.append(a))
        pde_residual(fam, grid, 0.5, tr)
        assert single == [] and len(rows) == 1
        assert same_bits(rows[0], 0.5 + 1e-4 * np.arange(-4, 5))

    def test_integrated_trace_needs_stencil_room(self):
        fam = elliptic_family()
        tr = default_trace(fam, drive="quasiperiodic", t_end=1.01)
        grid = default_grid(fam, "residual", drive="quasiperiodic")
        with pytest.raises(ValidationError):
            pde_residual(fam, grid, 1e-5, tr)


class TestConvergenceOrder:
    def test_second_order_in_dt_through_propagate(self):
        # the merged kinetic steps keep the scheme second order: halving dt
        # quarters the final profile error
        fam = sech_family()
        tr = default_trace(fam, drive="periodic", t_end=0.51)
        grid = SpatialGrid(25.0, 1024)
        errs = []
        for dt in (1e-3, 5e-4):
            cfg = PropagationConfig(grid, dt=dt, t_end=0.3,
                                    coefficient_source=CoefficientSampler(fam, tr))
            diag = propagate(assemble(fam, tr, grid.x, 0.0), cfg,
                             reference=(fam, tr))
            assert diag.times[-1] == pytest.approx(0.3)
            errs.append(max(diag.profile_error1[-1], diag.profile_error2[-1]))
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_second_order_in_dt(self):
        fam = sech_family()
        tr = default_trace(fam, drive="periodic", t_end=0.51)
        grid = SpatialGrid(25.0, 1024)
        sampler = CoefficientSampler(fam, tr)
        exact = assemble(fam, tr, grid.x, 0.3)
        errs = []
        for dt in (1e-3, 5e-4):
            cfg = PropagationConfig(grid, dt=dt, t_end=0.3,
                                    coefficient_source=sampler)
            fields = assemble(fam, tr, grid.x, 0.0)
            t = 0.0
            for _ in range(cfg.n_steps):
                fields = step(fields, t, cfg)
                t += dt
            errs.append(max(np.abs(fields.psi1 - exact.psi1).max(),
                            np.abs(fields.psi2 - exact.psi2).max()))
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5
