"""Similarity-transform layer: stretches, coefficient maps, constraint checks.

The closed-form coefficient expressions are cross-checked two independent
ways: against the generic transform algebra evaluated per stretch, and
against finite-difference reconstruction from the (rho, eta, zeta) lattices.
"""

import dataclasses
import itertools
import math
import os
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from modcnls.errors import LatticeTooCoarseError, ValidationError
from modcnls.families import (
    assemble,
    assemble_rows,
    dark_bright_family,
    default_grid,
    default_trace,
    elliptic_family,
    sech_family,
)
from modcnls.modulation import (closed_form_trace, drive_f,
                                explicit_trace, mathieu_trace)
from modcnls import transform
from modcnls.transform import (
    CoefficientSampler,
    StretchSpec,
    interior_diff,
    potential_from_transform,
    eta_of,
    rho_of,
    verify_constraints,
    xi_of,
    zeta_of,
)

from coefficient_helpers import (couplings_oracle, potential_oracle,
                                worst_of)
from worker_helpers import force_workers

SQRT_PI = math.sqrt(math.pi)


def d1_nan_padded(f, h, axis, depth=4):
    """Central first derivative over the whole lattice, nan on the
    depth-deep edges: eighth order at depth 4, as the walk's x differences,
    and twelfth order at depth 6, the finite-difference oracle's time
    differences."""
    out = np.full_like(f, np.nan)
    sl = [slice(None)] * f.ndim

    def ix(k):
        s = sl.copy()
        s[axis] = slice(depth + k, f.shape[axis] - depth + k or None)
        return tuple(s)

    core = sl.copy()
    core[axis] = slice(depth, -depth)
    if depth == 4:
        out[tuple(core)] = (
            672.0 * (f[ix(1)] - f[ix(-1)]) - 168.0 * (f[ix(2)] - f[ix(-2)])
            + 32.0 * (f[ix(3)] - f[ix(-3)]) - 3.0 * (f[ix(4)] - f[ix(-4)])
        ) / (840.0 * h)
    else:
        assert depth == 6
        out[tuple(core)] = (
            23760.0 * (f[ix(1)] - f[ix(-1)])
            - 7425.0 * (f[ix(2)] - f[ix(-2)])
            + 2200.0 * (f[ix(3)] - f[ix(-3)])
            - 495.0 * (f[ix(4)] - f[ix(-4)])
            + 72.0 * (f[ix(5)] - f[ix(-5)])
            - 5.0 * (f[ix(6)] - f[ix(-6)])
        ) / (27720.0 * h)
    return out


def whole_lattice_residuals(family, trace, x, t, corrupt_rho=0.0,
                            with_at=False, differences=False):
    """Oracle: the three constraint residuals from one whole-lattice sample
    of the fields with nan-padded x stencils, maximized over the core
    [:, 8:-8]; with_at adds the lattice (t, x) of each maximum that a
    row-major argmax over the core picks.

    The time derivatives are the complex step Im f(t + ih) / h of the
    fields at t + ih, as the walk takes them, so its blocks and strips must
    give these residuals bit for bit.  With differences, they are instead
    twelfth-order differences of the fields the public queries give at
    real t, independent of the complex step, over the core [6:-6, 8:-8]."""
    h = transform.COMPLEX_STEP
    if differences:
        chi, dchi, a = (np.asarray(query(t))[:, None] for query in
                        (trace.chi_at, trace.dchi_dt_at, trace.a_at))
    else:
        chi, dchi, _, a, _ = (v[:, None] for v in trace.at(t + 1j * h))
    xs = x[None, :]
    rho = rho_of(family.stretch, xs, chi)
    eta = eta_of(xs, chi, dchi, a)
    zeta = zeta_of(family.stretch, xs, chi)
    if corrupt_rho:
        rho = rho * (1.0 + corrupt_rho * x[None, :])
    hx = float(x[1] - x[0])
    if differences:
        ht = float(t[1] - t[0])
        rho_rho_t = rho * d1_nan_padded(rho, ht, axis=0, depth=6)
        zeta_t = d1_nan_padded(zeta, ht, axis=0, depth=6)
    else:
        rho_rho_t = rho.real * rho.imag / h
        zeta_t = zeta.imag / h
        rho, eta, zeta = rho.real, eta.real, zeta.real
    eta_x = d1_nan_padded(eta, hx, axis=1)
    zeta_x = d1_nan_padded(zeta, hx, axis=1)
    r7 = rho_rho_t + d1_nan_padded(rho * rho * eta_x, hx, axis=1)
    r8 = zeta_t + 2.0 * eta_x * zeta_x
    r9 = d1_nan_padded(rho * rho * zeta_x, hx, axis=1)
    e = 6 if differences else 0
    core = [np.abs(r[e:len(t) - e, 8:-8]) for r in (r7, r8, r9)]
    worst = tuple(float(np.nanmax(r)) for r in core)
    if not with_at:
        return worst
    peaks = (np.unravel_index(np.argmax(r), r.shape) for r in core)
    return worst, tuple((float(t[e + i]), float(x[8 + j])) for i, j in peaks)


def count_evaluations(trace):
    """A copy of trace whose evaluator records the t of each call in the
    list returned with it.  A call from a forked worker would not reach the
    list, so it fails instead."""
    caller, calls, evaluate = os.getpid(), [], trace.width

    def counted(t):
        if os.getpid() != caller:
            raise AssertionError("the width was evaluated in a worker")
        calls.append(np.array(t))
        return evaluate(t)

    return dataclasses.replace(trace, width=counted), calls


def all_family_trace_pairs(t_end=2.0):
    return [
        (elliptic_family(1), default_trace(elliptic_family(1), "periodic", t_end)),
        (elliptic_family(1), default_trace(elliptic_family(1), "quasiperiodic", t_end)),
        (sech_family(), default_trace(sech_family(), "periodic", t_end)),
        (sech_family(), default_trace(sech_family(), "quasiperiodic", t_end)),
        (dark_bright_family(0.5), default_trace(dark_bright_family(0.5), t_end=t_end)),
        (dark_bright_family(-0.5), default_trace(dark_bright_family(-0.5), t_end=t_end)),
    ]


class TestStretchSpec:
    def test_gaussian_zeta_window(self):
        s = StretchSpec("gaussian")
        xi = np.linspace(-30, 30, 1001)
        z = s.zeta(xi)
        assert np.all(z >= 0) and np.all(z <= SQRT_PI)
        assert np.all(np.diff(z) >= 0)
        assert s.zeta(0.0) == pytest.approx(SQRT_PI / 2.0)

    def test_inverse_gaussian_odd_superlinear(self):
        s = StretchSpec("inverse_gaussian", gamma=6.0)
        xi = np.linspace(0.5, 25, 50)
        z = s.zeta(xi)
        np.testing.assert_allclose(s.zeta(-xi), -z, rtol=1e-13)
        assert np.all(z > xi)  # F' > 1 away from the origin

    def test_flat_bump_asymptotic_identity(self):
        s = StretchSpec("flat_bump", lam=0.5)
        assert s.zeta(8.0) == pytest.approx(8.0 + 0.5 * SQRT_PI / 2.0, abs=1e-12)
        assert s.zeta(-8.0) == pytest.approx(-8.0 - 0.5 * SQRT_PI / 2.0, abs=1e-12)
        # negative bump slows the map down around the origin
        s2 = StretchSpec("flat_bump", lam=-0.5)
        assert s2.zeta(1.0) < 1.0 < s.zeta(1.0)

    def test_fprime_positive_everywhere(self):
        xi = np.linspace(-12, 12, 401)
        for s in (
            StretchSpec("gaussian"),
            StretchSpec("inverse_gaussian", gamma=2.0),
            StretchSpec("flat_bump", lam=-0.9),
        ):
            assert np.all(s.fprime(xi) > 0)

    def test_zeta_slope_is_fprime(self):
        h = 1e-6
        for s in (
            StretchSpec("gaussian"),
            StretchSpec("inverse_gaussian", gamma=3.0),
            StretchSpec("flat_bump", lam=0.7),
        ):
            for xi in (-2.3, 0.0, 1.7):
                fd = (s.zeta(xi + h) - s.zeta(xi - h)) / (2 * h)
                assert fd == pytest.approx(float(s.fprime(xi)), rel=1e-8), s.kind

    def test_power_consistency(self):
        xi = np.linspace(-5, 5, 101)
        for s in (
            StretchSpec("gaussian"),
            StretchSpec("inverse_gaussian", gamma=4.0),
            StretchSpec("flat_bump", lam=0.3),
        ):
            f = s.fprime(xi)
            np.testing.assert_allclose(s.fprime(xi, 2), f * f, rtol=1e-13)
            np.testing.assert_allclose(s.fprime(xi, 3), f**3, rtol=1e-13)

    def test_clipping_keeps_finite(self):
        s = StretchSpec("inverse_gaussian", gamma=1.0)
        out = s.fprime(np.array([50.0]), 3)
        assert np.isfinite(out).all() and out[0] > 1e300

    def test_validation(self):
        with pytest.raises(ValueError):
            StretchSpec("spline")
        with pytest.raises(ValueError):
            StretchSpec("inverse_gaussian", gamma=0.0)
        with pytest.raises(ValueError):
            StretchSpec("flat_bump", lam=-1.0)


class TestCoefficientMaps:
    def test_coupling_two_expressions_agree(self):
        # G zeta_x^2 / rho^2 must equal G F'^3 / chi
        x = np.linspace(-8, 8, 257)
        for fam, tr in all_family_trace_pairs():
            chi = tr.chi_at(0.7)
            s = fam.stretch
            zeta_x = s.fprime(xi_of(x, chi)) / chi
            rho = rho_of(s, x, chi)
            direct = fam.g_matrix[:, :, None] * (zeta_x**2 / rho**2)[None, None, :]
            packed = CoefficientSampler(fam, tr).couplings(x, 0.7)
            # atol floor: the localizing stretch underflows both routes far out
            np.testing.assert_allclose(packed, direct, rtol=1e-12, atol=1e-200), fam.kind

    def test_rho_positive(self):
        x = np.linspace(-10, 10, 101)
        for fam, tr in all_family_trace_pairs():
            assert np.all(rho_of(fam.stretch, x, tr.chi_at(1.1)) > 0)

    def test_xi_requires_positive_chi(self):
        with pytest.raises(ValueError):
            xi_of(np.arange(3.0), 0.0)

    def test_printed_potential_matches_transform_algebra(self):
        for fam, tr in all_family_trace_pairs():
            half = {"elliptic": 10.0, "sech": 20.0, "dark_bright": 15.0}[fam.kind]
            x = np.linspace(-half, half, 512)
            for t in (0.0, 0.9, 1.8):
                vp = CoefficientSampler(fam, tr).potential(x, t)
                vt = potential_from_transform(fam, tr, x, t)
                gap = np.abs(vp - vt).max()
                assert gap < 1e-10, f"{fam.kind} t={t}: gap {gap:.2e}"

    # the printed forms hold only for the widths they were derived with:
    # f(t) x^2 needs a chi that solves the Ermakov-Pinney equation of f with
    # a' = chi^-2, the flat bump a prescribed chi with a' = 0
    WIDTHS = {
        "closed_form": closed_form_trace,
        "mathieu_quasiperiodic": lambda: mathieu_trace("quasiperiodic", 3.0),
        "two_tone": lambda: explicit_trace(0.3, 0.2),
    }
    REFUSED = {("elliptic", "two_tone"), ("dark_bright", "closed_form"),
               ("dark_bright", "mathieu_quasiperiodic")}

    @pytest.mark.parametrize("width", sorted(WIDTHS))
    @pytest.mark.parametrize("maker", [elliptic_family, sech_family,
                                       dark_bright_family])
    def test_printed_trap_holds_for_its_width_or_refuses(self, maker, width):
        fam, tr = maker(), self.WIDTHS[width]()
        x = default_grid(fam).x
        if (fam.kind, width) in self.REFUSED:
            # refused when the sampler is made, before any sample
            with pytest.raises(ValidationError, match=(
                    rf"CoefficientSampler: the {fam.kind} .* holds only for "
                    r".*; got (a prescribed width|drive \(\S+, \S+\))")):
                CoefficientSampler(fam, tr)
            return
        sampler = CoefficientSampler(fam, tr)
        for t in (0.0, 0.9, 1.8, 2.7):
            want = potential_from_transform(fam, tr, x, t)
            scale = np.where(want != 0, np.abs(want), 1.0)
            gap = np.abs(sampler.potential(x, t) - want) / scale
            # elementwise relative, the benchmark's potential_vs_transform
            assert gap.max() <= 1e-11, f"{fam.kind} {width} t={t}"

    FAMILIES = {
        "elliptic": elliptic_family, "sech": sech_family,
        "dark_bright": dark_bright_family,
        "sech_mixed_mu": lambda: dataclasses.replace(sech_family(),
                                                     mu=(-1.0, 0.5)),
    }

    @pytest.mark.parametrize("family, width", sorted(
        set(itertools.product(FAMILIES, WIDTHS)) - REFUSED))
    def test_sampler_matches_the_oracle_bit_for_bit(self, family, width):
        # the sampler writes both rows into one array and evaluates the
        # width once; the oracle stacks rows and queries the width per
        # quantity, the way the formulas read
        fam, tr = self.FAMILIES[family](), self.WIDTHS[width]()
        sampler = CoefficientSampler(fam, tr)
        x = default_grid(fam).x
        for t in np.linspace(0.0, 2.7, 10):
            for asked in (float(t), np.float64(t), np.asarray(t)):
                for got, want in (
                        (sampler.potential(x, asked),
                         potential_oracle(fam, tr, x, t)),
                        (sampler.couplings(x, asked),
                         couplings_oracle(fam, tr, x, t))):
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), t

    def test_flat_bump_refuses_nonzero_mu(self):
        fam = dataclasses.replace(dark_bright_family(), mu=(0.0, -1.0))
        with pytest.raises(ValidationError,
                           match=r"got drive None and mu = \(0\.0, -1\.0\)"):
            CoefficientSampler(fam, explicit_trace(0.3, 0.2))

    def test_harmonic_trap_strength_follows_drive(self):
        # localizing stretch: v = f(t) x^2 exactly, for either drive
        fam = elliptic_family(1)
        x = np.linspace(-3, 3, 61)
        for drive in ("periodic", "quasiperiodic"):
            tr = default_trace(fam, drive, 3.0)
            for t in (0.4, 2.2):
                f = drive_f(t, *tr.drive)
                v = CoefficientSampler(fam, tr).potential(x, t)
                np.testing.assert_allclose(v[0], f * x * x, rtol=0, atol=1e-12)
                np.testing.assert_allclose(v[1], v[0], rtol=0)

    def test_sampler_bundles_both(self):
        fam = sech_family()
        tr = default_trace(fam, "periodic", 2.0)
        sam = CoefficientSampler(fam, tr)
        x = np.linspace(-20, 20, 128)
        v, g = sam.potential(x, 1.0), sam.couplings(x, 1.0)
        assert v.shape == (2, 128) and g.shape == (2, 2, 128)
        np.testing.assert_array_equal(
            v, CoefficientSampler(fam, tr).potential(x, 1.0))
        # zero diagonal entry of G stays zero everywhere
        assert np.all(g[1, 1] == 0.0)


class TestLattice:
    @pytest.mark.parametrize("fam, drive", [
        (dark_bright_family(0.5), "periodic"),
        (sech_family(), "quasiperiodic"),
    ])
    def test_shapes_and_consistency(self, fam, drive):
        # each row of the lattice the residual checks walk is the
        # evaluators' fields at that row's time, bit for bit
        tr = default_trace(fam, drive, t_end=2.0)
        x = np.linspace(-15, 15, 300)
        t = np.linspace(0, 2, 70)
        w = tr.at(t)
        rho, eta, zeta = transform._lattice_fields(fam.stretch, x, w.chi,
                                                   w.dchi, w.a)
        assert rho.shape == eta.shape == zeta.shape == (70, 300)
        for k in (0, 13, 51):
            tk = float(t[k])
            chi, dchi, a = tr.chi_at(tk), tr.dchi_dt_at(tk), tr.a_at(tk)
            np.testing.assert_array_equal(rho[k], rho_of(fam.stretch, x, chi))
            np.testing.assert_array_equal(eta[k], eta_of(x, chi, dchi, a))
            np.testing.assert_array_equal(zeta[k],
                                          zeta_of(fam.stretch, x, chi))


class TestOneWidthEvaluation:
    """Each consumer of a trace evaluates its width once per call; the
    constraint walk's once, at every t + ih, is in TestOneProcessWalk."""

    @pytest.mark.parametrize("k", range(6))
    def test_each_consumer_calls_the_width_once(self, k):
        fam, real = all_family_trace_pairs()[k]
        x = np.linspace(-10.0, 10.0, 256)
        times = np.linspace(0.0, 1.5, 7)
        # the gaussian trap is f(t) x^2, which reads the drive, not the width
        traps = 0 if fam.stretch.kind == "gaussian" else 1
        uses = {
            "assemble": (lambda tr: assemble(fam, tr, x, 0.7), 1),
            "assemble_rows": (lambda tr: assemble_rows(fam, tr, x, times), 1),
            "samples": (lambda tr: tr.samples(times), 1),
            "potential": (lambda tr: CoefficientSampler(fam, tr)
                          .potential(x, 0.7), traps),
            "couplings": (lambda tr: CoefficientSampler(fam, tr)
                          .couplings(x, 0.7), 1),
        }
        for name, (use, want) in uses.items():
            tr, calls = count_evaluations(real)
            use(tr)
            assert len(calls) == want, f"{fam.kind} {name}: {len(calls)}"


class TestInteriorDiff:
    @pytest.mark.parametrize("order", [1, 2])
    def test_eighth_order(self, order):
        # halving h must cut the error on a smooth function by about 2^8;
        # a sixth-order stencil would give only 2^6
        errs = []
        for h in (0.1, 0.05):
            x = 1.0 + h * np.arange(-24, 25)
            f = np.exp(np.sin(x))
            exact = (np.cos(x) * f if order == 1
                     else (np.cos(x) ** 2 - np.sin(x)) * f)
            d = interior_diff(np.stack([f, 2.0 * f]), h, axis=1, order=order)
            assert d.shape == (2, len(x) - 8)
            np.testing.assert_array_equal(
                d[0], interior_diff(f, h, axis=0, order=order))
            errs.append(np.abs(d[0] - exact[4:-4]).max())
        assert errs[0] / errs[1] >= 2 ** 7.5, errs

    def test_first_derivative_weights_are_the_exact_central_ones(self):
        # the weight of f[i+k] in the central first derivative on the
        # nodes -4..4 is L_k'(0), L_k their Lagrange basis, in exact
        # rationals
        nodes = range(-4, 5)
        exact = [Fraction(1, k) * math.prod(
                     Fraction(-j, k - j) for j in nodes if j not in (0, k))
                 for k in range(1, 5)]
        pairs, centre, scale = transform._FORNBERG[1]
        got = [(-1) ** (k + 1) * Fraction(weight) / Fraction(scale)
               for k, weight in enumerate(pairs, 1)]
        assert (got, centre) == (exact, 0.0)

    @staticmethod
    def fornberg(f, h, order):
        """The 1-D interior difference as the formula reads, term by term."""
        def p(k):
            s = f[4 + k:len(f) - 4 + k]
            return s if k == 0 else (
                (s - f[4 - k:len(f) - 4 - k]) if order == 1
                else (s + f[4 - k:len(f) - 4 - k]))
        if order == 1:
            return (672.0 * p(1) - 168.0 * p(2) + 32.0 * p(3)
                    - 3.0 * p(4)) / (840.0 * h)
        return (8064.0 * p(1) - 1008.0 * p(2) + 128.0 * p(3)
                - 9.0 * p(4) - 14350.0 * p(0)) / (5040.0 * h * h)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("kind", ["real", "complex", "integer"])
    @pytest.mark.parametrize("shape", [(40,), (12, 30), (10, 11, 13)])
    def test_every_axis_is_its_one_d_slices(self, shape, kind, order):
        # on every axis, negative ones included, each 1-D slice of the
        # result is bit for bit the formula on that slice of f; the result
        # is float for integer f and C-contiguous for C-contiguous f
        rng = np.random.default_rng(34)
        f = {"real": lambda: rng.standard_normal(shape),
             "complex": lambda: (rng.standard_normal(shape)
                                 + 1j * rng.standard_normal(shape)),
             "integer": lambda: rng.integers(-1000, 1000, shape)}[kind]()
        h = 0.07
        for axis in range(-len(shape), len(shape)):
            got = interior_diff(f, h, axis=axis, order=order)
            want_shape = list(shape)
            want_shape[axis] -= 2 * transform.STENCIL_DEPTH
            assert got.shape == tuple(want_shape)
            assert got.dtype == (complex if kind == "complex" else float)
            assert got.flags.c_contiguous
            rows_f = np.moveaxis(f, axis, -1).reshape(-1, shape[axis])
            rows_d = np.moveaxis(got, axis, -1).reshape(-1, want_shape[axis])
            for row_f, row_d in zip(rows_f, rows_d):
                want = self.fornberg(row_f, h, order)
                assert row_d.tobytes() == want.tobytes()
                assert row_d.tobytes() == interior_diff(
                    row_f, h, axis=0, order=order).tobytes()

    def test_short_axis_refused(self):
        assert interior_diff(np.ones(9), 0.1, axis=0, order=2).shape == (1,)
        for n in (0, 1, 8):
            with pytest.raises(ValueError, match=f"has {n} points"):
                interior_diff(np.ones(n), 0.1, axis=0)
        with pytest.raises(ValueError, match="axis 0 has 8 points"):
            interior_diff(np.ones((8, 100)), 0.1, axis=0, order=2)


class TestVerifyConstraints:
    def test_residuals_small_all_families(self):
        cases = [
            (elliptic_family(1), "periodic", 1.0, 1024, 2048),
            (sech_family(), "periodic", 5.0, 512, 768),
            (sech_family(), "quasiperiodic", 5.0, 768, 768),
            (dark_bright_family(0.5), None, 5.0, 512, 512),
        ]
        for fam, drive, half, nx, nt in cases:
            tr = default_trace(fam, drive or "periodic", 1.0)
            x = np.linspace(-1.0, 1.0, nx) if fam.kind == "elliptic" else np.linspace(-5.0, 5.0, nx)
            t = np.linspace(0.0, 1.0, nt)
            r = verify_constraints(fam, tr, x, t)
            assert worst_of(r) < 1e-5, f"{fam.kind}/{drive}: {r}"

    def test_defect_past_the_first_unit_of_time_is_caught(self):
        # chi' off by 1e-3 only for t > 1.5: a walk over [0, 1] cannot see
        # it, a walk over [0, 3] must
        fam = elliptic_family(1)
        good = default_trace(fam, "periodic", 3.0)

        def width(t):
            chi, dchi, d2chi, a = good.width(t)
            return chi, dchi + 1e-3 * (t.real > 1.5), d2chi, a

        tr = dataclasses.replace(good, width=width)
        x = np.linspace(-1.0, 1.0, 640)
        r = verify_constraints(fam, tr, x, np.linspace(0.0, 1.0, 769))
        assert worst_of(r) <= 1e-5, str(r)
        r = verify_constraints(fam, tr, x, np.linspace(0.0, 3.0, 768 * 3 + 1))
        assert r.continuity > 1e-5, str(r)

    @pytest.mark.parametrize("kind, drive, nx, nt, corrupt", [
        ("elliptic", "quasiperiodic", 640, 1001, 0.0),
        ("elliptic", "periodic", 768, 1537, 0.01),
        ("sech", "periodic", 512, 769, 0.0),
        ("dark_bright", "periodic", 512, 512, 0.0),
    ])
    def test_blocked_walk_matches_whole_lattice(self, kind, drive, nx, nt,
                                                corrupt):
        fam = {"elliptic": elliptic_family(1), "sech": sech_family(),
               "dark_bright": dark_bright_family(0.5)}[kind]
        tr = default_trace(fam, drive, 1.0)
        half = 1.0 if kind == "elliptic" else 5.0
        x = np.linspace(-half, half, nx)
        t = np.linspace(0.0, 1.0, nt)
        # each block holds whole rows, at most _BLOCK_POINTS points
        rows = transform._BLOCK_POINTS // nx
        # several blocks, the last one short
        assert nt > 2 * rows and nt % rows != 0
        r = verify_constraints(fam, tr, x, t, corrupt_rho=corrupt)
        want = whole_lattice_residuals(fam, tr, x, t, corrupt_rho=corrupt)
        assert (r.continuity, r.advection, r.flux) == want

    @pytest.mark.parametrize("block_points", [25_000, 50_000, 100_000])
    def test_walk_is_independent_of_block_size(self, monkeypatch,
                                               block_points):
        # every residual is the whole-lattice value at any block budget,
        # so _BLOCK_POINTS can be retuned without changing a bit
        fam = elliptic_family(1)
        tr = default_trace(fam, "quasiperiodic", 1.0)
        x, t = np.linspace(-1.0, 1.0, 400), np.linspace(0.0, 1.0, 700)
        monkeypatch.setattr(transform, "_BLOCK_POINTS", block_points)
        rows = block_points // 400
        # several blocks, the last one short
        assert 700 > 2 * rows and 700 % rows != 0
        r = verify_constraints(fam, tr, x, t, corrupt_rho=0.01)
        want = whole_lattice_residuals(fam, tr, x, t, corrupt_rho=0.01)
        assert (r.continuity, r.advection, r.flux) == want

    @pytest.mark.parametrize("kind, drive", [
        ("elliptic", "quasiperiodic"), ("sech", "periodic"),
        ("dark_bright", "periodic")])
    @pytest.mark.parametrize("defect", ["clean", "corrupt_rho", "chi_drift"])
    def test_complex_step_agrees_with_the_difference_oracle(self, kind,
                                                            drive, defect):
        # an independent cross-check: twelfth-order time differences of the
        # public queries, on the rows they can difference.  A defect's
        # residual (1e-5 to 10) agrees to 1e-7 relative; the clean
        # residuals, and the rest of a defect's, are both below the 1e-7
        # rounding floor of the x stencils on this lattice
        fam = {"elliptic": elliptic_family(1), "sech": sech_family(),
               "dark_bright": dark_bright_family(0.5)}[kind]
        good = default_trace(fam, drive, 1.0)

        def drift(t):  # chi off by 1e-4 t: a defect rho_t and zeta_t see
            chi, dchi, d2chi, a = good.width(t)
            return chi * (1.0 + 1e-4 * t), dchi, d2chi, a

        tr = (dataclasses.replace(good, width=drift)
              if defect == "chi_drift" else good)
        corrupt = 0.01 if defect == "corrupt_rho" else 0.0
        half = 1.0 if kind == "elliptic" else 5.0
        x, t = np.linspace(-half, half, 512), np.linspace(0.0, 1.0, 1001)
        want = whole_lattice_residuals(fam, tr, x, t, corrupt_rho=corrupt,
                                       differences=True)
        r = verify_constraints(fam, tr, x, t[6:-6], corrupt_rho=corrupt)
        got = (r.continuity, r.advection, r.flux)
        assert got == pytest.approx(want, rel=1e-7, abs=1e-7)
        assert (max(got) > 1e-5) == (defect != "clean"), got

    def test_non_finite_lattice_value_is_not_dropped(self):
        # one bad phase sample inside the core must surface as nan
        fam = sech_family()
        good = default_trace(fam, "periodic", 1.0)

        def width(t):
            chi, dchi, d2chi, a = good.width(t)
            return chi, dchi, d2chi, np.where(abs(t.real - 0.5) < 1e-3,
                                              np.nan, a)

        tr = dataclasses.replace(good, width=width)
        r = verify_constraints(fam, tr, np.linspace(-5, 5, 512),
                               np.linspace(0, 1, 513))
        assert math.isnan(r.continuity) and math.isnan(worst_of(r))
        assert math.isnan(worst_of(
            transform.ConstraintResiduals(0.0, np.nan, 1.0)))

    def test_non_finite_corruption_refused(self):
        fam = sech_family()
        tr = default_trace(fam, "periodic", 1.0)
        x, t = np.linspace(-5, 5, 512), np.linspace(0, 1, 512)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="corrupt_rho"):
                verify_constraints(fam, tr, x, t, corrupt_rho=bad)

    def test_corrupted_envelope_is_caught(self):
        fam = elliptic_family(1)
        tr = default_trace(fam, "periodic", 1.0)
        x = np.linspace(-1.0, 1.0, 768)
        t = np.linspace(0.0, 1.0, 1536)
        r = verify_constraints(fam, tr, x, t, corrupt_rho=0.01)
        assert r.continuity > 1e-2 and r.flux > 1e-2
        assert worst_of(r) == max(r.continuity, r.advection, r.flux)

    def test_coarse_lattice_refused(self):
        # the floor is 256 columns by one time, and a lattice at it is
        # walked: a complex step needs no neighbouring rows
        fam = sech_family()
        tr = default_trace(fam, "periodic", 1.0)
        with pytest.raises(LatticeTooCoarseError, match="255 x 1 "):
            verify_constraints(fam, tr, np.linspace(-5, 5, 255), [0.5])
        with pytest.raises(LatticeTooCoarseError,
                           match="256 x 0 below the 256 x 1 floor"):
            verify_constraints(fam, tr, np.linspace(-5, 5, 256), [])
        r = verify_constraints(fam, tr, np.linspace(-5, 5, 256), [0.5])
        assert math.isfinite(worst_of(r)) and r.at[0][0] == 0.5

    def test_nonuniform_lattice_refused(self):
        fam = sech_family()
        tr = default_trace(fam, "periodic", 1.0)
        x = np.linspace(-5, 5, 300) ** 3 / 25.0
        with pytest.raises(ValueError):
            verify_constraints(fam, tr, x, np.linspace(0, 1, 70))

    def test_duck_typed_family(self):
        # any object with stretch, mu, g_matrix will do
        fam = SimpleNamespace(
            stretch=StretchSpec("flat_bump", lam=0.3),
            mu=(0.0, 0.0),
            g_matrix=np.eye(2),
        )
        tr = closed_form_trace()
        x = np.linspace(-4, 4, 640)
        t = np.linspace(0, 1, 512)
        r = verify_constraints(fam, tr, x, t)
        assert worst_of(r) < 1e-4


class TestLatticeRule:
    """verify_constraints and potential_identity_check take x only when it
    is finite, strictly increasing and uniform to 1e-9 of its spacing, and
    potential_identity_check only from 4 * STENCIL_DEPTH + 1 points."""

    @staticmethod
    def checks(x):
        fam = sech_family()
        tr = default_trace(fam, "periodic", 1.0)
        return {
            "verify_constraints": lambda: verify_constraints(
                fam, tr, x, np.linspace(0.0, 1.0, 5)),
            "potential_identity_check": lambda:
                transform.potential_identity_check(fam, tr, x, 0.5),
        }

    @pytest.mark.parametrize("name", ["verify_constraints",
                                      "potential_identity_check"])
    @pytest.mark.parametrize("case", ["decreasing", "constant", "nan", "inf"])
    def test_not_finite_and_increasing_refused(self, name, case):
        # a uniform decreasing x was refused as not uniform, its tolerance
        # negative, and a constant x passed into a division by zero
        x = np.linspace(-10.0, 10.0, 768)
        x = {"decreasing": x[::-1], "constant": np.full_like(x, 0.5),
             "nan": np.where(x == x[300], np.nan, x),
             "inf": np.append(x[:-1], np.inf)}[case]
        with pytest.raises(ValueError, match=f"{name}: the x lattice must "
                           f"be finite and strictly increasing"):
            self.checks(x)[name]()

    @pytest.mark.parametrize("name", ["verify_constraints",
                                      "potential_identity_check"])
    @pytest.mark.parametrize("case", ["two_spacings", "quadratic"])
    def test_nonuniform_refused(self, name, case):
        # potential_identity_check took any x, and differenced it as if
        # uniform
        u = np.linspace(-1.0, 1.0, 768)
        x = {"two_spacings": 10.0 * np.where(u < 0, u, 2.0 * u),
             "quadratic": 10.0 * u * np.abs(u) + 20.0 * u}[case]
        assert np.all(np.diff(x) > 0)
        with pytest.raises(ValueError,
                           match=f"{name}: the x lattice must be uniform"):
            self.checks(x)[name]()

    def test_potential_identity_floor(self):
        # below 17 points the gap was an empty maximum; from 17 on it is
        # taken
        d = transform.STENCIL_DEPTH
        assert 4 * d + 1 == 17
        for n in range(9, 17):
            with pytest.raises(LatticeTooCoarseError,
                               match=f"{n} points, below the 17-point floor"):
                self.checks(np.linspace(-1.0, 1.0, n))[
                    "potential_identity_check"]()
        gap = self.checks(np.linspace(-1.0, 1.0, 17))[
            "potential_identity_check"]()
        assert math.isfinite(gap)


class TestOneProcessWalk:
    """verify_constraints walks the whole lattice in row blocks in the
    calling process; every residual and its (t, x) must stay the
    whole-lattice value."""

    def test_forks_nothing_whatever_the_cpus(self, monkeypatch):
        # the walk calls no forked_map, so no CPU count or job size that
        # would fork there forks it
        fam = elliptic_family(1)
        tr = default_trace(fam, "quasiperiodic", 1.0)
        x, t = np.linspace(-1.0, 1.0, 643), np.linspace(0.0, 1.0, 300)
        want = whole_lattice_residuals(fam, tr, x, t, with_at=True)
        forked = force_workers(monkeypatch, 4)
        r = verify_constraints(fam, tr, x, t)
        assert forked == []
        assert ((r.continuity, r.advection, r.flux), r.at) == want

    def test_first_nan_position_is_reported(self):
        # constant width, so xi = x: zeta is NaN only for x > 4, from the
        # first row on; each NaN maximum reports its first lattice point
        real = sech_family()
        fam = SimpleNamespace(
            stretch=SimpleNamespace(
                fprime=real.stretch.fprime,
                zeta=lambda xi: np.where(xi.real > 4.0, np.nan,
                                         real.stretch.zeta(xi))),
            mu=real.mu, g_matrix=real.g_matrix)
        tr = explicit_trace(0.0, 0.0)
        x, t = np.linspace(-5, 5, 512), np.linspace(0, 1, 300)
        r = verify_constraints(fam, tr, x, t)
        assert math.isnan(r.advection) and math.isnan(r.flux)
        assert math.isfinite(r.continuity)  # continuity never reads zeta
        # the first NaN of each, in the first row: zeta_x reaches d columns
        # out, (rho^2 zeta_x)_x 2d
        first = int(np.argmax(x > 4.0))
        assert r.at[1:] == ((t[0], x[first - 4]), (t[0], x[first - 8]))

    @pytest.mark.parametrize("corrupt", [0.0, 1e-3])
    def test_peaks_match_whole_lattice_argmax(self, corrupt):
        # only a block that raises a maximum takes an argmax, and the
        # walk's (t, x) are one row-major argmax's over the whole interior
        fam = elliptic_family(1)
        tr = default_trace(fam, "quasiperiodic", 1.0)
        x, t = np.linspace(-1.0, 1.0, 643), np.linspace(0.0, 1.0, 1000)
        want = whole_lattice_residuals(fam, tr, x, t, corrupt_rho=corrupt,
                                       with_at=True)
        r = verify_constraints(fam, tr, x, t, corrupt_rho=corrupt)
        assert ((r.continuity, r.advection, r.flux), r.at) == want

    def test_tied_peaks_go_to_the_earliest_t_then_the_smallest_x(self):
        # a constant width makes every row alike, and continuity and
        # advection exactly zero everywhere: each of those maxima ties over
        # the whole interior, in every block
        fam = sech_family()
        tr = explicit_trace(0.0, 0.0)
        x, t = np.arange(-320, 321) / 64.0, np.linspace(0.0, 1.0, 300)
        assert len(t) > 2 * (transform._BLOCK_POINTS // len(x))
        want = whole_lattice_residuals(fam, tr, x, t, with_at=True)
        assert want[0][:2] == (0.0, 0.0)
        assert want[1][:2] == ((t[0], x[8]), (t[0], x[8]))
        r = verify_constraints(fam, tr, x, t)
        assert ((r.continuity, r.advection, r.flux), r.at) == want

    def test_width_and_each_row_are_sampled_once(self, monkeypatch):
        # no t halo: the width is evaluated once, at every t + ih, and the
        # blocks form the fields at every column times the lattice's rows,
        # each row once and in order, none holding over _BLOCK_POINTS
        fam = elliptic_family(1)
        tr, calls = count_evaluations(default_trace(fam, "quasiperiodic",
                                                    1.0))
        x, t = np.linspace(-1, 1, 643), np.linspace(0, 1, 1000)
        sample, blocks = transform._lattice_fields, []

        def spy(stretch, xs, chi, *rest):
            blocks.append((len(xs), chi.copy()))
            return sample(stretch, xs, chi, *rest)

        monkeypatch.setattr(transform, "_lattice_fields", spy)
        verify_constraints(fam, tr, x, t)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], t + 1j * transform.COMPLEX_STEP)
        assert len(blocks) > 2
        assert all(c == len(x) and c * len(chi) <= transform._BLOCK_POINTS
                   for c, chi in blocks)
        rows = np.concatenate([chi for _, chi in blocks])
        assert rows.tobytes() == tr.at(
            t + 1j * transform.COMPLEX_STEP).chi.tobytes()

    def test_working_memory_is_bounded_by_the_block_budget(self):
        # the walk's traced peak is a fixed multiple of the block budget,
        # 13.9 x _BLOCK_POINTS doubles here; the bound sits below the
        # 25.3 x of a walk that keeps a block's three complex fields while
        # making the next's
        fam = elliptic_family(1)
        tr = default_trace(fam, "quasiperiodic", 1.0)
        x, t = np.linspace(-1, 1, 2560), np.linspace(0, 1, 1024)
        tracemalloc.start()
        try:
            verify_constraints(fam, tr, x, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 22 * transform._BLOCK_POINTS * 8, peak
