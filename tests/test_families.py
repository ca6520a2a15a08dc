"""Solution families: reduced amplitudes, assembled fields, far tails.

Oracles: the defining constant-coefficient system checked by finite
differences, and extended-precision (mpmath) evaluations of the elliptic
field, some frozen as literals and the rest computed from the definition.
"""

import math

import mpmath
import numpy as np
import pytest

import modcnls
from modcnls.errors import ValidationError
from modcnls.families import (
    FamilySpec,
    amplitude_a0,
    assemble,
    assemble_rows,
    dark_bright_family,
    default_grid,
    default_trace,
    elliptic_envelope,
    elliptic_family,
    reduced_amplitudes,
    sech_family,
)
from modcnls.modulation import mathieu_trace
from modcnls.transform import StretchSpec, eta_of, rho_of, zeta_of

SQRT_PI = math.sqrt(math.pi)
SQRT2 = math.sqrt(2.0)

# |rho A_1| on the right elliptic tail at chi = 1, n = 1, from mpmath at
# 60 digits through the cancellation-free route: delta = A0 (sqrt(pi)/2)
# erfc(xi), value = exp(xi^2/2) (A0/sqrt2) sn(delta, 1/sqrt2)/dn(delta, 1/sqrt2)
TAIL_ORACLE = {
    4.0: 1.2605425177422387e-04,
    5.0: 1.1315644570474294e-06,
    6.0: 3.8755392010435103e-09,
    10.0: 2.9699593090867544e-23,
}


def system_residual(family, z, a1, a2):
    """mu_j A_j + A_j'' - (sum_k G_jk A_k^2) A_j by 4th-order differences."""
    h = z[1] - z[0]
    out = []
    for j, a in enumerate((a1, a2)):
        app = (
            -np.roll(a, 2) + 16 * np.roll(a, 1) - 30 * a
            + 16 * np.roll(a, -1) - np.roll(a, -2)
        ) / (12 * h * h)
        coupling = family.g_matrix[j, 0] * a1**2 + family.g_matrix[j, 1] * a2**2
        out.append(family.mu[j] * a + app - coupling * a)
    return max(np.abs(o[4:-4]).max() for o in out)


class TestFactories:
    def test_constant_coefficient_data(self):
        e = elliptic_family(1)
        np.testing.assert_array_equal(e.g_matrix, [[-0.5, -1.0], [-0.5, -1.0]])
        assert e.mu == (0.0, 0.0)
        s = sech_family()
        np.testing.assert_array_equal(s.g_matrix, [[-1.0, -2.0], [-2.0, 0.0]])
        assert s.mu == (-1.0, -1.0)
        assert s.stretch.gamma == 6.0
        d = dark_bright_family(0.5)
        np.testing.assert_array_equal(d.g_matrix, [[0.0, -2.0], [2.0, -1.0]])
        assert d.mu == (0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            elliptic_family(0)
        with pytest.raises(ValidationError):
            elliptic_family(1.5)
        # a bool is an int to isinstance, but no mode index
        with pytest.raises(ValidationError, match="positive integer"):
            elliptic_family(True)
        assert elliptic_family(np.int64(2)).n == 2
        with pytest.raises(ValidationError):
            sech_family(0.0)
        with pytest.raises(ValidationError):
            dark_bright_family(-1.0)

    STRETCHES = {"gaussian": StretchSpec("gaussian"),
                 "inverse_gaussian": StretchSpec("inverse_gaussian", gamma=6.0),
                 "flat_bump": StretchSpec("flat_bump", lam=0.5)}

    @pytest.mark.parametrize("maker", [elliptic_family, sech_family,
                                       dark_bright_family],
                             ids=lambda m: m.__name__)
    def test_stretch_of_another_kind_refused(self, maker):
        # the amplitudes solve the system only under their own stretch: an
        # elliptic pair on the inverse-Gaussian stretch would be assembled
        # as one family and sampled and walked as another
        fam = maker()
        for kind, stretch in self.STRETCHES.items():
            if kind == fam.stretch.kind:
                continue
            with pytest.raises(ValidationError, match=(
                    rf"the {fam.kind} amplitudes need the {fam.stretch.kind} "
                    rf"stretch, got {kind}")):
                FamilySpec(fam.kind, fam.mu, fam.g_matrix, stretch, fam.n)


class TestReducedAmplitudes:
    def test_elliptic_solves_system(self):
        fam = elliptic_family(1)
        z = np.linspace(0.05, SQRT_PI - 0.05, 2001)
        a1, a2 = reduced_amplitudes(fam, z)
        assert system_residual(fam, z, a1, a2) < 1e-7

    def test_elliptic_higher_mode_solves_system(self):
        fam = elliptic_family(3)
        z = np.linspace(0.05, SQRT_PI - 0.05, 4001)
        a1, a2 = reduced_amplitudes(fam, z)
        assert system_residual(fam, z, a1, a2) < 1e-6

    def test_sech_solves_system(self):
        fam = sech_family()
        z = np.linspace(-8.0, 8.0, 4001)
        a1, a2 = reduced_amplitudes(fam, z)
        assert system_residual(fam, z, a1, a2) < 1e-7

    def test_dark_bright_solves_system(self):
        fam = dark_bright_family(0.5)
        z = np.linspace(-8.0, 8.0, 4001)
        a1, a2 = reduced_amplitudes(fam, z)
        assert system_residual(fam, z, a1, a2) < 1e-7

    def test_amplitude_quantization(self):
        # frozen: 2 K(1/sqrt2) / sqrt(pi)
        assert amplitude_a0(1) == pytest.approx(2.0920992401062033, abs=1e-14)
        assert amplitude_a0(3) == pytest.approx(3 * 2.0920992401062033, abs=1e-13)
        with pytest.raises(ValidationError):
            amplitude_a0(0)
        with pytest.raises(ValidationError, match="positive integer"):
            amplitude_a0(True)

    def test_elliptic_components_proportional(self):
        fam = elliptic_family(2)
        z = np.linspace(0.1, SQRT_PI - 0.1, 97)
        a1, a2 = reduced_amplitudes(fam, z)
        np.testing.assert_allclose(a2, a1 / SQRT2, rtol=1e-15)

    def test_sech_pair(self):
        fam = sech_family()
        z = np.array([-1.0, 0.0, 2.5])
        a1, a2 = reduced_amplitudes(fam, z)
        np.testing.assert_allclose(a1, 1.0 / np.cosh(z), rtol=1e-14)
        np.testing.assert_allclose(a2, a1 / SQRT2, rtol=1e-15)

    def test_dark_bright_pair(self):
        fam = dark_bright_family(0.5)
        z = np.array([-3.0, 0.0, 1.0])
        a1, a2 = reduced_amplitudes(fam, z)
        np.testing.assert_allclose(a1, np.tanh(z) / SQRT2, rtol=1e-14)
        np.testing.assert_allclose(a2, 1.0 / np.cosh(z), rtol=1e-14)


def envelope_oracle(xi, chi, n):
    """rho A_1 of the elliptic pair from mpmath, straight from the
    definition: zeta = (sqrt(pi)/2) erfc(-xi) and A_1 = (a0/sqrt2) sn/dn
    (a0 zeta).  No half-period shift is used; the working precision grows
    with xi^2 so that a0 zeta keeps its distance to 2 n K on the right."""
    out = []
    for v in np.atleast_1d(xi):
        with mpmath.workdps(40 + int(float(v) ** 2 / 2.3)):
            v = mpmath.mpf(float(v))
            half = mpmath.mpf(1) / 2
            a0 = 2 * n * mpmath.ellipk(half) / mpmath.sqrt(mpmath.pi)
            u = a0 * mpmath.sqrt(mpmath.pi) / 2 * mpmath.erfc(-v)
            out.append(float(
                mpmath.exp(v * v / 2) / mpmath.sqrt(mpmath.mpf(float(chi)))
                * a0 / mpmath.sqrt(2)
                * mpmath.ellipfun("sn", u, m=half)
                / mpmath.ellipfun("dn", u, m=half)))
    return np.array(out)


class TestEllipticEnvelope:
    def test_matches_extended_precision_oracle(self):
        xi = np.array(sorted(TAIL_ORACLE))
        env = elliptic_envelope(xi, 1.0, 1)
        want = np.array([TAIL_ORACLE[float(v)] for v in xi])
        np.testing.assert_allclose(env, want, rtol=1e-12)

    def test_left_right_symmetry_ground_mode(self):
        xi = np.linspace(0.0, 9.0, 37)
        ep = elliptic_envelope(xi, 1.7, 1)
        em = elliptic_envelope(-xi, 1.7, 1)
        np.testing.assert_allclose(ep, em, rtol=1e-14)

    def test_right_tail_sign_alternates_with_mode(self):
        xi = np.array([-5.0, -0.5, 0.5, 5.0])
        for n, right in ((1, 1.0), (2, -1.0), (3, 1.0)):
            sign = np.sign(elliptic_envelope(xi, 1.0, n))
            np.testing.assert_array_equal(sign, [1.0, 1.0, right, right])

    def test_width_scaling(self):
        xi = np.array([-1.0, 0.0, 4.5])
        e1 = elliptic_envelope(xi, 1.0, 1)
        e4 = elliptic_envelope(xi, 4.0, 1)
        np.testing.assert_allclose(e4, e1 / 2.0, rtol=1e-14)

    def test_seam_against_direct_evaluation(self):
        # an independent cross-check: the direct route rho * A_1(zeta)
        # still holds ~7 digits just past |xi| = 4
        fam = elliptic_family(1)
        chi = 1.3
        xi = np.linspace(4.0, 4.3, 16)
        direct = rho_of(fam.stretch, xi * chi, chi) * reduced_amplitudes(
            fam, zeta_of(fam.stretch, xi * chi, chi)
        )[0]
        np.testing.assert_allclose(elliptic_envelope(xi, chi, 1), direct,
                                   rtol=1e-6)

    def test_vanishes_far_out(self):
        # erfc underflows long before the envelope does; the erfcx route
        # keeps producing the true sub-denormal-free value
        env = elliptic_envelope(np.array([30.0, -30.0]), 1.0, 1)
        assert 0.0 < env[0] == env[1] < 1e-190
        env = elliptic_envelope(np.array([40.0, -40.0]), 1.0, 2)
        np.testing.assert_array_equal(env, 0.0)  # underflows cleanly, no nan

    def test_fresh_oracle_point(self):
        # recompute one tail value from scratch at extended precision
        xi = 4.7
        env = elliptic_envelope(np.array([xi]), 1.0, 1)
        assert env[0] == pytest.approx(envelope_oracle(xi, 1.0, 1)[0],
                                       rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_assembled_fields_exact_to_rounding(self, n):
        # the core included: the error at every xi stays at the rounding
        # of the peak
        fam = elliptic_family(n)
        tr = default_trace(fam, "periodic", 1.0)
        t = 0.3
        chi, dchi, a = tr.chi_at(t), tr.dchi_dt_at(t), tr.a_at(t)
        xi_grid = np.concatenate([np.linspace(-8.0, 8.0, 81),
                                  [-30.0, -12.0, 12.0, 30.0]])
        x = chi * xi_grid
        xi = x / chi  # the xi the evaluator sees
        ref = envelope_oracle(xi, chi, n)
        scale = np.abs(ref).max()
        env_err = np.abs(elliptic_envelope(xi, chi, n) - ref).max() / scale
        assert env_err < 4e-15, env_err
        want = ref * np.exp(1j * eta_of(x, chi, dchi, a))
        got = assemble(fam, tr, x, t).psi1
        err = np.abs(got - want).max() / scale
        assert err < 4e-15, err


def assemble_oracle(family, trace, x, t):
    """The fields at one time, assembled the way the package did before its
    evaluator took a block of times."""
    x = np.asarray(x, dtype=float)
    chi = trace.chi_at(t)
    dchi = trace.dchi_dt_at(t)
    a = trace.a_at(t)
    phase = np.exp(1j * eta_of(x, chi, dchi, a))
    if family.kind == "elliptic":
        psi1 = elliptic_envelope(x / chi, chi, family.n) * phase
        return psi1, psi1 / SQRT2
    rho = rho_of(family.stretch, x, chi)
    zeta = zeta_of(family.stretch, x, chi)
    a1, a2 = reduced_amplitudes(family, zeta)
    return rho * a1 * phase, rho * a2 * phase


class TestAssembleRows:
    FAMILIES = (elliptic_family(1), elliptic_family(2), sech_family(),
                dark_bright_family(0.5))

    @pytest.mark.parametrize("drive", ["periodic", "quasiperiodic"])
    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f"{f.kind}-{f.n}")
    def test_rows_are_the_per_time_fields(self, fam, drive):
        tr = default_trace(fam, drive, 3.0)
        x = default_grid(fam, drive=drive).x
        rng = np.random.default_rng(21)
        times = np.concatenate([[0.0], np.linspace(0.05, 2.95, 25),
                                rng.uniform(0.0, 3.0, 6)])
        psi1, psi2 = assemble_rows(fam, tr, x, times)
        assert psi1.shape == psi2.shape == (len(times), len(x))
        for row, t in enumerate(times):
            want1, want2 = assemble_oracle(fam, tr, x, t)
            np.testing.assert_array_equal(psi1[row], want1)
            np.testing.assert_array_equal(psi2[row], want2)
            single = assemble(fam, tr, x, t)
            np.testing.assert_array_equal(single.psi1, want1)
            np.testing.assert_array_equal(single.psi2, want2)
            assert single.t == t

    def test_scalar_and_array_width(self):
        # elliptic_envelope takes chi per point as well as one chi for all
        xi = np.array([-6.0, 0.3, 4.5, 7.0])
        chi = np.array([0.5, 1.0, 1.5, 2.0])
        env = elliptic_envelope(xi, chi, 1)
        for k in range(len(xi)):
            assert env[k] == elliptic_envelope(xi[k:k + 1], float(chi[k]), 1)[0]


class TestAssembledFields:
    def test_elliptic_peak_and_ratio_lock(self):
        fam = elliptic_family(1)
        tr = default_trace(fam, "periodic", 3.0)
        g = default_grid(fam)
        for t in (0.0, 0.7, 2.9):
            fp = assemble(fam, tr, g.x, t)
            a0 = amplitude_a0(1)
            peak = np.abs(fp.psi1).max()
            assert peak == pytest.approx(a0 / math.sqrt(tr.chi_at(t)), rel=1e-10)
            np.testing.assert_array_equal(fp.psi2, fp.psi1 / SQRT2)

    def test_elliptic_even_profile(self):
        fam = elliptic_family(1)
        tr = default_trace(fam, "periodic", 1.0)
        x = np.linspace(-9.0, 9.0, 1001)
        fp = assemble(fam, tr, x, 0.55)
        np.testing.assert_allclose(
            np.abs(fp.psi1), np.abs(fp.psi1[::-1]), rtol=0, atol=1e-10
        )

    def test_elliptic_higher_mode_has_node_at_origin(self):
        fam = elliptic_family(2)
        tr = default_trace(fam, "periodic", 1.0)
        x = np.linspace(-6.0, 6.0, 601)  # odd count puts a point at x = 0
        fp = assemble(fam, tr, x, 0.0)
        mid = len(x) // 2
        assert abs(fp.psi1[mid]) < 1e-12
        # chi'(0) = 0 and a(0) = 0, so the field is real; sign flips across 0
        assert fp.psi1[mid - 5].real * fp.psi1[mid + 5].real < 0

    def test_elliptic_tail_is_tiny_but_structured(self):
        fam = elliptic_family(1)
        tr = default_trace(fam, "periodic", 1.0)
        x = np.array([8.0, 9.0, 9.9])
        fp = assemble(fam, tr, x, 0.0)
        mags = np.abs(fp.psi1)
        assert np.all(mags > 0) and np.all(mags < 1e-3)
        assert mags[0] > mags[1] > mags[2]

    def test_norm_is_time_invariant(self):
        fam = elliptic_family(1)
        tr = default_trace(fam, "periodic", 3.0)
        g = default_grid(fam)
        n0, n1 = [[float(np.sum(np.abs(psi) ** 2) * g.dx)
                   for psi in (fp.psi1, fp.psi2)]
                  for fp in (assemble(fam, tr, g.x, t) for t in (0.0, 1.3))]
        assert n0[0] == pytest.approx(n1[0], rel=1e-9)
        assert n0[1] == pytest.approx(n1[1], rel=1e-9)
        assert n0[1] == pytest.approx(n0[0] / 2.0, rel=1e-12)

    def test_sech_localized_and_proportional(self):
        fam = sech_family()
        tr = default_trace(fam, "periodic", 2.0)
        g = default_grid(fam)
        fp = assemble(fam, tr, g.x, 1.1)
        assert abs(fp.psi1[0]) < 1e-20 and abs(fp.psi1[-1]) < 1e-20
        peak = np.abs(fp.psi1).max()
        assert peak == pytest.approx(1.0 / math.sqrt(tr.chi_at(1.1)), rel=1e-8)
        np.testing.assert_allclose(fp.psi2, fp.psi1 / SQRT2, rtol=0, atol=1e-15)

    def test_dark_bright_background_level(self):
        fam = dark_bright_family(0.5)
        tr = default_trace(fam, t_end=5.0)
        g = default_grid(fam)
        for t in (0.0, 2.0, 4.5):
            fp = assemble(fam, tr, g.x, t)
            chi = tr.chi_at(t)
            want = 1.0 / (2.0 * chi)
            assert abs(fp.psi1[0]) ** 2 == pytest.approx(want, abs=1e-6)
            assert abs(fp.psi1[-1]) ** 2 == pytest.approx(want, abs=1e-6)
            # bright component dies off
            assert abs(fp.psi2[0]) < 1e-4

    def test_dark_core_vanishes_at_origin(self):
        fam = dark_bright_family(0.5)
        tr = default_trace(fam, t_end=1.0)
        x = np.linspace(-15.0, 15.0, 751)
        fp = assemble(fam, tr, x, 0.3)
        mid = len(x) // 2
        assert abs(fp.psi1[mid]) < 1e-14
        # bright peak sits in the dark notch
        assert np.argmax(np.abs(fp.psi2)) == mid

    def test_phase_is_quadratic(self):
        fam = sech_family()
        tr = default_trace(fam, "periodic", 2.0)
        x = np.linspace(-5.0, 5.0, 41)
        t = 0.9
        fp = assemble(fam, tr, x, t)
        chi, dchi, a = tr.chi_at(t), tr.dchi_dt_at(t), tr.a_at(t)
        want = (dchi / (4 * chi)) * x * x + a
        got = np.angle(fp.psi1)
        # compare mod 2 pi
        diff = np.angle(np.exp(1j * (got - want)))
        np.testing.assert_allclose(diff, 0.0, atol=1e-12)


class TestDefaults:
    def test_grids(self):
        # every (family, purpose, drive) half-width, as the boxes were sized
        want = {  # purpose: (periodic, quasiperiodic)
            "elliptic": {"export": (10.0, 10.0), "propagate": (12.0, 16.0),
                         "residual": (14.0, 19.0)},
            "sech": {"export": (20.0, 24.0), "propagate": (20.0, 24.0),
                     "residual": (25.0, 38.0)},
            "dark_bright": {"export": (15.0, 15.0),
                            "propagate": (15.0, 15.0),
                            "residual": (12.0, 12.0)},
        }
        families = {"elliptic": elliptic_family(1), "sech": sech_family(),
                    "dark_bright": dark_bright_family(0.1)}
        got = {kind: {purpose: tuple(
                   default_grid(fam, purpose, drive=drive).half_width
                   for drive in ("periodic", "quasiperiodic"))
                   for purpose in ("export", "propagate", "residual")}
               for kind, fam in families.items()}
        assert got == want
        assert default_grid(elliptic_family(1)).half_width == 10.0
        assert default_grid(sech_family()).n_points == 1024
        with pytest.raises(ValidationError):
            default_grid(sech_family(), "plot")

    def test_traces(self):
        # the closed form, the integrated oscillator and the two-tone width
        closed = default_trace(elliptic_family(1), "periodic", 1.0)
        assert closed.drive == (0.0, 0.0) and closed.path is None
        quasi = default_trace(elliptic_family(1), "quasiperiodic", 1.0)
        assert quasi.drive == (0.5, 1.0)
        assert quasi.path is not None
        two_tone = default_trace(dark_bright_family(0.2), t_end=1.0)
        assert two_tone.drive is None and two_tone.path is None

    @pytest.mark.parametrize("family", [elliptic_family(1), sech_family(),
                                        dark_bright_family(0.5)],
                             ids=lambda f: f.kind)
    def test_unknown_drive_refused_for_every_family(self, family):
        # the dark-bright width ignores the drive, but an unknown one is
        # still a mistake to name, not to run through
        with pytest.raises(ValidationError, match="unknown drive 'chirp'"):
            default_trace(family, "chirp", 1.0)

    @pytest.mark.parametrize("build", [
        lambda drive: mathieu_trace(drive, 1.0),
        lambda drive: default_trace(sech_family(), drive, 1.0),
        lambda drive: default_grid(sech_family(), "residual", drive=drive),
    ], ids=["mathieu_trace", "default_trace", "default_grid"])
    def test_one_drive_vocabulary(self, build):
        # every drive name in the package is one of DRIVES, and a name
        # outside them is refused with them named
        for drive in modcnls.DRIVES:
            build(drive)
        with pytest.raises(ValidationError, match=(
                "unknown drive 'constant'; choose from "
                + ", ".join(modcnls.DRIVES) + "$")):
            build("constant")

    @pytest.mark.parametrize("purpose", ["export", "propagate", "residual"])
    @pytest.mark.parametrize("family", [elliptic_family(1), sech_family(),
                                        dark_bright_family(0.5)],
                             ids=lambda f: f.kind)
    def test_grid_refuses_an_unknown_drive(self, family, purpose):
        # an unknown drive is named, not given the periodic box
        with pytest.raises(ValidationError, match="unknown drive 'chirp'"):
            default_grid(family, purpose, drive="chirp")
