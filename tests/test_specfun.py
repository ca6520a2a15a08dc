"""Special-function layer checked against independent oracles.

Oracles used here, none of which share code with the implementation:
* erf: Maclaurin series summed term by term with math.fsum.
* K(k): mpmath.ellipk (note mpmath takes m = k^2).
* sn/cn/dn: RK4 integration of the defining system sn' = cn dn,
  cn' = -sn dn, dn' = -k^2 sn cn from the origin.
* mpmath spot values for the erf family tails, and dense mpmath grids
  across the range breakpoints of the erf kernel (|x| = 0.46875 and 4).
* scipy.special.ellipj for sn/cn/dn at the package's modulus 1/sqrt(2).
* For the complex step, the closed-form derivatives of erf, erfc, erfcx,
  erfi and sn/cn/dn, and scipy.special.erf and erfi off the real axis.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.special
from scipy.special import ellipj

from modcnls.families import default_grid, default_trace, sech_family
from modcnls.modulation import closed_form_trace, mathieu_trace
from modcnls.transform import StretchSpec
from modcnls.specfun import (
    _agm_ladder,
    _exp_sq,
    ellip_k,
    erf,
    erfc,
    erfcx,
    erfi,
    jacobi_elliptic,
)

mpmath.mp.dps = 30


def erf_series_oracle(x, terms=60):
    # Maclaurin: erf x = (2/sqrt(pi)) sum (-1)^n x^(2n+1) / (n! (2n+1))
    acc = []
    term = x
    for n in range(terms):
        acc.append(term / (2 * n + 1))
        term *= -x * x / (n + 1)
    return 2.0 / math.sqrt(math.pi) * math.fsum(acc)


def erfi_full_series(x):
    # erfi's own term recurrence, summed on far past convergence: every
    # term after the first 12 sqrt(x^2 + 4) beyond the peak adds nothing
    x2 = x * x
    term = total = abs(x)
    for n in range(1, int(x2 + 12.0 * math.sqrt(x2 + 4.0)) + 48):
        term = term * x2 * (2 * n - 1) / (n * (2 * n + 1))
        total += term
    return math.copysign(2.0 / math.sqrt(math.pi) * total, x)


def sech_dump_erfi_block():
    # erfi's argument xi / (sqrt(3) gamma) on the quasiperiodic sech dump's
    # export grid at the smallest width of its snapshots (t = 5.75 of 0,
    # 0.25, ..., 10), its widest block: the elements converge at six
    # different checks of the series
    family = sech_family()
    trace = default_trace(family, "quasiperiodic", t_end=10.0)
    chi = trace.chi_at(0.25 * np.arange(41)).min()
    xi = default_grid(family, "export", drive="quasiperiodic").x / chi
    return xi / (family.stretch.gamma * math.sqrt(3.0))


def jacobi_ode_oracle(u_max, k, h=1e-3, record_every=10):
    """Integrate sn' = cn dn, cn' = -sn dn, dn' = -k^2 sn cn by RK4."""
    def rhs(y):
        s, c, d = y
        return np.array([c * d, -s * d, -k * k * s * c])

    y = np.array([0.0, 1.0, 1.0])
    n = int(round(u_max / h))
    us, vals = [0.0], [y.copy()]
    for i in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if (i + 1) % record_every == 0:
            us.append((i + 1) * h)
            vals.append(y.copy())
    return np.array(us), np.array(vals)


class TestErfFamily:
    def test_erf_against_series_oracle(self):
        xs = np.linspace(-2.0, 2.0, 41)
        for x in xs:
            want = erf_series_oracle(float(x))
            got = erf(float(x))
            assert abs(got - want) < 1e-14, f"erf({x}) = {got}, oracle {want}"

    def test_erf_frozen_value(self):
        # oracle value, frozen: erf(1) from the 60-term series
        assert abs(erf(1.0) - 0.8427007929497148) < 1e-15

    def test_erf_odd_and_bounded(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-8, 8, 500)
        np.testing.assert_array_equal(erf(-x), -erf(x))
        assert np.all(np.abs(erf(x)) <= 1.0)
        assert erf(10.0) == 1.0 and erf(-10.0) == -1.0
        assert erf(0.0) == 0.0

    def test_erfc_complement_identity(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(-6, 6, 400)
        np.testing.assert_allclose(erfc(x) + erf(x), 1.0, rtol=0, atol=1e-13)

    def test_erfc_tail_against_mpmath(self):
        for x in [2.5, 4.0, 6.0, 10.0, 15.0, 26.6]:
            want = float(mpmath.erfc(x))
            got = erfc(x)
            assert abs(got - want) <= 1e-12 * want, f"erfc({x}): {got} vs {want}"

    def test_erfcx_consistency_and_asymptote(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-3, 5, 300)
        np.testing.assert_allclose(
            erfcx(x), erfc(x) * np.exp(x * x), rtol=5e-13, atol=0
        )
        # x sqrt(pi) erfcx(x) -> 1 from below as x grows
        big = np.array([50.0, 200.0, 1e4])
        scaled = big * math.sqrt(math.pi) * erfcx(big)
        assert np.all(scaled < 1.0) and np.all(scaled > 1.0 - 1.0 / big**2)

    def test_erfcx_negative_overflow(self):
        # 2 exp(x^2) dominates; overflow must surface as inf, not an error
        assert erfcx(-27.0) == np.inf
        assert abs(erfcx(-2.0) - float(mpmath.erfc(-2) * mpmath.exp(4))) < 1e-10

    def test_erfi_against_mpmath(self):
        for x in [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 26.0]:
            want = float(mpmath.erfi(x))
            got = erfi(x)
            assert abs(got - want) <= 1e-13 * want, f"erfi({x}): {got} vs {want}"

    def test_erfi_block_is_each_element_alone(self):
        # a block sums on to its slowest element, and every element keeps
        # the bits its own convergence gave
        rng = np.random.default_rng(15)
        for x in (np.concatenate([rng.uniform(-26.4, 26.4, 200),
                                  [0.0, 1e-300, 0.3, 3.0, 26.4]]),
                  sech_dump_erfi_block()):
            block = erfi(x)
            alone = np.array([erfi(float(v)) for v in x])
            np.testing.assert_array_equal(block.view(np.int64),
                                          alone.view(np.int64))
            np.testing.assert_array_equal(
                block.view(np.int64),
                np.array([erfi_full_series(v) for v in x]).view(np.int64))

    def test_erfi_odd_zero_overflow(self):
        assert erfi(0.0) == 0.0
        rng = np.random.default_rng(14)
        x = rng.uniform(0, 20, 100)
        np.testing.assert_array_equal(erfi(-x), -erfi(x))
        assert erfi(27.0) == np.inf and erfi(-27.0) == -np.inf

    def test_scalar_and_array_round_trip(self):
        assert isinstance(erf(0.5), float)
        out = erf(np.array([0.0, 0.5]))
        assert isinstance(out, np.ndarray) and out.shape == (2,)

    def test_non_finite_rejected(self):
        for fn in (erf, erfc, erfcx, erfi):
            with pytest.raises(ValueError):
                fn(np.nan)
            with pytest.raises(ValueError):
                fn(np.array([0.0, np.inf]))


class TestComplexArgument:
    """Every function of x takes complex x in its analytic kernel, on the
    branch of Re x, so the complex step Im f(x + ih) / h is f'(x); what
    cannot take it says so."""

    H = 1e-30

    @pytest.mark.parametrize("fn, half, slope, rtol", [
        (erf, 6.0, lambda x: np.exp(-x * x), 1e-14),
        (erfc, 6.0, lambda x: -np.exp(-x * x), 1e-14),
        # erfcx' = 2x erfcx - 2/sqrt(pi), whose two terms cancel 20-fold
        # near x = 4, so the oracle itself is good to 2e-14 there
        (erfcx, 6.0, lambda x: math.sqrt(math.pi) * x * erfcx(x) - 1.0,
         1e-13),
        (erfi, 20.0, lambda x: np.exp(x * x), 1e-14),
    ], ids=["erf", "erfc", "erfcx", "erfi"])
    def test_complex_step_is_the_derivative(self, fn, half, slope, rtol):
        # across every range of the Cody kernel and the erfi series; the
        # real part is the real function's value to rounding (numpy divides
        # a complex by a real through a reciprocal, so not bit for bit)
        x = np.concatenate([np.linspace(-half, half, 4001),
                            [0.0, -0.0, 0.46875, -0.46875, 4.0, -4.0]])
        z = fn(x + 1j * self.H)
        want = 2.0 / math.sqrt(math.pi) * slope(x)
        np.testing.assert_allclose(z.imag / self.H, want, rtol=rtol, atol=0)
        np.testing.assert_allclose(z.real, fn(x), rtol=1e-14, atol=1e-300)

    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0 / math.sqrt(2.0), 1.0])
    def test_jacobi_complex_step_is_the_derivative(self, k):
        # sn' = cn dn, cn' = -sn dn, dn' = -k^2 sn cn over three periods,
        # the circular and hyperbolic limits included
        u = np.linspace(-12.0, 12.0, 4001)
        sn, cn, dn = jacobi_elliptic(u + 1j * self.H, k)
        s, c, d = jacobi_elliptic(u, k)
        for got, want in ((sn, c * d), (cn, -s * d), (dn, -k * k * s * c)):
            np.testing.assert_allclose(got.imag / self.H, want, rtol=0,
                                       atol=2e-15)
        for got, want in ((sn, s), (cn, c), (dn, d)):
            np.testing.assert_allclose(got.real, want, rtol=0, atol=1e-15)

    def test_real_argument_keeps_the_real_kernels_bits(self):
        # on 500,000 real points each function gives the bits of its form
        # before it took complex x: erfc and erfcx fold x < 0 onto |x|,
        # jacobi_elliptic reduces u by its own period, and its k = 1 limit
        # is sech from exp(-|u|)
        rng = np.random.default_rng(19)
        x = np.concatenate([rng.uniform(-26.0, 26.0, 499_990),
                            [0.0, -0.0, 0.46875, -0.46875, 4.0, -4.0,
                             26.0, -26.0, 1e-300, -1e-300]])
        ax = np.abs(x)
        c = erfc(ax)
        assert erfc(x).tobytes() == np.where(x < 0, 2.0 - c, c).tobytes()
        cx = erfcx(ax)
        folded = np.where(x < 0, 2.0 * _exp_sq(ax, 1.0) - cx, cx)
        assert erfcx(x).tobytes() == folded.tobytes()
        k = 1.0 / math.sqrt(2.0)
        for got, want in zip(jacobi_elliptic(x, k),
                             jacobi_clipped_oracle(x, k)):
            assert got.tobytes() == want.tobytes()
        e = np.exp(-ax)
        sech = 2.0 * e / (1.0 + e * e)
        for got, want in zip(jacobi_elliptic(x, 1.0),
                             (np.tanh(x), sech, sech)):
            assert got.tobytes() == want.tobytes()

    def test_off_the_axis_against_scipy(self):
        rng = np.random.default_rng(16)
        z = rng.uniform(-5, 5, 2000) + 1j * rng.uniform(-0.3, 0.3, 2000)
        np.testing.assert_allclose(erf(z), scipy.special.erf(z), rtol=1e-13)
        w = rng.uniform(-5, 5, 2000) + 1j * rng.uniform(-0.3, 0.3, 2000)
        np.testing.assert_allclose(erfi(w), scipy.special.erfi(w),
                                   rtol=1e-13)
        assert isinstance(erf(0.5 + 0.5j), complex)

    @pytest.mark.parametrize("name, fn, slope", [
        ("erf", erf, lambda x: 2.0 / math.sqrt(math.pi) * math.exp(-x * x)),
        ("erfi", erfi, lambda x: 2.0 / math.sqrt(math.pi) * math.exp(x * x)),
        ("fprime", StretchSpec("gaussian").fprime,
         lambda x: -2.0 * x * math.exp(-x * x)),
        # zeta' = F' for the inverse-gaussian stretch, through erfi
        ("zeta", StretchSpec("inverse_gaussian", gamma=2.0).zeta,
         lambda x: math.exp(x * x / 12.0)),
        ("erfc", erfc,
         lambda x: -2.0 / math.sqrt(math.pi) * math.exp(-x * x)),
        ("erfcx", erfcx,
         lambda x: 2.0 * x * float(erfcx(x)) - 2.0 / math.sqrt(math.pi)),
        ("jacobi_elliptic", lambda u: jacobi_elliptic(u, 0.5).sn,
         lambda u: float(np.prod(jacobi_elliptic(u, 0.5)[1:]))),
        ("ModulationTrace.at", lambda t: closed_form_trace().at(t).chi,
         closed_form_trace().dchi_dt_at),
        ("ModulationTrace.chi_at",
         lambda t: mathieu_trace("quasiperiodic", 1.0).chi_at(t),
         lambda t: mathieu_trace("quasiperiodic", 1.0).dchi_dt_at(t)),
    ], ids=["erf", "erfi", "fprime", "zeta", "erfc", "erfcx",
            "jacobi_elliptic", "closed_form_at", "mathieu_chi_at"])
    def test_complex_input_is_computed_or_refused_by_name(self, name, fn,
                                                          slope):
        # no complex value loses its imaginary part silently: each function
        # carries it, as the complex step needs, and none refuses it
        z = np.array([0.7 + 1j * self.H])
        assert fn(z).imag[0] / self.H == pytest.approx(slope(0.7), rel=1e-14)


def around(x0, half_width=0.05, n=201):
    """Dense grid through x0 that contains x0 and its two neighbours."""
    grid = np.linspace(x0 - half_width, x0 + half_width, n)
    return np.concatenate([grid, [np.nextafter(x0, -1.0), x0,
                                  np.nextafter(x0, 10.0)]])


class TestErfBreakpoints:
    """erf, erfc and erfcx against mpmath where the kernel switches range."""

    GRID = np.concatenate([around(0.46875), around(4.0)])

    @staticmethod
    def ref(fn, x):
        return float(fn(mpmath.mpf(float(x))))

    def test_erf_both_signs(self):
        for x in np.concatenate([self.GRID, -self.GRID]):
            want = self.ref(mpmath.erf, x)
            assert abs(erf(x) - want) <= 4e-16 * max(1.0, abs(want)), x

    def test_erfc_relative_both_signs(self):
        for x in np.concatenate([self.GRID, -self.GRID]):
            want = self.ref(mpmath.erfc, x)
            assert abs(erfc(x) - want) <= 1e-15 * want, x

    def test_erfcx_relative_both_signs(self):
        scaled = lambda z: mpmath.erfc(z) * mpmath.exp(z * z)  # noqa: E731
        for x in np.concatenate([self.GRID, -self.GRID]):
            want = self.ref(scaled, x)
            assert abs(erfcx(x) - want) <= 1e-15 * want, x

    def test_erfc_tail_to_underflow(self):
        # past x ~ 26.55 erfc leaves the normal range of doubles
        for x in np.linspace(4.0, 26.5, 451):
            want = self.ref(mpmath.erfc, x)
            assert abs(erfc(x) - want) <= 1e-15 * want, x
        assert erfc(27.5) == 0.0 and erfc(1e300) == 0.0
        assert erf(1e300) == 1.0 and erfc(-1e300) == 2.0

    def test_erfcx_far_tail(self):
        scaled = lambda z: mpmath.erfc(z) * mpmath.exp(z * z)  # noqa: E731
        for x in np.concatenate([np.linspace(4.0, 50.0, 231),
                                 [1e3, 1e6, 1e10]]):
            want = self.ref(scaled, x)
            assert abs(erfcx(x) - want) <= 1e-15 * want, x
        for x in np.linspace(-26.0, -4.0, 111):
            want = self.ref(scaled, x)
            assert abs(erfcx(x) - want) <= 1e-15 * want, x
        assert erfcx(-1e300) == np.inf

    def test_array_matches_scalar_across_ranges(self):
        # one call spanning all three ranges masks and scatters correctly
        x = np.linspace(-6.0, 6.0, 1203).reshape(3, 401)
        for fn in (erf, erfc, erfcx):
            got = fn(x)
            assert got.shape == x.shape
            want = np.array([fn(float(v)) for v in x.ravel()]).reshape(x.shape)
            np.testing.assert_array_equal(got, want)


class TestEllipK:
    def test_frozen_values(self):
        # oracle values, frozen: mpmath.ellipk(k^2)
        assert abs(ellip_k(0.5) - 1.685750354812596) < 1e-14
        assert abs(ellip_k(1.0 / math.sqrt(2.0)) - 1.8540746773013717) < 1e-14

    def test_against_mpmath_sweep(self):
        # square the modulus at extended precision; in double it sheds
        # digits that matter near k = 1
        for k in [0.0, 0.1, 0.3, 0.6, 0.9, 0.99, 0.9999]:
            want = float(mpmath.ellipk(mpmath.mpf(k) ** 2))
            assert abs(ellip_k(k) - want) <= 1e-14 * want, f"K({k})"

    def test_k_zero_is_quarter_circle(self):
        assert ellip_k(0.0) == math.pi / 2.0

    def test_monotone(self):
        ks = np.linspace(0, 0.999, 200)
        vals = np.array([ellip_k(float(k)) for k in ks])
        assert np.all(np.diff(vals) > 0)

    def test_domain(self):
        for bad in (-0.1, 1.0, 1.5, np.nan):
            with pytest.raises(ValueError):
                ellip_k(bad)


def jacobi_clipped_oracle(u, k):
    """sn, cn, dn by the package's phase recurrence with the arcsin argument
    clipped to [-1, 1], as it ran before the clip was dropped."""
    period = 4.0 * ellip_k(k)
    u_red = u - period * np.round(u / period)
    a_list, c_list = _agm_ladder(k)
    n_stages = len(a_list) - 1
    phi = (2.0**n_stages) * a_list[n_stages] * u_red
    for n in range(n_stages, 0, -1):
        ratio = c_list[n] / a_list[n]
        phi = 0.5 * (phi + np.arcsin(np.clip(ratio * np.sin(phi), -1.0, 1.0)))
    sn = np.sin(phi)
    return sn, np.cos(phi), np.sqrt(1.0 - (k * sn) * (k * sn))


class TestJacobiElliptic:
    @pytest.mark.parametrize("k", [1e-9, 0.1, 0.5, 1.0 / math.sqrt(2.0),
                                   0.9, 0.999, 1.0 - 1e-9])
    def test_unclipped_recurrence_is_the_clipped_one(self, k):
        # c_n / a_n < 1 and |sin phi| <= 1: the clip never acted
        big_k = ellip_k(k)
        u = np.concatenate([np.linspace(-6.5 * big_k, 6.5 * big_k, 20001),
                            big_k * np.arange(-6.0, 7.0)])
        for got, want in zip(jacobi_elliptic(u, k),
                             jacobi_clipped_oracle(u, k)):
            np.testing.assert_array_equal(got, want)

    def test_against_ode_oracle(self):
        for k in (0.3, 1.0 / math.sqrt(2.0), 0.95):
            us, vals = jacobi_ode_oracle(6.0, k)
            sn, cn, dn = jacobi_elliptic(us, k)
            err = max(
                np.abs(sn - vals[:, 0]).max(),
                np.abs(cn - vals[:, 1]).max(),
                np.abs(dn - vals[:, 2]).max(),
            )
            assert err < 1e-9, f"k={k}: ODE oracle mismatch {err:.3e}"

    def test_quarter_period_values(self):
        k = 1.0 / math.sqrt(2.0)
        K = ellip_k(k)
        sn, cn, dn = jacobi_elliptic(K, k)
        assert abs(sn - 1.0) < 1e-12
        assert abs(cn) < 1e-12
        assert abs(dn - math.sqrt(1 - k * k)) < 1e-12

    def test_pythagorean_identities(self):
        rng = np.random.default_rng(15)
        u = rng.uniform(-40, 40, 600)
        for k in (0.2, 0.7, 0.99):
            sn, cn, dn = jacobi_elliptic(u, k)
            np.testing.assert_allclose(sn**2 + cn**2, 1.0, rtol=0, atol=5e-15)
            np.testing.assert_allclose(
                dn**2 + (k * sn) ** 2, 1.0, rtol=0, atol=5e-15
            )
            assert np.all(dn >= math.sqrt(1 - k * k) - 1e-12)

    def test_periodicity(self):
        k = 0.8
        period = 4.0 * ellip_k(k)
        rng = np.random.default_rng(16)
        u = rng.uniform(0, period, 200)
        for shift in (1, 3):
            a = jacobi_elliptic(u, k)
            b = jacobi_elliptic(u + shift * period, k)
            for x, y in zip(a, b):
                np.testing.assert_allclose(x, y, rtol=0, atol=1e-8)

    def test_degenerate_moduli(self):
        u = np.linspace(-5, 5, 101)
        sn, cn, dn = jacobi_elliptic(u, 0.0)
        np.testing.assert_allclose(sn, np.sin(u), atol=1e-15)
        np.testing.assert_allclose(cn, np.cos(u), atol=1e-15)
        np.testing.assert_allclose(dn, 1.0, atol=0)
        sn, cn, dn = jacobi_elliptic(u, 1.0)
        np.testing.assert_allclose(sn, np.tanh(u), atol=1e-15)
        np.testing.assert_allclose(cn, 1.0 / np.cosh(u), atol=1e-15)
        np.testing.assert_allclose(dn, 1.0 / np.cosh(u), atol=1e-15)

    def test_small_argument_ratio(self):
        # sn(u)/u -> 1; the assembled fields divide by this ratio near zeros
        k = 1.0 / math.sqrt(2.0)
        for u in (1e-12, 1e-8, 1e-4):
            sn, _, _ = jacobi_elliptic(u, k)
            assert abs(sn / u - 1.0) < 1e-7

    def test_odd_even_symmetry(self):
        rng = np.random.default_rng(17)
        u = rng.uniform(0, 30, 200)
        k = 0.6
        sp, cp, dp = jacobi_elliptic(u, k)
        sm, cm, dm = jacobi_elliptic(-u, k)
        np.testing.assert_allclose(sm, -sp, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cm, cp, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dm, dp, rtol=0, atol=1e-12)

    def test_agm_ladder_stops_early_at_package_modulus(self):
        # c_n stalls near one ulp of a_n - b_n (5.6e-17 here), so only a
        # relative stop ends the ladder; five stages reach c_n <= eps a_n
        k = 1.0 / math.sqrt(2.0)
        a_list, c_list = _agm_ladder(k)
        assert len(a_list) - 1 <= 6
        assert c_list[-1] <= np.finfo(float).eps * a_list[-1]
        u = np.linspace(-12.0, 12.0, 2001)
        want = ellipj(u, k * k)[:3]  # scipy takes m = k^2
        for got, ref in zip(jacobi_elliptic(u, k), want):
            np.testing.assert_allclose(got, ref, rtol=0, atol=2e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            jacobi_elliptic(0.5, 1.2)
        with pytest.raises(ValueError):
            jacobi_elliptic(0.5, -0.1)
        with pytest.raises(ValueError):
            jacobi_elliptic(np.inf, 0.5)

    def test_triple_is_named(self):
        out = jacobi_elliptic(0.3, 0.5)
        assert out.sn == out[0] and out.cn == out[1] and out.dn == out[2]
