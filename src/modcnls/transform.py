"""Similarity transform between the modulated and constant-coefficient systems.

A solution A_j(zeta) of the constant-coefficient system
mu_j A_j = -A_j'' + sum_k G_jk |A_k|^2 A_j is carried to the modulated
equation by psi_j = rho(x,t) exp(i eta(x,t)) A_j(zeta(x,t)) with

    xi = x / chi(t),   zeta = F(xi),   rho = 1 / sqrt(chi F'(xi)),
    eta = (chi'/(4 chi)) x^2 + a(t),

which forces three compatibility constraints on (rho, eta, zeta):

    continuity   rho rho_t + (rho^2 eta_x)_x = 0
    advection    zeta_t + 2 eta_x zeta_x = 0
    flux         (rho^2 zeta_x)_x = 0

and fixes the trap and couplings as

    v_j = rho_xx/rho - eta_t - eta_x^2 - mu_j zeta_x^2
    g_jk = G_jk zeta_x^2 / rho^2 = G_jk F'(xi)^3 / chi.

Everything here is closed-form in (xi, chi, chi', chi'', a'), and
CoefficientSampler is the one production path to the traps and couplings.
verify_constraints recomputes the three constraints on a space-time
lattice as an independent check, walked in blocks of whole rows in the
calling process, each block's residuals 2-D arrays as the constraints
read: x derivatives by interior_diff, the package's one stencil routine,
time derivatives exact to rounding as the complex step Im f(t + ih) / h of
the fields at complex t (Squire & Trapp, SIAM Rev. 40, 110, 1998).
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.array_utils import normalize_axis_index

from .errors import LatticeTooCoarseError, ValidationError
from .modulation import drive_f
from .specfun import erf, erfi

_SQRT_PI = math.sqrt(math.pi)
_SQRT3 = math.sqrt(3.0)
_EXP_CLIP = 700.0
# lattice points in a verify_constraints block, 200 kB a real field; the
# walk's working memory is a fixed multiple of it
_BLOCK_POINTS = 25_000
# neighbours on each side that interior_diff and every x stencil read; the
# trims of the x stencils follow from it
STENCIL_DEPTH = 4
# h of the complex steps; h^2 is far below an ulp, so Re f(t + ih) = f(t)
COMPLEX_STEP = 1e-30

STRETCH_KINDS = ("gaussian", "inverse_gaussian", "flat_bump")


def _clipped_exp(arg):
    return np.exp(np.minimum(arg, _EXP_CLIP))


@dataclass(frozen=True)
class StretchSpec:
    """Spatial stretch zeta = F(x/chi), defined through F' > 0.

    gaussian            F' = exp(-xi^2)            (localizing, bounded zeta)
    inverse_gaussian    F' = exp(+xi^2 / 3 gamma^2) (anti-localizing)
    flat_bump           F' = 1 + lam exp(-xi^2)     (asymptotically identity)

    fprime and zeta continue to complex xi, for the complex-step checks.
    """

    kind: str
    gamma: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in STRETCH_KINDS:
            raise ValueError(f"StretchSpec: unknown kind {self.kind!r}")
        if self.kind == "inverse_gaussian" and not self.gamma > 0:
            raise ValueError("StretchSpec: gamma must be positive")
        if self.kind == "flat_bump" and not self.lam > -1.0:
            raise ValueError("StretchSpec: lam must exceed -1 to keep F' > 0")

    def fprime(self, xi, power=1):
        """F'(xi) ** power; the exponential stretches take the power inside
        the exponent, so the clip bounds the argument of the result."""
        xi = np.asarray(xi)
        if self.kind == "gaussian":
            return np.exp(-power * xi * xi)
        if self.kind == "inverse_gaussian":
            return _clipped_exp(power * xi * xi / (3.0 * self.gamma**2))
        return (1.0 + self.lam * np.exp(-xi * xi)) ** power

    def zeta(self, xi):
        xi = np.asarray(xi)
        if self.kind == "gaussian":
            return 0.5 * _SQRT_PI * (1.0 + erf(xi))
        if self.kind == "inverse_gaussian":
            return 0.5 * self.gamma * math.sqrt(3.0 * math.pi) * erfi(
                xi / (self.gamma * _SQRT3)
            )
        return xi + 0.5 * _SQRT_PI * self.lam * erf(xi)

    def curvature_term(self, xi):
        """chi^2 rho_xx / rho as a function of xi alone."""
        xi = np.asarray(xi, dtype=float)
        if self.kind == "gaussian":
            return 1.0 + xi * xi
        if self.kind == "inverse_gaussian":
            g2 = self.gamma**2
            return xi * xi / (9.0 * g2 * g2) - 1.0 / (3.0 * g2)
        e = self.lam * np.exp(-xi * xi)
        w = 1.0 + e
        return (e / w) * (1.0 + (e - 2.0) * xi * xi / w)


def xi_of(x, chi):
    if not np.all(np.asarray(chi) > 0):
        raise ValueError("xi_of: chi must be positive")
    return np.asarray(x, dtype=float) / chi


def rho_of(stretch: StretchSpec, x, chi):
    """Amplitude envelope 1 / sqrt(chi F'(x/chi))."""
    return 1.0 / np.sqrt(chi * stretch.fprime(xi_of(x, chi)))


def zeta_of(stretch: StretchSpec, x, chi):
    return stretch.zeta(xi_of(x, chi))


def eta_of(x, chi, dchi_dt, a):
    x = np.asarray(x, dtype=float)
    return (dchi_dt / (4.0 * chi)) * x * x + a


def potential_from_transform(family, trace, x, t):
    """Trap from the transform algebra; no per-family shortcuts.

    v_j = rho_xx/rho - (chi''/(4 chi)) x^2 - a' - mu_j F'(xi)^2 / chi^2,
    valid because eta_t + eta_x^2 telescopes to (chi''/(4 chi)) x^2 + a'.
    """
    x = np.asarray(x, dtype=float)
    chi, _, d2chi, _, adot = trace.at(t)
    xi = x / chi
    s = family.stretch
    base = s.curvature_term(xi) / chi**2 - (d2chi / (4.0 * chi)) * x * x - adot
    zx2 = s.fprime(xi, 2) / chi**2
    return np.stack([base - mu_j * zx2 for mu_j in family.mu])


class CoefficientSampler:
    """Samples v_j(x, t) and g_jk(x, t) for a family along a width trace;
    the traps are the published closed forms.

    gaussian stretch: the width equation collapses everything to f(t) x^2.
    inverse_gaussian: harmonic part plus a shifted-Gaussian well per component.
    flat_bump: harmonic part plus a localized dip independent of component.

    The gaussian form holds only for a width that solves the Ermakov-Pinney
    equation of a drive f, and the flat_bump form only for a prescribed
    width (a' = 0) and mu = (0, 0); any other pairing is refused with a
    ValidationError when the sampler is made.  The inverse_gaussian form
    holds for every width.  The coupling matrix is shaped once, not per
    sample, and chi comes from the trace, whose widths are positive by
    construction, so a sample repeats no check.
    """

    def __init__(self, family, trace):
        kind = family.stretch.kind
        if kind == "gaussian" and trace.drive is None:
            raise ValidationError(
                f"CoefficientSampler: the {family.kind} trap f(t) x^2 holds "
                f"only for a width that solves the Ermakov-Pinney equation "
                f"of its drive f; got a prescribed width (drive None)")
        if kind == "flat_bump" and (trace.drive is not None
                                    or tuple(family.mu) != (0.0, 0.0)):
            raise ValidationError(
                f"CoefficientSampler: the {family.kind} flat-bump trap holds "
                f"only for a prescribed width (a' = 0, drive None) and "
                f"mu = (0, 0); got drive {trace.drive} and mu = {family.mu}")
        self.family = family
        self.trace = trace
        self._g = np.asarray(family.g_matrix, dtype=float)[:, :, None]

    def potential(self, x, t):
        """Trap profiles v_1, v_2 at time t, shape (2, nx)."""
        x = np.asarray(x, dtype=float)
        s = self.family.stretch
        v = np.empty((2,) + x.shape)
        if s.kind == "gaussian":
            return np.multiply(drive_f(t, *self.trace.drive) * x, x, out=v)
        chi, _, d2chi, _, adot = self.trace.at(t)
        xi = x / chi
        if s.kind == "inverse_gaussian":
            g2 = s.gamma**2
            quad = (1.0 / (9.0 * g2 * g2 * chi**4)
                    - d2chi / (4.0 * chi)) * x * x
            const = -1.0 / (3.0 * g2 * chi**2) - adot
            well = _clipped_exp(2.0 * xi * xi / (3.0 * g2)) / chi**2
            return np.subtract(quad + const,
                               np.multiply.outer(self.family.mu, well), out=v)
        # flat_bump, whose a' and mu vanish, as checked when made
        e = s.lam * np.exp(-xi * xi)
        w = 1.0 + e
        s1 = -d2chi / (4.0 * chi)
        s2 = (e / (chi**2 * w)) * (1.0 + (e - 2.0) * xi * xi / w)
        return np.add(s1 * x * x, s2, out=v)

    def couplings(self, x, t):
        """g_jk = G_jk F'(xi)^3 / chi, shape (2, 2, nx)."""
        chi = self.trace.chi_at(t)
        xi = np.asarray(x, dtype=float) / chi
        return self._g * (self.family.stretch.fprime(xi, 3) / chi)


def _lattice_fields(stretch, x, chi, dchi, a):
    """rho, eta, zeta of shape (len(chi), len(x)) from the width rows; rho
    and zeta share one xi, as rho_of and zeta_of would each form it."""
    x, chi = x[None, :], chi[:, None]
    xi = x / chi
    zeta = stretch.zeta(xi)  # first, so erf's temporaries meet no rho, eta
    rho = 1.0 / np.sqrt(chi * stretch.fprime(xi))
    return rho, eta_of(x, chi, dchi[:, None], a[:, None]), zeta


# Fornberg's eighth-order central weights (Math. Comp. 51, 1988) by order:
# for the pairs f[i+k] -+ f[i-k], k = 1..4, signed + - + -; -centre; scale
_FORNBERG = {1: ((672.0, 168.0, 32.0, 3.0), 0.0, 840.0),
             2: ((8064.0, 1008.0, 128.0, 9.0), 14350.0, 5040.0)}


def interior_diff(f, h, axis, order=1):
    """Eighth-order central difference of order 1 or 2 along axis, bit for
    bit (672 (f1 - f-1) - 168 (f2 - f-2) + ...) / (840 h) as it reads.

    Only points with STENCIL_DEPTH neighbours on each side get a value, so
    the result is 2 * STENCIL_DEPTH shorter along axis than f, and an axis
    shorter than 2 * STENCIL_DEPTH + 1 points is refused.  The terms are
    slices of f along axis, summed in place in two new C-contiguous arrays.
    """
    d = STENCIL_DEPTH
    axis = normalize_axis_index(axis, f.ndim)
    n = f.shape[axis]
    if n < 2 * d + 1:
        raise ValueError(f"interior_diff: axis {axis} has {n} points, the "
                         f"stencil needs at least {2 * d + 1}")

    def shifted(k):  # f[i + k] for every interior i
        return f[(slice(None),) * axis + (slice(d + k, n - d + k),)]

    pairs, centre, scale = _FORNBERG[order]
    out = np.empty(shifted(0).shape, np.result_type(f, 1.0))
    work = np.empty_like(out)
    for k, weight in enumerate(pairs, 1):
        term = out if k == 1 else work
        (np.subtract if order == 1 else np.add)(shifted(k), shifted(-k),
                                                out=term)
        term *= weight
        if k > 1:
            (np.add if k % 2 else np.subtract)(out, work, out=out)
    if centre:
        out -= np.multiply(shifted(0), centre, out=work)
    out /= scale * h if order == 1 else scale * h * h
    return out


def constraint_window(x, t):
    """The x and t ranges verify_constraints maximizes its residuals over:
    every t, and x less the 2 * STENCIL_DEPTH columns its two x stencils
    consume at each edge."""
    d = 2 * STENCIL_DEPTH
    return (float(x[d]), float(x[-d - 1])), (float(t[0]), float(t[-1]))


@dataclass(frozen=True)
class ConstraintResiduals:
    continuity: float      # rho rho_t + (rho^2 eta_x)_x
    advection: float       # zeta_t + 2 eta_x zeta_x
    flux: float            # (rho^2 zeta_x)_x
    at: tuple = ()  # the lattice (t, x) of each maximum


def _lattice_spacing(x, caller):
    """The spacing of x, refused unless x is finite, strictly increasing
    and uniform to 1e-9 of its spacing."""
    hx = np.diff(x)
    if not (np.all(np.isfinite(x)) and np.all(hx > 0)):
        raise ValueError(f"{caller}: the x lattice must be finite and "
                         f"strictly increasing")
    if np.max(np.abs(hx - hx[0])) > 1e-9 * hx[0]:
        raise ValueError(f"{caller}: the x lattice must be uniform")
    return float(hx[0])


def verify_constraints(family, trace, x, t, corrupt_rho=0.0) -> ConstraintResiduals:
    """Residuals of the three transform constraints on the lattice x by t.

    x must be finite, increasing, uniform and at least 256 points, t at
    least one time; the residuals are maximized over constraint_window(x,
    t): every t, and x less the 2 * STENCIL_DEPTH points two x stencils
    consume at each edge.  As rho_t and zeta_t are exact to rounding, the
    rows need only cover the horizon.  A non-finite residual in there makes
    that maximum NaN.  corrupt_rho multiplies the envelope by (1 +
    corrupt_rho * x), a deliberate defect that shows the check has teeth.

    The width is sampled once, at every t + ih, h = COMPLEX_STEP, so the
    fields' real parts are their values at t and their imaginary parts
    over h are rho_t and zeta_t.  The lattice is walked in blocks of whole
    rows, at most _BLOCK_POINTS points each, in the calling process; each
    block's residuals are 2-D arrays written as the constraints read, the
    x derivatives by interior_diff along its rows.  Only a block that
    raises a maximum takes an argmax, so each (t, x) is a row-major
    argmax's over the interior: a tie keeps the earliest t, then the
    smallest x, and a NaN beats any value.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if not math.isfinite(corrupt_rho):
        raise ValueError(f"verify_constraints: corrupt_rho must be finite, "
                         f"got {corrupt_rho}")
    if len(x) < 256 or len(t) < 1:
        raise LatticeTooCoarseError(f"constraint lattice {len(x)} x {len(t)} "
                                    f"below the 256 x 1 floor")
    hx = _lattice_spacing(x, "verify_constraints")
    envelope = (1.0 + corrupt_rho * x) if corrupt_rho else None

    d, h, c = STENCIL_DEPTH, COMPLEX_STEP, len(x)
    rows = max(1, _BLOCK_POINTS // c)
    chi, dchi, _, a, _ = trace.at(t + 1j * h)
    worst, at = np.full(3, -np.inf), [None] * 3

    def block(r0, r1):  # a function: its fields go before the next's come
        rho, eta, zeta = _lattice_fields(family.stretch, x,
                                         *(w[r0:r1] for w in (chi, dchi, a)))
        if envelope is not None:
            rho *= envelope
        inner = slice(2 * d, c - 2 * d)  # the columns both stencils reach
        eta_x = interior_diff(eta.real, hx, axis=1)
        zeta_x = interior_diff(zeta.real, hx, axis=1)
        rho2 = rho.real[:, d:c - d] * rho.real[:, d:c - d]
        continuity = (rho.real[:, inner] * rho.imag[:, inner] / h
                      + interior_diff(rho2 * eta_x, hx, axis=1))
        advection = (zeta.imag[:, inner] / h
                     + 2.0 * eta_x[:, d:-d] * zeta_x[:, d:-d])
        flux = interior_diff(rho2 * zeta_x, hx, axis=1)
        for i, residual in enumerate((continuity, advection, flux)):
            residual = np.abs(residual, out=residual)
            m = residual.max()  # a NaN anywhere makes m NaN
            if m > worst[i] or (np.isnan(m) and not np.isnan(worst[i])):
                worst[i] = m
                row, col = divmod(int(np.argmax(residual)), c - 4 * d)
                at[i] = (float(t[r0 + row]), float(x[2 * d + col]))

    for r0 in range(0, len(t), rows):
        block(r0, min(r0 + rows, len(t)))
    return ConstraintResiduals(*(float(w) for w in worst), at=tuple(at))


def potential_identity_check(family, trace, x, t):
    """Max gap between the closed-form trap and its finite-difference origin.

    Rebuilds v_j = rho_xx/rho - eta_t - eta_x^2 - mu_j zeta_x^2 from the
    fields at t + ih, the x derivatives by eighth-order stencils on their
    real parts and eta_t as the complex step Im eta / h, and compares with
    CoefficientSampler.potential on the interior of x.
    """
    d = STENCIL_DEPTH
    x = np.asarray(x, dtype=float)
    if len(x) < 4 * d + 1:
        raise LatticeTooCoarseError(
            f"potential_identity_check: {len(x)} points, below the "
            f"{4 * d + 1}-point floor")
    hx = _lattice_spacing(x, "potential_identity_check")
    chi, dchi, _, a, _ = trace.at(np.array([t + 1j * COMPLEX_STEP]))
    rho, eta, zeta = (f[0] for f in _lattice_fields(family.stretch, x, chi,
                                                    dchi, a))

    inner = slice(d, -d)  # the points the x stencils reach
    rho_xx = interior_diff(rho.real, hx, axis=0, order=2)
    eta_x = interior_diff(eta.real, hx, axis=0)
    zeta_x = interior_diff(zeta.real, hx, axis=0)
    eta_t = eta.imag[inner] / COMPLEX_STEP

    base = rho_xx / rho.real[inner] - eta_t - eta_x**2
    v_fd = np.stack([base - mu_j * zeta_x**2 for mu_j in family.mu])
    v_cf = CoefficientSampler(family, trace).potential(x, t)[:, inner]
    gap = np.abs(v_fd - v_cf)[:, inner]
    return float(np.max(gap))
