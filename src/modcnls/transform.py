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

Everything here is closed-form in (xi, chi, chi', chi'', a'); the
verify_constraints routine additionally recomputes the three constraints by
finite differences on a space-time lattice as an independent check.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import LatticeTooCoarseError, ValidationError
from .modulation import drive_f
from .specfun import erf, erfi

_SQRT_PI = math.sqrt(math.pi)
_SQRT3 = math.sqrt(3.0)
_EXP_CLIP = 700.0
# lattice points in flight in verify_constraints, all strips together: on
# 2 CPUs a strip's block, ~220 kB a field, and its temporaries fit a 2 MiB
# L2.  Verify's 640 x 3,841 walk (2-core host) took 0.207 s and 39.7 MB peak
# RSS at 50,000, 0.221 s and 43.5 MB at 100,000, and 0.223 s at 25,000
_BLOCK_POINTS = 50_000
_MIN_STRIP_COLUMNS = 128  # interior columns per verify_constraints strip
# neighbours on each side that interior_diff reads; every halo, trim and
# time-level count of the finite-difference checks follows from it
STENCIL_DEPTH = 4

STRETCH_KINDS = ("gaussian", "inverse_gaussian", "flat_bump")


def _clipped_exp(arg):
    return np.exp(np.minimum(arg, _EXP_CLIP))


@dataclass(frozen=True)
class StretchSpec:
    """Spatial stretch zeta = F(x/chi), defined through F' > 0.

    gaussian            F' = exp(-xi^2)            (localizing, bounded zeta)
    inverse_gaussian    F' = exp(+xi^2 / 3 gamma^2) (anti-localizing)
    flat_bump           F' = 1 + lam exp(-xi^2)     (asymptotically identity)
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
        xi = np.asarray(xi, dtype=float)
        if self.kind == "gaussian":
            return np.exp(-power * xi * xi)
        if self.kind == "inverse_gaussian":
            return _clipped_exp(power * xi * xi / (3.0 * self.gamma**2))
        return (1.0 + self.lam * np.exp(-xi * xi)) ** power

    def zeta(self, xi):
        xi = np.asarray(xi, dtype=float)
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
    chi = trace.chi_at(t)
    d2chi = trace.d2chi_dt2_at(t)
    adot = trace.adot_at(t)
    xi = x / chi
    s = family.stretch
    base = s.curvature_term(xi) / chi**2 - (d2chi / (4.0 * chi)) * x * x - adot
    zx2 = s.fprime(xi, 2) / chi**2
    return np.stack([base - mu_j * zx2 for mu_j in family.mu])


def potential(family, trace, x, t):
    """Trap profiles v_1, v_2 at time t, shape (2, nx); published closed forms.

    gaussian stretch: the width equation collapses everything to f(t) x^2.
    inverse_gaussian: harmonic part plus a shifted-Gaussian well per component.
    flat_bump: harmonic part plus a localized dip independent of component.

    The gaussian form holds only for a width that solves the Ermakov-Pinney
    equation of a drive f, and the flat_bump form only for a prescribed
    width (a' = 0) and mu = (0, 0); any other pairing is refused with a
    ValidationError.  The inverse_gaussian form holds for every width.
    """
    x = np.asarray(x, dtype=float)
    s = family.stretch
    v = np.empty((2,) + x.shape)
    if s.kind == "gaussian":
        if trace.drive is None:
            raise ValidationError(
                f"potential: the {family.kind} trap f(t) x^2 holds only for "
                f"a width that solves the Ermakov-Pinney equation of its "
                f"drive f; got a prescribed width (drive None)")
        kind, epsilon, omega0 = trace.drive
        return np.multiply(drive_f(kind, t, epsilon, omega0) * x, x, out=v)
    if s.kind == "flat_bump" and (trace.drive is not None
                                  or tuple(family.mu) != (0.0, 0.0)):
        raise ValidationError(
            f"potential: the {family.kind} flat-bump trap holds only for a "
            f"prescribed width (a' = 0, drive None) and mu = (0, 0); got "
            f"drive {trace.drive} and mu = {family.mu}")
    chi, _, d2chi, adot = trace.width_at(t)
    xi = x / chi
    if s.kind == "inverse_gaussian":
        g2 = s.gamma**2
        quad = (1.0 / (9.0 * g2 * g2 * chi**4) - d2chi / (4.0 * chi)) * x * x
        const = -1.0 / (3.0 * g2 * chi**2) - adot
        well = _clipped_exp(2.0 * xi * xi / (3.0 * g2)) / chi**2
        return np.subtract(quad + const, np.multiply.outer(family.mu, well),
                           out=v)
    # flat_bump, whose a' and mu vanish, as checked above
    e = s.lam * np.exp(-xi * xi)
    w = 1.0 + e
    s1 = -d2chi / (4.0 * chi)
    s2 = (e / (chi**2 * w)) * (1.0 + (e - 2.0) * xi * xi / w)
    return np.add(s1 * x * x, s2, out=v)


class CoefficientSampler:
    """Samples v_j(x, t) and g_jk(x, t) for a family along a width trace.

    The coupling matrix is shaped once, not per sample, and chi comes from
    the trace, whose widths are positive by construction, so a sample
    repeats no check.
    """

    def __init__(self, family, trace):
        self.family = family
        self.trace = trace
        self._g = np.asarray(family.g_matrix, dtype=float)[:, :, None]

    def potential(self, x, t):
        return potential(self.family, self.trace, x, t)

    def couplings(self, x, t):
        """g_jk = G_jk F'(xi)^3 / chi, shape (2, 2, nx)."""
        chi = self.trace.width_at(t)[0]
        xi = np.asarray(x, dtype=float) / chi
        return self._g * (self.family.stretch.fprime(xi, 3) / chi)


def _width_rows(trace, t):
    """chi, chi' and a at the times t, each as a 1-D array; chi and chi'
    come from one evaluation of the width."""
    chi, dchi = trace.width_at(t)[:2]
    return tuple(map(np.atleast_1d, (chi, dchi, trace.a_at(t))))


def _lattice_fields(stretch, x, chi, dchi, a):
    """rho, eta, zeta of shape (len(chi), len(x)) from the width rows; rho
    and zeta share one xi, as rho_of and zeta_of would each form it."""
    x, chi = x[None, :], chi[:, None]
    xi = x / chi
    rho = 1.0 / np.sqrt(chi * stretch.fprime(xi))
    return rho, eta_of(x, chi, dchi[:, None], a[:, None]), stretch.zeta(xi)


def interior_diff(f, h, axis, order=1):
    """Eighth-order central difference of order 1 or 2 along axis.

    Only points with STENCIL_DEPTH neighbours on each side get a value, so
    the result is 2 * STENCIL_DEPTH shorter along axis than f, and an axis
    shorter than 2 * STENCIL_DEPTH + 1 points is refused.  The weights are
    Fornberg's (Math. Comp. 51, 1988), applied to the symmetric pairs
    f[i+k] -+ f[i-k].
    """
    d = STENCIL_DEPTH
    n = f.shape[axis]
    if n < 2 * d + 1:
        raise ValueError(f"interior_diff: axis {axis} has {n} points, the "
                         f"stencil needs at least {2 * d + 1}")

    def at(k):
        idx = [slice(None)] * f.ndim
        idx[axis] = slice(d + k, n - d + k)
        return f[tuple(idx)]

    if order == 1:
        return (672.0 * (at(1) - at(-1)) - 168.0 * (at(2) - at(-2))
                + 32.0 * (at(3) - at(-3)) - 3.0 * (at(4) - at(-4))) / (840.0 * h)
    return (8064.0 * (at(1) + at(-1)) - 1008.0 * (at(2) + at(-2))
            + 128.0 * (at(3) + at(-3)) - 9.0 * (at(4) + at(-4))
            - 14350.0 * at(0)) / (5040.0 * h * h)


def constraint_window(x, t):
    """The x and t ranges verify_constraints maximizes its residuals over:
    the lattice less the 2 * STENCIL_DEPTH columns and the STENCIL_DEPTH
    rows its stencils consume at each edge."""
    d = STENCIL_DEPTH
    return ((float(x[2 * d]), float(x[-2 * d - 1])),
            (float(t[d]), float(t[-d - 1])))


@dataclass(frozen=True)
class ConstraintResiduals:
    continuity: float      # rho rho_t + (rho^2 eta_x)_x
    advection: float       # zeta_t + 2 eta_x zeta_x
    flux: float            # (rho^2 zeta_x)_x
    # column strips, run in parallel unless forked_map runs in-process:
    # threads running, the caller itself a worker, or no fork
    workers: int = 1

    @property
    def worst(self):
        # np.max propagates a NaN wherever it sits; the builtin max may not
        return float(np.max([self.continuity, self.advection, self.flux]))


def _walk_strip(stretch, x, ht, width, envelope, rows, c0, c1):
    """Worst residuals over interior columns c0:c1, walked in row blocks.

    width holds the rows chi, chi', a of the whole t lattice, ht its step.
    """
    d = STENCIL_DEPTH
    hx = float(x[1] - x[0])
    xs = x[c0 - 2 * d:c1 + 2 * d]  # two x stencils in a row reach 2d out
    nt = len(width[0])
    worst = np.zeros(3)
    for r0 in range(d, nt - d, rows):
        r1 = min(r0 + rows, nt - d)
        rho, eta, zeta = _lattice_fields(
            stretch, xs, *(w[r0 - d:r1 + d] for w in width))
        if envelope is not None:
            rho = rho * envelope[c0 - 2 * d:c1 + 2 * d]
        # time stencils consume the t halo, over whole (contiguous) rows
        inner = slice(2 * d, -2 * d)
        rho_t = interior_diff(rho, ht, axis=0)[:, inner]
        zeta_t = interior_diff(zeta, ht, axis=0)[:, inner]
        rho, eta, zeta = rho[d:-d], eta[d:-d], zeta[d:-d]
        eta_x = interior_diff(eta, hx, axis=1)  # columns d:-d
        zeta_x = interior_diff(zeta, hx, axis=1)
        rho2 = rho[:, d:-d] * rho[:, d:-d]

        r7 = rho[:, inner] * rho_t + interior_diff(rho2 * eta_x, hx, axis=1)
        r8 = zeta_t + 2.0 * eta_x[:, d:-d] * zeta_x[:, d:-d]
        r9 = interior_diff(rho2 * zeta_x, hx, axis=1)
        # np.maximum and np.max both propagate NaN
        worst = np.maximum(worst, [np.max(np.abs(r)) for r in (r7, r8, r9)])
    return worst


def verify_constraints(family, trace, x, t, corrupt_rho=0.0) -> ConstraintResiduals:
    """Finite-difference residuals of the three transform constraints.

    x and t must be uniform lattices, at least 256 x 64 points; residuals are
    maximized over the interior, constraint_window(x, t) (2 * STENCIL_DEPTH
    points trimmed in x, STENCIL_DEPTH in t to clear the eighth-order
    stencils).  A non-finite residual anywhere in the interior makes that
    maximum NaN.  corrupt_rho multiplies the envelope by
    (1 + corrupt_rho * x), a deliberate defect used to demonstrate that the
    check has teeth.

    The interior columns are split into parallel.worker_count strips, at
    least _MIN_STRIP_COLUMNS wide, which run through parallel.forked_map:
    the caller walks the first, forked processes the others (or the
    caller all, where forked_map runs in-process).  A strip is walked in
    blocks of t-rows with a 2 * STENCIL_DEPTH-column x halo and a
    STENCIL_DEPTH-row t halo; all strips' blocks together hold at most
    _BLOCK_POINTS points.  The width chi, chi' and a is sampled once over
    all of t, by the caller before any fork, and every strip reads its
    blocks' rows from those samples.  Each residual is the whole-lattice
    value bit for bit; the result is the elementwise maximum over strips.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if not math.isfinite(corrupt_rho):
        raise ValueError(f"verify_constraints: corrupt_rho must be finite, "
                         f"got {corrupt_rho}")
    if len(x) < 256 or len(t) < 64:
        raise LatticeTooCoarseError(
            f"constraint lattice {len(x)} x {len(t)} below the 256 x 64 floor"
        )
    hx, ht = np.diff(x), np.diff(t)
    if np.max(np.abs(hx - hx[0])) > 1e-9 * hx[0] or np.max(np.abs(ht - ht[0])) > 1e-9 * ht[0]:
        raise ValueError("verify_constraints: lattices must be uniform")
    envelope = (1.0 + corrupt_rho * x) if corrupt_rho else None

    halo = 2 * STENCIL_DEPTH
    columns = len(x) - 2 * halo
    workers = parallel.worker_count(columns // _MIN_STRIP_COLUMNS,
                                    len(x) * len(t))
    edges = [halo + columns * k // workers for k in range(workers + 1)]
    # the strips' blocks span columns + 2 * halo * workers sampled columns
    rows = max(1, _BLOCK_POINTS // (columns + 2 * halo * workers))
    # the width is sampled once, here, and every strip reads its rows
    args = (family.stretch, x, float(t[1] - t[0]), _width_rows(trace, t),
            envelope, rows)
    with parallel.forked_map(lambda strip: _walk_strip(*args, *strip),
                             zip(edges, edges[1:]), workers,
                             "verify_constraints") as strips:
        worst = np.max(list(strips), axis=0)  # np.max keeps a NaN
    return ConstraintResiduals(*(float(w) for w in worst), workers=workers)


def potential_identity_check(family, trace, x, t, dt=1e-4):
    """Max gap between the closed-form trap and its finite-difference origin.

    Rebuilds v_j = rho_xx/rho - eta_t - eta_x^2 - mu_j zeta_x^2 with
    eighth-order stencils (2 * STENCIL_DEPTH + 1 time levels around t) and
    compares with potential(...) on the interior of x.
    """
    d = STENCIL_DEPTH
    x = np.asarray(x, dtype=float)
    ts = t + dt * np.arange(-d, d + 1.0)
    rho, eta, zeta = _lattice_fields(family.stretch, x, *_width_rows(trace, ts))
    hx = float(x[1] - x[0])

    inner = slice(d, -d)  # the points the x stencils reach
    rho_xx = interior_diff(rho[d], hx, axis=0, order=2)
    eta_x = interior_diff(eta[d], hx, axis=0)
    zeta_x = interior_diff(zeta[d], hx, axis=0)
    # time derivative at the middle level
    eta_t = interior_diff(eta, dt, axis=0)[0, inner]

    base = rho_xx / rho[d, inner] - eta_t - eta_x**2
    v_fd = np.stack([base - mu_j * zeta_x**2 for mu_j in family.mu])
    v_cf = potential(family, trace, x, t)[:, inner]
    gap = np.abs(v_fd - v_cf)[:, inner]
    return float(np.max(gap))
