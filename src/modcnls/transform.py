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
verify_constraints recomputes the three constraints by finite differences
on a space-time lattice as an independent check.
"""

import math
import time
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
# 2 CPUs a strip's block, ~220 kB a field, and its six buffers fit a 2 MiB
# L2.  Verify's 640 x 1,921 walk (2-core shared host, medians of 6
# interleaved runs) took 0.063 s on 2 CPUs and 0.085 s on 1 at 50,000,
# 0.068 and 0.090 s at 25,000, and 0.059 and 0.094 s at 100,000
_BLOCK_POINTS = 50_000
_MIN_STRIP_COLUMNS = 128  # interior columns per verify_constraints strip
# neighbours on each side that interior_diff and every x stencil read; the
# x halos and trims and potential_identity_check's time levels follow from it
STENCIL_DEPTH = 4
# neighbours on each side that the constraint walk's time differences read;
# the walk's t halo and constraint_window's t trim follow from it
TIME_DEPTH = 6
# default time step of the time stencils of the residual checks
STENCIL_DT = 1e-4
LATTICE_ROWS = 32  # fewest t-rows verify_constraints walks

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
    rho = 1.0 / np.sqrt(chi * stretch.fprime(xi))
    return rho, eta_of(x, chi, dchi[:, None], a[:, None]), stretch.zeta(xi)


# Fornberg's central weights (Math. Comp. 51, 1988) by (order, depth),
# eighth order at depth 4 and twelfth at 6: for the pairs f[i+k] -+ f[i-k],
# k = 1..depth, signed + - + ...; the -centre; denominator
_FORNBERG = {(1, 4): ((672.0, 168.0, 32.0, 3.0), 0.0, 840.0),
             (2, 4): ((8064.0, 1008.0, 128.0, 9.0), 14350.0, 5040.0),
             (1, 6): ((23760.0, 7425.0, 2200.0, 495.0, 72.0, 5.0), 0.0,
                      27720.0)}


def _stencil(f, base, step, h, span, out, work, order=1,
             depth=STENCIL_DEPTH):
    """Difference of order 1 or 2 and depth 4 or 6 into out[span] (work:
    out's shape) of f[span] shifted by base + k step along f's first axis,
    by in-place ufuncs in the order of (672 (f1 - f-1) - ...) / (840 h),
    so bit for bit it."""
    lo, hi = span.start + base, span.stop + base
    out, work = out[span], work[span]
    pairs, centre, scale = _FORNBERG[order, depth]
    for k, weight in enumerate(pairs, 1):
        term = out if k == 1 else work
        (np.subtract if order == 1 else np.add)(
            f[lo + k * step:hi + k * step], f[lo - k * step:hi - k * step],
            out=term)
        term *= weight
        if k > 1:
            (np.add if k % 2 else np.subtract)(out, work, out=out)
    if centre:
        out -= np.multiply(f[lo:hi], centre, out=work)
    out /= scale * h if order == 1 else scale * h * h
    return out


def interior_diff(f, h, axis, order=1):
    """Eighth-order central difference of order 1 or 2 along axis.

    Only points with STENCIL_DEPTH neighbours on each side get a value, so
    the result is 2 * STENCIL_DEPTH shorter along axis than f, and an axis
    shorter than 2 * STENCIL_DEPTH + 1 points is refused.
    """
    d = STENCIL_DEPTH
    n = f.shape[axis]
    if n < 2 * d + 1:
        raise ValueError(f"interior_diff: axis {axis} has {n} points, the "
                         f"stencil needs at least {2 * d + 1}")
    shape = list(f.shape)
    shape[axis] = n - 2 * d
    out = np.empty(shape, np.result_type(f, 1.0))
    moved = out.swapaxes(0, axis)  # a view: _stencil writes into out
    _stencil(f.swapaxes(0, axis), d, 1, h, slice(0, n - 2 * d), moved,
             np.empty_like(moved), order)
    return out


def constraint_window(x, t):
    """The x and t ranges verify_constraints maximizes its residuals over:
    the lattice less the 2 * STENCIL_DEPTH columns and the TIME_DEPTH rows
    its stencils consume at each edge."""
    d, e = STENCIL_DEPTH, TIME_DEPTH
    return ((float(x[2 * d]), float(x[-2 * d - 1])),
            (float(t[e]), float(t[-e - 1])))


@dataclass(frozen=True)
class ConstraintResiduals:
    continuity: float      # rho rho_t + (rho^2 eta_x)_x
    advection: float       # zeta_t + 2 eta_x zeta_x
    flux: float            # (rho^2 zeta_x)_x
    # column strips, run in parallel unless forked_map runs in-process:
    # threads running, the caller itself a worker, or no fork
    workers: int = 1
    at: tuple = ()  # the lattice (t, x) of each maximum, as _walk_strip's
    strip_s: tuple = ()  # each strip's own walk time, the caller's first


def _walk_strip(stretch, x, t, width, envelope, rows, c0, c1):
    """Worst residuals over interior columns c0:c1, walked in row blocks,
    the lattice (t, x) of each and the strip's own walk time.

    width holds chi, chi', a at every t.  The x derivatives are eighth
    order, the time derivatives rho_t and zeta_t twelfth order, as their
    error sets the residuals.  A block of r rows of c columns is formed in
    place as flat runs of r c values in six buffers made once per strip, a
    row offset k being the flat offset k c; the 2 * STENCIL_DEPTH
    values per row that an x stencil takes across two rows lie in columns
    nothing reads.  Only a block that raises a maximum takes an argmax, so
    a tie keeps the earliest (t, x) and a NaN beats any value.
    """
    start = time.perf_counter()
    d, e = STENCIL_DEPTH, TIME_DEPTH
    hx, ht = float(x[1] - x[0]), float(t[1] - t[0])
    xs = x[c0 - 2 * d:c1 + 2 * d]  # two x stencils in a row reach 2d out
    c, nt = len(xs), len(t)
    rate, eta_x, rho2, zeta_x, prod, work = np.empty((6, rows * c))
    worst, at = np.full(3, -np.inf), [None] * 3

    def block(r0, r1):  # a function: its fields go before the next's come
        rho, eta, zeta = _lattice_fields(
            stretch, xs, *(w[r0 - e:r1 + e] for w in width))
        if envelope is not None:
            rho *= envelope[c0 - 2 * d:c1 + 2 * d]
        rho, eta, zeta = rho.ravel(), eta.ravel(), zeta.ravel()
        n, o = (r1 - r0) * c, e * c  # o: a field's first row after its t halo
        rho_o = rho[o:o + n]
        # the first x stencils fill [d, n - d), all that reads them [2d, n - 2d)
        outer, inner = slice(d, n - d), slice(2 * d, n - 2 * d)
        _stencil(eta, o, 1, hx, outer, eta_x, work)
        np.multiply(rho_o[outer], rho_o[outer], out=rho2[outer])
        np.multiply(rho2[outer], eta_x[outer], out=prod[outer])
        _stencil(prod, 0, 1, hx, inner, zeta_x, work)  # (rho^2 eta_x)_x
        r7 = _stencil(rho, o, c, ht, inner, rate, work, depth=e)  # rho_t
        r7 *= rho_o[inner]
        r7 += zeta_x[inner]
        _stencil(zeta, o, 1, hx, outer, zeta_x, work)
        np.multiply(rho2[outer], zeta_x[outer], out=prod[outer])
        _stencil(prod, 0, 1, hx, inner, rho2, work)  # r9, over rho^2
        advect = np.multiply(eta_x[inner], 2.0, out=prod[inner])
        advect *= zeta_x[inner]
        r8 = _stencil(zeta, o, c, ht, inner, zeta_x, work, depth=e)  # zeta_t
        r8 += advect
        for i, buf in enumerate((rate, zeta_x, rho2)):
            np.abs(buf[inner], out=buf[inner])
            residual = buf[:n].reshape(-1, c)[:, 2 * d:c - 2 * d]
            m = residual.max()  # a NaN anywhere makes m NaN
            if m > worst[i] or (np.isnan(m) and not np.isnan(worst[i])):
                worst[i] = m
                row, col = divmod(int(np.argmax(residual)), c - 4 * d)
                at[i] = (float(t[r0 + row]), float(x[c0 + col]))

    for r0 in range(e, nt - e, rows):
        block(r0, min(r0 + rows, nt - e))
    return worst, at, time.perf_counter() - start


def verify_constraints(family, trace, x, t, corrupt_rho=0.0) -> ConstraintResiduals:
    """Finite-difference residuals of the three transform constraints.

    x and t must be uniform lattices, at least 256 x LATTICE_ROWS points;
    residuals are maximized over the interior, constraint_window(x, t)
    (2 * STENCIL_DEPTH points trimmed in x to clear two eighth-order x
    stencils, TIME_DEPTH in t to clear a twelfth-order time stencil).  A
    non-finite residual anywhere in the interior makes that maximum NaN.
    corrupt_rho multiplies the envelope by (1 + corrupt_rho * x), a
    deliberate defect used to demonstrate that the check has teeth.

    The interior columns are split into parallel.worker_count strips, at
    least _MIN_STRIP_COLUMNS wide, which run through parallel.forked_map:
    the caller walks the first, forked processes the others (or the
    caller all, where forked_map runs in-process).  A strip is walked in
    blocks of t-rows with a 2 * STENCIL_DEPTH-column x halo and a
    TIME_DEPTH-row t halo; all strips' blocks together hold at most
    _BLOCK_POINTS points.  The width chi, chi' and a is sampled once over
    all of t, by the caller before any fork, and every strip reads its
    blocks' rows from those samples.  Each residual is the whole-lattice
    value bit for bit, and so is the (t, x) of each, a row-major argmax's
    over the interior; the result is the elementwise maximum over strips.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if not math.isfinite(corrupt_rho):
        raise ValueError(f"verify_constraints: corrupt_rho must be finite, "
                         f"got {corrupt_rho}")
    if len(x) < 256 or len(t) < LATTICE_ROWS:
        raise LatticeTooCoarseError(f"constraint lattice {len(x)} x {len(t)} "
                                    f"below the 256 x {LATTICE_ROWS} floor")
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
    w = trace.at(t)
    args = (family.stretch, x, t, (w.chi, w.dchi, w.a), envelope, rows)
    with parallel.forked_map(lambda strip: _walk_strip(*args, *strip),
                             zip(edges, edges[1:]), workers,
                             "verify_constraints") as strips:
        strips = list(strips)
    worst = np.max([w for w, _, _ in strips], axis=0)  # np.max keeps a NaN
    # the earliest (t, x) of the strips at the maximum; a NaN one's if NaN
    at = tuple(min(a[i] for w, a, _ in strips
                   if w[i] == worst[i] or np.isnan(w[i])) for i in range(3))
    return ConstraintResiduals(*(float(w) for w in worst), workers=workers,
                               at=at, strip_s=tuple(s for *_, s in strips))


def potential_identity_check(family, trace, x, t, dt=STENCIL_DT):
    """Max gap between the closed-form trap and its finite-difference origin.

    Rebuilds v_j = rho_xx/rho - eta_t - eta_x^2 - mu_j zeta_x^2 with
    eighth-order stencils (2 * STENCIL_DEPTH + 1 time levels around t) and
    compares with CoefficientSampler.potential on the interior of x.
    """
    d = STENCIL_DEPTH
    x = np.asarray(x, dtype=float)
    w = trace.at(t + dt * np.arange(-d, d + 1.0))
    rho, eta, zeta = _lattice_fields(family.stretch, x, w.chi, w.dchi, w.a)
    hx = float(x[1] - x[0])

    inner = slice(d, -d)  # the points the x stencils reach
    rho_xx = interior_diff(rho[d], hx, axis=0, order=2)
    eta_x = interior_diff(eta[d], hx, axis=0)
    zeta_x = interior_diff(zeta[d], hx, axis=0)
    # time derivative at the middle level
    eta_t = interior_diff(eta, dt, axis=0)[0, inner]

    base = rho_xx / rho[d, inner] - eta_t - eta_x**2
    v_fd = np.stack([base - mu_j * zeta_x**2 for mu_j in family.mu])
    v_cf = CoefficientSampler(family, trace).potential(x, t)[:, inner]
    gap = np.abs(v_fd - v_cf)[:, inner]
    return float(np.max(gap))
