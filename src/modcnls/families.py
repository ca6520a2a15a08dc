"""Exact two-component solution families of the modulated coupled system.

Each family fixes the constant-coefficient data (mu_j, G_jk), a stretch
F'(xi), and a pair of reduced amplitudes A_j(zeta) solving
mu_j A_j = -A_j'' + sum_k G_jk |A_k|^2 A_j.  The physical fields follow from
the similarity transform: psi_j = rho e^{i eta} A_j(zeta).

elliptic      bounded zeta window (0, sqrt(pi)); A_j built from Jacobi
              sn/dn at modulus 1/sqrt(2), with the amplitude quantized so an
              integer number of arches fits in the window.  Both components
              are proportional, psi_2 = psi_1 / sqrt(2).  The field is built
              by elliptic_envelope, one formula for every xi with no
              cancellation against 2 n K.
sech          bright-bright pair sech zeta (1, 1/sqrt(2)) on an unbounded
              zeta range reached through an anti-localizing stretch; the
              envelope rho decays as a Gaussian, so the fields stay
              normalizable.
dark_bright   tanh/sech pair on a near-identity stretch; the first component
              carries a nonvanishing background |psi_1|^2 -> 1/(2 chi).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .grid import SpatialGrid, is_integer
from .modulation import (
    ModulationTrace,
    check_drive,
    closed_form_trace,
    explicit_trace,
    mathieu_trace,
)
from .specfun import ellip_k, erfc, erfcx, jacobi_elliptic
from .transform import StretchSpec, eta_of, rho_of, zeta_of

_SQRT_PI = math.sqrt(math.pi)
_SQRT2 = math.sqrt(2.0)
_ELLIPTIC_MODULUS = 1.0 / _SQRT2

# each family kind and the stretch kind its amplitudes were solved under
_STRETCH_OF = {"elliptic": "gaussian", "sech": "inverse_gaussian",
               "dark_bright": "flat_bump"}
FAMILY_KINDS = tuple(_STRETCH_OF)


@dataclass(frozen=True, eq=False)
class FamilySpec:
    kind: str
    mu: tuple
    g_matrix: np.ndarray
    stretch: StretchSpec
    n: int = 1

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValidationError(f"FamilySpec: unknown kind {self.kind!r}")
        if self.stretch.kind != _STRETCH_OF[self.kind]:
            raise ValidationError(
                f"FamilySpec: the {self.kind} amplitudes need the "
                f"{_STRETCH_OF[self.kind]} stretch, got {self.stretch.kind}")
        g = np.asarray(self.g_matrix, dtype=float)
        if g.shape != (2, 2) or not np.isfinite(g).all():
            raise ValidationError("FamilySpec: g_matrix must be a finite 2x2 matrix")
        if len(self.mu) != 2:
            raise ValidationError("FamilySpec: mu must have two entries")


def elliptic_family(n=1) -> FamilySpec:
    """Proportional Jacobi-elliptic pair under the localizing stretch."""
    if not (is_integer(n) and n >= 1):
        raise ValidationError("elliptic_family: n must be a positive integer")
    return FamilySpec(
        kind="elliptic",
        mu=(0.0, 0.0),
        g_matrix=np.array([[-0.5, -1.0], [-0.5, -1.0]]),
        stretch=StretchSpec("gaussian"),
        n=int(n),
    )


def sech_family(gamma=6.0) -> FamilySpec:
    """Bright-bright sech pair under the anti-localizing stretch."""
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValidationError("sech_family: gamma must be positive")
    return FamilySpec(
        kind="sech",
        mu=(-1.0, -1.0),
        g_matrix=np.array([[-1.0, -2.0], [-2.0, 0.0]]),
        stretch=StretchSpec("inverse_gaussian", gamma=float(gamma)),
    )


def dark_bright_family(lam=0.5) -> FamilySpec:
    """Dark-bright tanh/sech pair under the near-identity stretch."""
    if not (np.isfinite(lam) and lam > -1.0):
        raise ValidationError("dark_bright_family: lam must exceed -1")
    return FamilySpec(
        kind="dark_bright",
        mu=(0.0, 0.0),
        g_matrix=np.array([[0.0, -2.0], [2.0, -1.0]]),
        stretch=StretchSpec("flat_bump", lam=float(lam)),
    )


def amplitude_a0(n=1):
    """Elliptic amplitude 2 n K(1/sqrt2) / sqrt(pi): n arches fill the window."""
    if not (is_integer(n) and n >= 1):
        raise ValidationError("amplitude_a0: n must be a positive integer")
    return 2.0 * n * ellip_k(_ELLIPTIC_MODULUS) / _SQRT_PI


def _sech(z):
    e = np.exp(np.where(z.real < 0, z, -z))  # exp(-|z|) on the branch of Re z
    return 2.0 * e / (1.0 + e * e)


def reduced_amplitudes(family: FamilySpec, zeta):
    """A_1, A_2 on the reduced coordinate; see the family table above.
    Complex zeta is taken on the branch of Re zeta."""
    zeta = np.asarray(zeta, dtype=complex if np.iscomplexobj(zeta) else float)
    if family.kind == "elliptic":
        a0 = amplitude_a0(family.n)
        sn, _, dn = jacobi_elliptic(a0 * zeta, _ELLIPTIC_MODULUS)
        a1 = (a0 / _SQRT2) * sn / dn
        return a1, a1 / _SQRT2
    if family.kind == "sech":
        s = _sech(zeta)
        return s, s / _SQRT2
    return np.tanh(zeta) / _SQRT2, _sech(zeta)


@dataclass
class FieldPair:
    """Two complex fields on a common grid at one instant."""

    x: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    t: float = 0.0


def elliptic_envelope(xi, chi, n=1):
    """Signed rho A_1 of the elliptic pair at every xi, one formula.

    With the stretch F' = exp(-xi^2) the reduced coordinate is
    zeta = (sqrt(pi)/2) erfc(-xi), and a0 sqrt(pi) = 2 n K.  Put
    delta = (a0 sqrt(pi)/2) erfc(|xi|): for xi <= 0, a0 zeta = delta; for
    xi > 0, a0 zeta = 2 n K - delta, and the half-period shift
    sn(2nK - delta) = (-1)^(n+1) sn(delta), dn(2nK - delta) = dn(delta)
    (DLMF 22.4(iii)) folds that side onto the left one.  With
    rho = exp(xi^2/2) / sqrt(chi) and delta = (a0 sqrt(pi)/2) exp(-xi^2)
    erfcx(|xi|):

        rho A_1 = sign (a0/sqrt2) (a0 sqrt(pi)/2) exp(-xi^2/2) erfcx(|xi|)
                  / sqrt(chi) * (sn(delta)/delta) / dn(delta)

    sign = +1 for xi <= 0 and (-1)^(n+1) for xi > 0.  erfc(|xi|) is never
    formed as 1 - erf, a0 zeta is never rounded next to 2 n K on xi > 0,
    and the growing rho is never multiplied into a vanishing sn, so the
    error stays at the rounding of the peak from the core to the far tail
    (within 4e-15 of max |rho A_1| against mpmath for n = 1, 2, 3).  For
    n >= 2, delta still passes the interior zeros of sn (delta = 2K), and
    there sn(delta) is accurate to about ulp(2K) absolutely, not
    relatively.  chi is a scalar or an array that broadcasts against xi;
    complex xi and chi are taken on the branch of Re xi.
    """
    xi = np.asarray(xi, dtype=complex if np.iscomplexobj(xi) else float)
    ax = np.where(xi.real < 0, -xi, xi)
    a0 = amplitude_a0(n)
    half = 0.5 * a0 * _SQRT_PI
    # sn(delta)/delta and dn(delta) are 1 to rounding long before 1e-290;
    # the floor keeps 0/0 out where erfc underflows, past |xi| ~ 26
    delta = np.maximum(half * erfc(ax), 1e-290)
    sn, _, dn = jacobi_elliptic(delta, _ELLIPTIC_MODULUS)
    env = (
        (a0 / _SQRT2) * half * np.exp(-0.5 * xi * xi) * erfcx(ax)
        / np.sqrt(chi) * (sn / delta) / dn
    )
    return env if n % 2 else np.where(xi.real > 0, -env, env)


def amplitudes_and_phase(family: FamilySpec, x, chi, dchi, a):
    """The real amplitudes R_1, R_2 and the phase eta of
    psi_j = R_j e^{i eta} on the grid x, from the width values chi, chi'
    and a (scalars, or columns that give one row per time).

    Complex width values, those of a complex t, continue every field
    analytically on the branch of Re xi, so Im R_j(t + ih) / h and
    Im eta(t + ih) / h are the time derivatives of R_j and eta.
    """
    xi = x / chi
    eta = eta_of(x, chi, dchi, a)
    if family.kind == "elliptic":
        r1 = elliptic_envelope(xi, chi, family.n)
        return r1, r1 / _SQRT2, eta
    rho = rho_of(family.stretch, x, chi)
    a1, a2 = reduced_amplitudes(family, zeta_of(family.stretch, x, chi))
    return rho * a1, rho * a2, eta


def _fields(family: FamilySpec, trace: ModulationTrace, x, t):
    """psi_1, psi_2 on the grid x at t, a float or a column of times of
    shape (nt, 1), which gives one row per time.  Every operation acts
    elementwise, so each row is the float-t result bit for bit."""
    chi, dchi, _, a, _ = trace.at(t)
    r1, r2, eta = amplitudes_and_phase(family, x, chi, dchi, a)
    phase = np.exp(1j * eta)
    psi1 = r1 * phase
    # the elliptic pair's psi_2 has always been psi_1 / sqrt2, these bits
    return psi1, psi1 / _SQRT2 if family.kind == "elliptic" else r2 * phase


def assemble(family: FamilySpec, trace: ModulationTrace, x, t) -> FieldPair:
    """Physical fields psi_1, psi_2 at time t on the grid x."""
    x = np.asarray(x, dtype=float)
    return FieldPair(x, *_fields(family, trace, x, t), float(t))


def assemble_rows(family: FamilySpec, trace: ModulationTrace, x, times):
    """Physical fields at each of times on the grid x.

    Returns (psi_1, psi_2), each of shape (len(times), len(x)); row i is
    assemble(family, trace, x, times[i]) bit for bit, from the same
    evaluator.  One call serves a block of times, so the per-call cost of
    the width queries and the Jacobi and erf kernels is paid once per
    block.
    """
    x = np.asarray(x, dtype=float)
    return _fields(family, trace, x, np.asarray(times, dtype=float)[:, None])


# family kind -> purpose -> (periodic, quasiperiodic) half-widths
_HALF_WIDTHS = {
    "elliptic": {"export": (10.0, 10.0), "propagate": (12.0, 16.0),
                 "residual": (14.0, 19.0)},
    "sech": {"export": (20.0, 24.0), "propagate": (20.0, 24.0),
             "residual": (25.0, 38.0)},
    "dark_bright": {"export": (15.0, 15.0), "propagate": (15.0, 15.0),
                    "residual": (12.0, 12.0)},
}


def default_grid(family: FamilySpec, purpose="export", n_points=1024,
                 drive="periodic") -> SpatialGrid:
    """Half-widths sized so the fields fit the box for the given use.

    elliptic fields die off super-Gaussianly (L = 10 suffices for export;
    12 gives propagation headroom while chi breathes), sech fields need
    L = 20 at the default gamma = 6, and the dark-bright pair flattens onto
    its background within L = 15.  The residual purpose serves the spectral
    equation check, whose box must keep edge values below roughly 1e-7 or
    wraparound ringing in the second derivative dominates.  The
    quasiperiodic drive stretches chi to about 2.75: at 19 and 38 the box
    edges no longer set verify's residual (8.7e-9 and 1.7e-10 at worst over
    eleven seeds, from 1.2e-6 and 3.0e-7 at 16 and 32), and at N = 1024 a
    wider box stops resolving chi's minimum, 0.41.  The dark-bright residual
    box is narrower than its export box: there the second derivative is a
    finite difference and a tighter box buys resolution.
    """
    if purpose not in ("export", "propagate", "residual"):
        raise ValidationError(f"default_grid: unknown purpose {purpose!r}")
    check_drive("default_grid", drive)
    periodic, quasi = _HALF_WIDTHS[family.kind][purpose]
    return SpatialGrid(quasi if drive == "quasiperiodic" else periodic,
                       n_points)


def default_trace(family: FamilySpec, drive="periodic", t_end=10.0,
                  epsilon=0.5, omega0=1.0, alpha=0.3, beta=0.2
                  ) -> ModulationTrace:
    """The width trace each family is normally run with.

    periodic: f = 1, from the closed form.  quasiperiodic: f = 1 + epsilon
    cos(omega0 t), integrated to t_end; the analytic widths need no horizon.
    The dark-bright family uses its prescribed two-tone width.
    """
    check_drive("default_trace", drive)
    if family.kind == "dark_bright":
        return explicit_trace(alpha, beta)
    if drive == "periodic":
        return closed_form_trace()
    return mathieu_trace("quasiperiodic", t_end, epsilon=epsilon,
                         omega0=omega0)
