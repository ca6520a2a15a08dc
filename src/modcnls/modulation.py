"""Time-dependent width scale chi(t), its derivatives, and the phase offset a(t).

The width obeys the Ermakov-Pinney equation chi'' + 4 f(t) chi = 4/chi^3 and
is built from two independent solutions of the linear parametric oscillator
z'' + 4 f(t) z = 0 (a Mathieu-type equation for the cosine drives used here)
as chi = sqrt(2 z1^2 + 2 z2^2 / W^2), W the Wronskian.  With z1(0) = sqrt(2),
z1'(0) = 0 the constant drive f = 1 gives the closed form
chi = sqrt(1 + 15 cos^2 2t) / 2, which is also wired in directly as the fast
path.  A third source is an explicitly prescribed two-tone width used by the
dark-bright family.

Each factory hands its trace one evaluator of (chi, chi', chi'') and one of
a; a trace's sample arrays and its *_at queries both come from them.  An
integrated trace answers only inside the window it was built to and refuses
any other t.

The oscillator's RK4 path is the prefix product of its 2x2 step matrices,
formed by a scan over fixed blocks of steps in O(n) work and in place
(Blelloch, CMU-CS-90-190).  The scan carries P - I, as P near I would
round away the low bits of each O(h) increment, and its blocks start at
node 0, so a node's value does not depend on the horizon.

Conventions fixed here and relied on elsewhere:

* the drive is f = 1 + epsilon cos(omega0 t), with epsilon = 0 for the
  constant drive;
* default initial data z1 = (sqrt(2), 0), z2 = (0, 1), so W = sqrt(2);
  chi is invariant under rescaling z2 since z2 enters as z2/W.
* a(t) = int_0^t chi^-2 ds for the oscillator-driven sources (it cancels the
  constant term of the harmonic-trap potential); a identically 0 for the
  explicit two-tone source.  On the oscillator path a needs no quadrature:
  w = z1 + i z2/W has |w|^2 = chi^2/2 and Im(conj(w) w') = 1, so
  a' = chi^-2 = (arg w)'/2 and a is half the unwrapped phase of w (Milne,
  Phys. Rev. 35, 863, 1930).
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError

_SQRT2 = math.sqrt(2.0)
# largest h * 2 sqrt(max|f|), the oscillator's turn per step, that
# mathieu_trace accepts; at 0.2 RK4 keeps chi within 4.6e-4 of the closed
# form over 10 s of the constant drive, at 0.8 it is 0.12 off
_STEP_BOUND = 0.2
# steps per block of the oscillator's prefix scan: the scan loops over a
# block's positions in Python and over the block totals in log2 passes
_BLOCK = 128
DRIVE_KINDS = ("constant", "quasiperiodic")


def drive_f(kind, t, epsilon=0.5, omega0=1.0):
    """Trap-strength drive: f = 1 (constant) or f = 1 + epsilon cos(omega0 t).

    A float t gives a float without an array, from math.cos, which the
    tests hold to the bits of numpy's cos: the element an array of t gives.
    """
    if kind not in DRIVE_KINDS:
        raise ValueError(f"drive_f: unknown kind {kind!r}")
    if kind == "quasiperiodic" and not (np.isfinite(epsilon)
                                        and np.isfinite(omega0)):
        raise ValueError("drive_f: epsilon and omega0 must be finite")
    if isinstance(t, float):
        return 1.0 if kind == "constant" else float(
            1.0 + epsilon * math.cos(omega0 * t))
    t = np.asarray(t, dtype=float)
    if kind == "constant":
        out = np.ones_like(t)
    else:
        out = 1.0 + epsilon * np.cos(omega0 * t)
    return float(out) if out.ndim == 0 else out


def _scalar(out):
    """A 0-d result as a float, an array as it is."""
    return out if getattr(out, "ndim", 0) else float(out)


def _uniform_times(t_end, dt):
    """0, dt, ..., n dt with n dt >= t_end."""
    n = int(math.ceil(t_end / dt - 1e-12))
    return dt * np.arange(n + 1)


def _hermite(times, t, *pairs):
    """Cubic Hermite interpolants at t of (values, slopes) pairs on the
    uniform grid times; at a node each returns the node's value exactly."""
    h = float(times[1] - times[0])
    j = np.clip((np.floor((t - times[0]) / h)).astype(int), 0, len(times) - 2)
    # the rounded quotient can place a node at the far end of the interval
    # before it, where th would miss 1 by an ulp
    th = np.where(t == times[j + 1], 1.0, (t - times[j]) / h)
    om = 1.0 - th
    h00 = (1.0 + 2.0 * th) * om * om
    h10 = th * om * om
    h01 = th * th * (3.0 - 2.0 * th)
    h11 = th * th * (th - 1.0)
    return [h00 * y[j] + h * h10 * dy[j] + h01 * y[j + 1] + h * h11 * dy[j + 1]
            for y, dy in pairs]


def _closed_form_width(t):
    """(chi, chi', chi'') of chi = sqrt(1 + 15 cos^2 2t) / 2."""
    c = np.cos(2.0 * t)
    chi = np.sqrt(1.0 + 15.0 * c * c) / 2.0
    s4 = np.sin(4.0 * t)
    dchi = -(15.0 / 4.0) * s4 / chi
    d2chi = -15.0 * np.cos(4.0 * t) / chi - (225.0 / 16.0) * s4 * s4 / chi**3
    return chi, dchi, d2chi


def _closed_form_a(t):
    # int_0^t 4 ds / (1 + 15 cos^2 2s); the arctan form is pole-free
    # because 5 + 3 cos 4t never vanishes
    return t - 0.5 * np.arctan(3.0 * np.sin(4.0 * t) / (5.0 + 3.0 * np.cos(4.0 * t)))


def _two_tone_width(alpha, beta, t):
    """(chi, chi', chi'') of chi = 1 + alpha sin t + beta sin(sqrt2 t)."""
    s1, s2 = np.sin(t), np.sin(_SQRT2 * t)
    chi = 1.0 + alpha * s1 + beta * s2
    dchi = alpha * np.cos(t) + _SQRT2 * beta * np.cos(_SQRT2 * t)
    d2chi = -alpha * s1 - 2.0 * beta * s2
    return chi, dchi, d2chi


def _oscillator_width(z1, dz1, z2, dz2, ddz1, ddz2, w):
    """(chi, chi', chi'') of chi = sqrt(2 z1^2 + 2 z2^2 / W^2) from the
    oscillator pair and its first two derivatives."""
    w2 = w**2
    chi = np.sqrt(2.0 * z1 * z1 + 2.0 * z2 * z2 / w2)
    dchi = (2.0 * z1 * dz1 + 2.0 * z2 * dz2 / w2) / chi
    d2chi = (
        2.0 * dz1 * dz1 + 2.0 * z1 * ddz1
        + (2.0 * dz2 * dz2 + 2.0 * z2 * ddz2) / w2
    ) / chi - dchi * dchi / chi
    return chi, dchi, d2chi


def _oscillator_phase(z1, z2, w):
    """arg(z1 + i z2/W) in (-pi, pi]; z2/W is a real division, which
    rounds alike for scalar and array queries."""
    return np.angle(z1 + 1j * (z2 / w))


@dataclass
class MathieuPath:
    """Trajectory of the parametric oscillator pair on a uniform time grid.

    ddz1, ddz2 are the accelerations -4 f z at the nodes, the slopes of the
    Hermite interpolant of dz1, dz2.
    """

    times: np.ndarray
    z1: np.ndarray
    dz1: np.ndarray
    z2: np.ndarray
    dz2: np.ndarray
    ddz1: np.ndarray
    ddz2: np.ndarray
    w: float


def _combine(a, b, out):
    """out = (I + a)(I + b) - I = a + b + ab for stacks of 2x2 matrices
    indexed [row, column, ...]; out may be a."""
    ab = a[:, :1] * b[:1]
    ab += a[:, 1:] * b[1:]
    ab += a + b
    out[...] = ab


def _integrate_mathieu(t_end, h, epsilon, omega0, z1_init, z2_init):
    """Classical RK4 for z'' + 4 f(t) z = 0, both solutions at once.

    Step k is y_{k+1} = (I + D_k) y_k, y = (z, z'), with D_k the RK4
    increment of the unit vectors in closed form: with a = -4 f at t_k,
    t_k + h/2 and t_k + h (a0, am, a1),
    D = (h/6) [[h (a0 + 2 am) + (h^3/4) am a0,  6 + h^2 am],
               [a0 + 4 am + a1 + (h^2/2) am (a0 + a1),
                h (2 am + a1) + (h^3/4) a1 am]].
    Q_k = (I + D_{k-1})...(I + D_0) - I comes from a blocked scan over
    blocks of _BLOCK steps, anchored at step 0, so I + D is never rounded:
    one pass over the positions of every block at once, compensated
    (Knuth's TwoSum) because the equal blocks of a constant drive would
    otherwise add up equal rounding errors; a Hillis-Steele scan over the
    block totals; and one pass applying each block's carry.  Steps past
    the last node pad the last block and reach no node.
    """
    times = _uniform_times(t_end, h)
    (c1, d1), (c2, d2) = np.array([z1_init, z2_init], dtype=float).tolist()
    w = c1 * d2 - d1 * c2
    if abs(w) < 1e-12:
        raise ValueError("mathieu_trace: initial data are linearly dependent")
    n = len(times) - 1
    blocks = -(-n // _BLOCK)
    a_node = np.zeros(blocks * _BLOCK + 1)
    a_node[:n + 1] = -4.0 * drive_f("quasiperiodic", times, epsilon, omega0)
    a_mid = np.zeros(blocks * _BLOCK)
    a_mid[:n] = -4.0 * drive_f("quasiperiodic", times[:-1] + 0.5 * h,
                               epsilon, omega0)
    # a0, am, a1 of step k sit at [k // _BLOCK, k % _BLOCK], D_k at
    # q[k % _BLOCK, :, :, k // _BLOCK]
    a0, am, a1 = (a_node[:-1].reshape(blocks, _BLOCK),
                  a_mid.reshape(blocks, _BLOCK),
                  a_node[1:].reshape(blocks, _BLOCK))
    q = np.empty((_BLOCK, 2, 2, blocks))
    q[:, 0, 0] = ((h / 6) * (h * (a0 + 2.0 * am) + (h**3 / 4) * am * a0)).T
    q[:, 0, 1] = ((h / 6) * (6.0 + h * h * am)).T
    q[:, 1, 0] = ((h / 6) * (a0 + 4.0 * am + a1
                             + (h * h / 2) * am * (a0 + a1))).T
    q[:, 1, 1] = ((h / 6) * (h * (2.0 * am + a1) + (h**3 / 4) * a1 * am)).T
    del a_mid, a0, am, a1
    # Q_p = S + E, S the running sum of the increments D_p (I + Q_{p-1})
    # and E the rounding errors of its additions
    run, lost = q[0].copy(), np.zeros((2, 2, blocks))
    for p in range(1, _BLOCK):
        step, prev = q[p], q[p - 1]
        inc = step[:, :1] * prev[:1]
        inc += step[:, 1:] * prev[1:]
        inc += step
        total = run + inc
        part = total - run
        lost += (run - (total - part)) + (inc - part)
        run = total
        np.add(run, lost, out=q[p])
    # carry[:, :, j] = Q at the end of block j
    carry = q[-1].copy()
    s = 1
    while s < blocks:
        _combine(carry[:, :, s:], carry[:, :, :-s], carry[:, :, s:])
        s *= 2
    for p in range(_BLOCK):
        _combine(q[p, :, :, 1:], carry[:, :, :-1], q[p, :, :, 1:])
    # z = c + (Q_zz c + Q_zv d), z' = d + (Q_vz c + Q_vv d) in node order
    y = []
    for c, d in ((c1, d1), (c2, d2)):
        for row, start in ((0, c), (1, d)):
            node = np.empty(blocks * _BLOCK + 1)
            node[0] = start
            body = node[1:].reshape(blocks, _BLOCK)
            np.multiply(q[:, row, 0].T, c, out=body)
            body += q[:, row, 1].T * d
            body += start
            y.append(node[:n + 1])
    del q
    z1, v1, z2, v2 = y
    a = a_node[:n + 1]
    return MathieuPath(times, z1, v1, z2, v2, a * z1, a * z2, w)


def _path_width(p, epsilon, omega0, t):
    """(chi, chi', chi'') at t from the Hermite interpolant of the path p,
    with z'' = -4 f(t) z supplying the slopes of z'."""
    z1, dz1, z2, dz2 = _hermite(p.times, t, (p.z1, p.dz1), (p.dz1, p.ddz1),
                                (p.z2, p.dz2), (p.dz2, p.ddz2))
    f = drive_f("quasiperiodic", t, epsilon, omega0)
    return _oscillator_width(z1, dz1, z2, dz2, -4.0 * f * z1, -4.0 * f * z2, p.w)


def _path_phase(p, a, t):
    """a at t from its node values a: a at the nearest node j plus half the
    turn of w from t_j to t, which is far below pi, so wrapping it
    recovers it."""
    j = np.rint(t / p.times[1]).astype(int)  # times are k dt
    z1, z2 = _hermite(p.times, t, (p.z1, p.dz1), (p.z2, p.dz2))
    turn = (_oscillator_phase(z1, z2, p.w)
            - _oscillator_phase(p.z1[j], p.z2[j], p.w))
    turn -= 2.0 * math.pi * np.rint(turn / (2.0 * math.pi))
    return a[j] + 0.5 * turn


@dataclass
class ModulationTrace:
    """Sampled chi(t), derivatives, and phase offset, plus their evaluators.

    The sample arrays are what gets exported; the *_at query methods are what
    the propagator and residual suites call.  Both come from the evaluators
    the trace's factory sets, width(t) -> (chi, chi', chi'') and
    phase(t) -> a, so a query at a sample time returns the sample.  drive is
    the (kind, epsilon, omega0) whose Ermakov-Pinney equation chi solves,
    with a' = chi^-2, or None for a prescribed width, whose a' is 0.  An
    integrated trace keeps its oscillator path and only answers inside the
    window it was built to; every other trace answers at any t, and a float
    t there stays a float: the bits a 0-d array of t gives, and those of
    the element of any array of t except the closed form's chi'', whose
    chi**3 numpy rounds differently on an array.
    """

    times: np.ndarray
    chi: np.ndarray
    dchi_dt: np.ndarray
    d2chi_dt2: np.ndarray
    a: np.ndarray
    width: Callable
    phase: Callable
    drive: Optional[tuple] = None
    path: Optional[MathieuPath] = None

    def __post_init__(self):
        if np.any(self.chi <= 0) or not np.isfinite(self.chi).all():
            raise ValueError("ModulationTrace: chi samples must be positive and finite")
        if abs(float(self.a[0])) > 1e-15:
            raise ValueError("ModulationTrace: a must start at 0")

    def _check_range(self, t):
        """t as an array, or as it is for a float t on an analytic trace;
        refused outside the window of an integrated trace."""
        if self.path is None:  # the analytic widths extend to all t
            return t if isinstance(t, float) else np.asarray(t, dtype=float)
        t = np.asarray(t, dtype=float)
        lo, hi = float(self.times[0]), float(self.times[-1])
        outside = (t < lo - 1e-9) | (t > hi + 1e-9)
        if np.any(outside):
            asked = float(t[outside].flat[0])
            raise ValidationError(
                f"width trace queried at t = {asked!r}, outside its window "
                f"[{lo:.6g}, {hi:.6g}]; build it to a later horizon")
        return np.clip(t, lo, hi)

    def width_at(self, t):
        """(chi, chi', chi'', a') at t from one evaluation of the width."""
        t = self._check_range(t)
        chi, dchi, d2chi = map(_scalar, self.width(t))
        adot = (_scalar(np.zeros_like(t)) if self.drive is None
                else 1.0 / (chi * chi))
        return chi, dchi, d2chi, adot

    def chi_at(self, t):
        return self.width_at(t)[0]

    def dchi_dt_at(self, t):
        return self.width_at(t)[1]

    def d2chi_dt2_at(self, t):
        return self.width_at(t)[2]

    def a_at(self, t):
        return _scalar(self.phase(self._check_range(t)))

    def adot_at(self, t):
        return self.width_at(t)[3]


def closed_form_trace(t_end, dt=1e-3) -> ModulationTrace:
    """Analytic trace for the constant drive f = 1."""
    times = _uniform_times(t_end, dt)
    chi, dchi, d2chi = _closed_form_width(times)
    return ModulationTrace(times, chi, dchi, d2chi, _closed_form_a(times),
                           _closed_form_width, _closed_form_a,
                           drive=("constant", 0.0, 0.0))


def mathieu_trace(kind, t_end, dt=1e-4, epsilon=0.5, omega0=1.0,
                  z1_init=(_SQRT2, 0.0), z2_init=(0.0, 1.0)) -> ModulationTrace:
    """Trace built by integrating the parametric oscillator for any drive.

    The oscillator path is sampled at 0, dt, ..., n dt with n dt >= t_end and
    kept as the trace's path; a is half the unwrapped phase of
    w = z1 + i z2/W, counted from its start.  A step with
    dt * 2 sqrt(max|f|) above _STEP_BOUND, max|f| = 1 + |epsilon|, is
    refused with a ValidationError: RK4 no longer resolves the oscillator.
    """
    if kind not in DRIVE_KINDS:
        raise ValueError(f"mathieu_trace: unknown drive kind {kind!r}")
    if not (t_end > 0 and dt > 0):
        raise ValueError("mathieu_trace: t_end and dt must be positive")
    # the constant drive is f = 1 + 0 cos(0 t), whatever omega0 was given
    eps, w0 = ((float(epsilon), float(omega0)) if kind == "quasiperiodic"
               else (0.0, 0.0))
    ratio = dt * 2.0 * math.sqrt(1.0 + abs(eps))
    if ratio > _STEP_BOUND:
        raise ValidationError(
            f"mathieu_trace: dt = {dt!r} does not resolve the {kind} drive "
            f"(epsilon = {eps!r}): dt * 2 sqrt(max|f|) = {ratio:.3g} exceeds "
            f"{_STEP_BOUND}")
    path = _integrate_mathieu(t_end, dt, eps, w0, z1_init, z2_init)
    chi, dchi, d2chi = _oscillator_width(path.z1, path.dz1, path.z2, path.dz2,
                                         path.ddz1, path.ddz2, path.w)
    phase = np.unwrap(_oscillator_phase(path.z1, path.z2, path.w))
    a = 0.5 * (phase - phase[0])
    return ModulationTrace(path.times, chi, dchi, d2chi, a,
                           functools.partial(_path_width, path, eps, w0),
                           functools.partial(_path_phase, path, a),
                           drive=(kind, eps, w0), path=path)


def explicit_trace(alpha, beta, t_end, dt=1e-3) -> ModulationTrace:
    """Analytic trace for the prescribed two-tone width (phase offset 0)."""
    if abs(alpha) + abs(beta) >= 1.0:
        raise ValueError("explicit_trace: requires |alpha| + |beta| < 1")
    alpha, beta = float(alpha), float(beta)
    times = _uniform_times(t_end, dt)
    width = functools.partial(_two_tone_width, alpha, beta)
    chi, dchi, d2chi = width(times)
    return ModulationTrace(times, chi, dchi, d2chi, np.zeros_like(times),
                           width, np.zeros_like)
