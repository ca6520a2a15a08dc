"""Time-dependent width scale chi(t), its derivatives, and the phase offset a(t).

The width obeys the Ermakov-Pinney equation chi'' + 4 f(t) chi = 4/chi^3 and
is built from two independent solutions of the linear parametric oscillator
z'' + 4 f(t) z = 0 (a Mathieu-type equation for the cosine drives used here),
carried as one complex solution w = z1 + i z2/W, W the Wronskian, with
chi = sqrt2 |w|.  With z1(0) = sqrt(2), z1'(0) = 0 the periodic drive f = 1
gives the closed form chi = sqrt(1 + 15 cos^2 2t) / 2, which is also wired
in directly as the fast path.  A third source is an explicitly prescribed
two-tone width used by the dark-bright family.

A trace is what its factory hands it: one evaluator t -> (chi, chi',
chi'', a).  Its at(t), the queries that read it and the samples(times) the
export writes all come from one call of it, so nothing is sampled until
asked.  An integrated trace answers only inside the window of its
oscillator path and refuses any other t.

The oscillator's RK4 path is the prefix product of its 2x2 step matrices,
formed in O(n) work and in place by a scan within fixed blocks of steps
and a carry across them in step order, both compensated.  The scan
carries P - I, as P near I would round away the low bits of each O(h)
increment, and its blocks start at node 0, so a node's value does not
depend on the horizon.  A t between nodes is one step of the same RK4 map
from its nearest node.

Conventions fixed here and relied on elsewhere:

* a drive is the (epsilon, omega0) of f = 1 + epsilon cos(omega0 t); of
  DRIVES, periodic is (0, 0), so f = 1 exactly, and quasiperiodic as given;
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
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError

_SQRT2 = math.sqrt(2.0)
# largest h * 2 sqrt(max|f|), the oscillator's turn per step, that
# mathieu_trace accepts; at 0.2 RK4 keeps chi within 4.6e-4 of the closed
# form over 10 s of the periodic drive, at 0.8 it is 0.12 off
_STEP_BOUND = 0.2
# steps per block of the oscillator's prefix scan: the scan loops in Python
# over a block's positions, then over the block totals one at a time
_BLOCK = 128
# largest part of w, w' on a path mathieu_trace keeps; the width squares them
_PATH_LIMIT = 1e100
DRIVES = ("periodic", "quasiperiodic")


def check_drive(caller, drive):
    """Refuse a drive name outside DRIVES, naming them."""
    if drive not in DRIVES:
        raise ValidationError(f"{caller}: unknown drive {drive!r}; choose "
                              f"from {', '.join(DRIVES)}")


def drive_f(t, epsilon, omega0):
    """Trap-strength drive f = 1 + epsilon cos(omega0 t).

    A float t gives a float without an array, from math.cos, which the
    tests hold to the bits of numpy's cos: the element an array of t gives.
    """
    if not (math.isfinite(epsilon) and math.isfinite(omega0)):
        raise ValidationError(f"drive_f: epsilon = {epsilon!r} and omega0 = "
                              f"{omega0!r} must be finite")
    if isinstance(t, float):
        return float(1.0 + epsilon * math.cos(omega0 * t))
    return _scalar(1.0 + epsilon * np.cos(omega0 * np.asarray(t)))


def _scalar(out):
    """A 0-d result as a float, an array as it is."""
    return out if getattr(out, "ndim", 0) else float(out)


def _closed_form(t):
    """(chi, chi', chi'', a) of chi = sqrt(1 + 15 cos^2 2t) / 2."""
    c = np.cos(2.0 * t)
    chi = np.sqrt(1.0 + 15.0 * c * c) / 2.0
    s4, c4 = np.sin(4.0 * t), np.cos(4.0 * t)
    dchi = -(15.0 / 4.0) * s4 / chi
    # chi cubed by products, which round alike for a float and an array
    d2chi = -15.0 * c4 / chi - (225.0 / 16.0) * s4 * s4 / (chi * chi * chi)
    # a = int_0^t 4 ds / (1 + 15 cos^2 2s); the arctan form is pole-free
    # because 5 + 3 cos 4t never vanishes
    a = t - 0.5 * np.arctan(3.0 * s4 / (5.0 + 3.0 * c4))
    return chi, dchi, d2chi, a


def _two_tone(alpha, beta, t):
    """(chi, chi', chi'', a) of chi = 1 + alpha sin t + beta sin(sqrt2 t),
    a = 0."""
    s1, s2 = np.sin(t), np.sin(_SQRT2 * t)
    chi = 1.0 + alpha * s1 + beta * s2
    dchi = alpha * np.cos(t) + _SQRT2 * beta * np.cos(_SQRT2 * t)
    d2chi = -alpha * s1 - 2.0 * beta * s2
    return chi, dchi, d2chi, np.zeros_like(t)


@dataclass
class MathieuPath:
    """Trajectory of the complex oscillator w = z1 + i z2/W on a uniform
    time grid: w and w' at the nodes, and the node drive accel = -4 f,
    whose product with w is w'' = -4 f w."""

    times: np.ndarray
    w: np.ndarray
    dw: np.ndarray
    accel: np.ndarray


def _rk4_map(h, a0, am, a1):
    """Entries D00, D01, D10, D11 of one classical RK4 step of length h
    for y = (z, z'), z'' = a z: y -> (I + D) y, with a = -4 f at the step's
    start, middle and end (a0, am, a1):
    D = (h/6) [[h (a0 + 2 am) + (h^3/4) am a0,  6 + h^2 am],
               [a0 + 4 am + a1 + (h^2/2) am (a0 + a1),
                h (2 am + a1) + (h^3/4) a1 am]].
    h may be negative, and D = 0 at h = 0.  Powers are products, which
    round alike for a float and an array."""
    h6, h2 = h / 6, h * h
    h3 = h2 * h / 4
    return (h6 * (h * (a0 + 2.0 * am) + h3 * am * a0),
            h6 * (6.0 + h2 * am),
            h6 * (a0 + 4.0 * am + a1 + (h2 / 2) * am * (a0 + a1)),
            h6 * (h * (2.0 * am + a1) + h3 * a1 * am))


def _combine(a, b, out):
    """out = (I + a)(I + b) - I = a + b + ab for stacks of 2x2 matrices
    indexed [row, column, ...]; out may be a."""
    ab = a[:, :1] * b[:1]
    ab += a[:, 1:] * b[1:]
    ab += a + b
    out[...] = ab


def _integrate_mathieu(t_end, h, epsilon, omega0, z1_init, z2_init):
    """Classical RK4 for w'' + 4 f(t) w = 0 from w = z1 + i z2/W: step k
    is y_{k+1} = (I + D_k) y_k, y = (w, w'), D_k = _rk4_map of the step.

    Q_k = (I + D_{k-1})...(I + D_0) - I comes from a blocked scan over
    blocks of _BLOCK steps, anchored at step 0, so I + D is never rounded:
    one pass over the positions of every block at once, compensated
    (Knuth's TwoSum) because the equal blocks of the periodic drive would
    otherwise add up equal rounding errors; a carry over the block totals
    in step order, compensated alike; and one pass applying each block's
    carry to the complex start.  Steps past the last node pad the last
    block and reach no node.
    """
    n = int(math.ceil(t_end / h - 1e-12))  # n h >= t_end
    times = h * np.arange(n + 1)
    (c1, d1), (c2, d2) = np.array([z1_init, z2_init], dtype=float).tolist()
    wronskian = c1 * d2 - d1 * c2
    if abs(wronskian) < 1e-12:
        raise ValueError("mathieu_trace: initial data are linearly dependent")
    w0, dw0 = complex(c1, c2 / wronskian), complex(d1, d2 / wronskian)
    blocks = -(-n // _BLOCK)
    a_node = np.zeros(blocks * _BLOCK + 1)
    a_node[:n + 1] = -4.0 * drive_f(times, epsilon, omega0)
    a_mid = np.zeros(blocks * _BLOCK)
    a_mid[:n] = -4.0 * drive_f(times[:-1] + 0.5 * h, epsilon, omega0)
    # a0, am, a1 of step k sit at [k // _BLOCK, k % _BLOCK], D_k at
    # q[k % _BLOCK, :, :, k // _BLOCK]
    q = np.empty((_BLOCK, 2, 2, blocks))
    (q[:, 0, 0], q[:, 0, 1], q[:, 1, 0], q[:, 1, 1]) = (
        d.T for d in _rk4_map(h, a_node[:-1].reshape(blocks, _BLOCK),
                              a_mid.reshape(blocks, _BLOCK),
                              a_node[1:].reshape(blocks, _BLOCK)))
    del a_mid
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
    # carry[:, :, j] = Q at the end of block j, the running sum of the
    # increments T_j (I + Q_{j-1}), T_j block j's total, and its rounding
    # errors, compensated as the pass over the positions is
    run, lost = q[-1, :, :, 0].ravel().tolist(), [0.0] * 4
    carry = [run]
    for t00, t01, t10, t11 in q[-1, :, :, 1:].reshape(4, -1).T.tolist():
        c00, c01, c10, c11 = carry[-1]
        inc = ((t00 * c00 + t01 * c10) + t00, (t00 * c01 + t01 * c11) + t01,
               (t10 * c00 + t11 * c10) + t10, (t10 * c01 + t11 * c11) + t11)
        total = [s + i for s, i in zip(run, inc)]
        lost = [e + (s - (u - (u - s))) + (i - (u - s))
                for e, s, i, u in zip(lost, run, inc, total)]
        run = total
        carry.append([s + e for s, e in zip(run, lost)])
    carry = np.ascontiguousarray(np.transpose(carry)).reshape(2, 2, blocks)
    for p in range(_BLOCK):
        _combine(q[p, :, :, 1:], carry[:, :, :-1], q[p, :, :, 1:])
    # w = w0 + (Q_zz w0 + Q_zv w0'), w' = w0' + (Q_vz w0 + Q_vv w0')
    y = np.empty((2, blocks * _BLOCK + 1), dtype=complex)
    y[:, 0] = w0, dw0
    for row, start in enumerate((w0, dw0)):
        body = y[row, 1:].reshape(blocks, _BLOCK)  # node order
        np.multiply(q[:, row, 0].T, w0, out=body)
        body += q[:, row, 1].T * dw0
        body += start
    return MathieuPath(times, *y[:, :n + 1], a_node[:n + 1])


def _path(p, a, epsilon, omega0, t):
    """(chi, chi', chi'', a) at t from one _rk4_map step of s = t - t_j
    from the path p's nearest node j; at a node D = 0 returns the node.
    chi = sqrt2 |w|, chi' = 2 Re(conj(w) w') / chi, chi'' from
    w'' = -4 f(t) w, and a = a_j + arg(w conj(w_j)) / 2, rounding alike for
    a float and an array.  A complex t (a complex D) continues z1 and z2,
    stepped apart, and arg, the arctan of a ratio (arctan2 for real t)."""
    j = np.rint(t.real / p.times[1]).astype(int)  # times are k dt
    t_j, x_j, y_j = p.times[j], p.w[j].real, p.w[j].imag
    dx_j, dy_j = p.dw[j].real, p.dw[j].imag
    s = t - t_j
    accel = -4.0 * drive_f(t, epsilon, omega0)
    d = _rk4_map(s, p.accel[j],
                 -4.0 * drive_f(t_j + 0.5 * s, epsilon, omega0), accel)
    x, y = (z + (d[0] * z + d[1] * dz) for z, dz in ((x_j, dx_j), (y_j, dy_j)))
    dx, dy = (dz + (d[2] * z + d[3] * dz)
              for z, dz in ((x_j, dx_j), (y_j, dy_j)))
    r2 = x * x + y * y
    chi = np.sqrt(2.0 * r2)
    dchi = 2.0 * (x * dx + y * dy) / chi
    d2chi = (2.0 * (dx * dx + dy * dy + accel * r2) - dchi * dchi) / chi
    num, den = y * x_j - x * y_j, x * x_j + y * y_j
    turn = np.arctan2(num, den) if den.dtype == float else np.arctan(num / den)
    return chi, dchi, d2chi, a[j] + 0.5 * turn


# a trace's values at t, all from one call of its evaluator
Width = namedtuple("Width", "chi dchi d2chi a adot")
# a trace's chi, chi' and a at the times: the columns the export writes
WidthSamples = namedtuple("WidthSamples", "times chi dchi_dt a")


@dataclass
class ModulationTrace:
    """chi(t), its derivatives and the phase offset a(t), from one evaluator.

    A trace is the evaluator its factory sets, width(t) -> (chi, chi',
    chi'', a).  at(t) calls it once and adds a'; the *_at queries and the
    samples(times) the export writes read at(t), so a sample is the
    query's value bit for bit.  drive is the (epsilon, omega0) of the
    f = 1 + epsilon cos(omega0 t) whose Ermakov-Pinney equation chi solves,
    with a' = chi^-2, or None for a prescribed width, whose a' is 0.  An
    integrated trace keeps its oscillator path and only answers inside the
    window of path.times; every other trace answers at any t, and a float t
    there stays a float with the bits of the element of any array of t.
    """

    width: Callable
    drive: Optional[tuple] = None
    path: Optional[MathieuPath] = None

    def _evaluate(self, t):
        """width(t) for real or complex t, refused if Re t is outside an
        integrated trace's window: at's evaluation, the complex steps'."""
        if not isinstance(t, float) or self.path is not None:
            t = np.array(t, dtype=complex if np.iscomplexobj(t) else float)
        if self.path is None:  # the analytic widths extend to all t
            return self.width(t)  # a float t stays a float
        lo, hi = float(self.path.times[0]), float(self.path.times[-1])
        outside = (t.real < lo - 1e-9) | (t.real > hi + 1e-9)
        if np.any(outside):
            asked = float(t.real[outside].flat[0])
            advice = (f"it starts at its first node, t = {lo:.6g}"
                      if asked < lo else "build it to a later horizon")
            raise ValidationError(
                f"width trace queried at t = {asked!r}, outside its window "
                f"[{lo:.6g}, {hi:.6g}]; {advice}")
        np.clip(t.real, lo, hi, out=t.real)  # t is a copy
        return self.width(t)

    def at(self, t):
        """Width(chi, chi', chi'', a, a') at real t from one evaluation."""
        if np.iscomplexobj(t):
            raise TypeError("ModulationTrace.at: complex t is not supported")
        chi, dchi, d2chi, a = map(_scalar, self._evaluate(t))
        adot = (_scalar(np.zeros_like(chi)) if self.drive is None
                else 1.0 / (chi * chi))
        return Width(chi, dchi, d2chi, a, adot)

    # one-field views of at; they stay because perfbench/layers.py counts
    # the width queries by wrapping these five names
    def chi_at(self, t):
        return self.at(t).chi

    def dchi_dt_at(self, t):
        return self.at(t).dchi

    def d2chi_dt2_at(self, t):
        return self.at(t).d2chi

    def a_at(self, t):
        return self.at(t).a

    def adot_at(self, t):
        return self.at(t).adot

    def samples(self, times):
        """chi, chi' and a at the times, from one evaluation."""
        times = np.asarray(times, dtype=float)
        w = self.at(times)
        return WidthSamples(times, w.chi, w.dchi, w.a)


def closed_form_trace() -> ModulationTrace:
    """Analytic trace for the periodic drive f = 1."""
    return ModulationTrace(_closed_form, drive=(0.0, 0.0))


def mathieu_trace(drive, t_end, dt=1e-4, epsilon=0.5, omega0=1.0,
                  z1_init=(_SQRT2, 0.0), z2_init=(0.0, 1.0)) -> ModulationTrace:
    """Trace built by integrating the parametric oscillator for a drive in
    DRIVES; periodic takes epsilon = omega0 = 0 for any finite ones given.

    The oscillator path is sampled at 0, dt, ..., n dt with n dt >= t_end and
    kept as the trace's path; a is half the unwrapped phase of
    w = z1 + i z2/W, counted from its start.  A non-finite epsilon or
    omega0 is refused with a ValidationError, and so is a step with
    dt * 2 sqrt(max|f|) above _STEP_BOUND, max|f| = 1 + |epsilon|: RK4 no
    longer resolves the oscillator.  So is a path that grows past
    _PATH_LIMIT, or is not finite, within t_end: the width squares it.
    """
    check_drive("mathieu_trace", drive)
    if not all(math.isfinite(v) and v > 0 for v in (t_end, dt)):
        raise ValidationError(f"mathieu_trace: t_end = {t_end!r} and dt = "
                              f"{dt!r} must be finite and > 0")
    if not (math.isfinite(epsilon) and math.isfinite(omega0)):
        raise ValidationError(f"mathieu_trace: epsilon = {epsilon!r} and "
                              f"omega0 = {omega0!r} must be finite")
    eps, w0 = ((float(epsilon), float(omega0)) if drive == "quasiperiodic"
               else (0.0, 0.0))
    ratio = dt * 2.0 * math.sqrt(1.0 + abs(eps))
    if ratio > _STEP_BOUND:
        raise ValidationError(
            f"mathieu_trace: dt = {dt!r} does not resolve the {drive} drive "
            f"(epsilon = {eps!r}): dt * 2 sqrt(max|f|) = {ratio:.3g} exceeds "
            f"{_STEP_BOUND}")
    path = _integrate_mathieu(t_end, dt, eps, w0, z1_init, z2_init)
    z = (path.w.view(float), path.dw.view(float))
    # a NaN fails both comparisons
    if not all(-_PATH_LIMIT <= x.min() and x.max() <= _PATH_LIMIT for x in z):
        inside = (np.abs(np.stack(z)) <= _PATH_LIMIT).reshape(2, -1, 2)
        grown = np.argmin(inside.all(axis=(0, 2)))
        raise ValidationError(
            f"mathieu_trace: the oscillator path of the {drive} drive "
            f"(epsilon = {eps!r}, omega0 = {w0!r}) passes {_PATH_LIMIT:g} "
            f"at t = {float(path.times[grown]):.6g}: the drive is "
            f"parametrically resonant; build to an earlier horizon")
    phase = np.unwrap(np.angle(path.w))
    a = 0.5 * (phase - phase[0])
    return ModulationTrace(functools.partial(_path, path, a, eps, w0),
                           drive=(eps, w0), path=path)


def explicit_trace(alpha, beta) -> ModulationTrace:
    """Analytic trace for the prescribed two-tone width (phase offset 0)."""
    if not abs(alpha) + abs(beta) < 1.0:
        raise ValueError("explicit_trace: requires |alpha| + |beta| < 1")
    return ModulationTrace(
        functools.partial(_two_tone, float(alpha), float(beta)))
