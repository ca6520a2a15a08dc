"""Split-step Fourier propagation of the two-component modulated system.

The equations integrated are

    i dpsi_j/dt = -psi_j_xx + v_j(x,t) psi_j + sum_k g_jk(x,t) |psi_k|^2 psi_j

with Strang splitting: half kinetic step exp(-i k^2 dt/2) in Fourier space,
full phase step exp(-i [v_j + sum_k g_jk |psi_k|^2] dt) with the coefficients
sampled at the interval midpoint, half kinetic step.  The phase step leaves
|psi_k| unchanged, so the nonlinear substep is exact and the scheme is second
order in dt with exactly conserved discrete norms.

One kernel steps the fields, held as one complex array of shape
(members, 2, N) so that each FFT transforms both components of every
member.  Between records the closing half kinetic step of one step and the
opening half of the next are applied as one full step exp(-i k^2 dt)
(Weideman & Herbst, SIAM J. Numer. Anal. 23, 1986); they split again only
at records, which need the physical fields.  An ensemble, e.g. a clean run
and its perturbed twins, is stepped in shares of members, one process per
share (see propagate); the members of a share use one coefficient sample
per step and one reference solution per record.

Coefficient sources are duck-typed: anything with potential(x, t) -> (2, nx)
and couplings(x, t) -> (2, 2, nx) works, e.g. CoefficientSampler.  Every run
starts at t = 0.  Perturbations draw from numpy's PCG64 so seeded runs
reproduce bit for bit across platforms.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import DarkBackgroundError, DivergenceError, ValidationError
# assemble stays importable here: perfbench/layers.py wraps it by name
from .families import (FamilySpec, FieldPair, amplitudes_and_phase, assemble,
                       assemble_rows)
from .grid import SpatialGrid, is_integer
from .transform import (COMPLEX_STEP, STENCIL_DEPTH, CoefficientSampler,
                        interior_diff)

_FINITE_CHECK_STRIDE = 25
# reference points evaluated per call in propagate, four records of 1024
# points: enough to share the per-call cost of the width queries and the
# Jacobi and erf kernels, few enough that the block's temporaries stay in
# cache and add no measurable peak memory
_REFERENCE_POINTS = 4096
# a member's step on N points counts as N / _POINT_STEPS_PER_VALUE values
# towards parallel.worker_count: a second share pays for its own fork,
# coefficient samples and reference rows, and two members of 1024 points
# split measurably faster only from about 500 steps, so the two-member
# floor sits at 489
_POINT_STEPS_PER_VALUE = 10


@dataclass(frozen=True)
class PropagationConfig:
    grid: SpatialGrid
    dt: float
    t_end: float
    coefficient_source: object
    record_stride: int = 10

    def __post_init__(self):
        family = getattr(self.coefficient_source, "family", None)
        if family is not None and family.kind == "dark_bright":
            raise DarkBackgroundError(
                "PropagationConfig: the dark-bright first component tends to "
                "a nonzero background, which the periodic box wraps around "
                "its edge; split-step propagation of it is refused")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValidationError("PropagationConfig: dt must be positive")
        if not (np.isfinite(self.t_end) and self.t_end > 0):
            raise ValidationError("PropagationConfig: t_end must be positive")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValidationError(
                f"PropagationConfig: t_end {self.t_end:g} is not a whole "
                f"number of steps of dt {self.dt:g} "
                f"({self.t_end / self.dt:.6g} steps); the run would end at "
                f"t = {self.n_steps * self.dt:g}"
            )
        if not (is_integer(self.record_stride) and self.record_stride >= 1):
            raise ValidationError("PropagationConfig: record_stride must be "
                                  "an integer >= 1")
        # resolution guard: dt times the square of the highest resolvable
        # spatial frequency (cycles per unit length) must stay below pi
        g = self.grid
        f_max = g.n_points / (4.0 * g.half_width)
        if self.dt * f_max * f_max > math.pi:
            raise ValidationError(
                f"PropagationConfig: dt {self.dt:g} too large for grid "
                f"(dt * (N/4L)^2 = {self.dt * f_max * f_max:.3g} > pi)"
            )

    @property
    def n_steps(self):
        return int(round(self.t_end / self.dt))


@dataclass
class DiagnosticsTrace:
    """Per-record diagnostics collected during propagation.

    profile_error_k is the relative L2 deviation of |psi_k|^2 from the
    reference density; nan when no reference was supplied.  peak_pos1 is
    the grid position of max |psi_1|.
    """

    times: np.ndarray
    norm1: np.ndarray
    norm2: np.ndarray
    profile_error1: np.ndarray
    profile_error2: np.ndarray
    peak_pos1: np.ndarray

    def __post_init__(self):
        n = len(self.times)
        for name in ("norm1", "norm2", "profile_error1", "profile_error2",
                     "peak_pos1"):
            if len(getattr(self, name)) != n:
                raise ValidationError(f"DiagnosticsTrace: {name} length mismatch")
        if n and not ((self.norm1 > 0).all() and (self.norm2 > 0).all()):
            raise ValidationError("DiagnosticsTrace: norms must be positive")

    def __len__(self):
        return len(self.times)

    def max_profile_error(self):
        vals = np.concatenate([self.profile_error1, self.profile_error2])
        vals = vals[np.isfinite(vals)]
        return float(vals.max()) if len(vals) else float("nan")

    def norm_drift(self):
        d1 = np.abs(self.norm1 - self.norm1[0]) / self.norm1[0]
        d2 = np.abs(self.norm2 - self.norm2[0]) / self.norm2[0]
        return float(max(d1.max(), d2.max()))


@dataclass(frozen=True)
class StabilityReport:
    verdict: bool
    max_profile_error: float
    time_of_max: float
    threshold: float


def _stack(members, cfg, caller):
    """Validated (members, 2, N) complex copy of the members' fields."""
    if not members:
        raise ValidationError(f"{caller}: no initial fields")
    n = cfg.grid.n_points
    for m, f in enumerate(members):
        if not (len(f.psi1) == len(f.psi2) == n
                and np.array_equal(f.x, cfg.grid.x)):
            raise ValidationError(
                f"{caller}: member {m} fields do not match cfg.grid")
    psi = np.array([(f.psi1, f.psi2) for f in members], dtype=complex)
    if not np.isfinite(psi).all():
        raise ValidationError(f"{caller}: initial fields must be finite")
    return psi


def _phase_factor(half, out, work):
    """e^{2i half} into the complex array out, from one tangent.

    With tau = tan(half), e^{2i half} = (1 + i tau)^2 / (1 + tau^2): the
    real part is (1 - tau^2) / (1 + tau^2) and the imaginary part
    2 tau / (1 + tau^2), each divided straight into its part of out.
    numpy's float64 tan runs SIMD loops where sin and cos run scalar ones,
    so one tangent costs less than a cosine and a sine.  A non-finite half
    gives a non-finite factor.  half and work, a float array of shape
    (2,) + half.shape, are overwritten.
    """
    tau, tau2, den = np.tan(half, out=half), work[0], work[1]
    np.multiply(tau, tau, out=tau2)
    np.add(tau2, 1.0, out=den)
    np.subtract(1.0, tau2, out=tau2)
    np.divide(tau2, den, out=out.real)
    np.add(tau, tau, out=tau)
    np.divide(tau, den, out=out.imag)
    return out


def _record_steps(n_steps, stride):
    """The steps after which the kernel yields: every stride-th and the
    last."""
    steps = list(range(stride, n_steps + 1, stride))
    if not steps or steps[-1] != n_steps:
        steps.append(n_steps)
    return steps


def _strang(psi, cfg, t0, n_steps, stride):
    """The stepping kernel: n_steps Strang steps of cfg.dt from t0 on psi,
    shape (members, 2, N), yielding (t, fields) after every stride-th step
    and after the last."""
    coeffs, x, dt = cfg.coefficient_source, cfg.grid.x, cfg.dt
    k2 = cfg.grid.wavenumbers**2
    half = np.exp(-1j * k2 * dt / 2.0)
    # the merged kinetic factor in the fields' shape: an elementwise
    # product costs less than one broadcast over members and components
    full = np.broadcast_to(np.exp(-1j * k2 * dt), psi.shape).copy()
    records = set(_record_steps(n_steps, stride))
    # the step's buffers and their views, made once: the FFTs write into
    # field and spec, the phase step into the rest
    field, spec = np.empty_like(psi), np.fft.fft(psi)
    dens, angle = np.empty(psi.shape), np.empty(psi.shape)
    work = np.empty((2,) + psi.shape)
    second = work[0]
    turn = np.empty(psi.shape, dtype=complex)
    re, im, dens1, dens2 = field.real, field.imag, dens[:, :1], dens[:, 1:]
    kinetic = half
    for i in range(n_steps):
        # the first step opens with a half kinetic step, the others with
        # the previous step's closing half merged in
        spec *= kinetic
        np.fft.ifft(spec, out=field)
        kinetic = full
        t_mid = t0 + (i + 0.5) * dt
        v = coeffs.potential(x, t_mid)
        g = coeffs.couplings(x, t_mid)
        np.square(re, out=dens)
        dens += np.square(im, out=second)
        # component j turns by theta_j = -dt (v_j + g_j1 |psi_1|^2
        # + g_j2 |psi_2|^2); the factor is built from theta_j / 2
        np.multiply(g[:, 0], dens1, out=angle)
        np.multiply(g[:, 1], dens2, out=second)
        np.add(v, angle, out=angle)
        angle += second
        angle *= -0.5 * dt
        field *= _phase_factor(angle, turn, work)
        np.fft.fft(field, out=spec)
        t = t0 + (i + 1) * dt
        last = i == n_steps - 1
        if ((i + 1) % _FINITE_CHECK_STRIDE == 0 or last) \
                and not np.isfinite(spec).all():
            raise DivergenceError(t)
        if i + 1 in records:
            # a fresh array: the record outlives the step's buffers
            yield t, np.fft.ifft(half * spec)


def step(fields: FieldPair, t, cfg: PropagationConfig) -> FieldPair:
    """One Strang step from t to t + cfg.dt: the kernel run for one step."""
    psi = _stack([fields], cfg, "step")
    ((t_new, out),) = _strang(psi, cfg, t, 1, 1)
    return FieldPair(fields.x, out[0, 0], out[0, 1], t_new)


def _references(reference, x, times):
    """The reference (psi_1, psi_2) at each of times, in order.

    A (family, trace) pair is evaluated a block of times at a time, about
    _REFERENCE_POINTS points per call; without a reference each is
    (None, None).
    """
    if reference is None:
        for _ in times:
            yield None, None
    else:
        family, trace = reference
        rows = max(1, _REFERENCE_POINTS // len(x))
        for k in range(0, len(times), rows):
            yield from zip(*assemble_rows(family, trace, x, times[k:k + rows]))


def _profile_errors(dens, exact):
    """Relative L2 deviation of each density row of dens, shape
    (members, N), from |exact|^2; nan without a reference or where the
    reference density vanishes."""
    if exact is None:
        return np.full(len(dens), np.nan)
    dens_ref = np.abs(exact) ** 2
    scale = np.sqrt(np.sum(dens_ref**2))
    if scale == 0.0:
        return np.full(len(dens), np.nan)
    return np.sqrt(np.sum((dens - dens_ref) ** 2, axis=-1)) / scale


def _diagnostics(fields, exact, grid):
    """One record's (norm1, norm2, profile_error1, profile_error2,
    peak_pos1) for every member, shape (members, 5)."""
    amp = np.abs(fields)
    dens = amp**2
    norms = np.sum(dens, axis=-1) * grid.dx
    peak = grid.x[np.argmax(amp[:, 0], axis=-1)]
    return np.column_stack([norms, _profile_errors(dens[:, 0], exact[0]),
                            _profile_errors(dens[:, 1], exact[1]), peak])


def _table(psi, cfg, reference, times):
    """The diagnostics of the ensemble psi at each of times, shape
    (records, members, 5): psi is stepped with its own coefficient samples
    and reference rows."""
    records = itertools.chain(
        [(0.0, psi)], _strang(psi, cfg, 0.0, cfg.n_steps, cfg.record_stride))
    return np.array([
        _diagnostics(fields, exact, cfg.grid) for (_, fields), exact
        in zip(records, _references(reference, cfg.grid.x, times))])


def propagate(initial, cfg: PropagationConfig, reference=None):
    """Evolve initial fields to cfg.t_end, recording diagnostics.

    initial is one FieldPair, which gives one DiagnosticsTrace, or a
    sequence of them, an ensemble, which gives one trace per member in
    order.  Each member's trace is bit for bit that of its own run.

    The ensemble is cut into contiguous shares of members, as many as
    parallel.worker_count allows for its work, and the shares run through
    parallel.forked_map: the calling process steps the first and a forked
    worker each of the others, each share as one ensemble with its own
    coefficient samples and reference rows.  Only each share's table of
    diagnostics travels back.

    reference is a (family, trace) pair giving the analytic solution for
    the profile-error columns; without it those columns are nan.  It is
    evaluated for all members of a share at once, a block of upcoming
    records per call.

    There is no dark-bright propagation: PropagationConfig refuses its
    coefficient source (see DarkBackgroundError).
    """
    single = isinstance(initial, FieldPair)
    members = [initial] if single else list(initial)
    psi = _stack(members, cfg, "propagate")
    times = [0.0] + [k * cfg.dt for k in
                     _record_steps(cfg.n_steps, cfg.record_stride)]
    point_steps = len(psi) * cfg.n_steps * cfg.grid.n_points
    shares = parallel.worker_count(len(psi),
                                   point_steps // _POINT_STEPS_PER_VALUE)
    with parallel.forked_map(
            lambda share: _table(share, cfg, reference, times),
            np.array_split(psi, shares), shares, "propagate") as tables:
        table = np.concatenate(list(tables), axis=1)
    # (records, members, column) -> one contiguous column per member
    columns = table.transpose(1, 2, 0).copy()
    traces = [DiagnosticsTrace(np.array(times), *member)
              for member in columns]
    return traces[0] if single else traces


def perturb(fields: FieldPair, amplitude, seed, mode="multiplicative") -> FieldPair:
    """Seeded random perturbation of both components.

    multiplicative: psi_k (1 + amplitude u_k(x)); additive: psi_k +
    amplitude max|psi_k| u_k(x), with u_k iid uniform on [-1, 1] drawn from
    PCG64(seed), first component first.  amplitude 0 returns an untouched
    copy bit for bit.
    """
    if mode not in ("multiplicative", "additive"):
        raise ValidationError(f"perturb: unknown mode {mode!r}")
    if not np.isfinite(amplitude) or amplitude < 0:
        raise ValidationError("perturb: amplitude must be finite and >= 0")
    if amplitude == 0:
        return FieldPair(fields.x, fields.psi1.copy(), fields.psi2.copy(), fields.t)
    rng = np.random.Generator(np.random.PCG64(seed))
    u1 = rng.uniform(-1.0, 1.0, len(fields.psi1))
    u2 = rng.uniform(-1.0, 1.0, len(fields.psi2))
    if mode == "multiplicative":
        p1 = fields.psi1 * (1.0 + amplitude * u1)
        p2 = fields.psi2 * (1.0 + amplitude * u2)
    else:
        p1 = fields.psi1 + amplitude * np.abs(fields.psi1).max() * u1
        p2 = fields.psi2 + amplitude * np.abs(fields.psi2).max() * u2
    return FieldPair(fields.x, p1, p2, fields.t)


def stability_verdict(trace: DiagnosticsTrace, threshold=0.1) -> StabilityReport:
    """Judge a run stable when the worst profile error stays at or below
    threshold for both components."""
    finite1 = np.isfinite(trace.profile_error1)
    finite2 = np.isfinite(trace.profile_error2)
    if len(trace) == 0 or not (finite1.any() and finite2.any()):
        raise ValidationError("stability_verdict: trace has no profile errors")
    worst = trace.max_profile_error()
    both = np.maximum(
        np.where(finite1, trace.profile_error1, -np.inf),
        np.where(finite2, trace.profile_error2, -np.inf),
    )
    t_at = float(trace.times[int(np.argmax(both))])
    return StabilityReport(bool(worst <= threshold), worst, t_at, threshold)


def pde_residual(family: FamilySpec, grid: SpatialGrid, t, trace):
    """Max residual of each governing equation on the exact fields.

    The time derivative is the complex step (Squire & Trapp, SIAM Rev. 40,
    110, 1998): the width is evaluated once, at t + ih, and with it each
    component's real amplitude R_j and the phase eta, so the fields are
    psi_j = Re R_j e^{i Re eta} and their time derivatives
    (Im R_j + i Im eta Re R_j) / h e^{i Re eta}, exact to rounding.  The
    space derivative is spectral for the localized families (their fields
    vanish at the box edge) and an eighth-order difference restricted to
    the interior for the dark-bright family, whose background is
    anti-periodic across the edge.  Returns the pair of max-norm residuals
    (component 1, component 2).  A t outside an integrated trace's window
    is refused by the trace.
    """
    x, d = grid.x, STENCIL_DEPTH
    sampler = CoefficientSampler(family, trace)
    v, g = sampler.potential(x, t), sampler.couplings(x, t)
    chi, dchi, _, a = trace._evaluate(t + 1j * COMPLEX_STEP)
    *amplitudes, eta = amplitudes_and_phase(family, x, chi, dchi, a)
    phase = np.exp(1j * eta.real)
    psis = [r.real * phase for r in amplitudes]
    dens = [np.abs(psi) ** 2 for psi in psis]
    out = []
    for j, (r, mid) in enumerate(zip(amplitudes, psis)):
        psi_t = (r.imag + 1j * eta.imag * r.real) / COMPLEX_STEP * phase
        if family.kind in ("elliptic", "sech"):
            psi_xx = np.fft.ifft(-grid.wavenumbers**2 * np.fft.fft(mid))
            core = slice(None)
        else:
            # zero-padded where the stencil does not reach; outside the core
            psi_xx = np.pad(interior_diff(mid, grid.dx, axis=0, order=2), d)
            core = slice(d, -d)
        res = (1j * psi_t + psi_xx - v[j] * mid
               - (g[j, 0] * dens[0] + g[j, 1] * dens[1]) * mid)
        # np.max, not nanmax: a non-finite residual must not vanish
        out.append(float(np.max(np.abs(res[core]))))
    return out[0], out[1]
