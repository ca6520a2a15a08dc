"""Width modulation: oscillator integration, closed forms, trace queries.

Oracle for the periodic drive f = 1: chi = sqrt(1 + 15 cos^2 2t) / 2, an
explicit solution of chi'' + 4 chi = 4/chi^3 with chi(0) = 2, chi'(0) = 0.
The oscillator route must reproduce it to integrator accuracy.  For the
quasiperiodic drive no closed form exists, so the checks are structural:
Wronskian conservation, the defining second-order equation, and invariance
of chi under rescaling the second solution.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from modcnls import modulation
from modcnls.errors import ValidationError
from modcnls.modulation import (
    _closed_form,
    closed_form_trace,
    drive_f,
    explicit_trace,
    mathieu_trace,
)


def chi_exact(t):
    return np.sqrt(1.0 + 15.0 * np.cos(2.0 * t) ** 2) / 2.0


def node_samples(tr):
    """An integrated trace's samples at its path's nodes."""
    return tr.samples(tr.path.times)


class TestDrive:
    def test_periodic(self):
        assert drive_f(3.7, 0.0, 0.0) == 1.0
        np.testing.assert_array_equal(drive_f(np.arange(4.0), 0.0, 0.0), 1.0)

    def test_quasiperiodic(self):
        t = np.linspace(0, 5, 11)
        np.testing.assert_allclose(
            drive_f(t, epsilon=0.5, omega0=1.0),
            1.0 + 0.5 * np.cos(t),
        )

    def test_bad_drive(self):
        with pytest.raises(ValueError):
            mathieu_trace("chirp", 1.0)
        with pytest.raises(ValidationError, match=r"epsilon = nan and "
                           r"omega0 = 1\.0 must be finite"):
            drive_f(0.5, float("nan"), 1.0)

    def test_periodic_is_the_quasiperiodic_oscillator_at_zero_depth(self):
        # f = 1 + 0 cos(0 t) is f = 1 bit for bit, whatever finite
        # epsilon and omega0 the periodic drive is handed
        want = mathieu_trace("quasiperiodic", 2.0, dt=1e-3, epsilon=0.0,
                             omega0=0.0)
        for epsilon, omega0 in ((0.5, 1.0), (0.0, 0.0), (-0.3, 7.0)):
            got = mathieu_trace("periodic", 2.0, dt=1e-3, epsilon=epsilon,
                                omega0=omega0)
            assert got.drive == want.drive == (0.0, 0.0)
            for name in ("times", "w", "dw", "accel"):
                assert same_bits(getattr(got.path, name),
                                 getattr(want.path, name)), name
            t = np.linspace(0.0, 2.0, 777)
            for field, value in zip(modulation.Width._fields, got.at(t)):
                assert same_bits(value, getattr(want.at(t), field)), field


def rk4_step_longdouble(z, v, t, h, epsilon, omega0):
    """One classical RK4 step of z'' = -4 f(t) z from (z, z') at t, in
    extended precision; t and h are long doubles."""
    L = np.longdouble

    def drive(t):
        return 1 + L(epsilon) * np.cos(L(omega0) * t)

    f0, fm, f1 = drive(t), drive(t + h / 2), drive(t + h)
    k1z, k1v = v, -4 * f0 * z
    k2z, k2v = v + h / 2 * k1v, -4 * fm * (z + h / 2 * k1z)
    k3z, k3v = v + h / 2 * k2v, -4 * fm * (z + h / 2 * k2z)
    k4z, k4v = v + h * k3v, -4 * f1 * (z + h * k3z)
    return (z + h * (k1z + 2 * k2z + 2 * k3z + k4z) / 6,
            v + h * (k1v + 2 * k2v + 2 * k3v + k4v) / 6)


def chi_rk4_longdouble(t_end, h, epsilon, omega0):
    # oracle: the same classical RK4, stepped one step after another in
    # extended precision, so its own rounding sits far below float64's;
    # arrays of epsilon and omega0 step one drive per column at once
    L = np.longdouble
    hl = L(h)
    n = int(math.ceil(t_end / h - 1e-12))
    # (z1, z2) and (z1', z2'), stepped together
    drives = np.ones(np.shape(epsilon), L)
    z = np.multiply.outer(np.array([np.sqrt(L(2)), 0], L), drives)
    v = np.multiply.outer(np.array([0, 1], L), drives)
    chi = [2 * drives]
    for i in range(n):
        z, v = rk4_step_longdouble(z, v, L(i) * hl, hl, epsilon, omega0)
        # chi = sqrt(2 z1^2 + 2 z2^2 / W^2) with W = sqrt 2
        chi.append(np.sqrt(2 * z[0] ** 2 + z[1] ** 2))
    return np.array(chi)


class TestMathieuIntegration:
    def test_reproduces_closed_form_width(self):
        s = node_samples(mathieu_trace("periodic", 10.0, dt=1e-4))
        err = np.abs(s.chi - chi_exact(s.times)).max()
        assert err < 5e-14, f"chi deviates from closed form by {err:.3e}"

    @pytest.mark.parametrize("kind, epsilon, omega0", [
        ("quasiperiodic", 0.5, 1.0),
        ("quasiperiodic", 0.5, 4.0),  # parametric resonance: chi grows
        ("periodic", 0.0, 0.0),
    ])
    def test_matches_extended_precision_rk4(self, kind, epsilon, omega0):
        # same method, same step: the difference is float64 rounding alone
        tr = mathieu_trace(kind, 5.0, dt=1e-3, epsilon=epsilon, omega0=omega0)
        want = chi_rk4_longdouble(5.0, 1e-3, epsilon, omega0)
        err = float(np.max(np.abs(node_samples(tr).chi - want) / want))
        assert err < 1e-14, f"relative chi error {err:.3e}"

    def test_long_path_carries_its_blocks_without_drift(self):
        # the t = 10 path joins 782 block totals; carried with TwoSum its
        # chi stays 1.0e-15 (quasiperiodic) and 2.8e-15 (periodic) from
        # the oracle, where a plain sequential carry drifts to 1.0e-14 and
        # 1.6e-14, the periodic drive's equal blocks adding equal errors
        want = chi_rk4_longdouble(10.0, 1e-4, np.array([0.5, 0.0]),
                                  np.array([1.0, 0.0]))
        for column, kind in enumerate(("quasiperiodic", "periodic")):
            chi = node_samples(mathieu_trace(kind, 10.0, dt=1e-4)).chi
            err = float(np.max(np.abs(chi - want[:, column])
                               / want[:, column]))
            assert err < 4e-15, f"{kind}: relative chi drift {err:.3e}"

    def test_path_does_not_depend_on_horizon(self):
        # the path at a node is the same bits whatever t_end it was built
        # to, on node counts around the scan's block edges and on long runs
        b = modulation._BLOCK
        counts = [2, b - 1, b, b + 1, 2 * b + 1]
        paths = [mathieu_trace("quasiperiodic", t_end, dt=1e-4).path
                 for t_end in [(k - 1) * 1e-4 for k in counts]
                 + [3.3, 10.002, 11.0]]
        assert [len(path.times) for path in paths[:len(counts)]] == counts
        longest = paths[-1]
        for path in paths[:-1]:
            n = len(path.times)
            for name in ("times", "w", "dw", "accel"):
                np.testing.assert_array_equal(getattr(path, name),
                                              getattr(longest, name)[:n])

    def test_build_holds_little_beyond_the_trace(self):
        # the scan works in place on one (block, 2, 2, blocks) array, so
        # the t = 10 build (10^5 steps) peaks at most 6 MB above what the
        # trace keeps; the trace keeps the times, the node drive, the node
        # phases and the complex w and w', seven arrays' worth of 10^5
        # floats, and no samples
        tracemalloc.start()
        try:
            trace = mathieu_trace("quasiperiodic", 10.0, dt=1e-4)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace.path.times) == 100_001
        assert kept <= 5.5 * 2**20, f"kept {kept / 2**20:.2f} MB"
        assert peak - kept <= 6 * 2**20, f"{(peak - kept) / 2**20:.2f} MB"

    def test_wronskian_conserved(self):
        # w = z1 + i z2/W has Im(conj(w) w') = (z1 z2' - z2 z1')/W = 1
        path = mathieu_trace("quasiperiodic", 10.0, dt=1e-4).path
        wronskian = np.imag(np.conj(path.w) * path.dw)
        drift = np.abs(wronskian - 1.0).max()
        assert wronskian[0] == pytest.approx(1.0, abs=1e-15)
        assert drift < 1e-8, f"Wronskian drifted by {drift:.3e}"

    def test_rescaling_second_solution_leaves_chi_alone(self):
        tr = mathieu_trace("quasiperiodic", 5.0, dt=1e-4)
        tr3 = mathieu_trace("quasiperiodic", 5.0, dt=1e-4, z2_init=(0.0, 3.0))
        assert np.abs(node_samples(tr).chi
                      - node_samples(tr3).chi).max() < 1e-12

    def test_width_equation_residual(self):
        # chi'' + 4 f chi = 4 / chi^3 must hold for the quasiperiodic drive
        # too, at the nodes and between them
        tr = mathieu_trace("quasiperiodic", 8.0, dt=1e-4, epsilon=0.5, omega0=1.0)
        off_node = np.random.default_rng(27).uniform(0.0, 8.0, 5000)
        for t in (tr.path.times, off_node):
            f = drive_f(t, 0.5, 1.0)
            chi, _, d2chi, _, _ = tr.at(t)
            res = d2chi + 4.0 * f * chi - 4.0 / chi**3
            assert np.abs(res).max() < 1e-9

    def test_state_access(self):
        tr = mathieu_trace("periodic", 1.0, dt=1e-3)
        path = tr.path
        assert path.w[0] == pytest.approx(math.sqrt(2.0))
        assert tr.chi_at(0.0) == pytest.approx(2.0)
        assert len(path.times) == 1001
        # the node drive -4 f, with f = 1
        np.testing.assert_array_equal(path.accel, -4.0)

    def test_degenerate_initial_data_rejected(self):
        with pytest.raises(ValueError):
            mathieu_trace("periodic", 1.0, z2_init=(math.sqrt(2.0), 0.0))
        with pytest.raises(ValueError):
            mathieu_trace("periodic", -1.0)
        with pytest.raises(ValueError):
            mathieu_trace("quasiperiodic", 1.0, omega0=float("nan"))

    @pytest.mark.parametrize("kind, dt, ratio", [
        ("periodic", 0.4, "0.8"),  # dt * 2 sqrt(1)
        ("quasiperiodic", 0.09, "0.22"),  # dt * 2 sqrt(1 + 0.5)
    ])
    def test_unresolved_step_refused(self, kind, dt, ratio):
        with pytest.raises(ValidationError) as info:
            mathieu_trace(kind, 10.0, dt=dt)
        for part in (f"dt = {dt}", f"{kind} drive", f"= {ratio} exceeds 0.2"):
            assert part in str(info.value), str(info.value)

    def test_step_just_below_the_bound_accepted(self):
        s = node_samples(mathieu_trace("periodic", 10.0, dt=0.099))
        exact = chi_exact(s.times)
        assert np.max(np.abs(s.chi - exact) / exact) < 5e-4
        mathieu_trace("quasiperiodic", 10.0, dt=0.08)  # ratio 0.196


class TestOneRK4Map:
    """An integrated trace answers every t with one step of the RK4 map
    that built its path, of signed length s from the nearest node."""

    DT = 1e-3

    def trace(self):
        return mathieu_trace("quasiperiodic", 3.0, dt=self.DT)

    def test_off_node_query_is_one_rk4_step_from_its_node(self):
        L = np.longdouble
        tr = self.trace()
        path = tr.path
        t = np.random.default_rng(31).uniform(0.0, 3.0, 200)
        j = np.rint(t / self.DT).astype(int)
        assert np.all(t != path.times[j])
        chi, _, _, a, _ = tr.at(t)
        a_node = tr.a_at(path.times[j])
        for k in range(len(t)):
            t_j, s = L(path.times[j[k]]), L(t[k]) - L(path.times[j[k]])
            w, dw = path.w[j[k]], path.dw[j[k]]
            x, _ = rk4_step_longdouble(L(w.real), L(dw.real), t_j, s, 0.5, 1.0)
            y, _ = rk4_step_longdouble(L(w.imag), L(dw.imag), t_j, s, 0.5, 1.0)
            want = np.sqrt(2 * (x * x + y * y))
            assert abs(chi[k] - want) <= 1e-14 * want, k
            # a turns by half the angle from w_j to w
            turn = np.arctan2(y * L(w.real) - x * L(w.imag),
                              x * L(w.real) + y * L(w.imag))
            assert abs(a[k] - (a_node[k] + turn / 2)) <= 1e-14 * abs(a[k])

    def test_node_query_returns_the_node(self):
        tr = self.trace()
        path = tr.path
        chi, dchi, _, a, _ = tr.at(path.times)
        x, y, dx, dy = path.w.real, path.w.imag, path.dw.real, path.dw.imag
        assert same_bits(chi, np.sqrt(2.0 * (x * x + y * y)))
        assert same_bits(dchi, 2.0 * (x * dx + y * dy) / chi)
        phase = np.unwrap(np.angle(path.w))
        assert same_bits(a, 0.5 * (phase - phase[0]))

    def test_every_node_is_one_rk4_step_from_the_node_before(self):
        # the carry composes the block totals in step order, as the steps
        # compose, so a block start rounds like any other node
        dt = 1e-4
        path = mathieu_trace("quasiperiodic", 3.0, dt=dt).path
        w, dw = path.w[:-1], path.dw[:-1]
        mid = -4.0 * drive_f(path.times[:-1] + 0.5 * dt, 0.5, 1.0)
        d = modulation._rk4_map(dt, path.accel[:-1], mid, path.accel[1:])
        stepped = w + (d[0] * w + d[1] * dw)
        ulps = np.abs(path.w[1:] - stepped) / np.spacing(np.abs(path.w[1:]))
        assert ulps.max() <= 16, (np.argmax(ulps) + 1, ulps.max())

    def test_nearest_node_switch_is_continuous(self):
        # at every switch of a t = 3 path, the last float answered from
        # node j and the first from node j + 1 differ by the derivative
        # times their ulp apart, up to a few ulp of rounding; chi' is a
        # sum of terms of size sqrt2 |w'| = sqrt(chi'^2 + 4/chi^2).  The
        # largest gaps are 7 ulp of chi and 18 of chi'; the scan's block
        # starts round like any other node
        dt = 1e-4
        tr = mathieu_trace("quasiperiodic", 3.0, dt=dt)
        j = np.arange(len(tr.path.times) - 1)
        lo = (j + 0.5) * dt
        for _ in range(4):  # onto the last float rounding to node j
            lo = np.where(np.rint(lo / dt) > j, np.nextafter(lo, -1.0), lo)
        for _ in range(4):
            up = np.nextafter(lo, 9.0)
            lo = np.where(np.rint(up / dt) == j, up, lo)
        hi = np.nextafter(lo, 9.0)
        assert np.array_equal(np.rint(lo / dt), j)
        assert np.array_equal(np.rint(hi / dt), j + 1)
        below, above = tr.at(lo), tr.at(hi)
        for field, slope, scale, ulps in (
                ("chi", "dchi", np.maximum(below.chi, 1.0), 16),
                ("dchi", "d2chi",
                 np.sqrt(below.dchi**2 + 4.0 / below.chi**2), 32),
                ("a", "adot", np.maximum(below.a, 1.0), 8)):
            gap = (getattr(above, field) - getattr(below, field)
                   - getattr(below, slope) * (hi - lo))
            worst = np.max(np.abs(gap) / np.spacing(scale))
            assert worst <= ulps, (field, worst)


class TestClosedFormTrace:
    def test_range_and_special_points(self):
        tr = closed_form_trace()
        assert tr.chi_at(0.0) == pytest.approx(2.0)
        assert tr.chi_at(math.pi / 4.0) == pytest.approx(0.5)
        chi = tr.chi_at(np.linspace(0.0, 10.0, 10_001))
        assert chi.min() >= 0.5 - 1e-12 and chi.max() <= 2.0 + 1e-12

    def test_breathing_period(self):
        tr = closed_form_trace()
        t = np.linspace(0, 5, 777)
        np.testing.assert_allclose(
            tr.chi_at(t + math.pi / 2.0), tr.chi_at(t), rtol=0, atol=1e-12
        )

    def test_derivatives_match_finite_differences(self):
        tr = closed_form_trace()
        t = np.linspace(0.1, 9.9, 211)
        h = 1e-5
        fd1 = (tr.chi_at(t + h) - tr.chi_at(t - h)) / (2 * h)
        fd2 = (tr.chi_at(t + h) - 2 * tr.chi_at(t) + tr.chi_at(t - h)) / h**2
        assert np.abs(fd1 - tr.dchi_dt_at(t)).max() < 1e-8
        assert np.abs(fd2 - tr.d2chi_dt2_at(t)).max() < 1e-4

    def test_initial_curvature(self):
        # chi''(0) = 4/chi^3 - 4 chi at chi = 2: 1/2 - 8 = -7.5
        tr = closed_form_trace()
        assert tr.d2chi_dt2_at(0.0) == pytest.approx(-7.5, abs=1e-12)

    def test_phase_offset_continuous_and_correct(self):
        tr = closed_form_trace()
        # a' = 1/chi^2, checked by finite differences across the full range,
        # including through the tan poles of the naive antiderivative
        t = np.linspace(0.0, 9.99, 997)
        h = 1e-6
        fd = (tr.a_at(t + h) - tr.a_at(np.maximum(t - h, 0.0))) / (
            h + np.minimum(t, h)
        )
        assert np.abs(fd - tr.adot_at(t)).max() < 1e-6
        assert tr.a_at(0.0) == 0.0
        assert tr.a_at(math.pi / 4.0) == pytest.approx(math.pi / 4.0, abs=1e-12)
        assert tr.a_at(math.pi / 2.0) == pytest.approx(math.pi / 2.0, abs=1e-12)

    @pytest.mark.parametrize("source", ["closed_form", "two_tone",
                                        "mathieu"])
    def test_samples_match_queries(self, source):
        # samples and queries come from one evaluator per source, so a
        # sample must be the query's value bit for bit, at the nodes of an
        # integrated trace and between them
        tr = TestScalarQueries.TRACES[source]()
        t = (np.linspace(0.0, 3.0, 3001) if tr.path is None
             else tr.path.times)
        for times in (t, 0.5 * (t[1:] + t[:-1]), t[:1]):
            s = tr.samples(times)
            assert same_bits(s.times, times)
            assert same_bits(s.chi, tr.chi_at(times))
            assert same_bits(s.dchi_dt, tr.dchi_dt_at(times))
            assert same_bits(s.a, tr.a_at(times))

    def test_only_an_integrated_trace_has_a_window(self):
        # the analytic widths answer past their samples from the same
        # formulas; the oscillator's path ends where it was integrated to
        t = np.array([-1.0, 4.5])
        closed = closed_form_trace()
        np.testing.assert_allclose(closed.chi_at(t), chi_exact(t),
                                   rtol=0, atol=1e-15)
        np.testing.assert_array_equal(closed.a_at(t), _closed_form(t)[3])
        two_tone = explicit_trace(0.3, 0.2)
        want = 1.0 + 0.3 * np.sin(t) + 0.2 * np.sin(math.sqrt(2.0) * t)
        np.testing.assert_allclose(two_tone.chi_at(t), want, rtol=0,
                                   atol=1e-15)
        np.testing.assert_array_equal(two_tone.adot_at(t), 0.0)
        integrated = mathieu_trace("quasiperiodic", 3.0)
        for query in (integrated.chi_at, integrated.a_at, integrated.adot_at):
            with pytest.raises(ValidationError, match="outside its window"):
                query(t)


def same_bits(got, want):
    kind = complex if np.iscomplexobj(got) or np.iscomplexobj(want) else float
    got, want = np.asarray(got, dtype=kind), np.asarray(want, dtype=kind)
    return got.shape == want.shape and np.array_equal(got.view(np.int64),
                                                      want.view(np.int64))


class TestScalarQueries:
    """A float t skips the array path on an analytic trace and in drive_f;
    it must still return the bits of the array path's element."""

    QUERIES = ("chi_at", "dchi_dt_at", "d2chi_dt2_at", "a_at", "adot_at")
    TRACES = {
        "closed_form": closed_form_trace,
        "two_tone": lambda: explicit_trace(0.3, 0.2),
        "mathieu": lambda: mathieu_trace("quasiperiodic", 3.0, dt=1e-3),
    }

    def times(self, lo, hi):
        rng = np.random.default_rng(16)
        edges = [lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo),
                 0.5 * (lo + hi)]
        return np.concatenate([edges, rng.uniform(lo, hi, 300)])

    @pytest.mark.parametrize("source", sorted(TRACES))
    def test_float_t_gives_the_array_element(self, source):
        tr = self.TRACES[source]()
        # the analytic widths answer anywhere, the integrated one inside
        # its window, edges included
        lo, hi = ((float(tr.path.times[0]), float(tr.path.times[-1]))
                  if tr.path is not None else (-4.0, 7.0))
        t = self.times(lo, hi)
        for name in self.QUERIES:
            query = getattr(tr, name)
            got = [query(tk) for tk in t.tolist()]
            assert all(type(g) is float for g in got), name
            # a 0-d array takes the array path to one element
            assert same_bits(got, [query(np.asarray(tk)) for tk in t]), name
            assert same_bits(got, query(t)), f"{source} {name}"
        # and so does every field of at, which the queries read
        got, whole = [tr.at(tk) for tk in t.tolist()], tr.at(t)
        assert type(whole) is modulation.Width
        for field in modulation.Width._fields:
            column = [getattr(g, field) for g in got]
            assert all(type(v) is float for v in column), field
            assert same_bits(column, getattr(whole, field)), \
                f"{source} {field}"

    def test_float_t_outside_an_integrated_window_is_refused(self):
        # at and every query refuse with one message, which names the side
        # of the window the t missed
        tr = self.TRACES["mathieu"]()
        for t, says in ((3.5, r"t = 3\.5,.*build it to a later horizon"),
                        (-0.25, r"t = -0\.25,.*it starts at its first "
                                r"node, t = 0$")):
            messages = set()
            for name in self.QUERIES + ("at",):
                with pytest.raises(ValidationError, match=says) as refused:
                    getattr(tr, name)(t)
                messages.add(str(refused.value))
            assert len(messages) == 1, messages

    def test_closed_form_curvature_float_t_gives_the_array_element(self):
        # chi'' divides by chi^3, which a power would round one way for a
        # float and another for an array (the C library's pow against
        # numpy's SIMD power), so 200,000 t over a wide range
        rng = np.random.default_rng(18)
        t = np.concatenate([self.times(0.0, 10.0),
                            rng.uniform(-1e3, 1e3, 200_000)])
        tr = closed_form_trace()
        got = [tr.d2chi_dt2_at(tk) for tk in t.tolist()]
        assert same_bits(got, tr.d2chi_dt2_at(t))

    @pytest.mark.parametrize("epsilon, omega0", [
        (0.0, 0.0),
        (0.5, 1.0),
        (0.3, 2.7),
    ])
    def test_drive_float_t_gives_the_array_element(self, epsilon, omega0):
        # math.cos on the float path, numpy's cos on the array path: they
        # must agree on every t, so 200,000 of them over a wide range
        rng = np.random.default_rng(17)
        t = np.concatenate([self.times(0.0, 10.0),
                            rng.uniform(-1e3, 1e3, 200_000)])
        got = [drive_f(tk, epsilon, omega0) for tk in t.tolist()]
        assert all(type(g) is float for g in got[:10])
        assert same_bits(got, drive_f(t, epsilon, omega0))


class TestMathieuTraceQueries:
    def test_off_grid_queries_match_closed_form(self):
        tr = mathieu_trace("periodic", 10.0, dt=1e-4)
        rng = np.random.default_rng(21)
        t = rng.uniform(0, 10, 300)
        assert np.abs(tr.chi_at(t) - chi_exact(t)).max() < 1e-9
        dchi = -(15.0 / 4.0) * np.sin(4.0 * t) / chi_exact(t)
        assert np.abs(tr.dchi_dt_at(t) - dchi).max() < 1e-8
        cf = closed_form_trace()
        assert np.abs(tr.a_at(t) - cf.a_at(t)).max() < 1e-9
        assert np.abs(tr.d2chi_dt2_at(t) - cf.d2chi_dt2_at(t)).max() < 1e-6

    def test_agreement_tolerance_from_acceptance(self):
        s = node_samples(mathieu_trace("periodic", 10.0, dt=1e-4))
        assert np.abs(s.chi - chi_exact(s.times)).max() <= 1e-6

    def test_out_of_range_query_rejected(self):
        # the refusal names the first t asked outside and the window
        tr = mathieu_trace("periodic", 2.0, dt=1e-3)
        with pytest.raises(ValidationError, match=r"t = 2\.5,.*\[0, 2\]"):
            tr.chi_at(np.array([1.0, 2.5, 3.0]))
        with pytest.raises(ValidationError, match=r"t = -0\.5,"):
            tr.a_at(-0.5)

    def test_adot_is_inverse_square_width(self):
        tr = mathieu_trace("quasiperiodic", 4.0, dt=1e-4)
        t = np.linspace(0, 4, 41)
        np.testing.assert_allclose(tr.adot_at(t), 1.0 / tr.chi_at(t) ** 2, rtol=1e-12)


class TestComplexT:
    """at answers complex t as it answers real t: the residual checks
    evaluate a width once at t + ih and read chi', chi'' and a' off the
    imaginary parts."""

    H = 1e-30
    TRACES = {
        "closed_form": closed_form_trace,
        "two_tone": lambda: explicit_trace(0.3, 0.2),
        "mathieu": lambda: mathieu_trace("quasiperiodic", 5.0),
        "mathieu-0.9-0.3": lambda: mathieu_trace("quasiperiodic", 5.0,
                                                 epsilon=0.9, omega0=0.3),
        "mathieu-periodic": lambda: mathieu_trace("periodic", 5.0),
    }
    KINDS = ["closed_form", "two_tone", "mathieu", "mathieu-periodic"]

    @pytest.mark.parametrize("source", sorted(TRACES))
    def test_imaginary_parts_are_the_derivatives(self, source):
        # the RK4 query's step map is a polynomial in s, so its complex
        # step is the map's own derivative: chi' and a' of the trace to a
        # few ulp, and chi'' from chi' at complex t
        tr = self.TRACES[source]()
        t = np.linspace(0.0, 5.0, 1921)
        z, w = tr.at(t + 1j * self.H), tr.at(t)
        np.testing.assert_allclose(z.chi.imag / self.H, w.dchi, rtol=4e-15,
                                   atol=4e-15)
        np.testing.assert_allclose(z.a.imag / self.H, w.adot, rtol=4e-15,
                                   atol=0)
        np.testing.assert_allclose(z.dchi.imag / self.H, w.d2chi,
                                   rtol=4e-15, atol=4e-14)

    @pytest.mark.parametrize("source", sorted(TRACES))
    def test_real_parts_are_the_values_at_t(self, source):
        # on this grid chi keeps the bits of real t on every trace, and a
        # on the two-tone and quasiperiodic widths; the closed form's and
        # the periodic path's a, and every dchi and d2chi, round apart by
        # a few ulp of their largest terms (numpy's complex quotients
        # multiply by a reciprocal)
        tr = self.TRACES[source]()
        t = np.linspace(0.0, 5.0, 1921)
        z, w = tr.at(t + 1j * self.H), tr.at(t)
        np.testing.assert_allclose(z.chi.real, w.chi, rtol=0, atol=1e-15)
        np.testing.assert_allclose(z.a.real, w.a, rtol=0, atol=1e-15)
        assert z.chi.real.tobytes() == w.chi.tobytes()
        if source not in ("closed_form", "mathieu-periodic"):
            assert z.a.real.tobytes() == w.a.tobytes()
        for got, want in ((z.dchi, w.dchi), (z.d2chi, w.d2chi)):
            np.testing.assert_allclose(got.real, want, rtol=0, atol=4e-15
                                       * max(1.0, np.abs(want).max()))

    @pytest.mark.parametrize("source", KINDS)
    def test_complex_scalar_t_gives_the_array_element(self, source):
        # a 0-d complex t is evaluated as a one-element array, so each
        # value is that array's element bit for bit, also where numpy's
        # complex scalar products would round apart
        tr = self.TRACES[source]()
        times = np.random.default_rng(21).uniform(0.0, 5.0, 60)
        for t in np.concatenate([[0.0, 5.0], times]).tolist():
            z = t + 1j * self.H
            for got, want in zip(tr.at(z), tr.at(np.array([z]))):
                assert np.iscomplexobj(got) and same_bits([got], want), t

    def test_drive_keeps_a_complex_scalar(self):
        t = 0.3 + 1j * self.H
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a ComplexWarning included
            got = drive_f(t, 0.5, 1.0)
        assert isinstance(got, complex) and got.imag < 0
        assert same_bits([got], drive_f(np.array([t]), 0.5, 1.0))

    @pytest.mark.parametrize("source", KINDS)
    def test_window_is_checked_on_the_real_part(self, source):
        # the path evaluator owns the window: it refuses a Re t past it
        # however at is reached, and clips one within 1e-9 onto the node;
        # the analytic widths answer at any t
        tr = self.TRACES[source]()
        late = np.array([1.0, 5.5]) + 1j * self.H
        if tr.path is None:
            assert np.all(np.isfinite(tr.at(late).chi))
            return
        for ask in (tr.at, tr.width):
            with pytest.raises(ValidationError, match=r"t = 5\.5,.*\[0, 5\]"):
                ask(late)
        t = np.array([5.0 + 5e-10 + 1j * self.H])
        assert tr.at(t).chi.real.tobytes() == tr.chi_at(
            np.array([5.0])).tobytes()
        assert t.real[0] == 5.0 + 5e-10  # the caller's times are kept

    @pytest.mark.parametrize("t", [
        float("nan"), np.array([1.0, np.nan]), complex(np.nan, 1e-30),
        np.array([2.0 + 1e-30j, complex(np.nan, 0.0)])],
        ids=["float", "array", "complex", "complex-array"])
    def test_nan_t_is_outside_the_window(self, t):
        tr = self.TRACES["mathieu"]()
        with pytest.raises(ValidationError,
                           match=r"t = nan, outside its window "
                                 r"\[0, 5\]; t must be a number"):
            tr.at(t)


class TestExplicitTrace:
    def test_two_tone_width(self):
        tr = explicit_trace(0.3, 0.2)
        t = np.linspace(0, 10, 101)
        want = 1.0 + 0.3 * np.sin(t) + 0.2 * np.sin(math.sqrt(2.0) * t)
        np.testing.assert_allclose(tr.chi_at(t), want, rtol=0, atol=1e-15)

    def test_phase_offset_identically_zero(self):
        tr = explicit_trace(-0.4, 0.25)
        t = np.linspace(0, 6, 31)
        assert np.all(tr.a_at(t) == 0.0)
        assert np.all(tr.adot_at(t) == 0.0)

    def test_derivatives(self):
        tr = explicit_trace(0.5, -0.3)
        t = np.linspace(0, 10, 101)
        h = 1e-6
        fd = (tr.chi_at(t + h) - tr.chi_at(t - h)) / (2 * h)
        assert np.abs(fd - tr.dchi_dt_at(t)).max() < 1e-8
        want2 = -0.5 * np.sin(t) + 2.0 * 0.3 * np.sin(math.sqrt(2.0) * t)
        np.testing.assert_allclose(tr.d2chi_dt2_at(t), want2, rtol=0, atol=1e-14)

    def test_amplitude_bound_enforced(self):
        with pytest.raises(ValueError):
            explicit_trace(0.7, 0.3)
        with pytest.raises(ValueError):
            explicit_trace(-0.6, 0.5)


class TestPhaseFromOscillator:
    """a = arg(z1 + i z2/W)/2 on the oscillator path, no quadrature."""

    def test_constant_drive_matches_closed_form(self):
        tr = mathieu_trace("periodic", 10.0, dt=1e-4)
        s = node_samples(tr)
        assert np.abs(s.a - _closed_form(s.times)[3]).max() < 2e-14
        t = np.random.default_rng(21).uniform(0, 10, 300)
        assert np.abs(tr.a_at(t) - _closed_form(t)[3]).max() < 2e-14

    def test_increasing_and_continuous_across_the_branch_cut(self):
        # arg w = 2a passes the cut at odd multiples of pi; a must go on
        # rising by a' dt there, with no jump of pi
        tr = mathieu_trace("quasiperiodic", 10.0, dt=1e-4)
        t = np.linspace(0.0, 10.0, 200001)
        a = tr.a_at(t)
        step = np.diff(a)
        assert 2.0 * a[-1] > 3.0 * math.pi  # crossed the cut at least twice
        assert step.min() > 0.0
        # each step is a' dt at its midpoint up to the rule's 9e-12
        mid = 0.5 * (t[1:] + t[:-1])
        assert np.abs(step - tr.adot_at(mid) * np.diff(t)).max() < 1e-10

    def test_central_difference_matches_adot(self):
        tr = mathieu_trace("quasiperiodic", 10.0, dt=1e-4)
        t = np.linspace(0.01, 9.99, 997)
        h = 3e-6
        fd = (tr.a_at(t + h) - tr.a_at(t - h)) / (2.0 * h)
        assert np.abs(fd - tr.adot_at(t)).max() < 1e-8

    def test_rescaling_second_solution_leaves_a_alone(self):
        tr = mathieu_trace("quasiperiodic", 5.0, dt=1e-4)
        tr3 = mathieu_trace("quasiperiodic", 5.0, dt=1e-4, z2_init=(0.0, 3.0))
        assert np.abs(node_samples(tr).a - node_samples(tr3).a).max() < 1e-14
        t = np.linspace(0.0, 5.0, 333)
        assert np.abs(tr.a_at(t) - tr3.a_at(t)).max() < 1e-14


class TestTraceValidation:
    """Each factory guarantees a finite, positive width with a' = chi^-2
    or 0 and a(0) = 0, or refuses to build the trace."""

    @pytest.mark.parametrize("alpha, beta", [
        (0.6, 0.4),  # chi = 1 - |alpha| - |beta| = 0 can be reached
        (-0.7, 0.5),
        (float("nan"), 0.1),
        (0.1, float("inf")),
    ])
    def test_two_tone_width_that_could_vanish_is_refused(self, alpha, beta):
        with pytest.raises(ValueError, match=r"\|alpha\| \+ \|beta\| < 1"):
            explicit_trace(alpha, beta)

    @pytest.mark.parametrize("drive", ["periodic", "quasiperiodic"])
    @pytest.mark.parametrize("epsilon, omega0", [
        (float("nan"), 1.0), (0.5, float("inf")), (-float("inf"), 1.0)])
    def test_non_finite_drive_is_refused_before_the_step_bound(
            self, drive, epsilon, omega0):
        # a NaN epsilon would pass the step bound, and dt = 1 fails it for
        # every finite epsilon: the refusal names the parameters instead
        with pytest.raises(ValidationError, match=(
                rf"mathieu_trace: epsilon = {epsilon!r} and "
                rf"omega0 = {omega0!r} must be finite")):
            mathieu_trace(drive, 10.0, dt=1.0, epsilon=epsilon,
                          omega0=omega0)

    @pytest.mark.parametrize("t_end, dt", [
        (float("inf"), 1e-3), (float("nan"), 1e-3), (1.0, float("inf")),
        (1.0, float("nan")), (0.0, 1e-3), (1.0, -1e-3)])
    def test_non_finite_horizon_or_step_is_refused_by_name(self, t_end, dt):
        # an infinite t_end once passed the check and overflowed the step
        # count
        with pytest.raises(ValidationError, match=(
                rf"mathieu_trace: t_end = {t_end!r} and dt = {dt!r} must be "
                r"finite and > 0")):
            mathieu_trace("quasiperiodic", t_end, dt=dt)

    def test_resonant_path_is_refused(self):
        # epsilon = 0.5, omega0 = 4 sits in the first resonance tongue: the
        # path grows by e about every 4 time units, past 1e100 by t = 930,
        # and would overflow the width's squares not far beyond
        with pytest.raises(ValidationError, match=r"passes 1e\+100 at "
                           r"t = 925\.35: the drive is parametrically"):
            mathieu_trace("quasiperiodic", 1000.0, dt=0.05, epsilon=0.5,
                          omega0=4.0)
        short = mathieu_trace("quasiperiodic", 500.0, dt=0.05, epsilon=0.5,
                              omega0=4.0)
        chi = node_samples(short).chi
        assert np.isfinite(chi).all() and chi.max() > 1e50

    def test_every_source_starts_at_zero_phase(self):
        for tr in (closed_form_trace(), explicit_trace(0.3, 0.2),
                   mathieu_trace("quasiperiodic", 1.0, dt=1e-3),
                   mathieu_trace("periodic", 1.0, dt=1e-3,
                                 z2_init=(1.0, 3.0))):
            assert tr.a_at(0.0) == 0.0
