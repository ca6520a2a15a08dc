"""Coefficient sources the tests step with, next to the tests that use them,
the oracle CoefficientSampler is held to, and the worst of a constraint
walk's three residuals."""

import numpy as np

from modcnls.errors import ValidationError
from modcnls.modulation import drive_f
from modcnls.transform import _clipped_exp


class ConstantCoefficients:
    """Fixed-in-time coefficient source; the default gives free propagation."""

    def __init__(self, v=None, g=None):
        self._v = v
        self._g = g

    def potential(self, x, t):
        if self._v is None:
            return np.zeros((2, len(x)))
        return np.broadcast_to(self._v, (2, len(x))).copy()

    def couplings(self, x, t):
        if self._g is None:
            return np.zeros((2, 2, len(x)))
        return np.broadcast_to(self._g, (2, 2, len(x))).copy()


def potential_oracle(family, trace, x, t):
    """The printed closed-form traps, one width query per quantity and one
    row per component stacked: the formulas CoefficientSampler.potential
    evaluates in fewer calls, which it must match bit for bit.  t is
    queried as a 0-d array, so the drive and the width take their array
    paths."""
    x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
    s = family.stretch
    if s.kind == "gaussian":
        if trace.drive is None:
            raise ValidationError("potential_oracle: prescribed width")
        v = drive_f(t, *trace.drive) * x * x
        return np.stack([v, v])
    if s.kind == "flat_bump" and (trace.drive is not None
                                  or tuple(family.mu) != (0.0, 0.0)):
        raise ValidationError("potential_oracle: flat bump off its width")
    chi = trace.chi_at(t)
    d2chi = trace.d2chi_dt2_at(t)
    if s.kind == "inverse_gaussian":
        g2 = s.gamma**2
        xi = x / chi
        quad = (1.0 / (9.0 * g2 * g2 * chi**4) - d2chi / (4.0 * chi)) * x * x
        const = -1.0 / (3.0 * g2 * chi**2) - trace.adot_at(t)
        well = _clipped_exp(2.0 * xi * xi / (3.0 * g2)) / chi**2
        return np.stack([quad + const - mu_j * well for mu_j in family.mu])
    xi = x / chi
    e = s.lam * np.exp(-xi * xi)
    w = 1.0 + e
    s1 = -d2chi / (4.0 * chi)
    s2 = (e / (chi**2 * w)) * (1.0 + (e - 2.0) * xi * xi / w)
    v = s1 * x * x + s2
    return np.stack([v, v])


def couplings_oracle(family, trace, x, t):
    """g_jk = G_jk F'(xi)^3 / chi from a chi_at query at a 0-d array t,
    shape (2, 2, nx)."""
    chi = trace.chi_at(np.asarray(t, dtype=float))
    xi = np.asarray(x, dtype=float) / chi
    g = np.asarray(family.g_matrix, dtype=float)[:, :, None]
    return g * (family.stretch.fprime(xi, 3) / chi)


def worst_of(residuals):
    """The largest of a ConstraintResiduals' three values; np.max propagates
    a NaN wherever it sits, where the builtin max may not."""
    return float(np.max([residuals.continuity, residuals.advection,
                         residuals.flux]))
