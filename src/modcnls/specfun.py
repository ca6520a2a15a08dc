"""Self-contained special functions: the error-function family, the complete
elliptic integral of the first kind, and the Jacobi elliptic functions.

No scipy.  Everything accepts floats or numpy arrays and returns the same
kind.  Every function of x also takes complex x, on the branch of Re x,
in its analytic kernel, so the complex step Im f(x + ih) / h is f'(x).
Algorithms:

* erf / erfc / erfcx: one kernel, Cody's rational Chebyshev
  approximations (Math. Comp. 23, 1969) on three ranges of |Re x|.  On
  |x| <= 0.46875 it approximates erf itself; on 0.46875 < |x| <= 4 and on
  |x| > 4 it approximates the scaled complement erfcx = exp(x^2) erfc(x),
  so the tail never underflows before exp(-x^2) does.  Errors are within a
  few ulp throughout (relative for erfc and erfcx).
* erfi: term-recurrence series (all terms positive for real x, condition
  number 1), summed until every element's terms fall below half an ulp of
  its sum; overflows to +/-inf past x^2 ~ 700 like exp(x^2) itself.
* ellip_k: arithmetic-geometric mean, K = pi / (2 AGM(1, k')).
* jacobi_elliptic: descending Landen/AGM phase recurrence
  (dlmf.nist.gov/22.20.ii) after argument reduction modulo 4K, with the
  AGM stopped once c_n <= eps a_n; dn is recovered from 1 - k^2 sn^2,
  which keeps the identity exact.  Both read the AGM off one ladder,
  _agm_ladder, so a call runs the AGM once.
"""

from typing import NamedTuple

import numpy as np

_SQRT_PI = float(np.sqrt(np.pi))
_INV_SQRT_PI = 1.0 / _SQRT_PI
_EXP_OVERFLOW = 700.0
_EPS = float(np.finfo(float).eps)


class EllipticTriple(NamedTuple):
    sn: object
    cn: object
    dn: object


def _prepare(x, name):
    arr = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: non-finite input")
    return arr, arr.ndim == 0


def _finish(arr, scalar):
    return arr.item() if scalar else arr


# W. J. Cody, "Rational Chebyshev approximations for the error function",
# Math. Comp. 23 (1969) 631-637; coefficients as in his CALERF.
# |x| <= 0.46875:  erf(x) = x P(x^2) / Q(x^2)
_CODY_A = (3.16112374387056560e00, 1.13864154151050156e02,
           3.77485237685302021e02, 3.20937758913846947e03,
           1.85777706184603153e-1)
_CODY_B = (2.36012909523441209e01, 2.44024637934444173e02,
           1.28261652607737228e03, 2.84423683343917062e03)
# 0.46875 < |x| <= 4:  erfcx(x) = P(x) / Q(x)
_CODY_C = (5.64188496988670089e-1, 8.88314979438837594e00,
           6.61191906371416295e01, 2.98635138197400131e02,
           8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03,
           2.15311535474403846e-8)
_CODY_D = (1.57449261107098347e01, 1.17693950891312499e02,
           5.37181101862009858e02, 1.62138957456669019e03,
           3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
# |x| > 4:  erfcx(x) = (1/sqrt(pi) - x^-2 P(x^-2) / Q(x^-2)) / x
_CODY_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
           1.25781726111229246e-1, 1.60837851487422766e-2,
           6.58749161529837803e-4, 1.63153871373020978e-2)
_CODY_Q = (2.56852019228982242e00, 1.87295284992346725e00,
           5.27905102951428412e-1, 6.05183413124413191e-2,
           2.33520497626869185e-3)
_CODY_SMALL = 0.46875
_CODY_MID = 4.0


# The kernels below update arrays in place: on large inputs a fresh
# temporary per operation costs more than the arithmetic.

def _rational(y, num, den):
    """Cody's nested evaluation of num(y) / den(y); the leading numerator
    coefficient is num[-1] and the denominator is monic."""
    xnum = num[-1] * y
    xden = y.copy()
    for a, b in zip(num[:-2], den[:-1]):
        xnum += a
        xnum *= y
        xden += b
        xden *= y
    xnum += num[-2]
    xden += den[-1]
    xnum /= xden
    return xnum


def _exp_sq(y, sign):
    """exp(sign * y^2) with y^2 split as s^2 + (y - s)(y + s), s = y rounded
    down to 1/16, so the rounding of y^2 does not reach the exponential."""
    y = np.minimum(y, 40.0)  # a copy; exp(+-1600) is already inf or 0
    s = np.trunc(16.0 * y.real)
    s /= 16.0
    rest = y - s
    y += s
    rest *= y  # (y - s)(y + s)
    rest *= sign
    s *= s
    s *= sign
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
        np.exp(rest, out=rest)
    rest *= s
    return rest


def _cody(arr, kind):
    """Cody's erf, erfc or erfcx (kind) of |arr|, before the sign fix-up.

    |arr| is arr times the sign of Re arr.  Near zero the kernel returns
    erf itself, in the other two ranges the scaled complement erfcx, so
    erfc is never 1 - erf in the tail.
    """
    ax = np.where(arr.real < 0, -arr, arr).ravel()  # at least 1-d
    out = np.empty_like(ax)
    small = ax.real <= _CODY_SMALL
    mid = ~small & (ax.real <= _CODY_MID)
    big = ax.real > _CODY_MID
    for mask, eval_range in ((small, _near_zero), (mid, _middle), (big, _tail)):
        if mask.all():
            out = eval_range(ax, kind)
        elif mask.any():
            out[mask] = eval_range(ax[mask], kind)
    return out.reshape(arr.shape)


def _near_zero(y, kind):
    val = y * _rational(y * y, _CODY_A, _CODY_B)
    if kind == "erf":
        return val
    val = 1.0 - val
    return val if kind == "erfc" else np.exp(y * y) * val


def _middle(y, kind):
    return _unscale(_rational(y, _CODY_C, _CODY_D), y, kind)


def _tail(y, kind):
    with np.errstate(over="ignore"):
        inv2 = 1.0 / (y * y)
    val = (_INV_SQRT_PI - inv2 * _rational(inv2, _CODY_P, _CODY_Q)) / y
    return _unscale(val, y, kind)


def _unscale(scaled, y, kind):
    """erfcx on |x| > 0.46875 turned into the requested function."""
    if kind == "erfcx":
        return scaled
    tail = _exp_sq(y, -1.0) * scaled
    return tail if kind == "erfc" else (0.5 - tail) + 0.5


def erf(x):
    """Error function, odd by construction, +/-1 to machine precision for
    |x| > 6; complex x is taken on the branch of Re x."""
    arr, scalar = _prepare(x, "erf")
    out = _cody(arr, "erf")
    np.negative(out, out=out, where=arr.real < 0)
    return _finish(out, scalar)


def erfc(x):
    """Complement 1 - erf(x), computed directly in the tail (no subtraction
    of nearly equal quantities for x > 0.46875); underflows to 0 past
    x ~ 27; complex x is taken on the branch of Re x."""
    arr, scalar = _prepare(x, "erfc")
    out = _cody(arr, "erfc")
    neg = arr.real < 0
    out[neg] = 2.0 - out[neg]
    return _finish(out, scalar)


def erfcx(x):
    """Scaled complement exp(x^2) erfc(x).  Decays like 1/(x sqrt(pi)) for
    large positive x; overflows to +inf for x < -26.6 or so, where
    exp(x^2) itself overflows; complex x is taken on the branch of Re x."""
    arr, scalar = _prepare(x, "erfcx")
    out = _cody(arr, "erfcx")
    neg = arr.real < 0
    if neg.any():
        out[neg] = 2.0 * _exp_sq(-arr[neg], 1.0) - out[neg]
    return _finish(out, scalar)


def erfi(x):
    """Imaginary error function erfi(x) = -i erf(ix), real for real x.

    For real x all series terms share one sign, so the sum is perfectly
    conditioned; the result overflows to +/-inf once exp(Re x^2) would."""
    arr, scalar = _prepare(x, "erfi")
    ax = np.where(arr.real < 0, -arr, arr)
    out = np.empty_like(ax)
    over = ax.real * ax.real > _EXP_OVERFLOW
    out[over] = np.inf
    ok = ~over
    if ok.any():
        xs = ax[ok]
        x2 = xs * xs
        term, total = xs, xs.copy()
        n = 0
        # past a term of 1e-17 of the sum every later term is below half an
        # ulp of it, so an element that converged keeps its bits while the
        # block sums on to its slowest element
        while True:
            for n in range(n + 1, n + 17):
                term = term * x2 * (2 * n - 1) / (n * (2 * n + 1))
                total += term
            if np.all(np.abs(term) <= 1e-17 * np.abs(total) + 1e-300):
                break
        out[ok] = (2.0 / _SQRT_PI) * total
    np.negative(out, out=out, where=arr.real < 0)
    return _finish(out, scalar)


def ellip_k(k):
    """Complete elliptic integral of the first kind, modulus convention
    K(k) = int_0^{pi/2} dt / sqrt(1 - k^2 sin^2 t), for 0 <= k < 1."""
    k = float(k)
    if not np.isfinite(k) or k < 0.0 or k >= 1.0:
        raise ValueError("ellip_k: modulus must satisfy 0 <= k < 1")
    a_list, _ = _agm_ladder(k)
    return np.pi / (2.0 * a_list[-1])


def _agm_ladder(k):
    """AGM stages a_n, c_n from (1, k', k) until c_n <= eps a_n.

    The stop is relative: c_n stalls near one ulp of a_n - b_n, so an
    absolute test on c_n may never be met and would run the stage cap.
    """
    a, b, c = 1.0, float(np.sqrt((1.0 - k) * (1.0 + k))), k
    a_list, c_list = [a], [c]
    while c > _EPS * a and len(a_list) < 40:
        a, b, c = 0.5 * (a + b), float(np.sqrt(a * b)), 0.5 * (a - b)
        a_list.append(a)
        c_list.append(c)
    return a_list, c_list


def jacobi_elliptic(u, k):
    """Jacobi sn, cn, dn at argument u and scalar modulus k in [0, 1].

    Uses the descending AGM phase recurrence with argument reduction modulo
    the full period 4K; exact circular (k=0) and hyperbolic (k=1) limits.
    Complex u is taken on the branch of Re u, reduced by Re u's period.
    """
    arr, scalar = _prepare(u, "jacobi_elliptic")
    k = float(k)
    if not np.isfinite(k) or k < 0.0 or k > 1.0:
        raise ValueError("jacobi_elliptic: modulus must satisfy 0 <= k <= 1")
    if k < 1e-12:
        sn, cn, dn = np.sin(arr), np.cos(arr), np.ones_like(arr)
        return EllipticTriple(_finish(sn, scalar), _finish(cn, scalar), _finish(dn, scalar))
    if k > 1.0 - 1e-12:
        e = np.exp(np.where(arr.real < 0, arr, -arr))  # exp(-|u|)
        sech = 2.0 * e / (1.0 + e * e)
        sn, cn, dn = np.tanh(arr), sech, sech.copy()
        return EllipticTriple(_finish(sn, scalar), _finish(cn, scalar), _finish(dn, scalar))

    a_list, c_list = _agm_ladder(k)
    n_stages = len(a_list) - 1
    period = 2.0 * np.pi / a_list[-1]  # 4K
    u_red = arr - period * np.round(arr.real / period)

    phi = (2.0**n_stages) * a_list[n_stages] * u_red
    for n in range(n_stages, 0, -1):
        # c_n / a_n < 1 and |sin phi| <= 1 keep the arcsin argument inside
        # [-1, 1] after rounding, so it needs no clipping
        ratio = c_list[n] / a_list[n]
        phi = 0.5 * (phi + np.arcsin(ratio * np.sin(phi)))

    sn = np.sin(phi)
    cn = np.cos(phi)
    dn = np.sqrt(1.0 - (k * sn) * (k * sn))
    return EllipticTriple(_finish(sn, scalar), _finish(cn, scalar), _finish(dn, scalar))
