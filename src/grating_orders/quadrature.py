"""Sine-integral kernels and adaptive quadrature.

The closed forms built on Si(x) are the production path for every envelope
integral in the package, in two forms that give the same float at every
point: the scalars ``si`` and ``sinc_sq_integral`` make no numpy call, and
``symmetric_sinc_sq_integrals`` copies them for the many points of a curve.
No module of the package imports numpy at load, so ``omega``, ``table``,
``experiment --dv-g/--dv-gc`` and every refused CLI call run without it.
``adaptive_integrate`` is a deliberately independent second route (plain
adaptive Simpson) kept alongside so that each path checks the other; the
test suite compares them everywhere it matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .diffraction import grating_factor, grating_intensity, order_alpha

__all__ = [
    "Interval",
    "QuadratureResult",
    "QuadratureError",
    "si",
    "sinc_sq_integral",
    "symmetric_sinc_sq_integrals",
    "adaptive_integrate",
    "grating_factor_subinterval_integral",
]

_SI_SERIES_CUTOFF = 16.0
_SERIES_MAX_TERMS = 120
_SERIES_TOL = 1e-20
_CF_TOL = 1e-16
_CF_MAX_ITER = 300


@dataclass(frozen=True)
class Interval:
    """Closed integration interval [lo, hi] in alpha-space, lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite: [{self.lo!r}, {self.hi!r}]")
        if self.lo > self.hi:
            raise ValueError(f"interval requires lo <= hi, got [{self.lo!r}, {self.hi!r}]")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self) -> None:
        if self.abs_error_estimate < 0:
            raise ValueError("abs_error_estimate must be >= 0")


class QuadratureError(RuntimeError):
    """Adaptive subdivision hit its depth bound before meeting tolerance.

    Carries the best available estimate in ``partial``.
    """

    def __init__(self, message: str, partial: QuadratureResult):
        super().__init__(message)
        self.partial = partial


def _si_power_series(x: float) -> float:
    # Si(x) = sum_k (-1)^k x^(2k+1) / ((2k+1) (2k+1)!).  The terms alternate
    # with large intermediate magnitude near the cutoff, so they are collected
    # and compensated-summed rather than accumulated naively.
    term_sin = x  # (-1)^k x^(2k+1) / (2k+1)!
    terms = [x]
    for k in range(1, _SERIES_MAX_TERMS):
        term_sin *= -x * x / ((2 * k) * (2 * k + 1))
        term = term_sin / (2 * k + 1)
        terms.append(term)
        if abs(term) < _SERIES_TOL:
            return math.fsum(terms)
    raise ArithmeticError(f"sine-integral series did not converge for x={x!r}")


def _si_continued_fraction(x: float) -> float:
    # Lentz evaluation of the continued fraction for the auxiliary functions
    # f and g in Si(x) = pi/2 - f(x) cos x - g(x) sin x. The truncated
    # asymptotic series for f and g bottoms out near 1e-7 for x around the
    # series cutoff, so the convergent continued fraction is used instead.
    b = complex(1.0, x)
    c = complex(1e300, 0.0)
    d = 1.0 / b
    h = d
    for i in range(2, _CF_MAX_ITER):
        a = -((i - 1) ** 2)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta.real - 1.0) + abs(delta.imag) < _CF_TOL:
            h *= complex(math.cos(x), -math.sin(x))
            return math.pi / 2.0 + h.imag
    raise ArithmeticError(f"sine-integral continued fraction did not converge for x={x!r}")


def si(x: float) -> float:
    """Sine integral Si(x) = integral of sin(t)/t from 0 to x.

    Odd in x, tending to +-pi/2 as x -> +-inf. Power series up to |x| = 16,
    continued-fraction auxiliary functions beyond; both branches agree with
    the adaptive-quadrature route to better than 1e-10 at the switchover.
    """
    if not math.isfinite(x):
        raise ValueError(f"si requires finite x, got {x!r}")
    if x < 0.0:
        return -si(-x)
    if x == 0.0:
        return 0.0
    if x <= _SI_SERIES_CUTOFF:
        return _si_power_series(x)
    return _si_continued_fraction(x)


def _sinc_sq_primitive(x: float) -> float:
    # d/dx [Si(2x) - sin^2(x)/x] = sinc^2(x); the primitive vanishes at 0 and
    # is odd, so a negative argument reuses the positive one.
    if x < 0.0:
        return -_sinc_sq_primitive(-x)
    if x == 0.0:
        return 0.0
    s = math.sin(x)
    return si(2.0 * x) - s * s / x


def sinc_sq_integral(iv: Interval) -> float:
    """Integral of sinc^2(alpha) over [lo, hi] via the Si closed form.

    A symmetric interval [-a, a] costs one primitive: p - (-p) is exactly 2p.
    """
    if iv.lo == -iv.hi:
        return 2.0 * _sinc_sq_primitive(iv.hi)
    return _sinc_sq_primitive(iv.hi) - _sinc_sq_primitive(iv.lo)


def _cprod(ar, ai, br, bi):
    # CPython's complex product (_Py_c_prod), one float64 operation at a time.
    return ar * br - ai * bi, ar * bi + ai * br


def _cquot(ar, ai, br, bi):
    # CPython's complex quotient (_Py_c_quot): Smith's method, scaled by the
    # larger component of the divisor. numpy's complex divide multiplies by a
    # reciprocal instead and rounds differently, so it is not used.
    import numpy as np
    real_major = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(real_major, bi / br, br / bi)
        denom = np.where(real_major, br + bi * ratio, br * ratio + bi)
        qr = np.where(real_major, ar + ai * ratio, ar * ratio + ai) / denom
        qi = np.where(real_major, ai - ar * ratio, ai * ratio - ar) / denom
    return qr, qi


def _si_continued_fraction_array(x: np.ndarray) -> np.ndarray:
    """``_si_continued_fraction`` at every x of an array, bit for bit.

    Kept beside the scalar because it is faster over a curve's points and
    far slower for one point. Each complex operation of the scalar is
    spelled out in real float64 arithmetic in the scalar's order, so every
    point takes the same iterations and rounds alike; a point leaves the
    active set on the iteration at which the scalar would return. np.sin and
    np.cos are assumed to return what math.sin and math.cos do, which
    ``TestCurve::test_ordinates_equal_scalar`` and the output digests check.
    """
    import numpy as np
    out = np.empty_like(x)
    idx = np.arange(x.size)
    br = np.ones_like(x)  # b = 1 + ix; b.imag stays x, since x + 0.0 is x
    cr, ci = np.full_like(x, 1e300), np.zeros_like(x)
    dr, di = _cquot(1.0, 0.0, br, x)
    hr, hi = dr, di
    for i in range(2, _CF_MAX_ITER):
        if not idx.size:
            break
        a = float(-((i - 1) ** 2))
        br = br + 2.0
        pr, pi_ = _cprod(a, 0.0, dr, di)
        dr, di = _cquot(1.0, 0.0, pr + br, pi_ + x)
        qr, qi = _cquot(a, 0.0, cr, ci)
        cr, ci = br + qr, x + qi
        er, ei = _cprod(cr, ci, dr, di)
        hr, hi = _cprod(hr, hi, er, ei)
        done = np.abs(er - 1.0) + np.abs(ei) < _CF_TOL
        if done.any():
            xd = x[done]
            _, turned = _cprod(hr[done], hi[done], np.cos(xd), -np.sin(xd))
            out[idx[done]] = math.pi / 2.0 + turned
            keep = ~done
            idx, x, br = idx[keep], x[keep], br[keep]
            cr, ci, dr, di, hr, hi = cr[keep], ci[keep], dr[keep], di[keep], hr[keep], hi[keep]
    if idx.size:
        raise ArithmeticError(
            f"sine-integral continued fraction did not converge for x={float(x[0])!r}"
        )
    return out


# Points per block of the array power series: its term table holds a block's
# rows only, so memory stays flat in the curve's length.
_SERIES_BLOCK = 256


def _series_terms(x: np.ndarray, columns: int) -> np.ndarray:
    # Terms 0..columns-1 of ``_si_power_series`` for every x, one row
    # each. The running product accumulates left to right, so term_sin
    # takes the scalar's factors in the scalar's order and rounds alike.
    import numpy as np
    k = np.arange(1, columns)
    factors = np.empty((x.size, columns))
    factors[:, 0] = x
    factors[:, 1:] = (-x * x)[:, None] / ((2 * k) * (2 * k + 1))
    terms = np.multiply.accumulate(factors, axis=1)
    terms[:, 1:] /= 2 * k + 1
    return terms


def _small_terms(terms: np.ndarray) -> np.ndarray:
    # Where a term past the first is below the tolerance that ends the series.
    import numpy as np
    return np.abs(terms[:, 1:]) < _SERIES_TOL


def _si_power_series_array(x: np.ndarray) -> np.ndarray:
    """``_si_power_series`` at every x of an array, bit for bit.

    Kept beside the scalar because it is faster over a curve's points and
    far slower for one point. Each row holds the scalar's terms up to the
    scalar's stopping term (later columns are zeroed) and gets its own
    ``math.fsum``, so each sum is the scalar's. Points go in blocks of
    _SERIES_BLOCK. A term's magnitude never decreases with x, rounding
    included, so the block's largest x needs the most terms and sets the
    block's column count. ``ArithmeticError`` is raised where the scalar
    would raise it.
    """
    import numpy as np
    out = np.empty_like(x)
    for start in range(0, x.size, _SERIES_BLOCK):
        xb = x[start:start + _SERIES_BLOCK]
        top = _small_terms(_series_terms(xb.max(keepdims=True), _SERIES_MAX_TERMS))[0]
        terms = _series_terms(xb, top.argmax() + 2 if top.any() else _SERIES_MAX_TERMS)
        small = _small_terms(terms)
        stops = small.any(axis=1)
        if not stops.all():
            raise ArithmeticError(
                f"sine-integral series did not converge for x={float(xb[~stops][0])!r}"
            )
        terms[np.arange(terms.shape[1]) > small.argmax(axis=1)[:, None] + 1] = 0.0
        out[start:start + xb.size] = [math.fsum(row.tolist()) for row in terms]
    return out


def symmetric_sinc_sq_integrals(a: np.ndarray) -> np.ndarray:
    """sinc_sq_integral(Interval(-at, at)) at every at > 0, bit for bit.

    2 * (Si(2a) - sin^2(a) / a), as ``sinc_sq_integral`` evaluates it, with
    Si from the array continued fraction past the series cutoff and from the
    array power series below it.
    """
    import numpy as np
    x = 2.0 * a
    si_2a = np.empty_like(a)
    cf = x > _SI_SERIES_CUTOFF
    si_2a[cf] = _si_continued_fraction_array(x[cf])
    si_2a[~cf] = _si_power_series_array(x[~cf])
    s = np.sin(a)
    return 2.0 * (si_2a - s * s / a)


def adaptive_integrate(
    f: Callable[[float], float],
    iv: Interval,
    tol: float = 1e-10,
    *,
    max_depth: int = 50,
    initial_panels: int = 8,
) -> QuadratureResult:
    """Adaptive Simpson quadrature with Richardson extrapolation.

    The interval is pre-split into ``initial_panels`` equal panels (defeating
    the classic failure mode where a symmetric oscillatory integrand fools the
    first Simpson estimate), then each panel is subdivided until its local
    error estimate meets its share of ``tol``. Deterministic for fixed inputs.

    Raises QuadratureError, carrying the partial estimate, if any panel hits
    ``max_depth`` before meeting tolerance.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if initial_panels < 1:
        raise ValueError(f"initial_panels must be >= 1, got {initial_panels!r}")
    if iv.lo == iv.hi:
        return QuadratureResult(0.0, 0.0, 0)

    evaluations = 0

    def feval(x: float) -> float:
        nonlocal evaluations
        evaluations += 1
        y = f(x)
        if not math.isfinite(y):
            raise ValueError(f"integrand returned non-finite value {y!r} at x={x!r}")
        return y

    def simpson(fa: float, fm: float, fb: float, h: float) -> float:
        return h / 6.0 * (fa + 4.0 * fm + fb)

    exhausted = False

    def recurse(a, b, fa, fm, fb, whole, local_tol, depth):
        nonlocal exhausted
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = feval(lm)
        frm = feval(rm)
        left = simpson(fa, flm, fm, m - a)
        right = simpson(fm, frm, fb, b - m)
        err = (left + right - whole) / 15.0
        if abs(err) <= local_tol or depth >= max_depth:
            if abs(err) > local_tol:
                exhausted = True
            return left + right + err, abs(err)
        lv, le = recurse(a, m, fa, flm, fm, left, local_tol / 2.0, depth + 1)
        rv, re = recurse(m, b, fm, frm, fb, right, local_tol / 2.0, depth + 1)
        return lv + rv, le + re

    width = iv.hi - iv.lo
    panel_tol = tol / initial_panels
    values = []
    errors = []
    for k in range(initial_panels):
        a = iv.lo + width * k / initial_panels
        b = iv.lo + width * (k + 1) / initial_panels
        fa, fm, fb = feval(a), feval(0.5 * (a + b)), feval(b)
        whole = simpson(fa, fm, fb, b - a)
        v, e = recurse(a, b, fa, fm, fb, whole, panel_tol, 0)
        values.append(v)
        errors.append(e)

    result = QuadratureResult(math.fsum(values), math.fsum(errors), evaluations)
    if exhausted:
        raise QuadratureError(
            f"subdivision depth {max_depth} exhausted before reaching tol={tol!r}", result
        )
    return result


def grating_factor_subinterval_integral(
    j: int,
    sigma: float,
    n_slits: int,
    *,
    frozen_envelope: bool = False,
    tol: float = 1e-9,
) -> float:
    """Numerical integral of the grating intensity over one order subinterval.

    The subinterval is [alpha_j - pi sigma/2, alpha_j + pi sigma/2], the strip
    that the j-th principal maximum fully samples. With ``frozen_envelope`` the
    sinc^2 factor is replaced by 1, in which case the integral equals
    N pi sigma exactly (the interference factor integrates to N pi over any
    period of its argument); with the envelope on it approximates
    N pi sigma sinc^2(alpha_j), the Riemann-strip output probability.
    """
    aj = order_alpha(j, sigma)
    half = math.pi * sigma / 2.0
    if frozen_envelope:
        f = lambda a: grating_factor(a, sigma, n_slits)
    else:
        f = lambda a: grating_intensity(a, sigma, n_slits)
    panels = max(16, min(2 * n_slits, 512))
    return adaptive_integrate(
        f, Interval(aj - half, aj + half), tol, initial_panels=panels
    ).value
