"""Sine-integral kernels and adaptive quadrature.

The closed forms built on Si(x) are the production path for every envelope
integral in the package, in two forms that give the same float at every
point: the scalars ``si`` and ``sinc_sq_integral`` make no numpy call, and
``symmetric_sinc_sq_integrals`` copies them for the many points of a curve.
Its continued fraction runs every point's iterations together, and its
power series sums each point's terms with ``fsum_prefixes``: checked
array passes that return what ``math.fsum`` would, settling near-ties with
one exact walk. ``orders.curve`` takes its order sums from the same helper.
No module of the package imports numpy at load, so ``omega``, ``table``,
``experiment --dv-g/--dv-gc`` and every refused CLI call run without it.
``adaptive_integrate`` is a deliberately independent second route (plain
adaptive Simpson) kept alongside so that each path checks the other; the
test suite compares them everywhere it matters.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable

from .diffraction import grating_factor, grating_intensity, order_alpha

__all__ = [
    "Interval",
    "QuadratureResult",
    "QuadratureError",
    "si",
    "sinc_sq_integral",
    "symmetric_sinc_sq_integrals",
    "fsum_prefixes",
    "adaptive_integrate",
    "grating_factor_subinterval_integral",
]

_SI_SERIES_CUTOFF = 16.0
_SERIES_MAX_TERMS = 120
_SERIES_TOL = 1e-20
_CF_TOL = 1e-16
_CF_MAX_ITER = 300


class Interval(namedtuple("Interval", "lo hi")):
    """Closed integration interval [lo, hi] in alpha-space, lo <= hi."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite: [{self.lo!r}, {self.hi!r}]")
        if self.lo > self.hi:
            raise ValueError(f"interval requires lo <= hi, got [{self.lo!r}, {self.hi!r}]")
        return self


class QuadratureResult(namedtuple("QuadratureResult", "value abs_error_estimate evaluations")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.abs_error_estimate < 0:
            raise ValueError("abs_error_estimate must be >= 0")
        return self


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


def _cprod(p, q, out):
    # CPython's complex product (_Py_c_prod) of p and q, each a (real, imag)
    # pair of arrays along axis 0, one float64 operation at a time.
    import numpy as np
    m = p[:, None] * q[None]  # m[i, k] = p[i] q[k]
    np.subtract(m[0, 0], m[1, 1], out=out[0])
    np.add(m[0, 1], m[1, 0], out=out[1])
    return out


def _real_quotient(u, z, out):
    # u / z for a real u and a (real, imag) pair z, as CPython's complex
    # quotient (_Py_c_quot) rounds it: Smith's method, scaled by the larger
    # component of the divisor. With the numerator's imaginary part 0.0 its
    # formulas reduce to these exactly; "+ 0.0" and "0.0 -" keep its signed
    # zeros. numpy's complex divide multiplies by a reciprocal instead and
    # rounds differently, so it is not used. Callers hold np.errstate.
    import numpy as np
    size = np.abs(z)
    real_major = size[0] >= size[1]
    big = np.where(real_major, z[0], z[1])
    small = np.where(real_major, z[1], z[0])
    ratio = small / big
    denom = big + small * ratio
    t = u * ratio
    np.divide(np.where(real_major, u, t + 0.0), denom, out=out[0])
    np.divide(0.0 - np.where(real_major, t, u), denom, out=out[1])
    return out


# Points per block of the array continued fraction. Every point of a block
# iterates until the block's slowest one converges (at most 15 iterations
# above the cutoff), and blocks keep the working arrays small.
_CF_BLOCK = 4096


def _si_continued_fraction_array(x: np.ndarray) -> np.ndarray:
    """``_si_continued_fraction`` at every x of an array, bit for bit.

    Kept beside the scalar because it is faster over a curve's points and
    far slower for one point. Each complex operation of the scalar is
    spelled out in real float64 arithmetic in the scalar's order, so every
    point takes the same iterations and rounds alike. Complex values are
    (real, imag) pairs along a leading axis, the scalar's two divisions per
    iteration, 1/(a d + b) and a/c, are one quotient over a stack of both
    divisors, and a point's h is recorded on the iteration at which the
    scalar would return. Points go in blocks of _CF_BLOCK. np.sin and np.cos
    are assumed to return what math.sin and math.cos do, which
    ``TestCurve::test_ordinates_equal_scalar`` and the output digests check.
    """
    import numpy as np
    out = np.empty_like(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, x.size, _CF_BLOCK):
            xb = x[start:start + _CF_BLOCK]
            hr, hi = _continued_fraction_block(xb)
            out[start:start + xb.size] = math.pi / 2.0 + (hr * -np.sin(xb) + hi * np.cos(xb))
    return out


def _continued_fraction_block(x):
    # h of ``_si_continued_fraction`` at every x, before its turn by e^-ix.
    import numpy as np
    n = x.size
    b = np.stack([np.ones(n), x])  # b = 1 + ix; b.imag stays x, since x + 0.0 is x
    # Column 0 holds the divisor a d + b of d and column 1 the divisor c of
    # a/c; u holds their numerators 1 and a, and ad the factor complex(a, 0.0).
    z, q = np.empty((2, 2, n)), np.empty((2, 2, n))
    z[0, 1], z[1, 1] = 1e300, 0.0
    u, ad = np.ones((2, 1)), np.zeros((2, 1))
    d = h = _real_quotient(1.0, b, np.empty((2, n)))
    delta = np.empty((2, n))
    unit = np.array([[1.0], [0.0]])
    h_out = np.empty((2, n))
    pending = np.ones(n, dtype=bool)
    for i in range(2, _CF_MAX_ITER):
        u[1] = ad[0] = float(-((i - 1) ** 2))
        b[0] += 2.0
        np.add(_cprod(ad, d, z[:, 0]), b, out=z[:, 0])
        _real_quotient(u, z, q)
        d = q[:, 0]
        c = np.add(b, q[:, 1], out=z[:, 1])
        _cprod(c, d, delta)
        h = _cprod(h, delta, np.empty((2, n)))
        dev = np.abs(delta - unit)
        np.copyto(h_out, h, where=pending)  # h as of each point's last pending step
        pending &= ~(dev[0] + dev[1] < _CF_TOL)
        if not pending.any():
            return h_out
    raise ArithmeticError(
        f"sine-integral continued fraction did not converge for x={float(x[pending.argmax()])!r}"
    )


# Points per block of the array power series: its term table holds a block's
# points only, so memory stays flat in the curve's length.
_SERIES_BLOCK = 256


def _series_terms(x: np.ndarray, count: int) -> np.ndarray:
    # Terms 0..count-1 of ``_si_power_series`` for every x, one column
    # each. The running product accumulates down the rows, so term_sin
    # takes the scalar's factors in the scalar's order and rounds alike.
    import numpy as np
    k = np.arange(1, count)[:, None]
    factors = np.empty((count, x.size))
    factors[0] = x
    factors[1:] = -x * x / ((2 * k) * (2 * k + 1))
    terms = np.multiply.accumulate(factors, axis=0)
    terms[1:] /= 2 * k + 1
    return terms


def _small_terms(terms: np.ndarray) -> np.ndarray:
    # Where a term past the first is below the tolerance that ends the series.
    import numpy as np
    return np.abs(terms[1:]) < _SERIES_TOL


def _si_power_series_array(x: np.ndarray) -> np.ndarray:
    """``_si_power_series`` at every x of an array, bit for bit.

    Kept beside the scalar because it is faster over a curve's points and
    far slower for one point. Each column holds the scalar's terms up to
    the scalar's stopping term (later rows are zeroed), and
    ``fsum_prefixes`` gives each column's correctly rounded sum, the
    scalar's ``math.fsum``. Points go in blocks of _SERIES_BLOCK. A term's
    magnitude never decreases with x, rounding included, so the block's
    largest x needs the most terms and sets the block's term count.
    ``ArithmeticError`` is raised where the scalar would raise it.
    """
    import numpy as np
    out = np.empty_like(x)
    for start in range(0, x.size, _SERIES_BLOCK):
        xb = x[start:start + _SERIES_BLOCK]
        top = _small_terms(_series_terms(xb.max(keepdims=True), _SERIES_MAX_TERMS))[:, 0]
        count = top.argmax() + 2 if top.any() else _SERIES_MAX_TERMS
        terms = _series_terms(xb, count)
        small = _small_terms(terms)
        stops = small.any(axis=0)
        if not stops.all():
            raise ArithmeticError(
                f"sine-integral series did not converge for x={float(xb[~stops][0])!r}"
            )
        terms[np.arange(count)[:, None] > small.argmax(axis=0) + 1] = 0.0
        out[start:start + xb.size] = fsum_prefixes(terms, [count])[0]
    return out


# Terms per block of ``fsum_prefixes``: its working arrays hold one block
# of rows, so memory stays flat however many terms are summed.
_SUM_BLOCK = 1 << 16


def fsum_prefixes(terms: np.ndarray, ends) -> np.ndarray:
    """math.fsum(terms[:n, i]) for every column i of a 2-D array and every n of ends.

    ends ascend within 0..len(terms); row i of the result holds the sums at
    ends[i]. Each sum is the correctly rounded one that fsum returns, found
    with a few array passes down the columns and checked:
    - s is the running sum, and e the exact error of each of its additions
      (Knuth's TwoSum), so s + sum(e) is the exact prefix sum (Ogita, Rump
      and Oishi, 2005);
    - E, the sum of the first k errors in any order (here by segments
      between ends), is off from their exact sum by at most
      B = 2 k 2**-53 sum(|e|), since each error takes part in at most
      k - 1 additions;
    - r = s + E, whose exact remainder rho is found by TwoSum again, so the
      exact sum lies within rho +- B of r.
    r is accepted where that interval, widened to rho +- 2B, lies strictly
    inside the half gaps to r's neighbours, so r is the correctly rounded
    sum. The sums it cannot prove (ties and near-ties) are settled after
    the passes by ``_exact_prefixes``, one exact walk per column up to its
    last such end, so however many fail the cost stays linear in the terms.
    Rows go in blocks of _SUM_BLOCK, carrying s, E, sum(|e|) and k from one
    block to the next; the sums returned do not depend on the blocks. The
    terms must be finite.
    """
    import numpy as np
    ends, slot = np.unique(np.asarray(ends, dtype=np.intp), return_inverse=True)
    out = np.zeros((ends.size, terms.shape[1]))  # fsum of no terms is 0.0
    s_in = np.zeros((1, terms.shape[1]))
    err_in = mag_in = 0.0  # E and sum(|e|) over the earlier blocks
    unproved = []  # (end, row of out, column) of every sum the check cannot prove
    for r0 in range(0, len(terms), _SUM_BLOCK):
        t = terms[r0:r0 + _SUM_BLOCK]
        run = np.add.accumulate(np.concatenate([s_in, t]))
        prev, s = run[:-1], run[1:]
        bb = s - prev
        e = np.zeros((len(t) + 1, t.shape[1]))  # a zero row closes the last segment
        np.add(prev - (s - bb), t - bb, out=e[:-1])
        size = np.abs(e)
        rows = np.flatnonzero((ends > r0) & (ends <= r0 + len(t)))
        k = ends[rows]
        cuts = np.concatenate([[0], k - r0])
        err = err_in + np.add.accumulate(np.add.reduceat(e, cuts)[:-1])
        mag = mag_in + np.add.accumulate(np.add.reduceat(size, cuts)[:-1])
        s = s[k - 1 - r0]
        r = s + err
        rb = r - s
        rho = (s - (r - rb)) + (err - rb)
        slack = 4.0 * (k * 2.0**-53)[:, None] * mag  # 2B
        ok = (2.0 * (rho + slack) < np.nextafter(r, np.inf) - r) & (
            2.0 * (slack - rho) < r - np.nextafter(r, -np.inf))
        out[rows] = r
        i, col = np.nonzero(~ok)
        unproved += zip(k[i].tolist(), rows[i].tolist(), col.tolist())
        s_in, err_in, mag_in = run[-1:], err_in + e.sum(axis=0), mag_in + size.sum(axis=0)
    for c in {c for _, _, c in unproved}:
        at = sorted((n, row) for n, row, col in unproved if col == c)
        out[[row for _, row in at], c] = _exact_prefixes(terms[:, c], [n for n, _ in at])
    return out[slot]


def _exact_prefixes(column: np.ndarray, ends: list[int]) -> list[float]:
    # math.fsum(column[:n]) at every n of ascending ends, in one walk: every
    # finite double is an integer multiple of 2**-1074, so the prefix sums
    # are kept exactly in one Python int, and its true division by 2**1074,
    # which Python rounds correctly, is the correctly rounded sum.
    sums = []
    total = done = 0
    for n in ends:
        for lo in range(done, n, _SUM_BLOCK):
            for term in column[lo:min(n, lo + _SUM_BLOCK)].tolist():
                num, den = term.as_integer_ratio()  # den is a power of two
                total += num << (1075 - den.bit_length())
        done = n
        sums.append(total / (1 << 1074))
    return sums


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
