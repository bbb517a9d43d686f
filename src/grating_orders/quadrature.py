"""Sine-integral kernels and exact prefix sums.

The closed form built on Si(x) is the package's one route to every envelope
integral: ``sinc_sq_integral`` is the integral of sinc^2 over
[-alpha_t, alpha_t]. Si picks one of three branches by its argument: the power
series up to 16, the continued fraction up to 2**21, and a closed-form tail
above. A float goes by ``math`` alone, through the scalar ``si``; an array
goes in blocks of _SI_BLOCK points through array copies of the branches that
give the same float at every point. ``fsum_prefixes`` gives what
``math.fsum`` would at ascending prefix ends of a table of terms, for the
series copy and for the order sums of ``orders.curve``. No module of the
package imports numpy at load. The test suite cross-checks Si against an
independent composite Gauss-Legendre rule and against mpmath.
"""

from __future__ import annotations

import itertools
import math
import sys

__all__ = ["si", "sinc_sq_integral", "fsum_prefixes"]

# Si's branch bounds: the power series up to 16, the continued fraction up to
# 2**21, the closed-form tail above.
_SI_SERIES_CUTOFF = 16.0
_SI_TAIL = 2.0**21
_SERIES_TOL = 1e-20
_CF_TOL = 1e-16
# The continued fraction's loop bound. Over its branch it stops by i = 27 at
# 1e7 log-uniform points, and by i = 104 in the windows [m - 16, m] for
# m = k 2**p, k odd up to 15, up to 2**21; below 2**23..2**26 it stalls.
_CF_MAX_ITER = 300
# Points per block of the array Si in ``sinc_sq_integral``: every point of a
# block's continued fraction iterates until the block's slowest converges.
_SI_BLOCK = 4096
# Below this x the primitive x - x^3/9 + ... rounds to x (x^2/9 < 2**-1022),
# and sin(x)^2 in the closed form would go subnormal, then to zero.
_TINY = 2.0**-511
# The largest |alpha_t| whose Si argument 2 alpha_t is finite.
_ALPHA_MAX = sys.float_info.max / 2.0


def _series_terms(x: float) -> list[float]:
    # The terms (-1)^k x^(2k+1) / ((2k+1) (2k+1)!) of Si(x) through the first
    # past k = 0 below _SERIES_TOL. They grow with x: x = 16 takes the most, 38.
    term_sin = x  # (-1)^k x^(2k+1) / (2k+1)!
    terms = [x]
    for k in itertools.count(1):
        term_sin *= -x * x / ((2 * k) * (2 * k + 1))
        terms.append(term_sin / (2 * k + 1))
        if abs(terms[-1]) < _SERIES_TOL:
            return terms


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
    """Sine integral Si(x) = integral of sin(t)/t from 0 to x, for every finite x.

    Odd, tending to +-pi/2. The branch follows |x|: the power series, at
    most 38 terms compensated-summed, up to 16; the continued-fraction
    auxiliary functions up to 2**21; above that pi/2 - cos(x)/x - sin(x)/x^2,
    whose dropped terms are below 2/x^3 < 2.2e-19. No finite x raises. Within
    1e-10 of 50-digit references, least accurate just below 16, where the
    series cancels most; above 2**21 within 2.3e-16.
    """
    if not math.isfinite(x):
        raise ValueError(f"si requires finite x, got {x!r}")
    if x < 0.0:
        return -si(-x)
    if x <= _SI_SERIES_CUTOFF:
        return math.fsum(_series_terms(x))
    if x <= _SI_TAIL:
        return _si_continued_fraction(x)
    return math.pi / 2.0 - (math.cos(x) / x + math.sin(x) / (x * x))  # x * x may be inf


def sinc_sq_integral(alpha_t):
    """Integral of sinc^2 over [-alpha_t, alpha_t]: 2 (Si(2 alpha_t) - sin^2(alpha_t) / alpha_t).

    Odd in alpha_t. A float gives a float by ``math`` alone, through ``si``;
    a float64 array gives the same floats elementwise, with Si from array
    copies of the branches of ``si``: the points go in blocks of _SI_BLOCK,
    and each block hands every branch its own points, picked by the same
    bounds. Below _TINY it is 2 alpha_t, correctly rounded. An alpha_t is
    refused unless 2 alpha_t is finite.
    """
    if isinstance(alpha_t, (int, float)):
        if not abs(alpha_t) <= _ALPHA_MAX:
            raise ValueError(f"sinc_sq_integral requires |alpha_t| <= {_ALPHA_MAX!r}, got {alpha_t!r}")
        if alpha_t < 0.0:
            return -sinc_sq_integral(-alpha_t)
        if alpha_t < _TINY:
            return 2.0 * alpha_t
        s = math.sin(alpha_t)
        return 2.0 * (si(2.0 * alpha_t) - s * s / alpha_t)
    import numpy as np
    a = np.abs(alpha_t)
    if not (a <= _ALPHA_MAX).all():
        bad = float(alpha_t[~(a <= _ALPHA_MAX)][0])
        raise ValueError(f"sinc_sq_integral requires |alpha_t| <= {_ALPHA_MAX!r}, got {bad!r}")
    y = 2.0 * a
    si_y = np.empty_like(y)
    for start in range(0, y.size, _SI_BLOCK):
        yb, out = y[start:start + _SI_BLOCK], si_y[start:start + _SI_BLOCK]
        branch = np.digitize(yb, (_SI_SERIES_CUTOFF, _SI_TAIL), right=True)
        for b, body in enumerate((_si_power_series_array, _si_continued_fraction_array, _si_tail_array)):
            at = branch == b
            out[at] = body(yb[at])
    s = np.sin(a)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at a = 0, where np.where picks a
        closed = np.where(a < _TINY, a, si_y - s * s / a)
    return np.copysign(2.0 * closed, alpha_t)


def _quotient(u, zr, zi):
    # u / (zr + i zi) for a real u, as CPython's complex quotient
    # (_Py_c_quot) rounds it: Smith's method, scaled by the larger component
    # of the divisor. With the numerator's imaginary part 0.0 its formulas
    # reduce to these exactly; "+ 0.0" and "0.0 -" keep its signed zeros. u
    # may be a column, one numerator per row of the divisor arrays. Returns
    # the real and imaginary arrays. Callers hold np.errstate.
    import numpy as np
    real_major = np.abs(zr) >= np.abs(zi)
    big = np.where(real_major, zr, zi)
    small = np.where(real_major, zi, zr)
    ratio = small / big
    denom = big + small * ratio
    t = u * ratio
    return np.where(real_major, u, t + 0.0) / denom, (0.0 - np.where(real_major, t, u)) / denom


def _si_continued_fraction_array(x: np.ndarray) -> np.ndarray:
    """``_si_continued_fraction`` at every x of an array, bit for bit.

    Kept beside the scalar because it is faster over a curve's points and
    far slower for one point. It is the scalar's loop line for line, each
    complex value a real and an imaginary float64 array (c, d, h and delta
    as cr/ci, dr/di, hr/hi and er/ei), each complex operation spelled out
    as CPython rounds it: the products as ``_Py_c_prod``, the divisions by
    ``_quotient``. b is the float br = 2i - 1 plus x i, since x + 0.0 is x.
    The scalar's a d takes complex(a, 0.0), whose zero part changes only
    the signs of zeros in the product, and + b (b.real >= 3, b.imag = x >
    16) absorbs them. A step's two divisions are one ``_quotient`` pass:
    row 0 of zr, zi holds a d + b, under 1, and row 1 holds c, under a;
    row 0 of the quotient is the new d, and b plus row 1 the new c, written
    back into row 1. A point's h is recorded on the iteration at which the
    scalar would return; every point iterates until the slowest converges,
    so ``sinc_sq_integral`` hands it one block at a time. np.sin and np.cos
    are assumed to return what math.sin and math.cos do, which
    ``TestCurve::test_ordinates_equal_scalar`` and the output digests check.
    """
    import numpy as np
    with np.errstate(divide="ignore", invalid="ignore"):
        zr, zi = np.full((2, x.size), 1e300), np.zeros((2, x.size))  # row 1: c
        cr, ci = zr[1], zi[1]
        u = np.array([[1.0], [0.0]])  # the numerators 1 and a
        dr, di = hr, hi = _quotient(1.0, 1.0, x)
        hr_out, hi_out = np.empty_like(x), np.empty_like(x)
        pending = np.ones(x.size, dtype=bool)
        for i in range(2, _CF_MAX_ITER):
            a = float(-((i - 1) ** 2))
            br = 2.0 * i - 1.0
            np.add(a * dr, br, out=zr[0])
            np.add(a * di, x, out=zi[0])
            u[1] = a
            qr, qi = _quotient(u, zr, zi)
            dr, di = qr[0], qi[0]
            np.add(br, qr[1], out=cr)
            np.add(x, qi[1], out=ci)
            er, ei = cr * dr - ci * di, cr * di + ci * dr
            hr, hi = hr * er - hi * ei, hr * ei + hi * er
            np.copyto(hr_out, hr, where=pending)  # h as of each point's last pending step
            np.copyto(hi_out, hi, where=pending)
            pending &= ~(np.abs(er - 1.0) + np.abs(ei) < _CF_TOL)
            if not pending.any():
                break
        else:
            raise ArithmeticError("sine-integral continued fraction did not converge "
                                  f"for x={float(x[pending.argmax()])!r}")
    return math.pi / 2.0 + (hr_out * -np.sin(x) + hi_out * np.cos(x))


def _si_power_series_array(x: np.ndarray) -> np.ndarray:
    """The series branch of ``si`` at every x of an array in [0, 16], bit for bit.

    Kept beside the scalar because it is faster over a curve's points. Each
    column holds the scalar's terms up to its stopping term (later rows are
    zeroed), and ``fsum_prefixes`` gives each column's correctly rounded
    sum, the scalar's ``math.fsum``. The running product accumulates down
    the rows in place, so term_sin takes the scalar's factors in the
    scalar's order and rounds alike. A term's magnitude never decreases with
    x, rounding included, so the scalar's term count at the largest x sizes
    the table: at most 38 rows of a _SI_BLOCK of points (1.25 MB).
    """
    import numpy as np
    count = len(_series_terms(float(x.max(initial=0.0))))
    k = np.arange(1, count)[:, None]
    terms = np.empty((count, x.size))  # the factors, then their running products
    terms[0] = x
    terms[1:] = -x * x / ((2 * k) * (2 * k + 1))
    np.multiply.accumulate(terms, axis=0, out=terms)
    terms[1:] /= 2 * k + 1
    stop = (np.abs(terms[1:]) < _SERIES_TOL).argmax(axis=0) + 1  # each column's last term
    terms[np.arange(count)[:, None] > stop] = 0.0
    return fsum_prefixes(terms, [count])[0]


def _si_tail_array(x: np.ndarray) -> np.ndarray:
    # The tail branch of ``si`` at every x of an array above 2**21, bit for
    # bit; x * x overflows to inf above about 1.3e154, as the scalar's does.
    import numpy as np
    with np.errstate(over="ignore"):
        return math.pi / 2.0 - (np.cos(x) / x + np.sin(x) / (x * x))


# Terms per block of ``fsum_prefixes`` and ``orders._order_terms``: each
# working array holds at most one block, whatever the table's shape.
_SUM_BLOCK = 1 << 16


def fsum_prefixes(terms: np.ndarray, ends) -> np.ndarray:
    """math.fsum(terms[:n, i]) for every column i of a 2-D array and every n of ends.

    ends are non-decreasing, within 0..len(terms), and may repeat; row i of
    the result holds the sums at ends[i]. Each sum is the correctly rounded
    one that fsum returns, found by array passes down the columns and checked:
    - s is the running sum, and e the exact error of each of its additions
      (Knuth's TwoSum), so s + sum(e) is the exact prefix sum (Ogita, Rump
      and Oishi, 2005);
    - E, the running sum of e, is off from sum(e) by at most
      B = 2**-53 (|E_1| + ... + |E_k|) after k terms, since each of its
      additions is off by at most half an ulp of its own result;
    - r = s + E, and TwoSum gives its exact remainder rho, so the exact sum
      lies within rho +- B of r.
    r is accepted where rho +- 2B (the 2 covers the rounding of B itself)
    lies strictly inside the half gaps to r's neighbours, so r is the
    correctly rounded sum. The sums it cannot prove, ties and sums within
    about 2B of one, are settled by ``_exact_prefixes``, one exact walk per
    column up to its last such end, so the cost stays linear in the terms.
    Rows go in blocks of _SUM_BLOCK terms (at least one row), carrying s, E
    and sum(|E|) across: those and one temporary are the working arrays, of
    one block's rows each. The sums do not depend on the blocks; each
    block's ends are one slice of ends. The terms must be finite.
    """
    import numpy as np
    ends = np.asarray(ends, dtype=np.intp)
    out = np.zeros((ends.size, terms.shape[1]))  # fsum of no terms is 0.0
    # Row 0 of each block's running sums carries s, E and sum(|E|) over the
    # earlier blocks; row i holds them after the block's i-th term.
    rows = max(1, _SUM_BLOCK // max(1, terms.shape[1]))
    run, err, mag = np.zeros((3, min(len(terms), rows) + 1, terms.shape[1]))
    unproved = np.zeros(out.shape, dtype=bool)  # the sums the check cannot prove
    first = 0  # the first end not yet summed
    for r0 in range(0, len(terms), rows):
        t = terms[r0:r0 + rows]
        m = len(t) + 1
        run[1:m] = t
        np.add.accumulate(run[:m], out=run[:m])
        prev, cur, twosum = run[:m - 1], run[1:m], err[1:m]
        bb = cur - prev  # (prev - (cur - bb)) + (t - bb), with bb the one temporary
        np.subtract(prev, np.subtract(cur, bb, out=twosum), out=twosum)
        np.add(twosum, np.subtract(t, bb, out=bb), out=twosum)
        np.add.accumulate(err[:m], out=err[:m])
        np.abs(err[1:m], out=mag[1:m])
        np.add.accumulate(mag[:m], out=mag[:m])
        last = np.searchsorted(ends, r0 + len(t), side="right")
        k = ends[first:last] - r0  # 0 only in block 0, whose row 0 is all zero
        s, e = run[k], err[k]
        r = s + e
        rb = r - s
        rho = (s - (r - rb)) + (e - rb)
        slack = 2.0**-52 * mag[k]  # 2B
        ok = (2.0 * (rho + slack) < np.nextafter(r, np.inf) - r) & (
            2.0 * (slack - rho) < r - np.nextafter(r, -np.inf))
        out[first:last] = r
        unproved[first:last] = ~ok
        first = last
        run[0], err[0], mag[0] = run[m - 1], err[m - 1], mag[m - 1]
    for c in np.flatnonzero(unproved.any(axis=0)):
        rows = np.flatnonzero(unproved[:, c])  # ascending, so their ends are too
        out[rows, c] = _exact_prefixes(terms[:, c], ends[rows].tolist())
    return out


def _exact_prefixes(column: np.ndarray, ends: list[int]) -> list[float]:
    # math.fsum(column[:n]) at every n of non-decreasing ends, in one walk:
    # every finite double is an integer multiple of 2**-1074, so the prefix
    # sums are kept exactly in one Python int, and its true division by
    # 2**1074, which Python rounds correctly, is the correctly rounded sum.
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
