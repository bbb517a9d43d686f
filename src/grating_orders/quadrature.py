"""Sine-integral kernels and exact prefix sums.

The closed form built on Si(x) is the package's one route to every envelope
integral: ``sinc_sq_integral`` is the integral of sinc^2 over
[-alpha_t, alpha_t]. Si picks one of three branches by its argument: the power
series up to 16, the continued fraction up to 2**32, and a closed-form tail
above. A float goes by ``math`` alone, through the scalar ``si``; the many
points of a curve go as an array, through array copies of the branches that
give the same float at every point: the continued fraction runs every point's
iterations together, and the power series sums each point's terms with
``fsum_prefixes``, checked array passes that return what ``math.fsum`` would
at ascending prefix ends, settling ties with one exact walk. ``orders.curve``
takes its order sums from the same helper.
No module of the package imports numpy at load, so ``omega``, ``table``,
``experiment --dv-g/--dv-gc`` and every refused CLI call run without it.
The test suite cross-checks Si against an independent composite
Gauss-Legendre rule and against mpmath.
"""

from __future__ import annotations

import itertools
import math
import sys

__all__ = ["si", "sinc_sq_integral", "fsum_prefixes"]

# Si's branch bounds: the power series up to 16, the continued fraction up to 2**32.
_SI_SERIES_CUTOFF = 16.0
_SI_TAIL = 2.0**32
_SERIES_TOL = 1e-20
_CF_TOL = 1e-16
_CF_MAX_ITER = 300
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
    auxiliary functions up to 2**32; above that pi/2 - cos(x)/x - sin(x)/x^2,
    whose dropped terms are below 2/x^3 < 3e-29. Within 1e-10 of 50-digit
    references, least accurate just below 16, where the series cancels most;
    above 2**32 within 2.3e-16.
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
    copies of the branches of ``si``, each picked by the same bounds. Below
    _TINY it is 2 alpha_t, correctly rounded. An alpha_t is refused unless
    2 alpha_t is finite.
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
    branch = np.digitize(y, (_SI_SERIES_CUTOFF, _SI_TAIL), right=True)
    for b, body in enumerate((_si_power_series_array, _si_continued_fraction_array, _si_tail_array)):
        at = branch == b
        si_y[at] = body(y[at])
    s = np.sin(a)
    return np.copysign(2.0 * np.where(a < _TINY, a, si_y - s * s / a), alpha_t)


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
    # The scalar's a * d takes complex(a, 0.0), whose zero part changes only
    # the signs of zeros in the product, and + b (b.real >= 3, b.imag = x > 16)
    # absorbs them: d * a + b, real by complex, is the scalar's a d + b.
    import numpy as np
    n = x.size
    b = np.stack([np.ones(n), x])  # b = 1 + ix; b.imag stays x, since x + 0.0 is x
    # Column 0 holds the divisor a d + b of d and column 1 the divisor c of
    # a/c; u holds their numerators 1 and a.
    z, q = np.empty((2, 2, n)), np.empty((2, 2, n))
    z[0, 1], z[1, 1] = 1e300, 0.0
    u = np.ones((2, 1))
    d = h = _real_quotient(1.0, b, np.empty((2, n)))
    delta = np.empty((2, n))
    unit = np.array([[1.0], [0.0]])
    h_out = np.empty((2, n))
    pending = np.ones(n, dtype=bool)
    for i in range(2, _CF_MAX_ITER):
        u[1] = a = float(-((i - 1) ** 2))
        b[0] += 2.0
        np.add(np.multiply(d, a, out=z[:, 0]), b, out=z[:, 0])
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


def _series_table(x: np.ndarray, count: int) -> np.ndarray:
    # Terms 0..count-1 of ``_series_terms`` for every x, one column each.
    # The running product accumulates down the rows, so term_sin takes the
    # scalar's factors in the scalar's order and rounds alike.
    import numpy as np
    k = np.arange(1, count)[:, None]
    factors = np.empty((count, x.size))
    factors[0] = x
    factors[1:] = -x * x / ((2 * k) * (2 * k + 1))
    terms = np.multiply.accumulate(factors, axis=0)
    terms[1:] /= 2 * k + 1
    return terms


def _si_power_series_array(x: np.ndarray) -> np.ndarray:
    """The series branch of ``si`` at every x of an array in [0, 16], bit for bit.

    Kept beside the scalar because it is faster over a curve's points and
    far slower for one point. Each column holds the scalar's terms up to its
    stopping term (later rows are zeroed), and ``fsum_prefixes`` gives each
    column's correctly rounded sum, the scalar's ``math.fsum``. Points go in
    blocks of _SERIES_BLOCK. A term's magnitude never decreases with x,
    rounding included, so the scalar's term count at the block's largest x
    sizes the block's table.
    """
    import numpy as np
    out = np.empty_like(x)
    for start in range(0, x.size, _SERIES_BLOCK):
        xb = x[start:start + _SERIES_BLOCK]
        count = len(_series_terms(float(xb.max())))
        terms = _series_table(xb, count)
        stop = (np.abs(terms[1:]) < _SERIES_TOL).argmax(axis=0) + 1  # each column's last term
        terms[np.arange(count)[:, None] > stop] = 0.0
        out[start:start + xb.size] = fsum_prefixes(terms, [count])[0]
    return out


def _si_tail_array(x: np.ndarray) -> np.ndarray:
    # The tail branch of ``si`` at every x of an array above 2**32, bit for
    # bit; x * x overflows to inf above about 1.3e154, as the scalar's does.
    import numpy as np
    with np.errstate(over="ignore"):
        return math.pi / 2.0 - (np.cos(x) / x + np.sin(x) / (x * x))


# Terms per block of ``fsum_prefixes``: its working arrays hold one block
# of rows, so memory stays flat however many terms are summed.
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
    Rows go in blocks of _SUM_BLOCK, carrying s, E and sum(|E|) across; the
    sums do not depend on the blocks; each block's ends are one slice of
    ends. The terms must be finite.
    """
    import numpy as np
    ends = np.asarray(ends, dtype=np.intp)
    out = np.zeros((ends.size, terms.shape[1]))  # fsum of no terms is 0.0
    # Row 0 of each block's running sums carries s, E and sum(|E|) over the
    # earlier blocks; row i holds them after the block's i-th term.
    run, err, mag = np.zeros((3, min(len(terms), _SUM_BLOCK) + 1, terms.shape[1]))
    unproved = np.zeros(out.shape, dtype=bool)  # the sums the check cannot prove
    first = 0  # the first end not yet summed
    for r0 in range(0, len(terms), _SUM_BLOCK):
        t = terms[r0:r0 + _SUM_BLOCK]
        m = len(t) + 1
        run[1:m] = t
        np.add.accumulate(run[:m], out=run[:m])
        prev, cur = run[:m - 1], run[1:m]
        bb = cur - prev
        np.add(prev - (cur - bb), t - bb, out=err[1:m])
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
