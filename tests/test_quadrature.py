import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference_quadrature import gauss_legendre, sinc_plain, sinc_sq_plain

from grating_orders import quadrature
from grating_orders.diffraction import grating_factor, grating_intensity, order_alpha
from grating_orders.orders import _order_terms, output_probability
from grating_orders.quadrature import (
    _SI_BLOCK,
    _SI_TAIL,
    _SUM_BLOCK,
    _si_continued_fraction_array,
    _si_power_series_array,
    _si_tail_array,
    fsum_prefixes,
    si,
    sinc_sq_integral,
)

# Reference values frozen from a 25-digit evaluation, cross-checked below
# against the tests' Gauss-Legendre quadrature.
SI_REFERENCE = {
    1.0: 0.94608307036718301,
    3.5: 1.833125398665997,
    10.0: 1.658347594218874,
    16.0: 1.6313022682700329,  # top of the power-series branch
    16.5: 1.6156261696817123,  # continued-fraction branch
    20.0: 1.5482417010434398,
    25.0: 1.5314825509999613,
    50.0: 1.5516170724859359,
    3 * math.pi: 1.6747617989799613,
    30 * math.pi: 1.5601883830413988,
    200.0: 1.5683823393394698,
}

INT_SINC_SQ_3PI_2 = 1.4625552081907675  # integral of sinc^2 on [0, 3pi/2]


class TestSi:
    def test_zero(self):
        assert si(0.0) == 0.0
        assert math.copysign(1.0, si(-0.0)) == -1.0  # odd, to the sign of zero

    @pytest.mark.parametrize("x,expected", sorted(SI_REFERENCE.items()))
    def test_reference_values(self, x, expected):
        # term rounding in the alternating series peaks near the cutoff
        # (about 2e-11 at x = 16); 1e-10 is the validated switchover accuracy
        assert si(x) == pytest.approx(expected, abs=1e-10)

    def test_asymptote(self):
        assert abs(si(200.0) - math.pi / 2) < 0.01

    @given(st.floats(-100.0, 100.0))
    @settings(max_examples=200)
    def test_odd(self, x):
        assert si(-x) == -si(x)

    def test_branch_switchover_is_seamless(self):
        assert si(16.0 - 1e-9) == pytest.approx(si(16.0 + 1e-9), abs=1e-10)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            si(float("inf"))

    def test_scalar_path_makes_no_numpy_call(self):
        # The array copies share the module; one scalar evaluation stays pure
        # math, which is far cheaper than a one-point array. A child process
        # with numpy unimportable must give the same floats.
        code = ("import sys; sys.modules['numpy'] = None\n"
                "from grating_orders.quadrature import si, sinc_sq_integral\n"
                "for x in (1e-300, 0.5, 8.0, 16.0, 16.5, 200.0, 1e5, 1e11):\n"
                "    print(repr((si(x), sinc_sq_integral(x), sinc_sq_integral(-x / 3))))\n")
        src = str(Path(quadrature.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            repr((si(x), sinc_sq_integral(x), sinc_sq_integral(-x / 3)))
            for x in (1e-300, 0.5, 8.0, 16.0, 16.5, 200.0, 1e5, 1e11)
        ]

    def test_against_quadrature_oracle(self):
        # the acceptance gate runs the 50-point version of this check
        rng = random.Random(71)
        for _ in range(12):
            x = rng.uniform(0.0, 30 * math.pi)
            assert abs(si(x) - gauss_legendre(sinc_plain, 0.0, x)) <= 1e-10


def primitive_difference(lo, hi):
    # the integral of sinc^2 over [lo, hi], by the odd primitive: half the
    # symmetric integral, exactly
    return (sinc_sq_integral(hi) - sinc_sq_integral(lo)) / 2.0


class TestSincSqIntegral:
    def test_degenerate_interval(self):
        assert sinc_sq_integral(0.0) == primitive_difference(2.0, 2.0) == 0.0

    def test_full_line_limit(self):
        assert sinc_sq_integral(1e6) == pytest.approx(math.pi, abs=1e-3)

    def test_three_half_pi_interval(self):
        assert sinc_sq_integral(1.5 * math.pi) == pytest.approx(
            2 * INT_SINC_SQ_3PI_2, rel=1e-13
        )

    @given(
        st.floats(-20.0, 20.0),
        st.floats(-20.0, 20.0),
        st.floats(-20.0, 20.0),
    )
    @settings(max_examples=100)
    def test_additivity(self, a, b, c):
        lo, mid, hi = sorted((a, b, c))
        whole = primitive_difference(lo, hi)
        split = primitive_difference(lo, mid) + primitive_difference(mid, hi)
        assert whole == pytest.approx(split, abs=1e-10)

    def test_matches_adaptive_oracle_on_random_intervals(self):
        rng = random.Random(2024)
        for _ in range(50):
            lo = rng.uniform(-30 * math.pi, 30 * math.pi)
            hi = rng.uniform(-30 * math.pi, 30 * math.pi)
            if lo > hi:
                lo, hi = hi, lo
            closed = primitive_difference(lo, hi)
            assert abs(closed - gauss_legendre(sinc_sq_plain, lo, hi)) <= 1e-8

    def test_symmetric_interval_is_two_sided_difference(self):
        # The symmetric integral is odd and gives the floats the two-sided
        # closed form gives, order edges included.
        def two_sided(x):
            s = math.sin(x)
            return si(2.0 * x) - s * s / x

        rng = random.Random(5)
        edges = [order_alpha(j, sigma) for sigma in (0.5, 1 / 3, 1 / 16, 0.3) for j in range(1, 600)]
        for x in edges + [rng.uniform(1e-3, 3e4) for _ in range(1000)]:
            assert sinc_sq_integral(-x) == -sinc_sq_integral(x) == 2.0 * two_sided(-x)
            assert sinc_sq_integral(x) == two_sided(x) - two_sided(-x)


class TestMpmathOracle:
    # 50-digit references; the stated accuracy is 1e-10 absolute. The worst
    # errors sit just below the x = 16 switch from series to continued
    # fraction, where the alternating series cancels.
    GRID = [k * 0.05 for k in range(1, 2401)] + [15.5 + k * 0.001 for k in range(1001)]

    @pytest.fixture()
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            yield mpmath

    def test_si(self, mp):
        for x in self.GRID:
            assert abs(si(x) - float(mp.si(x))) <= 1e-10, x
            assert abs(si(-x) - float(mp.si(-x))) <= 1e-10, x

    def test_envelope_integral(self, mp):
        def primitive(x):
            x = mp.mpf(x)
            return mp.si(2 * x) - mp.sin(x) ** 2 / x

        rng = random.Random(9)
        for x in self.GRID:
            a = x / 2.0
            assert abs(sinc_sq_integral(a) - float(2 * primitive(a))) <= 1e-10, a
            lo = rng.uniform(-60.0, a)
            oracle = primitive(a) - primitive(lo)
            assert abs(primitive_difference(lo, a) - float(oracle)) <= 1e-10, (lo, a)


class TestReferenceQuadrature:
    """The tests' Gauss-Legendre rule against closed forms."""

    def test_constant(self):
        assert gauss_legendre(np.ones_like, 0.0, 2.0) == pytest.approx(2.0, rel=1e-14)

    def test_sinc_sq_against_closed_form(self):
        value = gauss_legendre(sinc_sq_plain, 0.0, 1.5 * math.pi)
        assert value == pytest.approx(INT_SINC_SQ_3PI_2, abs=1e-10)

    def test_cosine_against_sine(self):
        assert gauss_legendre(np.cos, 0.0, 10.0) == pytest.approx(math.sin(10.0), abs=1e-9)


class TestGratingFactorSubinterval:
    """The grating intensity over one order subinterval, by the tests' quadrature."""

    @staticmethod
    def subinterval(j, sigma, n_slits, frozen_envelope=False):
        # The strip [alpha_j - pi sigma/2, alpha_j + pi sigma/2] sampled by order j,
        # one panel per pi sigma/N, half a main lobe. Frozen, the envelope is 1.
        kernel = grating_factor if frozen_envelope else grating_intensity
        aj, half = order_alpha(j, sigma), math.pi * sigma / 2.0
        return gauss_legendre(lambda a: kernel(a, sigma, n_slits), aj - half, aj + half,
                              2.0 * half / n_slits)

    def test_single_slit_reduces_to_envelope_integral(self):
        # N = 1 has a unit grating factor, leaving the sinc^2 strip integral
        v = self.subinterval(0, 0.5, 1)
        assert v == pytest.approx(sinc_sq_integral(math.pi / 4), abs=1e-9)
        assert v == pytest.approx(1.4682847915738143, rel=1e-10)

    @pytest.mark.parametrize("n_slits", [4, 64])
    @pytest.mark.parametrize("sigma", [0.125, 0.5])
    def test_frozen_envelope_subinterval_equals_n_pi_sigma(self, n_slits, sigma):
        v = self.subinterval(1, sigma, n_slits, frozen_envelope=True)
        assert v == pytest.approx(n_slits * math.pi * sigma, rel=1e-6)

    def test_frozen_envelope_independent_of_j(self):
        a = self.subinterval(0, 0.125, 4, frozen_envelope=True)
        b = self.subinterval(5, 0.125, 4, frozen_envelope=True)
        assert a == pytest.approx(b, rel=1e-9)

    def test_narrow_subinterval_approaches_riemann_strip(self):
        # with a nearly flat envelope the strip value N pi sigma sinc^2(0) is
        # reproduced well below the 1% level
        v = self.subinterval(0, 0.125, 4)
        assert v == pytest.approx(4 * math.pi * 0.125, rel=0.01)
        assert v == pytest.approx(1.569410813, rel=1e-6)

    def test_envelope_null_suppresses_peak(self):
        # at an envelope null only secondary-maxima leakage remains; for large
        # N it is far below the strip scale (about 4e-3 of it at N = 4,
        # 2.7e-4 at N = 64)
        n_slits = 64
        v = self.subinterval(2, 0.5, n_slits)
        assert v <= 1e-3 * n_slits * math.pi * 0.5

    def test_main_lobe_alone_carries_about_ninety_percent(self):
        # the half-rectangle peak reading: null-to-null lobe versus the full
        # subinterval value N pi sigma, good only to about the 10% level
        sigma, n_slits = 0.125, 64
        half_lobe = math.pi * sigma / n_slits
        lobe = gauss_legendre(lambda a: grating_factor(a, sigma, n_slits), -half_lobe, half_lobe)
        assert lobe == pytest.approx(n_slits * math.pi * sigma, rel=0.10)
        assert lobe < 0.95 * n_slits * math.pi * sigma


class TestArraySi:
    """The array continued fraction, power series and envelope integral of ``curve``."""

    def test_power_series_equals_scalar(self):
        rng = np.random.default_rng(20112)
        below_cutoff = [16.0]
        for _ in range(200):
            below_cutoff.append(math.nextafter(below_cutoff[-1], 0.0))
        x = np.concatenate([
            rng.uniform(0.0, 16.0, 150_000),
            10.0 ** rng.uniform(-300.0, math.log10(16.0), 50_000),
            np.array(below_cutoff),
            np.array([5e-324, 16.0]),
        ])
        x = x[x > 0.0]
        assert x.size >= 200_000 and x.max() == 16.0 and x.min() == 5e-324
        expected = [si(v) for v in x.tolist()]
        # one block at a time, as sinc_sq_integral hands them: the table
        # over all 200,000 points at once would take about 450 MB
        blocks = [_si_power_series_array(x[i:i + _SI_BLOCK]) for i in range(0, x.size, _SI_BLOCK)]
        assert np.concatenate(blocks).tolist() == expected
        for size in (0, 1, _SI_BLOCK - 1, _SI_BLOCK, _SI_BLOCK + 1):
            assert _si_power_series_array(x[-size:] if size else x[:0]).tolist() == (
                expected[-size:] if size else []
            )

    def test_power_series_rows_stop_at_their_own_term(self, monkeypatch):
        # With a coarse tolerance the terms a row would take past its own
        # stop, up to the block's longest row, change its sum visibly.
        monkeypatch.setattr(quadrature, "_SERIES_TOL", 1e-4)
        x = np.random.default_rng(5).uniform(0.0, 16.0, 2 * _SI_BLOCK)
        expected = [si(v) for v in x.tolist()]
        assert _si_power_series_array(x).tolist() == expected

    def test_power_series_memory_is_bounded(self, monkeypatch):
        # sinc_sq_integral hands the series one block of points at a time,
        # and only the block holding x = 16 needs the series' longest rows:
        # beside its arrays of the input's length (7 of them measured), the
        # peak holds one block's table of 38 rows and its sum's working
        # rows. One table over every point would take those rows for all
        # 1e5 points, about 250 MB.
        monkeypatch.setattr(quadrature, "_SI_BLOCK", 256)
        x = np.append(np.random.default_rng(7).uniform(0.0, 1e-7, 10**5 - 1), 16.0)
        alpha = x / 2.0
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sinc_sq_integral(alpha)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 8 * x.nbytes + 10 * 38 * 8 * 256

    def test_power_series_memory_at_the_real_block(self):
        # One full block of series points, up to 2 alpha_t = 16, takes the
        # longest table: 38 rows of _SI_BLOCK points (1.25 MB). The table,
        # and the sum's working arrays of at most _SUM_BLOCK terms each, peak
        # within 4 tables (4.2 MB measured; 10.3 MB when the sum's working
        # arrays took all 38 rows of every column).
        alpha = np.linspace(0.01, 8.0, _SI_BLOCK)
        sinc_sq_integral(alpha)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sinc_sq_integral(alpha)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * 38 * 8 * _SI_BLOCK

    def test_continued_fraction_equals_scalar(self):
        rng = np.random.default_rng(20111)
        above_cutoff = [16.0]
        for _ in range(200):
            above_cutoff.append(math.nextafter(above_cutoff[-1], math.inf))
        x = np.concatenate([
            rng.uniform(16.0, 2e5, 200_000),
            rng.uniform(16.0, 60.0, 20_000),
            np.array(above_cutoff[1:]),
            16.0 + rng.uniform(0.0, 1e-6, 1000),
            np.array([2e5]),
        ])
        assert x.min() > 16.0 and x.max() <= 2e5
        got = _si_continued_fraction_array(x)
        assert got.tolist() == [quadrature._si_continued_fraction(v) for v in x.tolist()]

    def test_two_row_quotient_equals_one_row_calls(self):
        # Each continued-fraction step divides 1 by a d + b and a by c in one
        # _quotient pass over two rows, the numerators a column. Each row
        # equals its own one-row call, and CPython's complex quotient, bit for
        # bit: at ties |zr| == |zi|, signed-zero parts, the first step's
        # c = 1e300 + 0j broadcast into its row, and every a negative.
        rng = np.random.default_rng(20116)
        ties = [(3.0, 3.0), (-3.0, 3.0), (3.0, -3.0), (-2.5, -2.5), (1e-300, -1e-300)]
        zeros = [(0.0, 5.0), (-0.0, 5.0), (5.0, 0.0), (5.0, -0.0), (-5.0, -0.0), (-0.0, -17.0)]
        spread = rng.normal(size=(50, 2)) * 10.0 ** rng.uniform(-8.0, 8.0, (50, 1))
        d = np.concatenate([ties, zeros, spread])  # the divisors a d + b

        def bits(values):
            return np.asarray(values, dtype=float).view(np.uint64).tolist()

        for cr, ci in ((d[::-1, 0], d[::-1, 1]), (1e300, 0.0)):  # c on a later step, and on the first
            zr = np.stack([d[:, 0], np.broadcast_to(cr, len(d))])
            zi = np.stack([d[:, 1], np.broadcast_to(ci, len(d))])
            for a in (-1.0, -4.0, -(298.0**2)):
                qr, qi = quadrature._quotient(np.array([[1.0], [a]]), zr, zi)
                for row, (u, ur, ui) in enumerate(((1.0, d[:, 0], d[:, 1]), (a, cr, ci))):
                    one_r, one_i = np.broadcast_arrays(*quadrature._quotient(u, ur, ui), qr[row])[:2]
                    assert bits(qr[row]) == bits(one_r) and bits(qi[row]) == bits(one_i), (a, row)
                    want = [complex(u, 0.0) / complex(r, i) for r, i in zip(zr[row].tolist(), zi[row].tolist())]
                    assert bits(qr[row]) == bits([w.real for w in want]), (a, row)
                    assert bits(qi[row]) == bits([w.imag for w in want]), (a, row)

    def test_empty(self):
        assert _si_continued_fraction_array(np.array([])).size == 0

    def test_non_convergence_raises(self, monkeypatch):
        x = np.array([17.0, 500.0, 1e5])
        monkeypatch.setattr(quadrature, "_CF_MAX_ITER", 4)
        with pytest.raises(ArithmeticError, match="did not converge"):
            quadrature._si_continued_fraction(17.0)
        with pytest.raises(ArithmeticError, match="did not converge"):
            _si_continued_fraction_array(x)

    def test_nan_does_not_converge(self):
        with pytest.raises(ArithmeticError, match="did not converge"):
            quadrature._si_continued_fraction(math.nan)
        with pytest.raises(ArithmeticError, match="did not converge"):
            _si_continued_fraction_array(np.array([20.0, math.nan]))
        with pytest.raises(ArithmeticError, match="did not converge for x=nan"):
            _si_continued_fraction_array(np.array([20.0, math.nan, 1e5, 17.0]))

    def test_sizes_around_the_block(self):
        rng = np.random.default_rng(20113)
        x = np.concatenate([np.sort(rng.uniform(16.0, 60.0, _SI_BLOCK + 1)),
                            rng.uniform(16.0, 1e4, _SI_BLOCK + 1)])
        expected = [quadrature._si_continued_fraction(v) for v in x.tolist()]
        for size in (_SI_BLOCK - 1, _SI_BLOCK, _SI_BLOCK + 1, 2 * _SI_BLOCK + 2):
            assert _si_continued_fraction_array(x[:size]).tolist() == expected[:size]
            assert _si_continued_fraction_array(x[-size:]).tolist() == expected[-size:]

    def test_every_iteration_count_in_one_block(self):
        # Over the branch (16, 2**21] a point stops after 2 to 20 iterations
        # at these 20,002 points: about 20 just above 16, 2 from about 1e5
        # up. Shuffled, one block mixes points that stop at every count;
        # sorted and reversed, the counts change within and across blocks.
        rng = np.random.default_rng(20114)
        x = np.exp(rng.uniform(math.log(16.0), math.log(_SI_TAIL), 20_000))
        x = np.sort(np.concatenate([x[x > 16.0], [math.nextafter(16.0, math.inf), _SI_TAIL]]))
        expected = np.array([quadrature._si_continued_fraction(v) for v in x.tolist()])
        for order in (np.arange(x.size), np.arange(x.size)[::-1], rng.permutation(x.size)):
            assert _si_continued_fraction_array(x[order]).tolist() == expected[order].tolist()

    def test_slowest_and_fastest_points_in_one_block(self):
        # x = 16 + 1 ulp takes 16 iterations and x = 1e8 among the fewest,
        # 3; each keeps its own h whatever its neighbours need, in either
        # order and interleaved.
        slow, fast = math.nextafter(16.0, math.inf), 1e8
        x = np.array([slow, fast] * 8 + [fast] * 5 + [slow] * 3 + [fast, 25.0, slow])
        expected = [quadrature._si_continued_fraction(v) for v in x.tolist()]
        assert _si_continued_fraction_array(x).tolist() == expected
        assert _si_continued_fraction_array(x[::-1]).tolist() == expected[::-1]

    def test_non_convergence_names_first_unconverged_x(self, monkeypatch):
        # With 9 iterations 1e5 (3) and 500 converge and 17 (15) does not;
        # the message names the first Si argument that does not, in its own
        # block of sinc_sq_integral or in a later one, as the scalar does.
        monkeypatch.setattr(quadrature, "_CF_MAX_ITER", 10)
        assert quadrature._si_continued_fraction(1e5) == si(1e5)
        assert quadrature._si_continued_fraction(500.0) == si(500.0)
        with pytest.raises(ArithmeticError, match="did not converge for x=17.0"):
            quadrature._si_continued_fraction(17.0)
        x = np.array([1e5, 500.0, 17.0, 1e5, 18.5])
        with pytest.raises(ArithmeticError, match=r"did not converge for x=17\.0$"):
            sinc_sq_integral(x / 2.0)
        monkeypatch.setattr(quadrature, "_SI_BLOCK", 2)
        with pytest.raises(ArithmeticError, match=r"did not converge for x=17\.0$"):
            sinc_sq_integral(x / 2.0)
        with pytest.raises(ArithmeticError, match=r"did not converge for x=18\.5$"):
            sinc_sq_integral(np.array([1e5, 500.0, 1e5, 18.5, 17.0]) / 2.0)

    def test_blocks_mixing_branches_equal_scalar(self):
        # Each block of sinc_sq_integral hands every branch its own points:
        # in sorted, reversed and shuffled order, at sizes around the block,
        # a block holds one branch, two, or all three.
        rng = np.random.default_rng(20115)
        a = np.concatenate([
            rng.uniform(0.0, 8.0, _SI_BLOCK),
            np.exp(rng.uniform(math.log(8.0), math.log(2.0**20), _SI_BLOCK)),
            np.exp(rng.uniform(math.log(2.0**20), math.log(1e307), _SI_BLOCK)),
            np.array([0.0, 8.0, math.nextafter(8.0, 9.0), 2.0**20, math.nextafter(2.0**20, 3e6),
                      quadrature._ALPHA_MAX]),
        ])
        a *= rng.choice([-1.0, 1.0], a.size)
        expected = np.array([sinc_sq_integral(v) for v in a.tolist()])
        for order in (np.argsort(a), np.argsort(a)[::-1], rng.permutation(a.size)):
            for size in (_SI_BLOCK - 1, _SI_BLOCK, _SI_BLOCK + 1, 2 * _SI_BLOCK + 2, a.size):
                for part in (order[:size], order[-size:]):
                    assert sinc_sq_integral(a[part]).tolist() == expected[part].tolist()

    def test_zero_and_tiny_equal_scalar_without_warnings(self):
        # At alpha_t = +-0 the closed form divides 0 by 0 before np.where
        # picks 2 alpha_t; the array path neither warns there nor loses
        # the scalar's bits, the sign of zero included.
        tiny = 2.0**-511
        a = [0.0, 5e-324, math.nextafter(tiny, 0.0), tiny, math.nextafter(tiny, 1.0), 1.0]
        a += [-v for v in a]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sinc_sq_integral(np.array(a)).tolist()
        assert list(map(repr, got)) == [repr(sinc_sq_integral(v)) for v in a]

    def test_symmetric_integrals_equal_scalar(self):
        rng = np.random.default_rng(48)
        # below 2**-511 the integral is 2x; sin(x)**2 would underflow there
        tiny = 2.0**-511
        a = np.concatenate([rng.uniform(1e-3, 8.0, 1000), rng.uniform(8.0, 1e5, 3000),
                            np.array([8.0, math.nextafter(8.0, math.inf)]),
                            np.array([5e-324, 1e-300, 1e-160, math.nextafter(tiny, 0.0), tiny,
                                      math.nextafter(tiny, 1.0), 1e-150])])
        expected = [sinc_sq_integral(v) for v in a.tolist()]
        assert sinc_sq_integral(a).tolist() == expected
        assert sinc_sq_integral(-a).tolist() == [-v for v in expected]
        assert expected[-7:-3] == [2.0 * v for v in a[-7:-3].tolist()]


class TestSiBranches:
    """Si's three branches, each picked by its argument alone."""

    # Every octave from 2**4 to 2**1023, the tail's edge 2**21 and its two
    # neighbours, an x at which the continued fraction used to stall, and
    # the largest floats.
    X = sorted({2.0**k for k in range(4, 1024)} | {
        math.nextafter(_SI_TAIL, 0.0), math.nextafter(_SI_TAIL, math.inf),
        1e11, 4.7e307, sys.float_info.max})

    def test_scalar_equals_array_and_mpmath_over_every_octave(self):
        mpmath = pytest.importorskip("mpmath")
        x = np.array(self.X)
        scalar = [si(v) for v in self.X]
        array = np.concatenate([  # x is sorted, so the branches come in order
            _si_power_series_array(x[x <= 16.0]),
            _si_continued_fraction_array(x[(x > 16.0) & (x <= _SI_TAIL)]),
            _si_tail_array(x[x > _SI_TAIL]),
        ])
        assert array.tolist() == scalar
        with mpmath.workdps(50):
            for v, got in zip(self.X, scalar):
                # x = 16 is the series' top, where it cancels most (2.7e-12 off)
                assert abs(got - float(mpmath.si(v))) <= (1e-10 if v <= 16.0 else 2.3e-16), v
        # the envelope integral picks the same branch for Si(2 alpha_t), over an array as for a float
        assert sinc_sq_integral(x / 2.0).tolist() == [sinc_sq_integral(v / 2.0) for v in self.X]

    def test_series_takes_at_most_38_terms(self):
        # term magnitudes grow with x, so the top of the branch takes the most
        assert len(quadrature._series_terms(16.0)) == 38
        assert len(quadrature._series_terms(math.nextafter(16.0, 0.0))) == 38
        x = np.random.default_rng(38).uniform(0.0, 16.0, 2000).tolist()
        assert max(len(quadrature._series_terms(v)) for v in x) == 38

    @pytest.mark.parametrize("p", [23, 24, 25, 26])
    def test_stalls_below_powers_of_two_are_served_by_the_tail(self, p):
        # At some of these 4,001 points in [2**p - 4, 2**p] the continued
        # fraction never converges (14, 145, 1,209 and 1,938 of them for
        # p = 23..26); si and the envelope integral answer at every one.
        x = 2.0**p - np.arange(4001) * 1e-3
        with pytest.raises(ArithmeticError, match="did not converge"):
            _si_continued_fraction_array(x)
        tail = [math.pi / 2.0 - (math.cos(v) / v + math.sin(v) / (v * v)) for v in x.tolist()]
        assert [si(v) for v in x.tolist()] == tail
        assert sinc_sq_integral(x / 2.0).tolist() == [sinc_sq_integral(v / 2.0) for v in x.tolist()]

    def test_continued_fraction_converges_in_every_window_below_the_tail(self, monkeypatch):
        # In [m - 4, m] for m = 2**p and 3 * 2**p up to 2**21 the fraction
        # stops by i = 104, the slowest just below 2**21, as the comment on
        # _CF_MAX_ITER states; 44 below 2**20, at most 19 further down.
        ms = sorted({2.0**p for p in range(5, 22)} | {3 * 2.0**p for p in range(3, 20)})
        assert ms[0] - 4.0 > 16.0 and ms[-1] == _SI_TAIL
        monkeypatch.setattr(quadrature, "_CF_MAX_ITER", 105)
        for m in ms:
            _si_continued_fraction_array(m - np.arange(4001) * 1e-3)
        monkeypatch.setattr(quadrature, "_CF_MAX_ITER", 104)
        with pytest.raises(ArithmeticError, match=r"for x=2097151\.9"):
            _si_continued_fraction_array(_SI_TAIL - np.arange(4001) * 1e-3)

    def test_where_the_continued_fraction_stalled_answers(self):
        # At x = 1e11 the continued fraction's delta settles one float short
        # of its tolerance; the tail answers there.
        with pytest.raises(ArithmeticError, match="did not converge"):
            quadrature._si_continued_fraction(1e11)
        assert si(1e11) == pytest.approx(math.pi / 2, abs=1e-11)
        assert sinc_sq_integral(-1e11) == pytest.approx(-math.pi, abs=1e-10)
        assert output_probability(1e11, 1) == -sinc_sq_integral(-1e11)
        assert sinc_sq_integral(np.array([1e11])).tolist() == [-sinc_sq_integral(-1e11)]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1e308, -1e308])
    def test_integral_refuses_an_alpha_t_whose_si_argument_is_not_finite(self, bad):
        message = f"sinc_sq_integral requires |alpha_t| <= {quadrature._ALPHA_MAX!r}, got {bad!r}"
        for arg in (bad, np.array([1.0, bad, math.nan])):
            with pytest.raises(ValueError) as exc:
                sinc_sq_integral(arg)
            assert str(exc.value) == message
        assert sinc_sq_integral(quadrature._ALPHA_MAX) == pytest.approx(math.pi)


class TestFsumPrefixes:
    """The checked correctly rounded sums of the array series and ``curve``."""

    @staticmethod
    def counted_fallback(monkeypatch):
        # Lists, per exact walk, the ends of the prefixes it settles.
        walks = []
        walk = quadrature._exact_prefixes

        def counting(column, at):
            walks.append(list(at))
            return walk(column, at)

        monkeypatch.setattr(quadrature, "_exact_prefixes", counting)
        return walks

    @staticmethod
    def every_prefix(terms):
        # repr, so that a zero's sign must match too
        got = fsum_prefixes(np.array(terms)[:, None], list(range(len(terms) + 1)))[:, 0]
        assert list(map(repr, got.tolist())) == [repr(math.fsum(terms[:n])) for n in range(len(terms) + 1)]

    @pytest.mark.parametrize("terms", [
        [1.0, 2.0**-53],  # a tie, to even
        [1.0, 2.0**-53, 2.0**-106],
        [1.0, 2.0**-53, -(2.0**-106)],
        [1.0, -(2.0**-54), 2.0**-107],
        [1e16, 1.0, -1e16],
        [1e16, 1.0, 1.0, -1e16, 2.0**-60],
    ])
    def test_ties_and_cancellation_fall_back(self, monkeypatch, terms):
        walks = self.counted_fallback(monkeypatch)
        self.every_prefix(terms)
        assert walks

    @pytest.mark.parametrize("terms", [
        [],
        [0.0],
        [-0.0, -0.0],
        [0.0, -0.0, 0.0],
        [5e-324, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-320],
        [1.0, -1.0, 1.0, -1.0, 1.0],
        [(-1.0) ** i * 10.0**(i % 17 - 8) for i in range(200)],
        [(-1.0) ** i / (i + 1) for i in range(1000)],
    ])
    def test_zeros_subnormals_and_alternating_rows(self, terms):
        self.every_prefix(terms)

    def test_columns_sum_independently(self):
        rng = np.random.default_rng(3)
        terms = rng.normal(size=(70, 9)) * 10.0 ** rng.integers(-20, 20, size=(70, 9))
        terms[:, 4] = [1.0, 2.0**-53] + [0.0] * 68
        ends = [0, 1, 2, 3, 40, 69, 70]
        got = fsum_prefixes(terms, ends)
        assert got.tolist() == [[math.fsum(terms[:n, c].tolist()) for c in range(9)] for n in ends]

    def test_random_rows_rarely_fall_back(self, monkeypatch):
        rng = np.random.default_rng(4)
        terms = (rng.uniform(0.0, 1.0, 5000) ** 3 * 1e-3).tolist()
        walks = self.counted_fallback(monkeypatch)
        self.every_prefix(terms)
        assert sum(map(len, walks)) <= 5

    def test_many_ties_settle_in_one_walk(self, monkeypatch):
        # 1 + k 2**-53 is a tie at every odd k: all of them, in both
        # blocks, go to one walk of the column, so the fallback stays
        # linear in the terms however many sums it settles.
        monkeypatch.setattr(quadrature, "_SUM_BLOCK", 64)
        terms = [1.0] + [2.0**-53] * 100
        walks = self.counted_fallback(monkeypatch)
        self.every_prefix(terms)
        assert len(walks) == 1
        assert set(range(2, 102, 2)) <= set(walks[0]) and walks[0] == sorted(walks[0])

    @pytest.mark.parametrize("sigma", [1 / 2, 1 / 3])
    def test_realistic_order_sums_need_no_walk(self, monkeypatch, sigma):
        # sinc^2 at orders 1..2e6, summed at every 10th count as a curve sums
        # its envelopes: the running-sum bound proves every one of the sums.
        terms = _order_terms(2 * 10**6, sigma)[1:]
        ends = list(range(0, terms.size + 1, 10))
        walks = self.counted_fallback(monkeypatch)
        got = fsum_prefixes(terms[:, None], ends)[:, 0]
        assert walks == []
        for i in random.Random(11).sample(range(len(ends)), 3) + [len(ends) - 1]:
            assert got[i] == math.fsum(terms[:ends[i]].tolist())

    @pytest.mark.parametrize("extra", [-1, 0, 1, 2 * _SUM_BLOCK + 2])
    def test_lengths_around_the_block_carry(self, extra):
        # Lengths B - 1, B, B + 1 and 3B + 2: sums at the block edges and
        # at random ends equal fsum, and also with a block of 7 terms,
        # where every prefix is checked.
        n = _SUM_BLOCK + extra
        rng = np.random.default_rng(n)
        terms = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n)
        ends = sorted(k for k in {0, 1, _SUM_BLOCK - 1, _SUM_BLOCK, _SUM_BLOCK + 1, n,
                                  *rng.integers(0, n + 1, 20).tolist()} if k <= n)
        got = fsum_prefixes(terms[:, None], ends)[:, 0]
        assert got.tolist() == [math.fsum(terms[:k].tolist()) for k in ends]

    def test_repeated_non_decreasing_ends(self, monkeypatch):
        # Blocks of 7 terms, ends repeated at 0, at block edges, at ties
        # and at len: every row is the column's fsum, and each column's
        # walk gets its ends in order. The late ends all fall in the last
        # block, so the earlier blocks sum no end.
        monkeypatch.setattr(quadrature, "_SUM_BLOCK", 7)
        rng = np.random.default_rng(19)
        n = 22
        terms = np.empty((n, 4))
        terms[:, 0] = [1.0] + [2.0**-53] * (n - 1)  # a tie at every odd count
        terms[:, 1] = [1e16, 1.0, -1e16, 2.0**-60] * 5 + [1.0, -0.0]
        terms[:, 2] = rng.normal(size=n) * 10.0 ** rng.integers(-17, 17, size=n)
        terms[:, 3] = -0.0
        walks = self.counted_fallback(monkeypatch)
        for ends in ([0, 0, 0, 1, 2, 2, 3, 7, 7, 8, 13, 14, 14, 15, 21, 22, 22, 22],
                     [15, 15, 16, 19, 19, 21, 22, 22], [n, n], [0]):
            got = fsum_prefixes(terms, ends)
            assert got.shape == (len(ends), 4)
            for c in range(4):
                expected = [repr(math.fsum(terms[:k, c].tolist())) for k in ends]
                assert list(map(repr, got[:, c].tolist())) == expected, (ends, c)
        assert walks and all(at == sorted(at) for at in walks)

    @staticmethod
    def fsum_at_every_end(column):
        # math.fsum(column[:n]) at every n, each taken over Shewchuk's
        # partials of the prefix (an error-free expansion of its exact sum),
        # so no prefix is summed again from its start.
        partials, sums = [], [0.0]
        for x in column:
            i = 0
            for y in partials:
                if abs(x) < abs(y):
                    x, y = y, x
                hi = x + y
                lo = y - (hi - x)
                if lo:
                    partials[i] = lo
                    i += 1
                x = hi
            partials[i:] = [x]
            sums.append(math.fsum(partials))
        return sums

    @pytest.mark.parametrize("block,rows,width", [
        (None, 2 * _SUM_BLOCK + 3, 1),  # blocks of _SUM_BLOCK rows
        (None, 39, 4096),  # a full series block: 16 rows a block
        (None, 5, _SUM_BLOCK + 1),  # one row a block
        # blocks of 10 terms, so the ends fall in many blocks: 10 rows a
        # block down to 1, and 1 at widths above 10
        *((10, 23, width) for width in (1, 2, 3, 10, 11, 40)),
    ])
    def test_every_end_and_column_whatever_the_blocks(self, monkeypatch, block, rows, width):
        # A block holds at most _SUM_BLOCK terms, whatever the table's
        # shape; the sums do not depend on where the blocks fall.
        if block:
            monkeypatch.setattr(quadrature, "_SUM_BLOCK", block)
        rng = np.random.default_rng(rows + width)
        terms = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-17, 17, size=(rows, width))
        terms[:, -1] = np.resize([1e16, 1.0, -1e16, 2.0**-60], rows)  # cancellation
        terms[:, 0] = [1.0] + [2.0**-53] * (rows - 1)  # a tie at every odd end
        got = fsum_prefixes(terms, list(range(rows + 1)))
        for c in range(width):
            assert got[:, c].tolist() == self.fsum_at_every_end(terms[:, c].tolist()), c

    def test_small_block_carry_at_every_prefix(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_SUM_BLOCK", 7)
        rng = np.random.default_rng(6)
        for n in (6, 7, 8, 23):
            terms = (rng.normal(size=n) * 10.0 ** rng.integers(-17, 17, size=n)).tolist()
            terms[n // 2] = -sum(terms[:n // 2])  # cancellation inside a block
            self.every_prefix(terms)
        self.every_prefix([1.0] * 7 + [2.0**-53] + [1.0] * 8)
