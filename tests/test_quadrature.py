import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grating_orders import quadrature
from grating_orders.diffraction import grating_factor, order_alpha, sinc_sq
from grating_orders.orders import _order_terms
from grating_orders.quadrature import (
    _CF_BLOCK,
    _SERIES_BLOCK,
    _SUM_BLOCK,
    Interval,
    QuadratureError,
    _si_continued_fraction_array,
    _si_power_series_array,
    adaptive_integrate,
    fsum_prefixes,
    grating_factor_subinterval_integral,
    si,
    sinc_sq_integral,
    sinc_sq_primitive,
)

# Reference values frozen from a 25-digit evaluation, cross-checked below
# against the in-package adaptive quadrature.
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


def sinc_sq_plain(x: float) -> float:
    return sinc_sq(x)


class TestSi:
    def test_zero(self):
        assert si(0.0) == 0.0

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
                "from grating_orders.quadrature import Interval, si, sinc_sq_integral\n"
                "for x in (1e-300, 0.5, 8.0, 16.0, 16.5, 200.0, 1e5):\n"
                "    print(repr((si(x), sinc_sq_integral(Interval(-x, x)),"
                " sinc_sq_integral(Interval(x / 3, x)))))\n")
        src = str(Path(quadrature.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            repr((si(x), sinc_sq_integral(Interval(-x, x)), sinc_sq_integral(Interval(x / 3, x))))
            for x in (1e-300, 0.5, 8.0, 16.0, 16.5, 200.0, 1e5)
        ]

    def test_against_quadrature_oracle(self):
        # the acceptance gate runs the 50-point version of this check
        rng = random.Random(71)
        for _ in range(12):
            x = rng.uniform(0.0, 30 * math.pi)
            oracle = adaptive_integrate(
                lambda t: math.sin(t) / t if t != 0.0 else 1.0, Interval(0.0, x), 1e-12
            )
            assert abs(si(x) - oracle.value) <= max(1e-10, oracle.abs_error_estimate)


class TestSincSqIntegral:
    def test_degenerate_interval(self):
        assert sinc_sq_integral(Interval(2.0, 2.0)) == 0.0

    def test_full_line_limit(self):
        assert sinc_sq_integral(Interval(-1e6, 1e6)) == pytest.approx(math.pi, abs=1e-3)

    def test_three_half_pi_interval(self):
        assert sinc_sq_integral(Interval(-1.5 * math.pi, 1.5 * math.pi)) == pytest.approx(
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
        whole = sinc_sq_integral(Interval(lo, hi))
        split = sinc_sq_integral(Interval(lo, mid)) + sinc_sq_integral(Interval(mid, hi))
        assert whole == pytest.approx(split, abs=1e-10)

    def test_matches_adaptive_oracle_on_random_intervals(self):
        rng = random.Random(2024)
        for _ in range(50):
            lo = rng.uniform(-30 * math.pi, 30 * math.pi)
            hi = rng.uniform(-30 * math.pi, 30 * math.pi)
            if lo > hi:
                lo, hi = hi, lo
            closed = sinc_sq_integral(Interval(lo, hi))
            oracle = adaptive_integrate(sinc_sq_plain, Interval(lo, hi), 1e-10)
            assert abs(closed - oracle.value) <= 1e-8

    def test_symmetric_interval_is_two_sided_difference(self):
        # The odd primitive and the one-primitive symmetric integral give the
        # floats the two-sided closed form gives, order edges included.
        def two_sided(x):
            s = math.sin(x)
            return si(2.0 * x) - s * s / x

        rng = random.Random(5)
        edges = [order_alpha(j, sigma) for sigma in (0.5, 1 / 3, 1 / 16, 0.3) for j in range(1, 600)]
        for x in edges + [rng.uniform(1e-3, 3e4) for _ in range(1000)]:
            assert sinc_sq_primitive(-x) == -sinc_sq_primitive(x) == two_sided(-x)
            assert sinc_sq_integral(Interval(-x, x)) == two_sided(x) - two_sided(-x)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, float("inf"))


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
            assert abs(sinc_sq_integral(Interval(-a, a)) - float(2 * primitive(a))) <= 1e-10, a
            lo = rng.uniform(-60.0, a)
            oracle = primitive(a) - primitive(lo)
            assert abs(sinc_sq_integral(Interval(lo, a)) - float(oracle)) <= 1e-10, (lo, a)


class TestAdaptiveIntegrate:
    def test_constant(self):
        r = adaptive_integrate(lambda x: 1.0, Interval(0.0, 2.0), 1e-10)
        assert r.value == pytest.approx(2.0, rel=1e-14)
        assert r.evaluations > 0

    def test_sinc_sq_against_closed_form(self):
        r = adaptive_integrate(sinc_sq_plain, Interval(0.0, 1.5 * math.pi), 1e-10)
        assert r.value == pytest.approx(INT_SINC_SQ_3PI_2, abs=1e-9)
        assert abs(r.value - INT_SINC_SQ_3PI_2) <= max(1e-10, r.abs_error_estimate)

    def test_error_estimate_is_honest_for_smooth_integrand(self):
        r = adaptive_integrate(math.cos, Interval(0.0, 10.0), 1e-9)
        assert abs(r.value - math.sin(10.0)) <= max(1e-9, r.abs_error_estimate)

    def test_deterministic(self):
        a = adaptive_integrate(sinc_sq_plain, Interval(0.0, 20.0), 1e-10)
        b = adaptive_integrate(sinc_sq_plain, Interval(0.0, 20.0), 1e-10)
        assert a == b

    def test_depth_exhaustion_raises_with_partial(self):
        spike = lambda x: 1.0 / math.sqrt(abs(x - 0.7112) + 1e-14)
        with pytest.raises(QuadratureError) as err:
            adaptive_integrate(spike, Interval(0.0, 1.0), 1e-12, max_depth=4)
        partial = err.value.partial
        assert math.isfinite(partial.value)
        assert partial.abs_error_estimate > 1e-12

    def test_rejects_non_finite_integrand(self):
        with pytest.raises(ValueError):
            adaptive_integrate(lambda x: float("nan"), Interval(0.0, 1.0), 1e-8)


class TestGratingFactorSubinterval:
    def test_single_slit_reduces_to_envelope_integral(self):
        # N = 1 has a unit grating factor, leaving the sinc^2 strip integral
        v = grating_factor_subinterval_integral(0, 0.5, 1)
        assert v == pytest.approx(
            sinc_sq_integral(Interval(-math.pi / 4, math.pi / 4)), abs=1e-9
        )
        assert v == pytest.approx(1.4682847915738143, rel=1e-10)

    @pytest.mark.parametrize("n_slits", [4, 64])
    @pytest.mark.parametrize("sigma", [0.125, 0.5])
    def test_frozen_envelope_subinterval_equals_n_pi_sigma(self, n_slits, sigma):
        v = grating_factor_subinterval_integral(1, sigma, n_slits, frozen_envelope=True)
        assert v == pytest.approx(n_slits * math.pi * sigma, rel=1e-6)

    def test_frozen_envelope_independent_of_j(self):
        a = grating_factor_subinterval_integral(0, 0.125, 4, frozen_envelope=True)
        b = grating_factor_subinterval_integral(5, 0.125, 4, frozen_envelope=True)
        assert a == pytest.approx(b, rel=1e-9)

    def test_narrow_subinterval_approaches_riemann_strip(self):
        # with a nearly flat envelope the strip value N pi sigma sinc^2(0) is
        # reproduced well below the 1% level
        v = grating_factor_subinterval_integral(0, 0.125, 4)
        assert v == pytest.approx(4 * math.pi * 0.125, rel=0.01)
        assert v == pytest.approx(1.569410813, rel=1e-6)

    def test_envelope_null_suppresses_peak(self):
        # at an envelope null only secondary-maxima leakage remains; for large
        # N it is far below the strip scale (about 4e-3 of it at N = 4,
        # 2.7e-4 at N = 64)
        n_slits = 64
        v = grating_factor_subinterval_integral(2, 0.5, n_slits)
        assert v <= 1e-3 * n_slits * math.pi * 0.5

    def test_main_lobe_alone_carries_about_ninety_percent(self):
        # the half-rectangle peak reading: null-to-null lobe versus the full
        # subinterval value N pi sigma, good only to about the 10% level
        sigma, n_slits = 0.125, 64
        half_lobe = math.pi * sigma / n_slits
        lobe = adaptive_integrate(
            lambda a: grating_factor(a, sigma, n_slits),
            Interval(-half_lobe, half_lobe),
            1e-9,
            initial_panels=64,
        ).value
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
        expected = [quadrature._si_power_series(v) for v in x.tolist()]
        assert _si_power_series_array(x).tolist() == expected
        for size in (0, 1, _SERIES_BLOCK - 1, _SERIES_BLOCK, _SERIES_BLOCK + 1):
            assert _si_power_series_array(x[-size:] if size else x[:0]).tolist() == (
                expected[-size:] if size else []
            )

    def test_power_series_rows_stop_at_their_own_term(self, monkeypatch):
        # With a coarse tolerance the terms a row would take past its own
        # stop, up to the block's longest row, change its sum visibly.
        monkeypatch.setattr(quadrature, "_SERIES_TOL", 1e-4)
        x = np.random.default_rng(5).uniform(0.0, 16.0, 2 * _SERIES_BLOCK)
        expected = [quadrature._si_power_series(v) for v in x.tolist()]
        assert _si_power_series_array(x).tolist() == expected

    def test_series_non_convergence_raises(self, monkeypatch):
        # The scalar at x = 15 stops at term k; with k + 1 terms allowed both
        # copies converge alike, with k they both raise, also when 15 is the
        # one failing point of a second block.
        k = 1
        term = 15.0
        while abs(term) >= quadrature._SERIES_TOL:
            term = 15.0 ** (2 * k + 1) / ((2 * k + 1) * math.factorial(2 * k + 1))
            k += 1
        x = np.concatenate([np.full(_SERIES_BLOCK, 0.5), [1.0, 15.0]])
        raised = []
        for limit in range(k - 3, k + 3):
            monkeypatch.setattr(quadrature, "_SERIES_MAX_TERMS", limit)
            try:
                expected = quadrature._si_power_series(15.0)
            except ArithmeticError:
                raised.append(limit)
                with pytest.raises(ArithmeticError, match="did not converge for x=15.0"):
                    _si_power_series_array(x)
            else:
                assert _si_power_series_array(x)[-1] == expected
        assert raised == list(range(k - 3, raised[-1] + 1)) and raised[-1] < k + 2
        monkeypatch.setattr(quadrature, "_SERIES_MAX_TERMS", 4)
        with pytest.raises(ArithmeticError, match="did not converge"):
            quadrature._si_power_series(1.0)
        with pytest.raises(ArithmeticError, match="did not converge"):
            _si_power_series_array(np.array([1e-30, 1.0]))
        monkeypatch.undo()
        with pytest.raises(ArithmeticError, match="did not converge"):
            _si_power_series_array(np.array([1.0, math.nan]))

    def test_power_series_memory_is_bounded(self):
        # Blocks of _SERIES_BLOCK points keep the term table small, and
        # only the block holding x = 16 needs the series' longest rows. One
        # table over every point would take those columns for all 1e5.
        x = np.append(np.random.default_rng(7).uniform(0.0, 1e-7, 10**5 - 1), 16.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _si_power_series_array(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4e6

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
        x = np.concatenate([np.sort(rng.uniform(16.0, 60.0, _CF_BLOCK + 1)),
                            rng.uniform(16.0, 1e4, _CF_BLOCK + 1)])
        expected = [quadrature._si_continued_fraction(v) for v in x.tolist()]
        for size in (_CF_BLOCK - 1, _CF_BLOCK, _CF_BLOCK + 1, 2 * _CF_BLOCK + 2):
            assert _si_continued_fraction_array(x[:size]).tolist() == expected[:size]
            assert _si_continued_fraction_array(x[-size:]).tolist() == expected[-size:]

    def test_slowest_and_fastest_points_in_one_block(self):
        # x = 16 + 1 ulp takes the most iterations and x = 1e8 among the
        # fewest; each keeps its own h whatever its neighbours need, in
        # either order and interleaved.
        slow, fast = math.nextafter(16.0, math.inf), 1e8
        x = np.array([slow, fast] * 8 + [fast] * 5 + [slow] * 3 + [fast, 25.0, slow])
        expected = [quadrature._si_continued_fraction(v) for v in x.tolist()]
        assert _si_continued_fraction_array(x).tolist() == expected
        assert _si_continued_fraction_array(x[::-1]).tolist() == expected[::-1]

    def test_non_convergence_names_first_unconverged_x(self, monkeypatch):
        # With 9 iterations 1e5 (3) and 500 converge and 17 (15) does not;
        # the message names the first x that does not, in its own block or
        # in a later one, as the scalar does.
        monkeypatch.setattr(quadrature, "_CF_MAX_ITER", 10)
        assert quadrature._si_continued_fraction(1e5) == si(1e5)
        assert quadrature._si_continued_fraction(500.0) == si(500.0)
        with pytest.raises(ArithmeticError, match="did not converge for x=17.0"):
            quadrature._si_continued_fraction(17.0)
        x = np.array([1e5, 500.0, 17.0, 1e5, 18.5])
        with pytest.raises(ArithmeticError, match=r"did not converge for x=17\.0$"):
            _si_continued_fraction_array(x)
        monkeypatch.setattr(quadrature, "_CF_BLOCK", 2)
        with pytest.raises(ArithmeticError, match=r"did not converge for x=17\.0$"):
            _si_continued_fraction_array(x)
        with pytest.raises(ArithmeticError, match=r"did not converge for x=18\.5$"):
            _si_continued_fraction_array(np.array([1e5, 500.0, 1e5, 18.5, 17.0]))

    def test_symmetric_integrals_equal_scalar(self):
        rng = np.random.default_rng(48)
        a = np.concatenate([rng.uniform(1e-3, 8.0, 1000), rng.uniform(8.0, 1e5, 3000),
                            np.array([8.0, math.nextafter(8.0, math.inf)])])
        expected = [sinc_sq_integral(Interval(-v, v)) for v in a.tolist()]
        assert (2.0 * sinc_sq_primitive(a)).tolist() == expected


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

    def test_small_block_carry_at_every_prefix(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_SUM_BLOCK", 7)
        rng = np.random.default_rng(6)
        for n in (6, 7, 8, 23):
            terms = (rng.normal(size=n) * 10.0 ** rng.integers(-17, 17, size=n)).tolist()
            terms[n // 2] = -sum(terms[:n // 2])  # cancellation inside a block
            self.every_prefix(terms)
        self.every_prefix([1.0] * 7 + [2.0**-53] + [1.0] * 8)
