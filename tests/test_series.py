"""Special-function primitives: log-gamma, Pochhammer, 2F1/1F1 series,
gamma-ratio expansion, and the confluent-limit rate."""
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import loggamma

from specsing import (NonConvergenceError, PoleError, SeriesControl,
                      gamma_ratio_expansion, hyp1f1, hyp2f1_terminating,
                      log_gamma, pochhammer)
from specsing.kernels import _phi_jet
from specsing.series import _TINY, _node_series


class TestLogGamma:
    def test_gamma_one(self):
        assert abs(log_gamma(1.0)) < 1e-15

    def test_factorial(self):
        assert abs(log_gamma(5.0) - math.log(24)) < 1e-14

    def test_half(self):
        assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-14

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
    def test_pole(self, z):
        with pytest.raises(PoleError):
            log_gamma(z)

    def test_recurrence_grid(self):
        # exp(lg(z+1)) = z exp(lg(z)) away from poles
        for z in [0.3 + 0.2j, 2.5 - 1.1j, -0.7 + 0.4j, 10.0 + 0.0j, -3.3 - 2.0j]:
            lhs = np.exp(log_gamma(z + 1))
            rhs = z * np.exp(log_gamma(z))
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_matches_scipy(self):
        # scipy's loggamma shares no code with log_gamma: a seeded grid over
        # the plane, the real axis (negative non-integers included) and a
        # strip |Im z| <= 1e-3 along it
        rng = np.random.default_rng(20261018)
        re = rng.uniform(-30, 60, 2000)
        zs = np.concatenate([re[:1000] + 1j * rng.uniform(-60, 60, 1000),
                             re[1000:1500] + 0j,
                             re[1500:] + 1j * rng.uniform(-1e-3, 1e-3, 500)])
        for z in zs:
            z = complex(z)
            ref = complex(loggamma(z))
            assert abs(log_gamma(z) - ref) <= 1e-14 * max(1.0, abs(ref)), z

    def test_near_unit_scale_matches_mpmath(self):
        # 40-digit mpmath at 300 seeded points with Re z in [0.2, 10], where
        # the recurrence's log and the Stirling value cancel most (a shift to
        # Re z >= 10 with 7 Stirling terms reached 6.4e-15 here)
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20261019)
        zs = rng.uniform(0.2, 10, 300) + 1j * np.concatenate(
            [rng.uniform(-1, 1, 150), rng.uniform(-10, 10, 150)])
        with mpmath.workdps(40):
            for z in zs:
                z = complex(z)
                ref = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
                assert abs(log_gamma(z) - ref) <= 4e-15 * max(1.0, abs(ref)), z

    @pytest.mark.parametrize("x,ref", [
        (-2.5, -0.0562437164976740506725945300977 - 9.42477796076937971538793014984j),
        (-3.5, -1.30900668499304204636071515208 - 12.5663706143591729538505735331j)])
    def test_negative_axis_branch(self, x, ref):
        # 30-digit mpmath: the limit from above, log|G(x)| - i pi ceil(-x);
        # a negative zero imaginary part takes the limit from below
        assert abs(log_gamma(x) - ref) < 1e-14 * abs(ref)
        assert abs(log_gamma(complex(x, -0.0)) - ref.conjugate()) < 1e-14 * abs(ref)


class TestSeriesControl:
    @pytest.mark.parametrize("kwargs", [{"rel_tol": 0.0}, {"rel_tol": 1.0},
                                        {"max_terms": 0}])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SeriesControl(**kwargs)


class TestPochhammer:
    def test_zero_order(self):
        assert pochhammer(2.3 + 1j, 0) == 1

    def test_negative_order(self):
        with pytest.raises(ValueError):
            pochhammer(2.3 + 1j, -1)

    def test_factorial(self):
        assert abs(pochhammer(1, 5) - 120) < 1e-12

    def test_terminating(self):
        assert pochhammer(-3, 4) == 0

    def test_large_order_matches_product(self):
        a = 0.75 + 0.3j
        direct = 1.0 + 0.0j
        for k in range(80):
            direct *= a + k
        assert abs(pochhammer(a, 80) - direct) < 1e-12 * abs(direct)

    def test_large_order_reference(self):
        # 30-digit mpmath rf(0.3 + 0.2i, 100)
        ref = 4.55839543445083758426523319994e+154 + 1.52405627050374176636207173418e+156j
        assert abs(pochhammer(0.3 + 0.2j, 100) - ref) < 1e-12 * abs(ref)

    def test_large_order_nonpositive_integer(self):
        # (-100)_80 = (-100)(-99)...(-21) does not pass through zero
        ref = math.prod(range(-100, -20))
        assert abs(pochhammer(-100.0, 80) - ref) < 1e-12 * abs(ref)
        assert pochhammer(-50.0, 80) == 0

    @given(st.integers(0, 10), st.integers(0, 10),
           st.complex_numbers(min_magnitude=0.1, max_magnitude=5,
                              allow_nan=False, allow_infinity=False))
    @settings(max_examples=60, deadline=None)
    def test_splitting_identity(self, m, n, a):
        lhs = pochhammer(a, m + n)
        rhs = pochhammer(a, m) * pochhammer(a + m, n)
        assert abs(lhs - rhs) <= 1e-10 * (abs(lhs) + 1)


class TestHyp2f1Terminating:
    def test_n_zero(self):
        assert hyp2f1_terminating(0, 2.0 + 1j, 3.0, 0.7) == 1

    def test_invalid_order(self):
        # a negative n, or one that is not an integer, scalar z or array
        for z in (0.5, np.array([0.5])):
            with pytest.raises(ValueError):
                hyp2f1_terminating(-1, 1.0, 2.0, z)
            with pytest.raises(TypeError):
                hyp2f1_terminating(3.5, 1.0, 2.0, z)

    def test_n_one(self):
        b, c, z = 2.0 + 1j, 3.0 - 0.5j, 0.4
        val = hyp2f1_terminating(1, b, c, z)
        assert abs(val - (1 - b / c * z)) < 1e-15

    def test_eight_term_sum(self):
        # frozen: direct 8-term summation at 30 digits
        val = hyp2f1_terminating(7, 2 + 1j, 3.0, 0.2)
        ref = 0.35402320987654321 - 0.213790511463844797j
        assert abs(val - ref) < 1e-14

    def test_parameter_pole(self):
        with pytest.raises(PoleError):
            hyp2f1_terminating(5, 1.0, -2.0, 0.5,
                               SeriesControl(rel_tol=1e-30, max_terms=10))

    def test_overflow_raises(self):
        # the terms pass 1e308 by the 30th order; Python's complex arithmetic
        # then makes NaN without a warning, so the scalar loop tests its sum
        # as the array form does
        with pytest.raises(NonConvergenceError):
            hyp2f1_terminating(60, 1.5, 2.0, 1e10)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(NonConvergenceError):
                hyp2f1_terminating(60, 1.5, 2.0, np.array([1e10]))


class TestHyp2f1Array:
    """An ndarray z runs the terminating recurrence elementwise."""

    @staticmethod
    def _abs_term_sum(n, b, c, z):
        # sum_k |t_k|, the scale of the rounding in either summation
        t = total = 1.0
        for k in range(n):
            if k == 0 and b == 0 and c == 0:
                t = 0.5 * n * abs(z)
            else:
                t *= abs((k - n) * (b + k)) / abs((c + k) * (k + 1)) * abs(z)
            total += t
        return total

    @pytest.mark.parametrize("n,b,c", [(7, 2 + 1j, 3.0), (12, 3.5 - 1.4j, 7.0),
                                       (40, 1.3 + 0.4j, 2.6), (50, 0.5 - 0.7j, 1.0),
                                       (9, 0.0, 0.0), (9, 0, 0)])
    def test_matches_scalar(self, n, b, c):
        # z = 1 - e^{2iu} as in the scaled kernels, plus real points; (9, 0, 0)
        # is the joint limit b, c -> 0, also with integer parameters
        z = np.concatenate([1 - np.exp(2j * np.linspace(0.0, 3.1, 33)),
                            np.linspace(-0.5, 0.9, 4)])
        vals = hyp2f1_terminating(n, b, c, z)
        assert vals.shape == z.shape
        for x, v in zip(z, vals):
            ref = hyp2f1_terminating(n, b, c, complex(x))
            assert abs(v - ref) <= 4e-15 * self._abs_term_sum(n, b, c, x)

    def test_parameter_pole(self):
        with pytest.raises(PoleError):
            hyp2f1_terminating(5, 1.0, -2.0, np.array([0.5, 0.1]))

    def test_empty(self):
        for f in (lambda z: hyp2f1_terminating(5, 1.0, 2.0, z),
                  lambda z: hyp1f1(1.5 - 0.7j, 3.0, z)):
            assert f(np.array([])).shape == (0,)

    def test_nan_parameter_ends_at_degree_n(self):
        # NaN terms never meet the stopping rule: the sum still ends at
        # order n, whose numerator is set to 0, and reports the NaN
        with pytest.warns(RuntimeWarning):
            with pytest.raises(NonConvergenceError):
                hyp2f1_terminating(40, complex("nan"), 2.0, np.array([0.5, 0.2]))

    def test_pole_past_the_stop(self):
        # (c)_alpha vanishes at alpha = 3, but the sum stops at alpha = 1
        # (|t_1| = 2.5e-20), as the scalar loop does, without raising
        z = np.array([1e-20])
        assert hyp2f1_terminating(5, 1.0, -2.0, z)[0] == hyp2f1_terminating(5, 1.0, -2.0, 1e-20)

    def test_terms_that_dip_then_grow(self):
        # b + 3 = 1e-56i makes t_4 fall below rel_tol of the sum; the later
        # terms would grow by ~1e40 per order and overflow within the first
        # 32 orders, past the stop: no RuntimeWarning
        b, z = -3 + 1e-56j, np.array([1e40, -2e40, 3e40j])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            vals = hyp2f1_terminating(40, b, 2.0, z)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        for x, v in zip(z, vals):
            ref = hyp2f1_terminating(40, b, 2.0, complex(x))
            assert abs(v - ref) <= 4e-15 * abs(ref)


class TestHyp1f1:
    def test_at_zero(self):
        assert hyp1f1(1.5 - 0.7j, 3.0, 0.0) == 1

    def test_exponential_reduction(self):
        a = 2.3 + 0.4j
        z = 1.0 + 2.0j
        assert abs(hyp1f1(a, a, z) - np.exp(z)) < 1e-13 * abs(np.exp(z))

    def test_reference_value(self):
        # frozen: 30-digit series evaluation
        val = hyp1f1(1.5 - 0.7j, 3.0, 2j)
        ref = 0.750450606145444798 + 1.16875757098286937j
        assert abs(val - ref) < 1e-14

    def test_lower_pole(self):
        with pytest.raises(PoleError):
            hyp1f1(1.0, -2.0, 0.5)

    def test_non_convergence(self):
        with pytest.raises(NonConvergenceError):
            hyp1f1(1.0, 2.0, 60.0, SeriesControl(rel_tol=1e-15, max_terms=12))
        # the terms at z = 800 overflow and never meet the rule
        with pytest.raises(NonConvergenceError), pytest.warns(RuntimeWarning):
            hyp1f1(1.0, 1.0, 800.0)

    def test_circular_limit(self):
        # joint a, c -> 0 limit equals 1 + (e^z - 1)/2
        z = 1.7j
        assert abs(hyp1f1(0.0, 0.0, z) - (1 + (np.exp(z) - 1) / 2)) < 1e-15

    @pytest.mark.parametrize("a,c,z", [(2.3, 1.1, -20.0), (2, 3, -30.0)])
    def test_negative_real_axis(self, a, c, z):
        # the plain series cancels there (2.4e-4 and 5.9e-5 off before
        # Kummer's transformation); scalar, and in an array with z's mirror
        # image, which takes the plain series
        with mpmath.workdps(40):
            refs = [complex(mpmath.hyp1f1(a, c, x)) for x in (z, -z)]
        vals = [hyp1f1(a, c, z)] + list(hyp1f1(a, c, np.array([z, -z])))
        for val, ref in zip(vals, refs[:1] + refs):
            assert abs(val - ref) < 1e-12 * abs(ref)

    def test_matches_mpmath(self):
        # 40-digit mpmath on a seeded grid: 30 (a, c), among them terminating
        # a and pole c, each at 6 z on the real axis and 6 on the imaginary
        # axis, |z| <= 20, scalar and as one array; within 8 eps sum |t_k|
        # (on 600 other seeded cases measured 6.9 scalar, a 0-d array, and
        # 6.8 array), and PoleError exactly at the poles
        rng = np.random.default_rng(2026102023)
        eps = np.finfo(float).eps
        poles = 0
        with mpmath.workdps(40):
            for i in range(30):
                a = complex(rng.uniform(-6, 6), rng.uniform(-3, 3))
                c = complex(rng.uniform(0.2, 10), rng.uniform(-2, 2) if i % 2 else 0.0)
                if i % 6 == 1:
                    a = complex(-float(rng.integers(0, 8)))
                if i % 10 == 4:
                    c = complex(-float(rng.integers(0, 4)))
                r = rng.uniform(-20, 20, 12)
                z = np.concatenate([r[:6] + 0j, 1j * r[6:]])
                if i % 10 == 4:
                    poles += 1
                    with pytest.raises(PoleError):
                        hyp1f1(a, c, complex(z[0]))
                    with pytest.raises(PoleError):
                        hyp1f1(a, c, z)
                    continue
                array = hyp1f1(a, c, z)
                for x, v in zip(z, array):
                    x = complex(x)
                    ref = complex(mpmath.hyp1f1(a, c, x))
                    bound = 8 * eps * TestHyp1f1Array._abs_term_sum(a, c, x)
                    assert abs(hyp1f1(a, c, x) - ref) <= bound, (a, c, x)
                    assert abs(v - ref) <= bound, (a, c, x)
        assert poles == 3


class TestHyp1f1Array:
    """An ndarray z runs the scalar recurrence elementwise."""

    @staticmethod
    def _abs_term_sum(a, c, z):
        # sum_k |t_k|, the scale of the rounding in either summation
        t = total = 1.0
        for k in range(400):
            t *= abs(a + k) / abs((c + k) * (k + 1)) * abs(z)
            total += t
        return total

    @pytest.mark.parametrize("a,c", [(1.5 - 0.7j, 3.0), (3.5 - 1.4j, 8.0),
                                     (2.0 + 0.3j, 5.5), (0.5 + 1.0j, 1.0)])
    def test_matches_scalar(self, a, c):
        # the arithmetic differs in the last bit (numpy may fuse multiply-
        # adds), and the series cancels at large |z|: measured worst
        # 1.2e-16 of sum |t_k|, up to 1e-10 of the value; at and next to 0
        # the first term already meets the rule
        z = np.concatenate([2j * np.linspace(0.0, 7.2, 33), np.linspace(0.0, 3.0, 4),
                            2j * np.array([0.0, 1e-300, 1e-22, 1e-19])])
        vals = hyp1f1(a, c, z)
        assert vals.shape == z.shape
        for x, v in zip(z, vals):
            ref = hyp1f1(a, c, complex(x))
            assert abs(v - ref) <= 4e-15 * self._abs_term_sum(a, c, x)

    def test_whole_array_meets_the_rule(self):
        # e^z at rel_tol 1e-6: z = 10, the largest |z|, meets the rule near
        # order 30, but z = -9, whose sum cancels to 1.2e-4, only near order
        # 42; stopping at 30 would leave it 40% off
        ctrl = SeriesControl(rel_tol=1e-6)
        val = hyp1f1(1.0, 1.0, np.array([10.0, -9.0]), ctrl)[1]
        ref = hyp1f1(1.0, 1.0, -9.0, ctrl)
        assert abs(val - ref) <= 1e-7 * abs(ref)

    def test_overflow_raises(self):
        # the terms at z = 800 overflow before any stop: a RuntimeWarning,
        # then NonConvergenceError
        with pytest.warns(RuntimeWarning):
            with pytest.raises(NonConvergenceError):
                hyp1f1(1.0, 1.0, np.array([1.0, 800.0]))

    def test_strided_two_dimensional(self):
        # a non-contiguous view keeps its shape and gives the scalar values
        z = (2j * np.linspace(0.0, 6.0, 24)).reshape(4, 6)[:, ::2]
        vals = hyp1f1(1.5 - 0.7j, 3.0, z)
        assert vals.shape == (4, 3)
        for x, v in zip(z.ravel(), vals.ravel()):
            ref = hyp1f1(1.5 - 0.7j, 3.0, complex(x))
            assert abs(v - ref) <= 4e-15 * self._abs_term_sum(1.5 - 0.7j, 3.0, x)

    def test_circular_limit(self):
        z = 1j * np.linspace(0.0, 3.0, 5)
        ref = np.array([hyp1f1(0.0, 0.0, complex(x)) for x in z])
        assert np.all(np.abs(hyp1f1(0.0, 0.0, z) - ref) <= 4e-15 * np.abs(ref))

    def test_non_convergence(self):
        with pytest.raises(NonConvergenceError):
            hyp1f1(1.0, 2.0, np.array([0.1, 60.0]),
                   SeriesControl(rel_tol=1e-15, max_terms=12))

    def test_term_budget_off_the_block_size(self):
        # 1F1(1; 2; z) = (e^z - 1)/z needs 39 terms at z = 8, scalar or array;
        # 38 are refused
        z = np.array([8.0, 3.0])
        with pytest.raises(NonConvergenceError):
            hyp1f1(1.0, 2.0, z, SeriesControl(max_terms=38))
        with pytest.raises(NonConvergenceError):
            hyp1f1(1.0, 2.0, 8.0, SeriesControl(max_terms=38))
        vals = hyp1f1(1.0, 2.0, z, SeriesControl(max_terms=39))
        assert np.all(np.abs(vals - np.expm1(z) / z) <= 1e-14 * np.expm1(z) / z)
        val = hyp1f1(1.0, 2.0, 8.0, SeriesControl(max_terms=39))
        assert abs(val - math.expm1(8.0) / 8.0) <= 1e-14 * math.expm1(8.0) / 8.0


class TestNodeSeries:
    """The node-array evaluator behind the array 2F1 and every 1F1: scaled
    scalar coefficients, Horner's rule, and the stop rule read at the largest
    element and checked at every element."""

    @staticmethod
    def _reference(n, b, c, z):
        # the terminating sum and sum_k |t_k|, term by term in mpmath, at
        # enough digits for the cancellation of degree 400 at |z| = 2
        with mpmath.workdps(60 + n // 2):
            z, b, c = mpmath.mpc(z), mpmath.mpc(b), mpmath.mpc(c)
            t = total = mass = mpmath.mpf(1)
            for k in range(n):
                if k == 0 and b == 0 and c == 0:
                    t = -mpmath.mpf(n) / 2 * z  # the joint limit b = c -> 0
                else:
                    t *= (k - n) * (b + k) / ((c + k) * (k + 1)) * z
                total += t
                mass += abs(t)
            return complex(total), float(mass)

    @pytest.mark.parametrize("n", [0, 1, 9, 49, 127, 400])
    @pytest.mark.parametrize("b,c", [(1.3 - 0.4j, 2.6), (0.5 - 0.7j, 1.0), (0.0, 0.0)])
    def test_hyp2f1_matches_mpmath(self, n, b, c):
        # |z| up to 2: the kernels' points 1 - e^{2iu}, real points and
        # points inside the disc of radius 2.  Within (4 + n/4) eps sum |t_k|
        # (measured worst 0.6, 2.2, 4.8, 12.5 and 48 eps at n = 1, 9, 49,
        # 127 and 400 on three seeds; the parent's evaluator 0.6, 1.9, 7.8,
        # 10.9 and 44)
        rng = np.random.default_rng(20261020 + n)
        z = np.concatenate([1 - np.exp(2j * np.sort(rng.uniform(1e-3, math.pi - 1e-3, 16))),
                            rng.uniform(-2, 2, 4),
                            2 * np.sqrt(rng.uniform(0, 1, 4))
                            * np.exp(2j * math.pi * rng.uniform(0, 1, 4))])
        vals = hyp2f1_terminating(n, b, c, z)
        eps = np.finfo(float).eps
        for x, v in zip(z, vals):
            ref, mass = self._reference(n, b, c, complex(x))
            assert abs(v - ref) <= (4 + n / 4) * eps * mass, (n, b, c, x)

    @pytest.mark.parametrize("c", [0.0, -1.0, -5.0])
    def test_hyp2f1_pole_above_minus_n(self, c):
        # (c)_alpha vanishes at alpha = 1 - c <= n, which a z of modulus 2
        # reaches; a non-finite z raises ValueError first
        z = 1 - np.exp(2j * np.linspace(0.1, 1.5, 9))
        with pytest.raises(PoleError):
            hyp2f1_terminating(9, 1.3 - 0.4j, c, z)
        with pytest.raises(ValueError):
            hyp2f1_terminating(9, 1.3 - 0.4j, c, np.append(z, math.nan))

    @pytest.mark.parametrize("z", [708.0, 709.0])
    def test_hyp1f1_exponential_at_the_end_of_the_range(self, z):
        # 1F1(a; a; z) = e^z, near 8e307 at z = 709: the scaled coefficients
        # and Horner's partial sums stay finite where the terms do; with -z
        # in the same array (the Re z < 0 flip) and a small point, and as a
        # 0-d array (measured 4.9e-15 relative at most)
        for a in (1.0, 2.5 - 0.5j):
            assert abs(hyp1f1(a, a, z) / math.exp(z) - 1) < 1e-14
            vals = hyp1f1(a, a, np.array([z, 3.0, -z, 2j - z]))
            refs = np.exp(np.array([z, 3.0, -z, 2j - z]))
            assert np.all(np.abs(vals / refs - 1) < 1e-14)

    def test_hyp1f1_past_the_end_of_the_range(self):
        # e^710 overflows: a RuntimeWarning, then NonConvergenceError
        for z in (710.0, np.array([1.0, 710.0])):
            with pytest.warns(RuntimeWarning):
                with pytest.raises(NonConvergenceError):
                    hyp1f1(1.0, 1.0, z)

    @staticmethod
    def _first_order_all_meet(ratio, z, rel_tol, budget):
        # the loop reference: every element term by term, in Python complex
        terms, sums = [1.0 + 0j] * len(z), [1.0 + 0j] * len(z)
        for k in range(budget):
            num, den = ratio(k)
            if num == 0:
                return k
            terms = [t * (num / den) * x for t, x in zip(terms, z)]
            sums = [s + t for s, t in zip(sums, terms)]
            if all(abs(t) < rel_tol * abs(s) + _TINY for t, s in zip(terms, sums)):
                return k + 1
        raise AssertionError("budget spent")

    @pytest.mark.parametrize("case", ["2f1_rule", "2f1_to_n", "exp_cancels", "exp_both"])
    def test_stop_order_is_the_first_every_element_meets(self, case):
        # 2f1_rule: every element meets the rule where the largest does;
        # 2f1_to_n: the sum runs to order n; exp_cancels: e^z at rel_tol 1e-6
        # on z = (10, -9) without Kummer's flip, where -9's sum cancels to
        # 1.2e-4 and needs 12 orders past 10's stop (29 -> 41); exp_both:
        # two elements of about the same modulus
        n, b, c = 49, 1.3 - 0.4j, 2.6

        def f21(k):
            return (0.0, 1.0) if k == n else ((k - n) * (b + k), (c + k) * (k + 1.0))

        def exp(k):
            return 1.0, k + 1.0
        ratio, z, tol, budget = {
            "2f1_rule": (f21, 1 - np.exp(2j * np.linspace(0.001, 0.05, 7)), 1e-15, n + 1),
            "2f1_to_n": (f21, 1 - np.exp(2j * np.linspace(0.1, 1.5, 7)), 1e-15, n + 1),
            "exp_cancels": (exp, np.array([10.0, -9.0 + 0j]), 1e-6, 200),
            "exp_both": (exp, np.array([10.0, 9.5 + 1j]), 1e-15, 200)}[case]
        vals, K = _node_series(ratio, z, tol, budget)
        assert K == self._first_order_all_meet(ratio, list(z), tol, budget)
        assert (K == n) == (case == "2f1_to_n")
        if ratio is exp:
            assert np.all(np.abs(vals - np.exp(z)) <= 2 * tol * np.abs(np.exp(z)))


class TestNonFiniteArgument:
    """A NaN or infinite z raises ValueError before any term is summed."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_hyp2f1(self, bad):
        with pytest.raises(ValueError):
            hyp2f1_terminating(5, 1.0, 2.0, bad)
        with pytest.raises(ValueError):
            hyp2f1_terminating(5, 1.0, 2.0, np.array([0.5, bad]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_hyp1f1(self, bad):
        for a, c in ((1.5 - 0.7j, 3.0), (0.0, 0.0)):
            with pytest.raises(ValueError):
                hyp1f1(a, c, bad)
            with pytest.raises(ValueError):
                hyp1f1(a, c, np.array([0.5j, bad]))


class TestGammaRatioExpansion:
    def test_equal_parameters(self):
        for order in (0, 1, 2):
            assert gamma_ratio_expansion(100.0, 1.3, 1.3, order) == 1

    def test_leading_power(self):
        assert abs(gamma_ratio_expansion(100.0, 1.0, 0.0, 0) - 100.0) < 1e-12

    def test_against_exact(self):
        # frozen: G(52.5)/G(51) at 30 digits
        exact = 366.883251961322647
        errs = []
        for order in (0, 1, 2):
            approx = gamma_ratio_expansion(50.0, 2.5, 1.0, order)
            errs.append(abs(approx - exact) / exact)
        assert errs[2] < 1e-4
        assert errs[2] < errs[1] < errs[0]

    def test_bad_order(self):
        with pytest.raises(ValueError):
            gamma_ratio_expansion(50.0, 1.0, 0.0, 3)


class TestConfluentLimit:
    def test_rate_halves(self):
        # |2F1(-n, b; c; t/n) - 1F1(b; c; -t)| = O(1/n)
        b, c, t = 1.5 - 0.7j, 3.0, 1.3
        target = hyp1f1(b, c, -t)
        res = {n: abs(hyp2f1_terminating(n, b, c, t / n) - target)
               for n in (100, 200)}
        assert 0.4 < res[200] / res[100] < 0.6


@pytest.mark.parametrize("N", [12, 400])
@pytest.mark.parametrize("k", [0, 1])
def test_phi_slope(N, k):
    # _phi's closed-form derivatives of orders 1..3 (the prefactor's
    # log-derivatives and the 2F1's shifted series) against mpmath's
    # numerical derivatives of the same function at 30 digits, whose 2F1 is
    # mpmath's own
    P, Q, X = N + 1.3, 0.4, 1.7
    p = P - N

    def phi(x):
        u = x / N
        F = mpmath.hyp2f1(-(N - k), mpmath.mpc(p + k, -Q), 2 * p + 2 * k, 1 - mpmath.expj(2 * u))
        return ((-1) ** (N - k) * mpmath.sin(u) ** (p + k) * mpmath.exp(Q * (u - mpmath.pi / 2))
                * mpmath.expj(k * u - x) * F)

    with mpmath.workdps(30):
        ref = [complex(mpmath.diff(phi, mpmath.mpf(X), r)) for r in range(4)]
    jet = _phi_jet(N, k, P, Q, X, 3)
    assert len(_phi_jet(N, k, P, Q, X, 1)) == 2
    for r in range(4):
        assert abs(jet[r] - ref[r]) <= 1e-13 * abs(ref[r])
