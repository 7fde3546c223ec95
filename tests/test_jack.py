"""Jack-polynomial machinery: partitions, generalized Pochhammer symbols,
principal specialization, pFq^(alpha) series, duality ratio."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsing import (NonConvergenceError, Partition, duality_ratio_2f1,
                      gen_pochhammer, hyp2f1_terminating, hyper_pfq_alpha,
                      jack_principal, partitions_up_to, pochhammer)


class TestPartitions:
    def test_small_enumeration(self):
        parts = {p.parts for p in partitions_up_to(2, 2)}
        assert parts == {(), (1,), (2,), (1, 1)}

    def test_count(self):
        # partitions of weight <= 4 into <= 3 parts, brute-force count:
        # w=0:1, w=1:1, w=2:2, w=3:3, w=4:4 (4, 31, 22, 211) => 11 with empty
        brute = sum(1 for k in itertools.product(range(5), repeat=3)
                    if sum(k) <= 4 and k[0] >= k[1] >= k[2])
        assert brute == 11
        assert len(partitions_up_to(3, 4)) == brute

    def test_single_row(self):
        parts = [p.parts for p in partitions_up_to(1, 3)]
        assert parts == [(), (1,), (2,), (3,)]

    @given(st.integers(1, 4), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_properties(self, m, w):
        ps = partitions_up_to(m, w)
        assert len({p.parts for p in ps}) == len(ps)
        for p in ps:
            assert len(p) <= m and p.weight <= w
            assert all(p.parts[i] >= p.parts[i + 1]
                       for i in range(len(p.parts) - 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_conjugate(self):
        assert Partition((3, 1)).conjugate() == (2, 1, 1)


class TestGenPochhammer:
    def test_empty(self):
        assert gen_pochhammer(2.5, Partition(()), 1.0) == 1

    def test_single_row_classical(self):
        a = 1.3 - 0.4j
        assert gen_pochhammer(a, Partition((4,)), 0.7) == pochhammer(a, 4)

    def test_two_rows(self):
        # alpha = 1, a = 3, k = (2,1): (3)_2 (2)_1 = 24
        assert gen_pochhammer(3.0, Partition((2, 1)), 1.0) == pytest.approx(24.0)


class TestJackPrincipal:
    def test_empty(self):
        assert jack_principal(Partition(()), 1.0, 3, 0.7 + 0.1j) == 1

    def test_single_variable(self):
        for n in range(1, 5):
            val = jack_principal(Partition((n,)), 1.7, 1, 0.5 + 0.5j)
            assert abs(val - (0.5 + 0.5j) ** n) < 1e-13

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_sum_rule(self, alpha, m):
        # sum over |k| = n of C_k(x 1_m) = (m x)^n
        x = 0.8 - 0.3j
        for n in range(1, 6):
            tot = sum(jack_principal(k, alpha, m, x)
                      for k in partitions_up_to(m, n) if k.weight == n)
            assert abs(tot - (m * x) ** n) < 1e-10 * abs((m * x) ** n)

    def test_explicit_cube(self):
        # (m, alpha) = (2, 2), weight three: sum is m^3 = 8
        tot = sum(jack_principal(k, 2.0, 2, 1.0)
                  for k in partitions_up_to(2, 3) if k.weight == 3)
        assert tot == pytest.approx(8.0)


class TestHyperPfq:
    def test_at_zero(self):
        assert hyper_pfq_alpha([1.5], [2.5], 1.0, 3, 0.0) == 1

    def test_m1_reduces_to_classical(self):
        a, b, c, z = -3.0, 2.0, 4.0, 0.3
        for alpha in (0.5, 1.0, 2.0):
            val = hyper_pfq_alpha([a, b], [c], alpha, 1, z, max_weight=10)
            ref = hyp2f1_terminating(3, b, c, z)
            assert abs(val - ref) < 1e-13

    def test_kummer_m1(self):
        val = hyper_pfq_alpha([1.5 - 0.7j], [3.0], 2.0, 1, 0.4j, max_weight=40)
        ref = 1.0
        # compare against the classical series oracle
        from specsing import hyp1f1
        assert abs(val - hyp1f1(1.5 - 0.7j, 3.0, 0.4j)) < 1e-12

    def test_truncation_error_raised(self):
        with pytest.raises(NonConvergenceError):
            hyper_pfq_alpha([1.5], [2.5], 1.0, 2, 30.0, max_weight=8)

    def test_denominator_pole(self):
        with pytest.raises(ZeroDivisionError):
            hyper_pfq_alpha([1.5], [-1.0], 1.0, 2, 0.3, max_weight=6)

    @pytest.mark.parametrize("a_list,b_list,alpha,m", [
        ([-1.0], [-2.0], 1.0, 1), ([-1.0, 0.5], [-2.0], 2.0, 2)])
    def test_zero_numerator_shields_pole(self, a_list, b_list, alpha, m):
        # [-2]_k vanishes from k_1 = 3 on, where [-1]_k already does (from
        # k_1 = 2 on); [0.5]_(1,1) = 0 at alpha = 2, so only k = (1) is left:
        # 1 + (prod a / prod b) m x = 1.15
        val = hyper_pfq_alpha(a_list, b_list, alpha, m, 0.3, max_weight=6)
        assert abs(val - 1.15) < 1e-15

    @pytest.mark.parametrize("n", [30, 80])
    def test_m1_long_terminating(self, n):
        # k_1 > 64 takes pochhammer's log-gamma branch in the reference; at
        # z < 0 the terms barely cancel, so both sides keep full precision
        b, c, z = 1.3 - 0.1j, 2.6 + 0.2j, -0.3 + 0.05j
        val = hyper_pfq_alpha([complex(-n), b], [c], 0.7, 1, z, max_weight=n + 3)
        ref = hyp2f1_terminating(n, b, c, z)
        assert abs(val - ref) < 1e-12 * abs(ref)

    def test_nonfinite_shell_raises(self):
        # the terms grow like x^w: shell 2 overflows
        with pytest.raises(NonConvergenceError, match="not finite"):
            hyper_pfq_alpha([1.5], [2.5], 1.0, 2, 1e300, max_weight=8)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_equal_argument_closed_forms(self, alpha, m):
        # 0F0(x 1_m) = e^{m x} and 1F0(a; x 1_m) = (1 - x)^{-m a}
        x, a = 0.3 - 0.2j, 0.7 + 0.4j
        val0 = hyper_pfq_alpha([], [], alpha, m, x, max_weight=60)
        assert abs(val0 - np.exp(m * x)) < 1e-14 * abs(np.exp(m * x))
        val1 = hyper_pfq_alpha([a], [], alpha, m, x, max_weight=60)
        ref1 = (1 - x) ** (-m * a)
        assert abs(val1 - ref1) < 1e-13 * abs(ref1)

    @given(st.integers(1, 4), st.sampled_from([0.3, 0.5, 1.0, 1.7, 2.0]),
           st.integers(0, 8), st.complex_numbers(max_magnitude=0.5),
           st.sampled_from(["terminating", "confluent"]))
    @settings(max_examples=60, deadline=None)
    def test_matches_term_by_term_reference(self, m, alpha, n, x, kind):
        # the series from scratch, one term per partition (measured worst
        # 6.4e-16 of sum |t_k|)
        if kind == "terminating":
            a_list, b_list, w = [complex(-n), 1.3 - 0.4j], [-0.7 + 0.3j], m * n + 3
        else:
            a_list, b_list, w = [1.3 - 0.4j], [2.2], 30
        val = hyper_pfq_alpha(a_list, b_list, alpha, m, x, max_weight=w)
        ref, mass = _reference_pfq(a_list, b_list, alpha, m, x, w)
        assert abs(val - ref) < 1e-14 * mass


def _reference_pfq(a_list, b_list, alpha, m, x, max_weight):
    """(sum, sum of |terms|) of pFq^(alpha), each term built from scratch."""
    total, mass = 0j, 0.0
    for k in partitions_up_to(m, max_weight):
        t = jack_principal(k, alpha, m, x) / math.factorial(k.weight)
        for a in a_list:
            t *= gen_pochhammer(a, k, alpha)
        for b in b_list:
            t /= gen_pochhammer(b, k, alpha)
        total, mass = total + t, mass + abs(t)
    return total, mass


class TestDualityRatio:
    def test_t_one(self):
        # 2F1^(1)(-3, 1.2; 2.2; 1_2) = 0 by the generalized Gauss sum
        # G_2(c) G_2(c-a-b) / (G_2(c-a) G_2(c-b)): G_2(c-b) = G_2(1) holds G(0).
        # c' = -2 is a pole of the transformed series, so the direct series runs
        assert abs(duality_ratio_2f1(3, 1.2, 2.2, 1.0, 2, 1.0)) < 1e-12

    def test_n_zero(self):
        assert duality_ratio_2f1(0, 1.2, 2.2, 0.5, 3, 0.4) == pytest.approx(1.0)

    def test_m1_classical(self):
        # m = 1 reduces to the classical transformation of 2F1
        n, b, c, t = 2, 1.3, 2.6, 0.35
        val = duality_ratio_2f1(n, b, c, 1.0, 1, t)
        ref = hyp2f1_terminating(n, b, c, t)
        assert abs(val - ref) < 1e-12

    def test_beta2_against_direct(self):
        # the ratio form equals the direct 2F1^(1) at two equal arguments
        # (density-style lower parameter, nonterminating rows allowed)
        n, b, alpha, m, t = 2, complex(2.5, -0.7), 1.0, 2, 0.9 + 0.05j
        c = complex(-0.5, -0.2)
        val = duality_ratio_2f1(n, b, c, alpha, m, t)
        ref = hyper_pfq_alpha([complex(-n), b], [c], 1 / alpha, m, t,
                              max_weight=2 * (n + 2))
        assert abs(val - ref) < 1e-10 * abs(ref)
