"""Routh-Romanovski polynomials, weights, norms, and coordinate maps."""
import math

import numpy as np
import pytest

from specsing import (CauchyWeightParams, EnsembleParams, NonConvergenceError, PoleError,
                      cayley_to_circle, circle_to_cayley, orthogonality_check, rr_norm,
                      rr_poly, rr_scaled, scaled_point_map, weight_cauchy,
                      weight_circle_scaled)
from specsing import polynomials
from specsing.polynomials import rr_scaled_raw
from specsing.quadrature import tanh_sinh_rule


class TestEnsembleParams:
    def test_c_beta(self):
        pr = EnsembleParams(2, 6, 1.5, 0.7)
        assert pr.c_beta == complex(-(6 + 1.5), 0.7)
        pr4 = EnsembleParams(4, 5, 1.0, 0.3)
        assert pr4.c_beta == complex(-2 * (5 + 1.0 - 1) - 1, 0.3)

    def test_weight_identifications(self):
        assert EnsembleParams(1, 8, 1.5, 0.7).weight_params() == (9.5, 1.4)
        assert EnsembleParams(2, 8, 1.5, 0.7).weight_params() == (9.5, 0.7)
        assert EnsembleParams(4, 8, 1.5, 0.7).weight_params() == (19.0, 0.7)
        assert EnsembleParams(1, 8, 1.5, 0.7).limit_params() == (1.5, 1.4)
        assert EnsembleParams(2, 8, 1.5, 0.7).limit_params() == (1.5, 0.7)
        assert EnsembleParams(4, 8, 1.5, 0.7).limit_params() == (3.0, 0.7)

    @pytest.mark.parametrize("bad", [dict(beta=3, size=4, p=1.0),
                                     dict(beta=2, size=0, p=1.0),
                                     dict(beta=2, size=4, p=-0.5),
                                     dict(beta=2, size=4, p=0.0, q=0.5)])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            EnsembleParams(**bad)

    def test_weight_params_integrable(self):
        with pytest.raises(ValueError):
            CauchyWeightParams(complex(-0.3, 1.0))

    @pytest.mark.parametrize("beta,P", [(1, 7.3), (2, 7.3), (4, 14.6)])
    def test_cauchy_weight_from_ensemble(self, beta, P):
        # c = -P + iQ from the ensemble's (P, Q): N + p or 2N + 2p, and 2q at beta = 1
        w = CauchyWeightParams.from_ensemble(EnsembleParams(beta, 6, 1.3, 0.4))
        assert w.P == pytest.approx(P) and w.Q == pytest.approx(0.8 if beta == 1 else 0.4)


class TestMaps:
    def test_theta_pi_maps_to_zero(self):
        assert abs(circle_to_cayley(math.pi)) < 1e-15

    def test_round_trip(self):
        for x in (1.0, -2.7, 0.3):
            assert abs(circle_to_cayley(cayley_to_circle(x)) - x) < 1e-12

    def test_scaled_point_map(self):
        N = 8
        z, dz = scaled_point_map(N * math.pi / 2, N)
        assert abs(z) < 1e-14
        assert abs(dz - 1.0 / N) < 1e-14

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            scaled_point_map(0.0, 5)
        with pytest.raises(ValueError):
            circle_to_cayley(0.0)
        with pytest.raises(ValueError):
            weight_circle_scaled(5 * math.pi, EnsembleParams(2, 5, 1.5, 0.7))


class TestWeights:
    def test_at_origin(self):
        assert weight_cauchy(0.0, CauchyWeightParams(complex(-2, 0.7))) == 1.0

    def test_simple_value(self):
        w = CauchyWeightParams(complex(-2.0, 0.0))
        assert abs(weight_cauchy(1.0, w) - 0.25) < 1e-15

    def test_circle_scaled_midpoint(self):
        pr = EnsembleParams(2, 6, 1.5, 0.0)
        assert abs(weight_circle_scaled(6 * math.pi / 2, pr) - 1.0) < 1e-14

    def test_circle_scaled_matches_line(self):
        # (WeightN)-type identity: exact at any X
        pr = EnsembleParams(2, 6, 1.5, 0.7)
        P, Q = pr.weight_params()
        X = 2.2
        x = -1.0 / math.tan(X / pr.size)
        lhs = weight_circle_scaled(X, pr)
        rhs = math.sqrt(weight_cauchy(x, CauchyWeightParams(complex(-P, Q))))
        assert abs(lhs - rhs) < 1e-13 * rhs


class TestRRPoly:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_monic(self, n):
        # n-th finite difference / n! recovers the leading coefficient
        c = complex(-9.5, 0.7)
        xs = np.arange(n + 1, dtype=float)
        lead = sum((-1) ** (n - j) * math.comb(n, j) * rr_poly(n, c, xs[j])
                   for j in range(n + 1)) / math.factorial(n)
        assert abs(lead - 1) < 1e-8

    def test_degree_zero(self):
        assert rr_poly(0, complex(-8, 0.3), 1.7) == 1

    @pytest.mark.parametrize("c", [complex(-3, 0), complex(-1, 0), complex(-2.5, 0)])
    def test_poles(self, c):
        # degree 5 lies outside the orthogonal range n < P - 1/2 of each c, and
        # a recurrence denominator vanishes, with s = 2k - 2P: c = -3: s + 2 at
        # k = 2; c = -1: s + 2 at k = 0; c = -2.5: s^2 - 1 at k = 2
        for x in (0.3, np.array([0.3, -2.0])):
            with pytest.raises(PoleError):
                rr_poly(5, c, x)

    @pytest.mark.parametrize("n, x", [(-1, 0.3), (2, math.nan),
                                      (2, np.array([0.3, math.inf]))])
    def test_invalid_arguments(self, n, x):
        with pytest.raises(ValueError):
            rr_poly(n, complex(-9.5, 0.7), x)

    @pytest.mark.parametrize("c, nmax, xs", [
        # the beta = 1, 2 and 4 systems of N = 800, (p, q) = (1.5, 0.7),
        # where the weight peaks
        (complex(-801.5, 1.4), 6, np.linspace(-0.2, 0.2, 21)),
        (complex(-801.5, 0.7), 6, np.linspace(-0.2, 0.2, 21)),
        (complex(-1603, 0.7), 6, np.linspace(-0.15, 0.15, 21)),
        (complex(-9.5, 0.7), 8, np.linspace(-3, 3, 21)),
        (complex(-9.5, 0.7), 8, np.linspace(-3, 3, 7) + 0.5j),
        (complex(-21.5, 0.7), 20, np.array([-20, -5, 0.3, 7]))])
    def test_matches_mpmath(self, c, nmax, xs):
        # 40-digit mpmath through the hypergeometric form
        # (-2i)^n (c+1)_n / (c+cbar+n+1)_n 2F1(-n, n+1+c+cbar; c+1; (1-ix)/2),
        # within 1e-13 of the largest |I_n| on the grid
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            cm = mpmath.mpc(c.real, c.imag)
            cc = 2 * cm.real
            for n in range(nmax + 1):
                pref = (-2j) ** n * mpmath.rf(cm + 1, n) / mpmath.rf(cc + n + 1, n)
                ref = np.array([complex(pref * mpmath.hyp2f1(
                    -n, n + 1 + cc, cm + 1, (1 - 1j * mpmath.mpmathify(x)) / 2))
                    for x in xs])
                val = rr_poly(n, c, xs)
                assert val.dtype == (complex if np.iscomplexobj(xs) else float)
                assert np.max(np.abs(val - ref)) <= 1e-13 * np.max(np.abs(ref)), n


class TestOrthogonality:
    @pytest.mark.parametrize("pq", [(1.5, 0.7), (0.5, 0.0)])
    def test_gram_matrix(self, pq):
        pr = EnsembleParams(2, 12, *pq)
        for n in range(7):
            for m in range(n, 7):
                assert orthogonality_check(n, m, pr) < 1e-8

    def test_diagonal_evaluates_once(self, monkeypatch):
        # n == m needs one polynomial on each level; the residual keeps its
        # bits
        pr = EnsembleParams(2, 12, 1.5, 0.7)
        expected = orthogonality_check(4, 4, pr)
        calls = []

        def counted(*args):
            calls.append(args[0])
            return rr_poly(*args)

        monkeypatch.setattr(polynomials, "rr_poly", counted)
        assert orthogonality_check(4, 4, pr) == expected
        assert calls and set(calls) == {4}
        calls.clear()
        orthogonality_check(3, 5, pr)
        assert calls == [3, 5] * (len(calls) // 2)

    def test_default_path_matches_level_11(self):
        # the adaptive default agrees with tanh-sinh level 11 passed in
        pr = EnsembleParams(2, 12, 1.5, 0.7)
        rule = tanh_sinh_rule(0, 2 * math.pi, 11)
        for n, m in ((2, 4), (3, 3), (0, 6), (5, 5)):
            assert abs(orthogonality_check(n, m, pr)
                       - orthogonality_check(n, m, pr, rule)) < 1e-14

    def test_divergent_range_raises(self):
        # P = 3.2: int omega2 I_n I_m converges only for n + m < 2P - 1 = 5.4
        pr = EnsembleParams(2, 3, 0.2, 0.3)
        assert orthogonality_check(2, 2, pr) < 1e-10
        with pytest.raises(ValueError):
            orthogonality_check(3, 3, pr)

    @pytest.mark.parametrize("n, m", [(2, 3), (1, 4), (0, 5)])
    def test_truncation_near_divergence_raises(self, n, m):
        # P = 3.2, n + m = 5 against 2P - 1 = 5.4: the integrand decays
        # too slowly at theta = 0 and 2 pi for two successive tanh-sinh
        # levels up to 12 to agree
        pr = EnsembleParams(2, 3, 0.2, 0.3)
        with pytest.raises(NonConvergenceError):
            orthogonality_check(n, m, pr)
        assert orthogonality_check(n, m - 1, pr) < 1e-14

    def test_node_doubling_stable(self):
        pr = EnsembleParams(2, 8, 1.5, 0.7)
        r1 = orthogonality_check(3, 3, pr, tanh_sinh_rule(0, 2 * math.pi, 9))
        r2 = orthogonality_check(3, 3, pr, tanh_sinh_rule(0, 2 * math.pi, 10))
        assert r1 < 1e-10 and r2 < 1e-10


class TestNorms:
    def test_h0_is_weight_mass(self):
        # h_0 = int omega2 dx, via the circle-mapped quadrature
        pr = EnsembleParams(2, 6, 1.5, 0.7)
        P, Q = pr.weight_params()
        rule = tanh_sinh_rule(0.0, 2 * math.pi, 10)
        # x = -cot(theta/2) = tan((theta - pi)/2), dx/dtheta = (1 + x^2)/2;
        # the tan form stays finite at the nodes next to theta = 0
        x = np.tan((rule.nodes - math.pi) / 2)
        vals = np.exp(-P * np.log1p(x * x) + 2 * Q * np.arctan(x)) * (1 + x * x) / 2
        quad = float(np.sum(vals * rule.weights))
        assert abs(quad - rr_norm(0, complex(-P, Q))) < 1e-8 * quad

    def test_positive(self):
        pr = EnsembleParams(2, 6, 1.5, 0.7)
        P, Q = pr.weight_params()
        for n in range(6):
            assert rr_norm(n, complex(-P, Q)) > 0

    @pytest.mark.parametrize("c", [complex(-3.4, 0.3), complex(-3.2, 0.3)])
    def test_divergent_range_raises(self, c):
        # h_3 = int omega2 I_3^2 dx converges only for 3 < P - 1/2
        assert rr_norm(2, c) > 0
        with pytest.raises(ValueError):
            rr_norm(3, c)

    def test_ratio_matches_quadrature(self):
        pr = EnsembleParams(2, 8, 1.5, 0.7)
        P, Q = pr.weight_params()
        c = complex(-P, Q)
        rule = tanh_sinh_rule(0.0, 2 * math.pi, 10)
        x = np.tan((rule.nodes - math.pi) / 2)
        w = np.exp(-P * np.log1p(x * x) + 2 * Q * np.arctan(x)) * (1 + x * x) / 2

        def hq(n):
            vals = w * rr_poly(n, c, x) * rr_poly(n, c, x)
            return complex(np.sum(vals * rule.weights)).real

        assert abs(hq(3) / hq(2) - rr_norm(3, c) / rr_norm(2, c)) < 1e-8


class TestScaledPolynomial:
    def test_against_direct_product(self):
        # prefactored 2F1 form vs explicit prefactor times the recurrence
        N, p, q = 20, 1.5, 0.7
        P = N + p
        X = 1.0
        for k in (0, 1, 2):
            z = -1.0 / math.tan(X / N)
            pref = ((1 - np.exp(2j * X / N)) / 2j) ** (N - k)
            direct = pref * rr_poly(N - k, complex(-P, q), z)
            viaA = rr_scaled_raw(N, k, X, P, q)
            assert abs(direct - viaA) < 1e-10 * abs(viaA)

    def test_spec_wrapper(self):
        pr = EnsembleParams(2, 20, 1.5, 0.7)
        v1 = rr_scaled(19, 1, 1.0, pr)
        v2 = rr_scaled_raw(20, 1, 1.0, 21.5, 0.7)
        assert v1 == v2
        with pytest.raises(ValueError):
            rr_scaled(18, 1, 1.0, pr)

    def test_confluent_trend(self):
        # value at N=400 within O(1/N) of the confluent limit
        from specsing import c_tilde
        p, q, k, X = 1.5, 0.7, 1, 1.0
        target = c_tilde(0, k, p, q, X)
        errs = {}
        for N in (200, 400):
            errs[N] = abs(rr_scaled_raw(N, k, X, N + p, q) - target)
        assert errs[400] < 1.5 * abs(target) / 400 * 10
        assert 0.35 < errs[400] / errs[200] < 0.65

    def test_circular_limit(self):
        # p + k = 0 is admitted at Q = 0 (b = c = 0 joint limit) and is the
        # p -> 0 limit; with Q != 0 it has no limit
        for X in (0.4, 2.0):
            v0 = rr_scaled_raw(8, 0, X, 8.0, 0.0)
            assert abs(v0 - rr_scaled_raw(8, 0, X, 8.0 + 1e-9, 0.0)) < 1e-8
        with pytest.raises(ValueError):
            rr_scaled_raw(8, 0, 1.0, 8.0, 0.3)

    def test_degree_zero_polynomial(self):
        # k = N: prefactor alone (I_0 = 1): the 2F1 factor is 1
        assert rr_scaled_raw(6, 6, 1.0, 7.5, 0.7) == 1
