"""Spectral density: Morris integrals, beta-dimensional representations,
finite-N density against the determinantal oracle, and scaled limits."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from specsing import (DensityTilde, EnsembleParams, MorrisParams, i_integral,
                      k_limit, kernel_s2, morris_closed, morris_quadrature,
                      rho_finite, rho_limit, tanh_sinh_rule)
from specsing.density import _b_integral, c_beta_limit
from specsing.series import gammaf


def rho_determinantal(theta, params):
    """Oracle: the determinantal diagonal transported to the circle through
    x = cot(theta/2) (the orientation matching the e^{-q theta} phase)."""
    x = 1.0 / math.tan(theta / 2)
    return kernel_s2(x, x, params) / (2 * math.sin(theta / 2) ** 2)


class TestMorris:
    def test_n1_closed(self):
        a, b = 1.5 + 0.0j, 0.7 + 0.0j
        m = MorrisParams(a, b, 2.0, 1)
        ref = gammaf(a + b + 1) / (gammaf(a + 1) * gammaf(b + 1))
        assert abs(morris_closed(m) - ref) < 1e-13 * abs(ref)

    def test_unit_integrand(self):
        m = MorrisParams(0.0 + 0j, 0.0 + 0j, 1.7, 1)
        assert abs(morris_quadrature(m) - 1.0) < 1e-10

    def test_n1_a1b1(self):
        m = MorrisParams(1.0 + 0j, 1.0 + 0j, 1.0, 1)
        assert abs(morris_quadrature(m) - 2.0) < 1e-8

    def test_finite_positive(self):
        m = MorrisParams(0.0 + 0j, 0.0 + 0j, 1.0, 3)
        val = morris_closed(m)
        assert val.real > 0 and abs(val.imag) < 1e-14

    @pytest.mark.parametrize("N,lam", [(2, 0.5), (2, 1.0), (3, 2.0)])
    def test_closed_vs_quadrature(self, N, lam):
        m = MorrisParams(1.5 + 0j, 0.7 + 0j, lam, N)
        c, q = morris_closed(m), morris_quadrature(m)
        assert abs(c - q) < 1e-6 * abs(c)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            morris_quadrature(MorrisParams(0j, 0j, 1.0, 4))


class TestIIntegral:
    def test_finite_N_at_zero(self):
        pr = EnsembleParams(2, 4, 1.5, 0.7)
        assert abs(i_integral("finite_N", 0.0, pr) - 1.0) < 1e-10

    def test_infinity_at_zero_is_morris(self):
        # beta = 2: sector rule; beta = 4: Pfaffian of 2-D integrals
        for beta in (2, 4):
            pr = EnsembleParams(beta, 4, 1.5, 0.7)
            td = DensityTilde.from_ensemble(pr)
            closed = (2 * math.pi) ** beta * morris_closed(
                MorrisParams(td.a_tilde, td.b_tilde, 2 / beta, beta))
            val = i_integral("infinity", 0.0, pr)
            assert abs(val - closed) < 1e-6 * abs(closed)

    def test_integration_by_parts_identity(self):
        # I[-theta sum e^{i t_j}] = -i a~ beta I_inf + i (a~+b~) I[sum 1/(1+e^{i t_p})]
        # (the displayed a~-b~ fails numerically; the derivation gives a~+b~)
        pr = EnsembleParams(2, 4, 1.5, 0.7)
        td = DensityTilde.from_ensemble(pr)
        theta = 1.0
        lhs = -theta * i_integral("weighted", theta, pr, "exp1")
        rhs = (-1j * td.a_tilde * 2 * i_integral("infinity", theta, pr)
               + 1j * (td.a_tilde + td.b_tilde)
               * i_integral("weighted", theta, pr, "inv1p"))
        assert abs(lhs - rhs) < 1e-6 * abs(lhs)

    def test_iinf_derivative_relation(self):
        # i theta I_inf'(theta) = -theta I[sum e^{i t_p}]; at beta = 4 the
        # moment is the first-order term of the Pfaffian
        for beta in (2, 4):
            pr = EnsembleParams(beta, 4, 1.5, 0.7)
            theta, h = 1.0, 1e-5
            d = (i_integral("infinity", theta + h, pr)
                 - i_integral("infinity", theta - h, pr)) / (2 * h)
            lhs = 1j * theta * d
            rhs = -theta * i_integral("weighted", theta, pr, "exp1")
            assert abs(lhs - rhs) < 1e-6 * abs(lhs)

    def test_unsupported(self):
        pr = EnsembleParams(2, 4, 1.5, 0.7)
        with pytest.raises(ValueError):
            i_integral("weighted", 1.0, pr, "bogus")
        with pytest.raises(ValueError):
            i_integral("finite_N", 1.0, EnsembleParams(6, 3, 1.5, 0.7))


class TestRhoFinite:
    def test_normalization(self):
        pr = EnsembleParams(2, 4, 1.5, 0.7)
        val, _ = quad(lambda t: rho_finite(t, pr), 1e-9, 2 * math.pi - 1e-9,
                      limit=100)
        assert abs(val - 4) < 1e-4

    @pytest.mark.parametrize("pq", [(1.5, 0.7), (0.5, 0.3)])
    def test_determinantal_equivalence(self, pq):
        pr = EnsembleParams(2, 5, *pq)
        for theta in (0.8, 2.0, 4.5):
            rj = rho_finite(theta, pr, "jack")
            rd = rho_determinantal(theta, pr)
            assert abs(rj - rd) < 1e-6 * rd

    def test_dual_path(self):
        pr = EnsembleParams(2, 3, 1.5, 0.7)
        for theta in (0.8, 2.0):
            rj = rho_finite(theta, pr, "jack")
            ri = rho_finite(theta, pr, "integral")
            assert abs(rj - ri) < 1e-6 * rj

    @pytest.mark.slow
    def test_dual_path_beta4(self):
        pr = EnsembleParams(4, 2, 1.0, 0.4)
        rj = rho_finite(0.9, pr, "jack")
        ri = rho_finite(0.9, pr, "integral")
        assert abs(rj - ri) < 2e-2 * rj

    @pytest.mark.parametrize("beta,N", [(2, 64), (4, 28)])
    def test_normalization_large_N(self, beta, N):
        # both raised NonConvergenceError while the Jack terms were built from
        # scratch (inf/inf shells); measured 3e-14 and 1e-12
        pr = EnsembleParams(beta, N, 1.3, 0.4)
        rule = tanh_sinh_rule(0, 2 * math.pi, 8)
        val = sum(w * rho_finite(float(t), pr)
                  for t, w in zip(rule.nodes, rule.weights))
        assert abs(val - N) < 1e-10 * N

    @pytest.mark.parametrize("beta,N,ref", [(2, 64, 10.499363034951399),
                                            (4, 40, 6.459495742570329)])
    def test_large_N_reference(self, beta, N, ref):
        # 30-digit kernel-diagonal values at theta = 1, (p, q) = (1.3, 0.4)
        val = rho_finite(1.0, EnsembleParams(beta, N, 1.3, 0.4))
        assert abs(val - ref) < 1e-9 * ref

    def test_morris_ratio_does_not_overflow(self):
        # each Morris integral overflows alone at N = 200; their ratio does not
        val = rho_finite(0.3, EnsembleParams(2, 200, 1.3, 0.4))
        assert abs(val - 32.44943873430255) < 1e-10 * 32.44943873430255

    def test_cue_uniform(self):
        pr = EnsembleParams(2, 8, 0.0, 0.0)
        assert rho_finite(1.0, pr) == pytest.approx(8 / (2 * math.pi))

    def test_domain(self):
        pr = EnsembleParams(2, 4, 1.5, 0.7)
        with pytest.raises(ValueError):
            rho_finite(0.0, pr)
        with pytest.raises(ValueError):
            rho_finite(1.0, pr, "bogus")

    def test_reality_and_positivity_grid(self):
        pr = EnsembleParams(2, 5, 1.5, 0.7)
        for theta in np.linspace(0.2, 6.0, 9):
            assert rho_finite(float(theta), pr) >= 0


class TestRhoLimit:
    def test_cue_value(self):
        pr = EnsembleParams(2, 8, 0.0, 0.0)
        assert rho_limit(1.0, pr) == pytest.approx(1 / (2 * math.pi))
        assert rho_limit(2.5, pr) == pytest.approx(1 / (2 * math.pi))

    def test_small_theta_power(self):
        # leading behaviour theta^(p beta) (1 - q theta/(p+1)): the sum rule
        # gives 1F1 ~ 1 + beta (p+1-2iq/beta)(-i theta)/(2p+2), and e^{i beta
        # theta/2} cancels its imaginary part
        pr = EnsembleParams(2, 8, 1.5, 0.7)
        p, q = pr.p, pr.q
        t1, t2 = 1e-3, 1e-2
        slope = (math.log(rho_limit(t2, pr)) - math.log(rho_limit(t1, pr))) \
            / (math.log(t2) - math.log(t1))
        expected = p * pr.beta + math.log((1 - q * t2 / (p + 1)) / (1 - q * t1 / (p + 1))) \
            / math.log(t2 / t1)
        assert abs(slope - expected) < 1e-5

    def test_scaled_limit_of_finite_N(self):
        pr = EnsembleParams(2, 8, 1.5, 0.7)
        theta = 1.0
        target = rho_limit(theta, pr)
        vals = {}
        for N in (8, 16, 32):
            pn = EnsembleParams(2, N, 1.5, 0.7)
            vals[N] = rho_finite(theta / N, pn) / N
        # two-point Richardson removes the 1/N term; the residual is O(1/N^2)
        # (about -16 target / N^2), so it falls by about 4 per doubling
        resid = {N: 2 * vals[2 * N] - vals[N] - target for N in (8, 16)}
        assert 0.2 < resid[16] / resid[8] < 0.3

    @pytest.mark.parametrize("pq", [(1.5, 0.7), (0.8, -0.4), (2.3, 1.0),
                                    (1.1, 0.0)])
    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.5, 3.5])
    def test_q_sign_matches_kernel_diagonal(self, pq, theta):
        # the density and kernel conventions carry opposite phases:
        # rho_inf(theta; q) = K_inf(theta/2, theta/2; -q)/2 (worst measured
        # 2.1e-14; with +q the two sides differ by up to a factor 10)
        p, q = pq
        rho = rho_limit(theta, EnsembleParams(2, 8, p, q))
        K = k_limit(2, theta / 2, theta / 2, EnsembleParams(2, 8, p, -q))
        assert abs(rho - 0.5 * K) < 1e-12 * abs(rho)

    def test_integral_path(self):
        pr = EnsembleParams(2, 8, 1.5, 0.7)
        rj = rho_limit(1.0, pr, "jack")
        ri = rho_limit(1.0, pr, "integral")
        assert abs(rj - ri) < 1e-6 * rj

    def test_cbeta_constant(self):
        # beta = 2, p = 1, q = 0: e^{q pi} C = (1/(2pi)) G(2)G(2)G(2)/(G(4)G(3))
        pr = EnsembleParams(2, 8, 1.0, 0.0)
        ref = 1 / (2 * math.pi) / (6 * 2)
        assert c_beta_limit(pr) == pytest.approx(ref, rel=1e-12)


class TestDensityTilde:
    def test_fields(self):
        td = DensityTilde.from_ensemble(EnsembleParams(2, 4, 1.5, 0.7))
        assert td.a_tilde == pytest.approx(2 * 1.5 + 1 - 1)
        assert td.b_tilde == pytest.approx(complex(-2.5, 0.7))
