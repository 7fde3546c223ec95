"""Finite-N kernels: Christoffel-Darboux consistency, trace normalization,
skew-orthogonal assemblies for beta = 1 and 4, and the integral terms."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from specsing import (EnsembleParams, NonConvergenceError, correlation_det, k_limit, kernel_s1,
                      kernel_s1_scaled, kernel_s2, kernel_s2_scaled, kernel_s4,
                      kernel_s4_scaled, kernel_scaled, rho_finite, rr_norm, rr_poly,
                      skew_constants, tail_integral)
from specsing import kernels, polynomials
from specsing.kernels import (_cd_scaled, _h_sub, _phi, _phi_jet, _s_tilde,
                              _w1_full_line, eta_constants)
from specsing.polynomials import CauchyWeightParams, scaled_point_map, weight_cauchy
from specsing.quadrature import tanh_sinh_adaptive
from specsing.series import hyp2f1_terminating


def direct_sum_kernel(x, y, params):
    """Oracle: the rank-N projection sum (omega(x)omega(y))^(1/2)
    sum_k I_k(x) I_k(y) / h_k built from first principles.  rr_poly runs the
    three-term recurrence, so it shares no code with _phi's 2F1."""
    P, Q = params.weight_params()
    c = complex(-P, Q)
    w = CauchyWeightParams(c)
    amp = math.sqrt(weight_cauchy(x, w) * weight_cauchy(y, w))
    total = sum(rr_poly(k, c, x) * rr_poly(k, c, y) / rr_norm(k, c)
                for k in range(params.size))
    return amp * total


class TestBeta2:
    @pytest.mark.parametrize("pq", [(1.5, 0.7), (0.5, 0.0)])
    def test_cd_equals_direct_sum(self, pq):
        pr = EnsembleParams(2, 10, *pq)
        xs = np.linspace(-2.0, 2.0, 5)
        for x in xs:
            for y in xs:
                if abs(x - y) < 1e-9:
                    continue
                cd = kernel_s2(float(x), float(y), pr)
                ds = direct_sum_kernel(float(x), float(y), pr)
                assert abs(cd - ds.real) < 1e-10 * (abs(ds) + 1)

    @pytest.mark.parametrize("N", [12, 40])
    def test_near_diagonal_matches_direct_sum(self, N):
        # inside the midpoint window |X - Y| < 3e-3 min(1, X), where the CD
        # kernel is built from _phi_jet, against the direct sum at X of
        # order 1 (measured worst 4.5e-13)
        pr = EnsembleParams(2, N, 1.5, 0.7)
        for X in (1.0, 2.5, 6.0):
            for d in (0.0, 1e-7, 5e-7 * (1 + X), -5e-7 * (1 + X)):
                (x, dz), (y, _) = scaled_point_map(X, N), scaled_point_map(X + d, N)
                ref = direct_sum_kernel(x, y, pr) * dz
                assert abs(kernel_s2_scaled(X, X + d, pr) - ref) < 1e-11 * abs(ref)

    def test_near_diagonal_window_relative_at_small_X(self):
        # at X = 1e-4 the midpoint window is |X - Y| < 3e-3 X: a gap of 1e-2 X
        # takes the quotient, one of 5e-7 X the midpoint (an absolute window
        # of 1e-6 sent the first to the midpoint, 6e-5 off); at N = 12 the
        # double-precision direct sum still resolves this X
        pr = EnsembleParams(2, 12, 1.5, 0.7)
        X = 1e-4
        for Y in (X * (1 + 1e-2), X * (1 + 5e-7)):
            (x, dz), (y, _) = scaled_point_map(X, 12), scaled_point_map(Y, 12)
            ref = direct_sum_kernel(x, y, pr) * dz
            assert abs(kernel_s2_scaled(X, Y, pr) - ref) < 1e-9 * abs(ref)

    def test_symmetry(self):
        pr = EnsembleParams(2, 8, 1.5, 0.7)
        a = kernel_s2(0.3, -1.1, pr)
        b = kernel_s2(-1.1, 0.3, pr)
        assert abs(a - b) < 1e-12 * abs(a)

    def test_trace(self):
        pr = EnsembleParams(2, 6, 1.5, 0.7)
        val, _ = quad(lambda X: kernel_s2_scaled(X, X, pr), 1e-9,
                      6 * math.pi, limit=200)
        assert abs(val - 6) < 1e-6

    @pytest.mark.parametrize("eps", [1e-4, 1e-5])
    def test_diagonal_continuity(self, eps):
        pr = EnsembleParams(2, 8, 1.5, 0.7)
        x = 0.7
        d = abs(kernel_s2(x, x + eps, pr) - kernel_s2(x, x, pr))
        assert d < 5.0 * eps

    def test_sine_limit_richardson(self):
        # p = q = 0: Richardson-extrapolated scaled kernel matches the
        # sine kernel (the limit kernel carries a Y/X conjugation factor)
        X, Y = 2.0, 0.7
        sine = math.sin(X - Y) / (math.pi * (X - Y)) * (Y / X)
        s1 = kernel_s2_scaled(X, Y, EnsembleParams(2, 200, 0.0, 0.0))
        s2 = kernel_s2_scaled(X, Y, EnsembleParams(2, 400, 0.0, 0.0))
        extrap = (4 * s2 - s1) / 3
        assert abs(extrap - sine) < 1e-8

    def test_large_N_stable(self):
        pr = EnsembleParams(2, 2000, 1.5, 0.7)
        val = kernel_s2_scaled(2.0, 0.9, pr)
        assert np.isfinite(val)
        K = k_limit(2, 2.0, 0.9, pr)
        assert abs(val - K) < 1e-3


@pytest.mark.parametrize("beta, N", [(1, 20), (1, 11), (2, 100), (4, 10), (4, 25)])
@pytest.mark.parametrize("X", [0.6, 2.0])
def test_diagonal_is_offdiagonal_limit(beta, N, X):
    # the exact-derivative diagonal against the symmetric +-d average of the
    # off-diagonal formula, whose own error is O(d^2) (worst measured 6.5e-7)
    pr = EnsembleParams(beta, N, 1.5, 0.7)
    d = 1e-4
    diag = kernel_scaled(beta, X, X, pr)
    avg = 0.5 * (kernel_scaled(beta, X + d, X - d, pr)
                 + kernel_scaled(beta, X - d, X + d, pr))
    assert abs(diag - avg) < 1e-5 * abs(diag)


@pytest.mark.parametrize("beta", [2, 4])
@pytest.mark.parametrize("N", [20, 200])
@pytest.mark.parametrize("X", [0.6, 2.0])
def test_near_diagonal_branch(beta, N, X):
    # inside the midpoint window |X - Y| < 3e-3 min(1, X), against the exact
    # diagonal plus the central slope over +-1e-4; a first-order branch
    # misses by ~1e-6 (measured worst 4.2e-11)
    pr = EnsembleParams(beta, N, 1.5, 0.7)
    diag = kernel_scaled(beta, X, X, pr)
    slope = (kernel_scaled(beta, X, X + 1e-4, pr)
             - kernel_scaled(beta, X, X - 1e-4, pr)) / 2e-4
    for d in (1e-7, 5e-7 * (1 + X), -5e-7 * (1 + X)):
        val = kernel_scaled(beta, X, X + d, pr)
        assert abs(val - (diag + d * slope)) < 1e-9 * abs(diag)


@pytest.mark.parametrize("beta", [1, 2, 4])
@pytest.mark.parametrize("N", [5, 6, 10, 11])
@pytest.mark.parametrize("X", [0.5, 2.0])
def test_circular_limit_diagonal(beta, N, X):
    # p = q = 0: the density of eigenvalue angles is uniform, N/(2 pi), so
    # the scaled diagonal is 1/pi for every N (the hand-derived diagonal
    # derivative divided by b = c = 0 here)
    val = kernel_scaled(beta, X, X, EnsembleParams(beta, N, 0.0, 0.0))
    assert abs(val - 1 / math.pi) < 1e-12 / math.pi


def test_diagonal_matches_closed_form_slope():
    # the CD kernel's diagonal against -(phi_k phi'_{k+1} - phi'_k phi_{k+1})/h
    # from the closed-form slopes of _phi_jet, for the (N, k, P, Q) systems
    # of beta = 1, 2 and 4
    rng = np.random.default_rng(8)
    for _ in range(200):
        beta = rng.choice([1, 2, 4])
        N = int(np.clip(round(10 ** rng.uniform(0.7, 3.3)), 5, 2000))
        p, q = rng.uniform(0.1, 3.0), rng.uniform(-1.5, 1.5)
        X = rng.uniform(0.05, min(20.0, 0.2 * N))
        P, Q = EnsembleParams(beta, N, p, q).weight_params()
        M, k, S = {1: (N, 1 + N % 2, X), 2: (N, 0, X), 4: (2 * N, 0, 2 * X)}[beta]
        (f0, d0), (f1, d1) = _phi_jet(M, k, P, Q, S, 1), _phi_jet(M, k + 1, P, Q, S, 1)
        ref = -(f0 * d1 - d0 * f1) / _h_sub(M - k - 1, P, Q)
        assert abs(_cd_scaled(M, k, P, Q, S, S) - ref) < 1e-13 * abs(ref)


# bench/reference.py's 30-digit values (mpmath, no code shared with the
# library) of kernel_scaled at (p, q) = (1.5, 0.7): (beta, N, X, 1 - Y/X,
# value) at Y = X (1 - that), the arguments of the CD kernel (2X at beta = 4)
# at most 2
_NEAR_DIAGONAL = [
    (2, 12, 0.01, 1e-08, 4.35162715753662365966596389232e-9),
    (2, 12, 0.01, 3e-06, 4.35159458843258124288630858041e-9),
    (2, 12, 0.01, 0.0001, 4.35053807823584576027296728277e-9),
    (2, 12, 0.01, 0.0025, 4.3244466992928363630478506637e-9),
    (2, 12, 0.01, 0.03, 4.03218269913488661154059831857e-9),
    (2, 12, 0.5, 1e-08, 7.10484486342609455597723936283e-4),
    (2, 12, 0.5, 3e-06, 7.10478930118776032119511501976e-4),
    (2, 12, 0.5, 0.0001, 7.10298692813555749239475597508e-4),
    (2, 12, 0.5, 0.0025, 7.0584833548816803193056948825e-4),
    (2, 12, 0.5, 0.03, 6.56097926648107458342212130556e-4),
    (2, 12, 2.0, 1e-08, 6.38457843096422004603834300916e-2),
    (2, 12, 2.0, 3e-06, 6.38453099723578757189654638796e-2),
    (2, 12, 2.0, 0.0001, 6.38299226570869385198149780104e-2),
    (2, 12, 2.0, 0.0025, 6.34497526527385537500564673662e-2),
    (2, 12, 2.0, 0.03, 5.91698402192822845893627188299e-2),
    (4, 40, 0.005, 1e-08, 6.3201023275579407868159664442e-18),
    (4, 40, 0.005, 3e-06, 6.31995109728488795818250098995e-18),
    (4, 40, 0.005, 0.0001, 6.31504631423063977172003555837e-18),
    (4, 40, 0.005, 0.0025, 6.19452206068042980600467696161e-18),
    (4, 40, 0.005, 0.03, 4.92327540984718492825633456349e-18),
    (4, 40, 0.25, 1e-08, 1.12141060311487130004698262508e-7),
    (4, 40, 0.25, 3e-06, 1.12138339411693028235328819808e-7),
    (4, 40, 0.25, 0.0001, 1.12050094128039789368883598098e-7),
    (4, 40, 0.25, 0.0025, 1.09881923393879987936512977226e-7),
    (4, 40, 0.25, 0.03, 8.70458473112942932198374492079e-8),
    (4, 40, 1.0, 1e-08, 5.66008660215420060714605888932e-4),
    (4, 40, 1.0, 3e-06, 5.65994956063156081223953682385e-4),
    (4, 40, 1.0, 0.0001, 5.65550494851384882802089094944e-4),
    (4, 40, 1.0, 0.0025, 5.54628457567657276021634614385e-4),
    (4, 40, 1.0, 0.03, 4.39395289484732097524571091184e-4),
]


@pytest.mark.parametrize("beta,N,X,gap,ref", _NEAR_DIAGONAL,
                         ids=[f"{b}-{X}-{g}" for b, _, X, g, _ in _NEAR_DIAGONAL])
def test_near_diagonal_against_30_digits(beta, N, X, gap, ref):
    # gaps on both sides of the window |X - Y| < 3e-3 min(1, X): the midpoint
    # form inside, the quotient outside (a first-order midpoint inside
    # 2e-6 X and the quotient beyond it were up to 3.8e-9 off here; measured
    # worst now 3.1e-11)
    val = kernel_scaled(beta, X, X * (1 - gap), EnsembleParams(beta, N, 1.5, 0.7))
    assert abs(val - ref) < 1e-10 * abs(ref)


class TestCorrelationDet:
    def test_single_point(self):
        pr = EnsembleParams(2, 6, 1.5, 0.7)
        assert correlation_det([0.4], pr) == pytest.approx(
            kernel_s2(0.4, 0.4, pr))

    def test_near_coincident_vanishes(self):
        pr = EnsembleParams(2, 6, 1.5, 0.7)
        base = correlation_det([0.4], pr) ** 2
        val = correlation_det([0.4, 0.4 + 1e-5], pr)
        assert abs(val) < 1e-6 * base

    def test_negative_correlation(self):
        pr = EnsembleParams(2, 6, 1.5, 0.7)
        for (x, y) in ((0.3, 1.0), (-1.0, 0.5), (2.0, -2.0)):
            r2 = correlation_det([x, y], pr)
            prod = kernel_s2(x, x, pr) * kernel_s2(y, y, pr)
            assert r2 <= prod + 1e-12

    def test_distinct_required(self):
        with pytest.raises(ValueError):
            correlation_det([0.4, 0.4], EnsembleParams(2, 6, 1.5, 0.7))


class TestBeta1:
    def test_w1_closed_form_vs_quadrature(self):
        # full-line integrals of I_{N-shift} w1 (twice the odd-N s~ constants)
        # against their gamma closed form; odd degrees integrate to exactly 0
        p, q = 1.5, 0.3
        closed = _w1_full_line(6 - 2, 6 + p, 2 * q)
        qd = tail_integral(4, 6 * math.pi * (1 - 1e-12), EnsembleParams(1, 6, p, q))
        assert abs(qd.real - closed) < 1e-8 * abs(closed)
        for N in (6, 7):
            pr = EnsembleParams(1, N, p, q)
            P, Q = pr.weight_params()
            for shift in (1, 2, 3):
                closed = 2 * _s_tilde(N, shift, P, Q)
                qd = tail_integral(N - shift, N * math.pi * (1 - 1e-12), pr)
                if (N - shift) % 2:
                    assert closed == 0
                    assert abs(qd) < 1e-9 * _w1_full_line(0, P, Q)
                else:
                    assert abs(qd.real - closed) < 1e-8 * abs(closed)

    def test_w1_weight_mass(self):
        # degree-0 full-line case: Cauchy beta integral closed form
        N, p, q = 6, 1.5, 0.3
        pr = EnsembleParams(1, N, p, q)
        P, Q = pr.weight_params()
        closed = _w1_full_line(0, P, Q)
        qd = tail_integral(0, N * math.pi * (1 - 1e-12), pr)
        assert abs(qd.real - closed) < 1e-8 * abs(closed)

    def test_tail_vanishes_at_origin(self):
        pr = EnsembleParams(1, 6, 1.5, 0.3)
        assert tail_integral(4, 0.0, pr) == 0
        assert abs(tail_integral(4, 1e-6, pr)) < 1e-12

    def test_trace_even(self):
        pr = EnsembleParams(1, 6, 1.5, 0.3)
        val, _ = quad(lambda X: kernel_s1_scaled(X, X, pr), 1e-9,
                      6 * math.pi, limit=250)
        assert abs(val - 6) < 1e-5

    def test_trace_odd(self):
        pr = EnsembleParams(1, 7, 1.5, 0.3)
        val, _ = quad(lambda X: kernel_s1_scaled(X, X, pr), 1e-9,
                      7 * math.pi, limit=250)
        assert abs(val - 7) < 1e-5

    def test_cross_parity_limit(self):
        # even-N and odd-(N+1) kernels approach the same scaled limit
        p, q, X, Y = 1.5, 0.3, 2.0, 0.9
        diffs = {}
        for N in (16, 32):
            se = kernel_s1_scaled(X, Y, EnsembleParams(1, N, p, q))
            so = kernel_s1_scaled(X, Y, EnsembleParams(1, N + 1, p, q))
            diffs[N] = abs(se - so)
        assert diffs[32] < diffs[16]
        assert diffs[32] < 5e-4

    def test_line_kernel_consistent(self):
        pr = EnsembleParams(1, 6, 1.5, 0.3)
        X, Y = 2.0, 0.9
        x = -1.0 / math.tan(X / 6)
        y = -1.0 / math.tan(Y / 6)
        dz = 1.0 / (6 * math.sin(X / 6) ** 2)
        assert kernel_s1(x, y, pr) == pytest.approx(
            kernel_s1_scaled(X, Y, pr) / dz)

    def test_skew_constants(self):
        pr = EnsembleParams(1, 8, 1.5, 0.7)
        sc = skew_constants(pr)
        assert sc.eta1 > 0
        # frozen 30-digit values of the limit constants at (p, q) = (1.5, 0.7)
        assert sc.eta1 == pytest.approx(71.9105566192635651, rel=1e-12)
        assert sc.eta2 == pytest.approx(-0.000192915771450753349, rel=1e-12)
        P, Q = pr.weight_params()
        assert sc.gamma[6] == pytest.approx((P - 7) / _h_sub(6, P, Q), rel=1e-14)
        assert sc.s_tilde == {}

    def test_skew_constants_odd_s_tilde(self):
        # odd N fills s~_k = (1/2) int w1 I_k for k = N - 1, N - 2, N - 3
        # from N alone; odd degrees vanish
        pr = EnsembleParams(1, 7, 1.5, 0.3)
        P, Q = pr.weight_params()
        st = skew_constants(pr).s_tilde
        assert sorted(st) == [4, 5, 6]
        assert st[5] == 0
        for k in (4, 6):
            assert st[k] == pytest.approx(_s_tilde(7, 7 - k, P, Q), rel=1e-15)
            qd = tail_integral(k, 7 * math.pi * (1 - 1e-12), pr)
            assert abs(qd.real - 2 * st[k]) < 1e-8 * abs(st[k])


class TestBeta4:
    def test_trace(self):
        pr = EnsembleParams(4, 4, 0.8, 0.4)
        val, _ = quad(lambda X: kernel_s4_scaled(X, X, pr), 1e-9,
                      4 * math.pi, limit=250)
        assert abs(val - 4) < 1e-5

    def test_gamma_constant_definition(self):
        pr = EnsembleParams(4, 6, 0.8, 0.4)
        sc = skew_constants(pr)
        P, Q = pr.weight_params()
        direct = 2 * pr.p / _h_sub(11, P, Q)
        assert abs(sc.gamma[11] - direct) < 1e-12 * abs(direct)

    def test_full_line_odd_degree_vanishes(self):
        # int I_{2N-1} w1 over the line is zero (kills the upper-tail rewrite)
        N = 6
        pr = EnsembleParams(4, N, 0.8, 0.4)
        full = tail_integral(2 * N - 1, N * math.pi * (1 - 1e-12), pr)
        assert abs(full) < 1e-9

    def test_scaled_approaches_limit(self):
        p, q, X, Y = 0.8, 0.4, 2.0, 0.9
        K = k_limit(4, X, Y, EnsembleParams(4, 100, p, q))
        errs = {}
        for N in (50, 100):
            s = kernel_s4_scaled(X, Y, EnsembleParams(4, N, p, q))
            errs[N] = abs(s - K)
        assert errs[100] < abs(K) * 10.0 / 100
        assert 0.35 < errs[100] / errs[50] < 0.65

    def test_line_kernel_consistent(self):
        pr = EnsembleParams(4, 4, 0.8, 0.4)
        X, Y = 2.0, 0.9
        x = -1.0 / math.tan(X / 4)
        y = -1.0 / math.tan(Y / 4)
        dz = 1.0 / (4 * math.sin(X / 4) ** 2)
        assert kernel_s4(x, y, pr) == pytest.approx(
            kernel_s4_scaled(X, Y, pr) / dz)


class TestEtaConstants:
    def test_eta1_full_line_scaling(self):
        # eta1 N^(-p-2)(1 - p(p+2)/N + ...) reproduces the full-line integral
        p, q = 1.5, 0.3
        eta1, _ = eta_constants(p, q)
        for N in (40, 80):
            approx = eta1 * N ** (-p - 2) * (1 - p * (p + 2) / N)
            exact = _w1_full_line(N - 2, N + p, 2 * q)
            assert abs(approx - exact) < 30.0 / N ** 2 * exact


# (beta, N, p, q, degree, X, value): tail integrals by mpmath.quad at 40
# digits of int_0^{X/N} sin^{P-1} v e^{Q(v - pi/2)} I_n(-cot v) dv, I_n from
# the three-term recurrence, on seeded (p, q) and u = X/N in (0.01, 0.9):
# beta = 1 at even N (degree N - 2) and odd N (N - 1, N - 2, N - 3), and
# beta = 4 (2N - 1)
_TAILS = [
    (1, 10, 2.370084, 0.036546, 8, 0.41521, "1.86456658391904712705427176272e-7"),
    (1, 24, 0.42877, -0.922885, 22, 2.088528, "4.72611157592064991389715537821e-3"),
    (1, 40, 1.982729, -0.697363, 38, 28.30488, "3.0787903188113358985313539523e-5"),
    (1, 64, 1.874774, -0.26081, 62, 34.46016, "5.04186506181721916864502791432e-6"),
    (1, 16, 0.44473, 0.461464, 14, 10.80656, "5.78561912346303162410712744013e-3"),
    (1, 30, 0.865698, -0.95535, 28, 5.90268, "7.73339880597910508350737947904e-4"),
    (1, 50, 0.728921, 0.483687, 48, 38.85985, "2.0569476496147656473421576121e-4"),
    (1, 12, 2.156792, 0.295437, 10, 4.453728, "1.06137022061988851204419638705e-3"),
    (1, 36, 1.132348, -0.553306, 34, 21.69054, "2.26713678220045494123581706874e-4"),
    (1, 20, 0.747377, 0.73667, 18, 5.51638, "2.21276813796184284946241379769e-3"),
    (1, 9, 1.471014, 0.886618, 8, 5.290983, "2.45958979632783343790567733006e-2"),
    (1, 9, 1.471014, 0.886618, 7, 0.689661, "-3.19130112985717123103486249101e-6"),
    (1, 9, 1.471014, 0.886618, 6, 6.52239, "5.70310148769079210890538987301e-3"),
    (1, 17, 0.799294, 0.648485, 16, 14.749727, "2.16699156267915800795070504022e-2"),
    (1, 17, 0.799294, 0.648485, 15, 7.404707, "-4.44679217741944484998237042488e-3"),
    (1, 17, 0.799294, 0.648485, 14, 13.964242, "1.07583732069298002921717722e-3"),
    (1, 33, 0.302402, -0.76942, 32, 0.753654, "3.60209471039845605819118725196e-2"),
    (1, 33, 0.302402, -0.76942, 31, 27.688386, "-2.04524529844084883254917176606e-3"),
    (1, 33, 0.302402, -0.76942, 30, 29.527839, "2.47285393646574568380876044186e-4"),
    (1, 51, 1.850753, -0.495259, 50, 12.723276, "1.22686184080797807007132125485e-4"),
    (1, 51, 1.850753, -0.495259, 49, 38.437323, "-1.34271568782799264314305563497e-5"),
    (1, 51, 1.850753, -0.495259, 48, 23.723313, "2.05659725166470631658489307075e-6"),
    (1, 25, 0.808864, -0.170418, 24, 19.916125, "7.10531724883076538066774608129e-3"),
    (1, 25, 0.808864, -0.170418, 23, 8.80325, "-8.80850065985103687284785976349e-4"),
    (1, 25, 0.808864, -0.170418, 22, 16.18795, "1.94679121357142093645353066399e-4"),
    (1, 63, 2.438613, 0.785921, 62, 39.748968, "1.94269578055262957077009942575e-5"),
    (1, 63, 2.438613, 0.785921, 61, 30.742614, "-2.02578952421477723676268077127e-6"),
    (1, 63, 2.438613, 0.785921, 60, 20.297718, "2.39495694238780132076246451586e-7"),
    (4, 5, 1.206535, 0.151264, 9, 0.67579, "-2.36874201505130844903886424144e-4"),
    (4, 10, 0.659291, -0.184959, 19, 3.14444, "-3.46407308196018677061547723845e-3"),
    (4, 20, 0.555566, -0.894756, 39, 8.37264, "-1.51074777960397775606293429858e-3"),
    (4, 32, 1.203576, 0.573721, 63, 3.700384, "-1.8410971750926487381800708781e-5"),
    (4, 8, 0.359581, -0.350121, 15, 4.163264, "-1.96526943777558855328226946241e-2"),
    (4, 14, 0.601072, -0.659273, 27, 3.23687, "-2.10836997434864112501162561387e-3"),
    (4, 26, 1.666083, -0.192421, 51, 10.44797, "-3.72076224255364104604810659666e-6"),
    (4, 40, 1.429893, -0.827743, 79, 7.99192, "-2.31783454507173656321361403672e-6"),
    (4, 3, 0.736477, -0.050403, 5, 1.659852, "-4.39920452963829571660325213188e-2"),
    (4, 12, 0.397993, 0.659729, 23, 1.923096, "-8.28624323360323255774093352004e-3"),
]


class TestTailIntegral:
    """The tail integrals against 30-digit mpmath: the terminating 2F1 and the
    integrand built from their definitions, integrated by mpmath.quad."""

    @pytest.mark.parametrize("beta, N, p, q, degree, X, ref", _TAILS)
    def test_grid_matches_mpmath(self, beta, N, p, q, degree, X, ref):
        # a value within 1e-6 |ref| + 1e-8, or NonConvergenceError where the
        # series cancels (X/N > 0.4 here); near the singularity every tail returns
        ref = float(ref)
        try:
            val = tail_integral(degree, X, EnsembleParams(beta, N, p, q))
        except NonConvergenceError:
            assert X / N > 0.15
            return
        assert abs(val - ref) <= 1e-6 * abs(ref) + 1e-8

    @pytest.mark.parametrize("beta, N, p, q, degree, X", [
        (1, 51, 1.4, 0.3, 50, 51 * math.pi / 2), (4, 30, 1.1, -0.5, 59, 30 * math.pi / 2)])
    def test_bulk_cancellation_raises(self, beta, N, p, q, degree, X):
        # |w| = 2 at X/N = pi/2: the series' terms cancel far beyond 1e-6
        with pytest.raises(NonConvergenceError):
            tail_integral(degree, X, EnsembleParams(beta, N, p, q))

    @pytest.mark.parametrize("degree, X, params, ref", [
        (48, 0.3, EnsembleParams(1, 50, 0.5068, 0.3559), 3.718539970792485873537291e-7),
        (99, 3.5, EnsembleParams(4, 50, 1.3, -0.4), -2.128308816307349652181563e-6)])
    def test_small_X_matches_mpmath(self, degree, X, params, ref):
        val = tail_integral(degree, X, params)
        assert abs(val - ref) < 1e-11 * abs(ref)

    def test_bulk_returns_value(self):
        # at X/N = 0.95 pi, |w| = 2 sin(X/N) = 0.31 is small again: the
        # series does not cancel, and its rounding bound is 2e-9 of
        # 1e-6 |value| + 1e-8
        val = tail_integral(15, 0.95 * 17 * math.pi, EnsembleParams(1, 17, 1.0786, 0.923))
        ref = -3.503813198305242696623714e-3
        assert abs(val - ref) < 1e-7 * abs(ref)

    def test_bulk_rounding_beyond_bound_raises(self):
        # |w| = 1.6 and the series' terms cancel: the value would be 60
        # times 1e-6 |value| + 1e-8 off 40-digit mpmath, and the rounding
        # bound eps sum |gamma_j w^j| is 310 times it, so NonConvergenceError
        # is raised
        params = EnsembleParams(4, 17, 0.7715110427241669, -0.6607615005859033)
        with pytest.raises(NonConvergenceError):
            tail_integral(33, 0.3 * 17 * math.pi, params)

    def test_upper_limit_validated(self):
        with pytest.raises(ValueError):
            tail_integral(4, 6 * math.pi * 1.01, EnsembleParams(1, 6, 1.5, 0.3))


class TestMemo:
    """tail_integral, _phi, the w1 masses and the s~ closed forms are
    memoised per point: a repeated call returns the stored value, bit for
    bit what the uncached function computes, and an error is never stored."""

    def test_tail_integral_repeat_is_uncached_value(self):
        params = EnsembleParams(1, 9, 1.3, 0.4)
        first = tail_integral(7, 5.0, params)
        again = tail_integral(7, 5.0, params)
        assert tail_integral.cache_info().hits == 1
        assert again == first == tail_integral.__wrapped__(7, 5.0, params)

    def test_phi_scalar_memo(self):
        args = (12, 1, 13.5, 0.7)
        first = _phi(*args, 2.5)
        assert _phi(*args, 2.5) == first == _phi.__wrapped__(*args, 2.5)
        assert _phi.cache_info().hits == 1

    def test_raising_tail_integral_raises_again(self):
        params = EnsembleParams(4, 17, 0.7715110427241669, -0.6607615005859033)
        for _ in range(2):
            with pytest.raises(NonConvergenceError):
                tail_integral(33, 0.3 * 17 * math.pi, params)
        assert tail_integral.cache_info().currsize == 0

    @pytest.mark.parametrize("beta, N", [(1, 9), (1, 10), (4, 6)])
    def test_grid_matches_cold_points(self, beta, N):
        # a 3 x 3 grid shares X across rows and the tail integrals across Y;
        # each value equals the one computed with every memo empty
        params = EnsembleParams(beta, N, 1.2, 0.35)
        pts = (0.7, 1.9, 3.4)
        grid = [[kernel_scaled(beta, X, Y, params) for Y in pts] for X in pts]
        assert tail_integral.cache_info().hits > 0
        for i, X in enumerate(pts):
            for j, Y in enumerate(pts):
                for f in (tail_integral, _phi, _w1_full_line):
                    f.cache_clear()
                assert kernel_scaled(beta, X, Y, params) == grid[i][j]


class TestCallCounts:
    """A kernel grid sums each 2F1 series once: a diagonal point reads
    _phi's point memo and adds only its slope's series (_phi_jet).  The
    tail integrals run one quadrature per upper limit, the w1 mass that the
    even degrees share; the beta = 4 degree is odd and runs none."""

    PTS = (0.7, 1.9, 3.1)

    def test_grid_series_once_per_point(self, monkeypatch):
        # beta = 2, N = 12: the CD kernel needs _phi at k = 0, 1 for every
        # point; the diagonal adds the slopes, 2F1(-n+1, b+1; c+1; z)
        value, slope = [], []

        def counter(calls):
            def count(n, b, c, z, ctrl=None):
                calls.append((n, b, c, complex(z)))
                return hyp2f1_terminating(n, b, c, z, ctrl)
            return count

        monkeypatch.setattr(polynomials, "hyp2f1_terminating", counter(value))
        monkeypatch.setattr(kernels, "hyp2f1_terminating", counter(slope))
        params = EnsembleParams(2, 12, 1.3, 0.4)
        for X in self.PTS:
            for Y in self.PTS:
                kernel_scaled(2, X, Y, params)
        assert len(value) == len(set(value)) == 2 * len(self.PTS)
        assert len(slope) == len(set(slope)) == 2 * len(self.PTS)
        assert set(slope) == {(n - 1, b + 1, c + 1, z) for n, b, c, z in value}

    @staticmethod
    def _count_quadratures(monkeypatch):
        calls = []

        def count(terms, a, b):
            calls.append((a, b))
            return tanh_sinh_adaptive(terms, a, b)

        monkeypatch.setattr(kernels, "tanh_sinh_adaptive", count)
        return calls

    def test_beta4_grid_runs_no_quadrature(self, monkeypatch):
        calls = self._count_quadratures(monkeypatch)
        params = EnsembleParams(4, 10, 1.3, 0.4)
        for X in self.PTS:
            for Y in self.PTS:
                kernel_scaled(4, X, Y, params)
        assert tail_integral.cache_info().misses == len(self.PTS)
        assert calls == []

    def test_odd_n_degrees_share_one_quadrature(self, monkeypatch):
        # degrees N - 1 and N - 3 are even and share the w1 mass below z(X);
        # degree N - 2 is odd and needs none
        calls = self._count_quadratures(monkeypatch)
        params = EnsembleParams(1, 9, 1.3, 0.4)
        for Y in self.PTS:
            kernel_scaled(1, 1.9, Y, params)
        assert tail_integral.cache_info().misses == 3
        assert calls == [(0.0, 1.9 / 9)]

    @pytest.mark.parametrize("beta", [2, 4])
    def test_grid_order_does_not_matter(self, beta):
        # the diagonal's slopes read the values the off-diagonal points store,
        # and the reverse: either order gives the same bits
        params = EnsembleParams(beta, 12, 1.3, 0.4)
        pairs = [(X, Y) for X in self.PTS for Y in self.PTS]
        grids = []
        for order in (sorted(pairs, key=lambda xy: xy[0] != xy[1]),
                      sorted(pairs, key=lambda xy: xy[0] == xy[1])):
            for f in (tail_integral, _phi, _h_sub):
                f.cache_clear()
            grids.append({xy: kernel_scaled(beta, *xy, params) for xy in order})
        assert grids[0] == grids[1]


@pytest.mark.parametrize("beta, N", [(2, 5), (2, 12), (2, 40), (4, 5), (4, 12), (4, 16)])
@pytest.mark.parametrize("p, q", [(1.3, 0.4), (0.6, -0.6), (2.4, 0.9)])
def test_diagonal_is_jack_density(beta, N, p, q):
    # the scaled diagonal is the density at theta = 2 pi - 2X/N, here summed
    # by the Jack series, which shares no code with the jets or the tail
    # integrals (measured worst 8e-14 at beta = 2, 2.4e-11 at beta = 4)
    pr = EnsembleParams(beta, N, p, q)
    for X in (0.2, 1.0, 2.5, 4.0):
        ref = 2 / N * rho_finite(2 * math.pi - 2 * X / N, pr)
        assert abs(kernel_scaled(beta, X, X, pr) - ref) < 1e-10 * abs(ref)


@pytest.mark.parametrize("call", [
    lambda pr: kernel_s2_scaled(-1.0, 1.0, pr[2]),  # X/N outside (0, pi)
    lambda pr: kernel_s2_scaled(1.0, 2.0, pr[1]),
    lambda pr: kernel_s1_scaled(1.0, 2.0, pr[2]),
    lambda pr: kernel_s4_scaled(1.0, 2.0, pr[2]),
    lambda pr: kernel_scaled(3, 1.0, 2.0, pr[2]),
    lambda pr: skew_constants(pr[2]),
    lambda pr: tail_integral(11, 1.0, pr[1]),  # degree beyond the size-10 system
    lambda pr: tail_integral(10, 1.0, EnsembleParams(1, 10, 0.0))])  # degree P: diverges
def test_argument_checks(call):
    with pytest.raises(ValueError):
        call({beta: EnsembleParams(beta, 10, 1.3, 0.4) for beta in (1, 2, 4)})

