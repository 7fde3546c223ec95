"""Scaled-limit kernels, confluent blocks, correction terms, and the
derivative identity, validated against the finite-N machinery."""
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv

from specsing import (ConfluentBlock, EnsembleParams, NonConvergenceError,
                      a_confluent, c_tilde, derivative_identity_residual,
                      j_blocks, k_limit, kernel_expansion, kernel_scaled, kernels, l1,
                      l2, limits)
from specsing.kernels import eta_constants
from specsing.limits import _A, _ix, _jo, _js
from specsing.series import PoleError


class TestConfluentBlocks:
    def test_a_at_origin(self):
        blk = ConfluentBlock(1.5, 0.7, 0)
        assert a_confluent(0, blk, 0.0) == 1

    def test_derivative_relation(self):
        # d/dX A(0) = 2i A(1), five-point stencil
        blk = ConfluentBlock(1.5, 0.7, 1)
        X, h = 2.0, 1e-4
        vals = [a_confluent(0, blk, X + k * h) for k in (-2, -1, 1, 2)]
        fd = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
        target = 2j * a_confluent(1, blk, X)
        assert abs(fd - target) < 1e-7 * abs(target)

    @pytest.mark.parametrize("pqkX", [(1.5, 0.7, 1, 2.0), (0.8, 0.4, 0, 1.0),
                                      (0.5, 0.0, 2, 3.0)])
    def test_contiguous_identity(self, pqkX):
        # 2iX(A1 - A2) = 2(p+k) A1 - (p+k-iq) A0
        p, q, k, X = pqkX
        pk = p + k
        A0, A1, A2 = _A(pk, q, X)[:3]
        lhs = 2j * X * (A1 - A2)
        rhs = 2 * pk * A1 - complex(pk, -q) * A0
        assert abs(lhs - rhs) < 1e-10 * (abs(lhs) + 1)

    # the worst relative error of A(0..5) over four (pk, q), measured per
    # |z| = 2X: 2.7e-16, 2.8e-15, 2.9e-13, 1.0e-9 and 4.2e-7 (the plain 1F1
    # series reached 3e-4 to 4e-3 at |z| = 32)
    @pytest.mark.parametrize("X,tol", [(0.3, 1e-14), (3.0, 1e-14), (8.0, 1e-12),
                                       (16.0, 5e-9), (20.0, 2e-6)])
    def test_family_matches_mpmath(self, X, tol):
        for pk, q in ((1.5, 0.7), (0.8, -0.4), (3.2, 1.0), (2.5, 0.0)):
            a, c = complex(pk, -q), 2 * pk
            with mpmath.workdps(40):
                refs = [complex(mpmath.rf(a, j) / mpmath.rf(c, j)
                                * mpmath.hyp1f1(a + j, c + j, 2j * X)) for j in range(6)]
            for val, ref in zip(_A(pk, q, X), refs):
                assert abs(val - ref) < tol * abs(ref), (pk, q, X)

    # orders above 5, each from the Coulomb pass of its own order, against
    # 40-digit values at 12 seeded (pk, q): measured worst 5.4e-16 up to
    # X = 2, 8.7e-13 at 8, 5.0e-9 at 16 and 2.7e-7 at 20 (the general 1F1
    # family they replace reached 1.3e-9, 1.8e-2 and 1e2 there, and 3.8e-9
    # at 1e-19, where X^16 leaves the normal range and the Taylor branch
    # takes over)
    _HIGH = ((0.0, 1e-14), (1e-19, 1e-14), (1e-8, 1e-14), (0.3, 1e-14), (2.0, 1e-14),
             (8.0, 1e-12), (16.0, 1e-8), (20.0, 1e-6))

    def test_high_orders_match_mpmath(self):
        rng = np.random.default_rng(25)
        X = np.array([x for x, _ in self._HIGH])
        with mpmath.workdps(40):
            for _ in range(12):
                pk, q = rng.uniform(0.5, 6.0), rng.uniform(-2.0, 2.0)
                blk = ConfluentBlock(pk, q, 0)
                a, c = mpmath.mpc(pk, -q), mpmath.mpf(2 * pk)
                for j in (6, 7, 9, 12, 16):
                    nodes = a_confluent(j, blk, X)
                    for (x, tol), node in zip(self._HIGH, nodes):
                        val = a_confluent(j, blk, x)
                        assert val == node
                        ref = complex(mpmath.rf(a, j) / mpmath.rf(c, j)
                                      * mpmath.hyp1f1(a + j, c + j, 2j * mpmath.mpf(x)))
                        assert abs(val - ref) < tol * abs(ref), (pk, q, j, x)
        # the joint limit pk = q = 0: every order is e^{2iX}/2
        for j in (6, 16):
            assert a_confluent(j, ConfluentBlock(0.0, 0.0, 0), 1.3) == np.exp(2.6j) / 2

    def test_orders_arrays_and_exact_branches(self):
        blk = ConfluentBlock(1.5, 0.7, 1)
        a, c = complex(2.5, -0.7), complex(5.0)
        # negative orders raise
        with pytest.raises(ValueError):
            a_confluent(-1, blk, 2.0)
        # an array is a stack of its points' families, for the blocks and C_j
        X = np.array([[0.5, 2.0], [0.0, 3.5]])
        for j in (0, 3, 5):
            vals = a_confluent(j, blk, X)
            assert vals.shape == X.shape
            assert all(vals[i] == a_confluent(j, blk, float(X[i])) for i in np.ndindex(X.shape))
        ref = c_tilde(2, 1, 1.5, 0.7, 2.0)
        assert abs(c_tilde(2, 1, 1.5, 0.7, X)[0, 1] - ref) < 1e-14 * abs(ref)
        # below |z| = 1e-20 the two-term Taylor series; the joint limit exactly
        ratio = 1.0
        for j, val in enumerate(_A(2.5, 0.7, 1e-30)):
            assert abs(val - ratio) < 1e-15 * abs(ratio)
            ratio *= (a + j) / (c + j)
        half = np.exp(4j) / 2
        assert _A(0.0, 0.0, 2.0) == (0.5 + half,) + (half,) * 5
        # a pole 2 pk = 0, on the series path and the Taylor one
        for X in (1.0, 0.0):
            with pytest.raises(PoleError):
                _A(0.0, 0.5, X)

    def test_series_budget_and_overflow(self):
        # the Coulomb pass refuses a spent term budget (2000 terms); at
        # x = 700 its terms stay finite, but the sums S_r that weigh them by
        # m (m - 1) ... overflow, and the family refuses them, after a
        # RuntimeWarning
        with pytest.raises(NonConvergenceError):
            limits._coulomb(1.5, 0.7, 1e4, 5)
        assert np.isfinite(limits._coulomb(1.5, 0.0, 700.0, 5)).all()
        with pytest.warns(RuntimeWarning), pytest.raises(NonConvergenceError):
            limits._family(1.5, 0.0, 700.0, 5)

    def test_block_validation(self):
        with pytest.raises(ValueError):
            ConfluentBlock(-1.0, 0.0, 0)


class TestCTilde:
    def test_c0_at_origin(self):
        assert c_tilde(0, 0, 1.5, 0.7, 0.0) == 1

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_c1_simplification(self, k):
        # C1 = p 2iX A(1) - p iX A(0), via the contiguous relation
        p, q, X = 1.5, 0.7, 2.0
        pk = p + k
        direct = c_tilde(1, k, p, q, X)
        A0, A1 = _A(pk, q, X)[:2]
        simpl = p * 2j * X * A1 - p * 1j * X * A0
        assert abs(direct - simpl) < 1e-10 * abs(direct)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_slopes(self, k):
        # the slope pieces of C_0, C_1 and C_2 against central differences
        # of c_tilde
        p, q, X, h = 1.3, 0.6, 2.3, 1e-5
        for order in (0, 1, 2):
            slope = (c_tilde(order, k, p, q, X + h) - c_tilde(order, k, p, q, X - h)) / (2 * h)
            assert abs(limits._c(order, k, p, q, X, 1) - slope) <= 1e-8 * abs(slope)

    def test_expansion_against_finite_N(self):
        # N^2 (P_N - C0 - C1/N) stays bounded and approaches C2
        p, q, k, X = 1.5, 0.7, 1, 2.0
        c0 = c_tilde(0, k, p, q, X)
        c1 = c_tilde(1, k, p, q, X)
        c2 = c_tilde(2, k, p, q, X)

        def prefactored(N):
            # weight-carrying prefactored polynomial (icc display)
            from specsing.kernels import _phi
            return ((-1) ** (N - k) * (N / X) ** (p + k)
                    * np.exp(complex(q * math.pi / 2, X)) * _phi(N, k, N + p, q, X))

        r2 = {}
        for N in (400, 800):
            r2[N] = (prefactored(N) - c0 - c1 / N) * N * N
        extrap = 2 * r2[800] - r2[400]
        assert abs(extrap - c2) < 5e-4 * abs(c2)


class TestJBlocks:
    def test_antisymmetry(self):
        b = j_blocks(0, 1.5, 0.7, 2.0, 0.9)
        bs = j_blocks(0, 1.5, 0.7, 0.9, 2.0)
        for key in ("J0", "J1", "J2"):
            assert b[key] == -bs[key]

    def test_j0_diagonal(self):
        b = j_blocks(1, 1.5, 0.7, 2.0, 2.0)
        assert b["J0"] == 0

    def test_q1_value(self):
        assert j_blocks(0, 1.5, 0.0, 1.0, 2.0)["Q1"] == pytest.approx(6.0)

    def test_q2_value(self):
        # (p,k) = (1,0) at X = Y = 0: (1*3*(6-1-0-1))/6 = 2
        b = j_blocks(0, 1.0, 0.0, 0.0, 0.0)
        assert b["Q2"] == pytest.approx(2.0)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_l1_needs_orders_zero_and_one(self, beta, monkeypatch):
        # l1 builds J0 and J1 without C2, from one Coulomb pass (the terms
        # behind A_0..A_5) per distinct scalar point (pk, q, X): the passes
        # are the points the family memo is asked for, the diagonal's slopes
        # included, and the J_o and J_s integrals add none (each is taken at
        # a point of the family); and it gives the same bits as the bracket
        # taken from the full sides that j_blocks builds (the diagonal point
        # runs the slope branch)
        params = EnsembleParams(beta, 100, 1.5, 0.7)
        points = [(2.0, 0.9), (0.7, 1.6), (1.3, 1.3)]
        keys, passes = set(), []
        A, coulomb = limits._A, limits._coulomb

        def record(pk, q, X):
            if not isinstance(X, np.ndarray):
                keys.add((pk, q, X))
            return A(pk, q, X)

        def count(pk, q, x, top):
            passes.append((pk, q, x))
            return coulomb(pk, q, x, top)
        monkeypatch.setattr(limits, "_A", record)
        monkeypatch.setattr(limits, "_coulomb", count)
        for cache in (A, coulomb, limits._jo, limits._js):
            cache.cache_clear()
        values = [l1(beta, X, Y, params) for X, Y in points]
        assert set(passes) == keys
        assert coulomb.cache_info().misses == A.cache_info().misses == len(keys)

        side = limits._side
        monkeypatch.setattr(limits, "_side", lambda order, *args: side(2, *args))
        assert [l1(beta, X, Y, params) for X, Y in points] == values

    @pytest.mark.parametrize("k", [0, 1])
    def test_diagonal_bracket_slopes(self, k, monkeypatch):
        # the beta = 2 blocks K, L1, L2 and E K by the midpoint form from the
        # sides' derivatives (the window widened to every gap) against their
        # quotients (the window shut) at X, Y = M +- d: the misses fall as
        # d^4, as a first-order form's would as d^2; and at X = Y the blocks
        # over their prefactor match central differences in Y of the
        # brackets, from j_blocks
        p, q, M, h = 1.5, 0.7, 1.3, 1e-5

        def at(w, f, d):
            monkeypatch.setattr(kernels, "_DIAG_W", w)
            return f(p, q, M + d, M - d, k)
        for f in (limits._k2, limits._l1_2, limits._l2_2, limits._euler_k2):
            miss = [abs(at(1.0, f, d) - at(0.0, f, d)) / abs(at(0.0, f, d))
                    for d in (2e-2, 1e-2)]
            assert miss[0] < 2e-8 and miss[0] > 12 * miss[1]
        monkeypatch.undo()
        for order in (0, 1, 2):
            def G(Y):
                b = j_blocks(k, p, q, M, Y)
                return (b["J0"], b["J1"] + b["Q1"] * b["J0"],
                        b["J2"] + b["Q1"] * b["J1"] + b["Q2"] * b["J0"])[order]
            slope = limits._beta2(order, p, q, M, M, k) / limits._pref2(p, q, k, M, M)
            ref = (G(M - h) - G(M + h)) / (2 * h)
            assert abs(slope - ref) <= 1e-8 * abs(ref)


class TestLimitKernels:
    def test_invalid_arguments(self):
        pr = EnsembleParams(2, 10, 1.5, 0.7)
        with pytest.raises(ValueError):
            c_tilde(3, 0, 1.5, 0.7, 1.0)
        for fn in (k_limit, l1):
            with pytest.raises(ValueError):
                fn(3, 2.0, 0.9, pr)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    @pytest.mark.parametrize("XY", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5), (math.nan, 1.0),
                                    (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)])
    def test_point_outside_the_domain(self, beta, XY):
        # X = 0 gave NaN (beta = 2) or ZeroDivisionError, a negative point a
        # complex value from whichever branch ran, and a NaN 2000 series terms
        pr = EnsembleParams(beta, 10, 1.5, 0.7)
        fns = [k_limit, l1, kernel_expansion, derivative_identity_residual]
        for fn in fns + ([l2] if beta != 1 else []):
            with pytest.raises(ValueError):
                fn(beta, *XY, pr)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_y_zero_gives_zero(self, beta):
        pr = EnsembleParams(beta, 10, 1.5, 0.7)
        exp = kernel_expansion(beta, 1.3, 0.0, pr)
        assert exp.K_inf == exp.L1 == 0 and exp.L2 in (0, None)
        assert derivative_identity_residual(beta, 1.3, 0.0, pr) == 0

    def test_bessel_reduction(self):
        # q = 0: (X/Y) K equals the half-integer Bessel form
        for p in (0.5, 1.5):
            pr = EnsembleParams(2, 10, p, 0.0)
            for (X, Y) in ((2.0, 0.7), (1.0, 3.0), (0.5, 1.5)):
                lhs = (X / Y) * k_limit(2, X, Y, pr)
                rhs = (math.sqrt(X * Y)
                       * (jv(p + 0.5, X) * jv(p - 0.5, Y)
                          - jv(p - 0.5, X) * jv(p + 0.5, Y)) / (2 * (X - Y)))
                assert abs(lhs - rhs) < 1e-10

    def test_sine_kernel(self):
        pr = EnsembleParams(2, 10, 0.0, 0.0)
        for (X, Y) in ((0.5, 1.5), (2.0, 0.7)):
            lhs = (X / Y) * k_limit(2, X, Y, pr)
            assert abs(lhs - math.sin(X - Y) / (math.pi * (X - Y))) < 1e-10

    def test_beta4_diagonal_finite(self):
        pr = EnsembleParams(4, 10, 0.8, 0.4)
        val = k_limit(4, 1.0, 1.0, pr)
        assert np.isfinite(val.real) and abs(val.imag) < 1e-8 * abs(val)

    def test_diagonal_continuity(self):
        pr = EnsembleParams(2, 10, 1.5, 0.7)
        d = k_limit(2, 2.0, 2.0, pr)
        o = k_limit(2, 2.0, 2.0 + 1e-4, pr)
        assert abs(d - o) < 1e-3 * abs(d)

    def test_reality(self):
        for beta in (1, 2, 4):
            pr = EnsembleParams(beta, 10, 1.5, 0.7)
            exp = kernel_expansion(beta, 2.0, 0.9, pr)
            assert exp.imag_residual() < 1e-8


@pytest.mark.parametrize("beta,pq", [(1, (1.5, 0.7)), (1, (0.8, 0.4)),
                                     (2, (1.5, 0.7)), (2, (0.8, 0.4)),
                                     (4, (1.5, 0.7)), (4, (0.8, 0.4)),
                                     (1, (2.5, -0.3)), (2, (2.5, -0.3)),
                                     (4, (2.5, -0.3))])
def test_derivative_identity(beta, pq):
    # off, on and next to the diagonal (inside its midpoint window); measured
    # worst 3.4e-16 / 7.7e-16 / 9.7e-15 at beta = 1 / 2 / 4, where five-point
    # stencils of K_inf reach 2.9e-11 / 3.7e-10 / 4.8e-9
    pr = EnsembleParams(beta, 20, *pq)
    for (X, Y) in ((2.0, 0.9), (1.0, 2.5), (0.6, 1.7), (1.3, 1.3),
                   (1.3, 1.3 + 1e-6)):
        assert derivative_identity_residual(beta, X, Y, pr) < 1e-11


@pytest.mark.parametrize("beta", [1, 2, 4])
def test_derivative_identity_at_p_zero(beta):
    # at p = q = 0, L1 is exactly 0 and so is the right side, c = p; L1's
    # rounding noise read 1.0 relative to |L1| alone.  Against |L1| + |K_inf|
    # measured worst 2.7e-12 / 3.5e-12 / 9.1e-10 at beta = 1 / 2 / 4, all at
    # (0.3, 7.0); at (5, 5.0005), inside the diagonal window, the quotient
    # that it replaces read up to 1.9e-8
    pr = EnsembleParams(beta, 20, 0.0, 0.0)
    for (X, Y) in ((2.0, 0.9), (1.0, 2.5), (1.3, 1.3), (5.0, 5.0005), (0.3, 7.0)):
        assert derivative_identity_residual(beta, X, Y, pr) < 1e-7


@pytest.mark.parametrize("beta", [1, 4])
def test_pq_constants_computed_once(beta):
    # the (p, q) constants of the beta = 1 and beta = 4 terms (eta1, eta2
    # and the J_s prefactor's log-gammas) are shared by k_limit, l1, l2 and
    # the identity's Euler term at every point
    pr = EnsembleParams(beta, 20, 1.5, 0.7)
    kernel_expansion(beta, 2.0, 0.9, pr)
    derivative_identity_residual(beta, 1.0, 2.5, pr)
    info = (eta_constants if beta == 1 else limits._js_const).cache_info()
    assert info.misses == 1 and info.hits >= 4


def _near_diagonal_misses(f, beta, X):
    """|f(X, X + d) - (f0 + d slope + d^2 curv)| / |f0| for d inside the
    window |X - Y| < 3e-3 min(1, X) (for beta = 4 at 2X), slope and
    curvature from +-1e-3 about the exact diagonal."""
    pr = EnsembleParams(beta, 10, 1.5, 0.7)
    h = 1e-3
    f0 = f(beta, X, X, pr)
    fp, fm = f(beta, X, X + h, pr), f(beta, X, X - h, pr)
    slope, curv = (fp - fm) / (2 * h), (fp + fm - 2 * f0) / (2 * h * h)
    return [abs(f(beta, X, X + d, pr) - (f0 + d * slope + d * d * curv)) / abs(f0)
            for d in (1e-6, 5e-6 * (1 + X), -9e-6 * (1 + X))]


@pytest.mark.parametrize("beta", [1, 2, 4])
@pytest.mark.parametrize("X", [0.6, 2.0])
def test_k_limit_near_diagonal(beta, X):
    # a first-order branch misses by up to 5.5e-5 (measured worst after the
    # fix 2e-9)
    assert max(_near_diagonal_misses(k_limit, beta, X)) < 1e-8


@pytest.mark.parametrize("beta", [1, 2, 4])
@pytest.mark.parametrize("X", [0.6, 2.0])
def test_l1_near_diagonal(beta, X):
    # the plain +-d average missed by up to 5.5e-5
    assert max(_near_diagonal_misses(l1, beta, X)) < 1e-8


@pytest.mark.parametrize("beta", [2, 4])
@pytest.mark.parametrize("X", [0.6, 2.0])
def test_l2_near_diagonal(beta, X):
    # a first-order branch misses by up to 5.4e-5 (measured worst 1.9e-9)
    assert max(_near_diagonal_misses(l2, beta, X)) < 1e-8


def test_integrals_share_one_node_family(monkeypatch):
    # l2 at beta = 4 integrates C_0, C_1, C_2 and the moment Ix from the one
    # Coulomb pass at (2p + 1, q, 2X), and l1 at beta = 1 C_0 and C_1 from the
    # one at (p + 2, 2q, X), points that the kernels' families use too: the
    # passes are the distinct points, and K and L1 at the same point sum no
    # more
    passes = []
    coulomb = limits._coulomb

    def count(pk, q, x, top):
        passes.append((pk, q, x))
        return coulomb(pk, q, x, top)
    monkeypatch.setattr(limits, "_coulomb", count)
    for beta, first, then, point in ((4, l2, (k_limit, l1), (2 * 1.37 + 1, 0.41, 2 * 1.3)),
                                     (1, l1, (k_limit,), (1.37 + 2, 2 * 0.41, 1.3))):
        for cache in (coulomb, limits._A, limits._jo, limits._js):
            cache.cache_clear()
        pr = EnsembleParams(beta, 100, 1.37, 0.41)
        first(beta, 1.3, 0.7, pr)
        misses = coulomb.cache_info().misses
        assert point in passes and misses == len(set(passes))
        for f in then:
            f(beta, 1.3, 0.7, pr)
        assert coulomb.cache_info().misses == misses
        passes.clear()


@pytest.mark.parametrize("beta", [1, 2, 4])
@pytest.mark.parametrize("XY", [(2.0, 0.9), (1.3, 1.3), (1.3, 1.3 + 1e-6)])
def test_identity_sums_no_pass_of_its_own(beta, XY, monkeypatch):
    # (X d/dX + Y d/dY) K_inf is read from the families and integrals that
    # k_limit and l1 sum at the same (X, Y), the diagonal's second slopes
    # included
    passes = []
    coulomb = limits._coulomb

    def count(pk, q, x, top):
        passes.append((pk, q, x))
        return coulomb(pk, q, x, top)
    monkeypatch.setattr(limits, "_coulomb", count)
    for cache in (coulomb, limits._A, limits._jo, limits._js):
        cache.cache_clear()
    pr = EnsembleParams(beta, 100, 1.37, 0.41)
    k_limit(beta, *XY, pr)
    l1(beta, *XY, pr)
    misses = coulomb.cache_info().misses
    derivative_identity_residual(beta, *XY, pr)
    assert coulomb.cache_info().misses == misses == len(set(passes))


def _oracle(g, X):
    """(int_0^X g, int_0^X |g|) by adaptive quadrature of a scalar g; the
    second sets the absolute tolerance (J_o is real: its imaginary part is
    rounding noise)."""
    def q(f, atol, rtol):
        return quad(f, 0.0, X, epsabs=atol, epsrel=rtol, limit=200)[0]

    mass = q(lambda s: abs(g(s)), 0.0, 1e-6)
    return (complex(q(lambda s: g(s).real, 1e-12 * mass, 1e-12),
                    q(lambda s: g(s).imag, 1e-12 * mass, 1e-12)), mass)


_PQ = [(0.5, 0.7), (1.5, -0.4), (2.5, 0.7), (0.0, 0.0)]


def _orders(p, top):
    # C_j = 0 for j >= 1 at p = 0, where both sides are rounding noise
    return range(top + 1) if p else (0,)


class TestLimitIntegrals:
    """J_o, J_s and the Ix moment against scalar adaptive quadrature."""

    @pytest.mark.parametrize("pq", _PQ)
    @pytest.mark.parametrize("X", [0.4, 1.7, 3.2])
    def test_j_odd(self, pq, X):
        p, q = pq
        for j in _orders(p, 1):
            ref, mass = _oracle(lambda s: math.exp(-q * math.pi) * np.exp(-1j * s)
                                * s ** (p + 1) * c_tilde(j, 2, p, 2 * q, s), X)
            assert abs(_jo(j, p, q, X) - ref) < 1e-10 * mass

    @pytest.mark.parametrize("pq", _PQ)
    @pytest.mark.parametrize("X", [0.4, 1.1, 1.8])
    def test_j_symp(self, pq, X):
        p, q = pq
        for j in _orders(p, 2):
            ref, mass = _oracle(lambda s: np.exp(-2j * s) * s ** (2 * p)
                                * c_tilde(j, 1, 2 * p, q, 2 * s), X)
            assert abs(_js(j, p, q, X) - ref) < 1e-10 * mass

        def moment(s):
            return (2 * s * s / 3) * c_tilde(0, 1, 2 * p, q, 2 * s)

        ref, mass = _oracle(lambda s: np.exp(-2j * s) * s ** (2 * p) * moment(s), X)
        assert abs(_ix(p, q, X) - ref) < 1e-10 * mass


class TestLargeX:
    # 30-digit mpmath values (p, q) = (1.5, 0.7), Y = 1; the beta = 4 bounds
    # are set by the cancellation in the 1F1 series at |z| = 4X
    @pytest.mark.parametrize("fn,beta,X,ref,tol", [
        (k_limit, 4, 6.0, -1.495604504541130e-03, 1e-7),
        (l1, 4, 6.0, -4.711814923237600e-03, 1e-6),
        (k_limit, 1, 8.0, -1.976570128463446e-05, 1e-9),
        (l1, 1, 8.0, -4.408311731052578e-04, 1e-9)])
    def test_against_mpmath(self, fn, beta, X, ref, tol):
        val = fn(beta, X, 1.0, EnsembleParams(beta, 100, 1.5, 0.7))
        assert abs(val - ref) < tol * abs(ref)

    # 30-digit mpmath values at (p, q) = (1.5, 0.7), (X, Y) = (8, 1.9), where
    # the Gauss-Jacobi rules used to raise; measured 3.3e-11 and 4.5e-10
    @pytest.mark.parametrize("fn,ref,tol", [
        (k_limit, -0.00991259398929961830920705276962, 1e-10),
        (l1, -0.0393819222948937693963244976534, 1.5e-9)])
    def test_beta4_x8_against_mpmath(self, fn, ref, tol):
        val = fn(4, 8.0, 1.9, EnsembleParams(4, 100, 1.5, 0.7))
        assert abs(val - ref) < tol * abs(ref)

    @pytest.mark.parametrize("fn,X", [(k_limit, 13.45), (l1, 11.8), (l2, 10.05)])
    def test_beta4_raises_where_the_series_check_fires(self, fn, X):
        # the smallest X on a 0.05 grid from 6 at which the rounding bound of
        # the J_s series (the terms cancel by about e^{2X}) exceeds 1e-6 of
        # its value, at Y = 1.9; just below, the values are within 7.5e-7 of
        # the mpmath ones
        with pytest.raises(NonConvergenceError):
            fn(4, X, 1.9, EnsembleParams(4, 100, 1.5, 0.7))
        fn(4, round(X - 0.05, 2), 1.9, EnsembleParams(4, 100, 1.5, 0.7))


# mpmath values at 50 digits (bench/reference.py's formulas, which share no
# code with the library) at (p, q) = (1.5, 0.7): (beta, X, Y/X - 1, K_inf, L1,
# L2) at Y = X (1 + that), the point the test passes in double precision
_SMALL_X = [
    (2, 1e-4, 1e-3, 2.74418607057427537975282170409e-15, 1.64653470392228317637954278242e-14, 3.01874304817379959874164309708e-14),
    (2, 1e-4, 1e-2, 2.80628584535890410422467097235e-15, 1.6837951967341657822185575377e-14, 3.08705656810935711243498913268e-14),
    (2, 1e-3, 1e-3, 2.74556981406771887351115121111e-12, 1.64757252047996275053122187984e-11, 3.02151069525987938670099104589e-11),
    (2, 1e-3, 1e-2, 2.80770726686068477614459736424e-12, 1.68486127208026602422189991869e-11, 3.08989957546114633314185060822e-11),
    (2, 1e-2, 1e-3, 2.75941251393995898169795931248e-9, 1.65795540658258927587605472274e-8, 3.04921187985716905491291147486e-8),
    (2, 1e-2, 1e-2, 2.82192691254894329134307970021e-9, 1.69552689457147283309569808165e-8, 3.11835506793767736307951614383e-8),
    (4, 1e-4, 1e-3, 3.14851524209305088658703394338e-28, 3.30596747598932464664936457276e-27, 1.37750321387842849864626361551e-26),
    (4, 1e-4, 1e-2, 3.38029674469643832508308525061e-28, 3.54934025393000532825862200616e-27, 1.47890993149040574257663341635e-26),
    (4, 1e-3, 1e-3, 3.15010337099501369464941307946e-22, 3.30787319789233005055526225896e-21, 1.37844812421481244647116186352e-20),
    (4, 1e-3, 1e-2, 3.38201686939649482026440674838e-22, 3.55140436773823294289716327073e-21, 1.47993337666619980001552837543e-20),
    (4, 1e-2, 1e-3, 3.16596474668434158680280372137e-16, 3.32690348885913643420213680798e-15, 1.38788290858547817135946338275e-14),
    (4, 1e-2, 1e-2, 3.39919634639810625008150350653e-16, 3.57201606663717410419853506361e-15, 1.49015215511368292138801947367e-14),
]


@pytest.mark.parametrize("beta,X,rel,K,L1,L2", _SMALL_X,
                         ids=[f"{b}-{X}-{rel}" for b, X, rel, *_ in _SMALL_X])
def test_small_x_next_to_the_diagonal(beta, X, rel, K, L1, L2):
    # an absolute diagonal window and step (1e-5 (1 + X), 1e-3 (1 + M))
    # took these points for diagonal ones and stepped past 0: off by 5e-9
    # (beta = 2, X = 1e-2) up to 90 times the value (beta = 4, X = 1e-4)
    pr = EnsembleParams(beta, 100, 1.5, 0.7)
    Y = X * (1 + rel)
    for fn, ref in ((k_limit, K), (l1, L1), (l2, L2)):
        assert abs(fn(beta, X, Y, pr) - ref) < 1e-10 * abs(ref)


# bench/reference.py's 30-digit values at (p, q) = (0.5, 0): (beta, X,
# 1 - Y/X, K_inf, L1, L2) at Y = X (1 - that), the arguments of the beta = 2
# blocks (2X at beta = 4) at most 2, and beta = 4 at X = 3, 3.1e-5, where a
# finite-difference curvature was 4.7e-8 (L1) and 8.7e-8 (L2) off
_NEAR_DIAGONAL = [
    (1, 0.01, 1e-08,
     2.61509254583469402180734948265e-2, 1.96128828308356968892451432833e-2, None),
    (1, 0.01, 3e-06,
     2.61507299824768892378975362362e-2, 1.96127362280978049685152721147e-2, None),
    (1, 0.01, 0.0001,
     2.61443889331412979549665101399e-2, 1.9607980576179632507822462581e-2, None),
    (1, 0.01, 0.0025,
     2.59877906969242243238705127408e-2, 1.9490535226655761817517083744e-2, None),
    (1, 0.01, 0.03,
     2.42335318919337176133688201044e-2, 1.81748772946138026153392566682e-2, None),
    (1, 0.5, 1e-08,
     1.80739357934139454338298633328e-1, 1.31800089836840801651390927274e-1, None),
    (1, 0.5, 3e-06,
     1.80738029361720814285878246474e-1, 1.31799140652930181649398168931e-1, None),
    (1, 0.5, 0.0001,
     1.80694931568305893199221363471e-1, 1.31768349742526556445879263328e-1, None),
    (1, 0.5, 0.0025,
     1.79630479082411894969045577007e-1, 1.31007756299908676054083130339e-1, None),
    (1, 0.5, 0.03,
     1.6769149336018054039621361537e-1, 1.2246333893781320678844520484e-1, None),
    (1, 2.0, 1e-08,
     2.93357214679804505720099120946e-1, 1.71798521315325373627298752428e-1, None),
    (1, 2.0, 3e-06,
     2.93355310188087305041765915891e-1, 1.7179754960340201150402926819e-1, None),
    (1, 2.0, 0.0001,
     2.93293527345612082263310847246e-1, 1.71766024292314398196357084341e-1, None),
    (1, 2.0, 0.0025,
     2.91765918403908760953419737366e-1, 1.70985070514357030998315784242e-1, None),
    (1, 2.0, 0.03,
     2.74414266140373783853011610119e-1, 1.61922088832990752203989645435e-1, None),
    (2, 0.01, 1e-08,
     2.499968712761196196332566961e-3, 2.49993746328280669244498367801e-3, -1.04164051589821924536858166719e-8),
    (2, 0.01, 3e-06,
     2.49995750050322439046686732393e-3, 2.49992625125842237754333481886e-3, -1.04160781351539633984492148468e-8),
    (2, 0.01, 0.0001,
     2.49959376744708238161512514867e-3, 2.49956252577933100324527534657e-3, -1.04054707057115603348257022057e-8),
    (2, 0.01, 0.0025,
     2.49059980682870493814109756176e-3, 2.49056875209685557703468621048e-3, -1.01440709703823497970980962918e-8),
    (2, 0.01, 0.03,
     2.3883190315812340341598224704e-3, 2.38829004646121049914925011833e-3, -7.29122193675939832987159194699e-9),
    (2, 0.5, 1e-08,
     1.21174078004213819049781900601e-1, 1.17427446397802115813066163836e-1, -1.22279165222751758907384109044e-3),
    (2, 0.5, 3e-06,
     1.21173545741219427034044823203e-1, 1.17426941672813244908444518453e-1, -1.222752550430888559936292976e-3),
    (2, 0.5, 0.0001,
     1.21156278696300031191617759317e-1, 1.17410567900609002695205083936e-1, -1.2214842312120001454248918472e-3),
    (2, 0.5, 0.0025,
     1.20729269244274505684932100367e-1, 1.17005597911486308212751873087e-1, -1.19022695554838326886950801424e-3),
    (2, 0.5, 0.03,
     1.15866503969305831416534184939e-1, 1.12386999413464426116461324747e-1, -8.48844204402570212429291485524e-4),
    (2, 2.0, 1e-08,
     3.18176898082711793964864666083e-1, 1.91369291225854154627754140333e-1, -2.77176207273644909153109876932e-2),
    (2, 2.0, 3e-06,
     3.18175850212154833295525392039e-1, 1.91368930185228799935441839901e-1, -2.7716246483090156897779543813e-2),
    (2, 2.0, 0.0001,
     3.1814185369679773378804301239e-1, 1.9135721367369073907227283411e-1, -2.7671669689286619735082268261e-2),
    (2, 2.0, 0.0025,
     3.17299438190589238170755099441e-1, 1.91064963442214723004393703539e-1, -2.65722709117937657478465303433e-2),
    (2, 2.0, 0.03,
     3.07479145982573380807226647396e-1, 1.87400477064327520848685776926e-1, -1.44633215868542179345374727079e-2),
    (4, 0.005, 1e-08,
     5.30513803176415330749450931853e-6, 7.95768052195028603506989181078e-6, 2.65253806927979723305549397565e-6),
    (4, 0.005, 3e-06,
     5.30507458270810821366273275084e-6, 7.95758534884208507183285109373e-6, 2.65250634557132061101919769298e-6),
    (4, 0.005, 0.0001,
     5.3030164592203559691288210638e-6, 7.95449817904441343916012993676e-6, 2.65147731040636020017245824125e-6),
    (4, 0.005, 0.0025,
     5.25225261229209587129284606875e-6, 7.87835278814694064161695973145e-6, 2.62609603941788448448845776176e-6),
    (4, 0.005, 0.03,
     4.69210966472952353182160122579e-6, 7.03814240194482492557975370344e-6, 2.34603136558740019002832629042e-6),
    (4, 0.25, 1e-08,
     1.30981084097299824269740656673e-2, 1.94833396246118256742605805609e-2, 6.3585784492831181707314543571e-3),
    (4, 0.25, 3e-06,
     1.30979527365834078134326155289e-2, 1.94831090421746637647618534979e-2, 6.35850564412447348764787712002e-3),
    (4, 0.25, 0.0001,
     1.30929030899348250585650737018e-2, 1.94756295139755042640091073593e-2, 6.35614399627170564945269941568e-3),
    (4, 0.25, 0.0025,
     1.29683456877266113952899432384e-2, 1.92911279609534883488042296545e-2, 6.29787121159776553481043514422e-3),
    (4, 0.25, 0.03,
     1.15930049921966978690248510634e-2, 1.72529514599247448094289585837e-2, 5.65197159616456158017820625702e-3),
    (4, 1.0, 1e-08,
     1.73590699720100016200689480579e-1, 2.25386761778309062603629627256e-1, 4.82397268916410962748292716135e-2),
    (4, 1.0, 3e-06,
     1.73588832875761533480308123943e-1, 2.25384548547913099226498076039e-1, 4.82397722215596554143476793994e-2),
    (4, 1.0, 0.0001,
     1.7352827481958631362460114119e-1, 2.2531275152625248132838736268e-1, 4.82412363475779033639387550657e-2),
    (4, 1.0, 0.0025,
     1.72033098861067004400380444673e-1, 2.23538461297977416545544640821e-1, 4.82734977348252303266466370617e-2),
    (4, 1.0, 0.03,
     1.55340724791319466688178058517e-1, 2.03519730587502001266848523888e-1, 4.81265227112579286544833175423e-2),
    (4, 3.0, 3.1e-05,
     3.33122616518426540274708992768e-1, 6.34697360769834097136868162898e-3, -4.44326835060697157075780503742e-2),
]


@pytest.mark.parametrize("beta,X,gap,K,L1,L2", _NEAR_DIAGONAL,
                         ids=[f"{b}-{X}-{g}" for b, X, g, *_ in _NEAR_DIAGONAL])
def test_limits_near_diagonal_against_30_digits(beta, X, gap, K, L1, L2):
    # gaps on both sides of the window |X - Y| < 3e-3 min(1, X) (measured
    # worst 2.3e-11, where a window of 3e-5 X with a curvature from M +- 1e-3
    # M was up to 8.7e-8 off).  Not at X = 1e-3: there beta = 2 L2's
    # quotient, outside the window, is up to 9e-10 off at gaps near 1e-2, as
    # its bracket cancels at small X
    pr = EnsembleParams(beta, 10, 0.5, 0.0)
    Y = X * (1 - gap)
    for fn, ref in ((k_limit, K), (l1, L1), (l2, L2)):
        if ref is not None:
            assert abs(fn(beta, X, Y, pr) - ref) < 1e-10 * abs(ref)


@pytest.mark.parametrize("beta", [1, 2, 4])
def test_diagonal_sums_only_the_passes_at_the_point(beta, monkeypatch):
    # on the diagonal k_limit, l1 and l2 read the sides and their first
    # slopes from the families at the point itself: two Coulomb passes (the
    # blocks k and k + 1), which the integral terms share, where quotients
    # at M +- 1e-3 M added four
    passes = []
    coulomb = limits._coulomb

    def count(pk, q, x, top):
        passes.append((pk, q, x))
        return coulomb(pk, q, x, top)
    monkeypatch.setattr(limits, "_coulomb", count)
    for cache in (coulomb, limits._A, limits._jo, limits._js):
        cache.cache_clear()
    p, q = 1.37, 0.41
    pr = EnsembleParams(beta, 100, p, q)
    for fn in (k_limit, l1, l2)[:2 if beta == 1 else 3]:
        fn(beta, 1.3, 1.3, pr)
    pk, qe, x = {1: (p + 1, 2 * q, 1.3), 2: (p, q, 1.3), 4: (2 * p, q, 2.6)}[beta]
    assert set(passes) == {(pk, qe, x), (pk + 1, qe, x)}
    assert coulomb.cache_info().misses == 2


class TestFiniteNConsistency:
    """N [scaled S_N - K] approaches L1 for every beta."""

    @pytest.mark.parametrize("beta,N0,pq", [(2, 200, (1.5, 0.7)),
                                            (1, 100, (1.5, 0.7)),
                                            (4, 100, (0.8, 0.4))])
    def test_l1_richardson(self, beta, N0, pq):
        X, Y = 2.0, 0.9
        pr = EnsembleParams(beta, N0, *pq)
        K = k_limit(beta, X, Y, pr)
        L1 = l1(beta, X, Y, pr)
        r = {}
        for N in (N0, 2 * N0):
            s = kernel_scaled(beta, X, Y, EnsembleParams(beta, N, *pq))
            r[N] = (s - K) * N
        extrap = 2 * r[2 * N0] - r[N0]
        assert abs(extrap - L1) < 2e-3 * abs(L1)

    @pytest.mark.parametrize("beta", [2, 4])
    def test_l2_richardson(self, beta):
        X, Y = 2.0, 0.9
        p, q = (1.5, 0.7) if beta == 2 else (0.8, 0.4)
        pr = EnsembleParams(beta, 100, p, q)
        K = k_limit(beta, X, Y, pr)
        L1v = l1(beta, X, Y, pr)
        L2v = l2(beta, X, Y, pr)
        r = {}
        for N in (100, 200):
            s = kernel_scaled(beta, X, Y, EnsembleParams(beta, N, p, q))
            r[N] = (s - K - L1v / N) * N * N
        extrap = 2 * r[200] - r[100]
        assert abs(extrap - L2v) < 5e-3 * abs(L2v)

    def test_l2_beta1_unavailable(self):
        with pytest.raises(ValueError):
            l2(1, 2.0, 0.9, EnsembleParams(1, 10, 1.5, 0.7))
