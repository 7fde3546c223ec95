"""Scaled-limit kernels, confluent blocks, correction terms, and the
derivative identity, validated against the finite-N machinery."""
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv

from specsing import (ConfluentBlock, EnsembleParams, NonConvergenceError,
                      a_confluent, c_tilde, derivative_identity_residual,
                      j_blocks, k_limit, kernel_expansion, kernel_s1_scaled,
                      kernel_s2_scaled, kernel_s4_scaled, kernel_scaled, l1, l2)
from specsing.limits import _A, _jo, _js, j_symp_raw
from specsing.polynomials import rr_scaled_raw


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
        A0, A1, A2 = (_A(pk, q, j, X) for j in (0, 1, 2))
        lhs = 2j * X * (A1 - A2)
        rhs = 2 * pk * A1 - complex(pk, -q) * A0
        assert abs(lhs - rhs) < 1e-10 * (abs(lhs) + 1)

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
        simpl = p * 2j * X * _A(pk, q, 1, X) - p * 1j * X * _A(pk, q, 0, X)
        assert abs(direct - simpl) < 1e-10 * abs(direct)

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


class TestLimitKernels:
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
                                     (4, (1.5, 0.7)), (4, (0.8, 0.4))])
def test_derivative_identity(beta, pq):
    pr = EnsembleParams(beta, 20, *pq)
    for (X, Y) in ((2.0, 0.9), (1.0, 2.5)):
        assert derivative_identity_residual(beta, X, Y, pr) < 1e-6


def test_identity_stencil_order():
    # residual drops like h^4 when the stencil step is halved
    pr = EnsembleParams(2, 10, 1.5, 0.7)
    rs = {h: derivative_identity_residual(2, 2.0, 0.9, pr, h=h)
          for h in (2e-2, 1e-2)}
    assert rs[1e-2] < rs[2e-2] / 8


def _near_diagonal_misses(f, beta, X):
    """|f(X, X + d) - (f0 + d slope + d^2 curv)| / |f0| for d inside the
    window |X - Y| < 1e-5 (1 + X) (for beta = 4 at 2X), slope and curvature
    from +-1e-3 about the exact diagonal."""
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
        assert abs(j_symp_raw(moment, X, p) - ref) < 1e-10 * mass


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

    def test_beta4_x8_raises(self):
        with pytest.raises(NonConvergenceError):
            k_limit(4, 8.0, 1.9, EnsembleParams(4, 100, 1.5, 0.7))


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
