"""Finite-N correlation kernels of the circular Jacobi ensembles.

The computational core works in the scaled variable X (z(X) = -cot(X/N));
all weight/polynomial products are assembled from log-safe factors so that
matrix sizes in the thousands remain stable.  Unscaled line kernels are
obtained from the scaled ones through the coordinate map.

beta = 1 (N even and odd) and beta = 4 kernels follow the skew-orthogonal
reduction to the beta = 2 Christoffel-Darboux kernel plus one-dimensional
integral terms.  The tail integrals are closed forms by the Pearson
reduction of the weight w1 (Adler, Forrester, Nagao and van Moerbeke,
J. Stat. Phys. 99 (2000) 141): a boundary term, one series pass that
raises NonConvergenceError where its rounding bound exceeds
1e-6 |value| + 1e-8 (in the bulk, where the series cancels), plus for
even degrees a multiple of the w1 mass below z(X), one adaptive tanh-sinh
quadrature of an elementary positive integrand.  The full-line integrals
(the s~ constants) are closed forms too.

Each finite-N quantity is computed once per parameter set: the tail
integrals, the w1 masses and the closed forms behind the s~ constants are
memoised whole, and _phi per point.  The near-diagonal rule (_over_diff)
reads _phi's derivatives, closed forms (_phi_jet) that take its value from
that memo and sum only their own series.  A kernel grid thus evaluates each
tail integral once per X and each _phi once per point, on the diagonal too.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .polynomials import EnsembleParams, _rr_args, rr_norm, rr_scaled_raw
from .quadrature import tanh_sinh_adaptive
from .series import _TINY, DEFAULT_CONTROL, NonConvergenceError, hyp2f1_terminating, log_gamma

_DIAG_W = 3e-3


def _over_diff(X: float, Y: float, jets, pair=lambda f, g: f[0] * g[1] - g[0] * f[1]):
    """G(X, Y)/(X - Y) for G(X, Y) = pair(f(X), f(Y)) antisymmetric and
    bilinear in the sides f (by default (a, b): a(X) b(Y) - a(Y) b(X)): None
    where |X - Y| >= _DIAG_W min(1, X), left to the caller's quotient; else
    pair(f', f) + d^2 [pair(f''', f)/6 + pair(f', f'')/2], error O(d^4), from
    jets(M, top) = [f, f', ...] at M = (X + Y)/2, d = (X - Y)/2, top 1 at d =
    0.  The quotient loses eps s/|X - Y|, the form (d/s)^4, s the scale of G:
    X near 0 (powers of X), 1 beyond (e^{iX})."""
    if abs(X - Y) >= _DIAG_W * min(1.0, X):
        return None
    M, d = 0.5 * (X + Y), 0.5 * (X - Y)
    f = jets(M, 3 if d else 1)
    curv = d * d * (pair(f[3], f[0]) / 6 + pair(f[1], f[2]) / 2) if d else 0.0
    return pair(f[1], f[0]) + curv


def _prefactor(N: int, k: int, P: float, Q: float, X: float) -> complex:
    """(-1)^(N-k) (sin(X/N))^(p+k) e^{-iX} e^{(ik+Q)X/N} e^{-Q pi/2},  p = P - N."""
    p = P - N
    u = X / N
    sign = -1.0 if (N - k) % 2 else 1.0
    return sign * cmath.exp((p + k) * math.log(math.sin(u)) + Q * (u - math.pi / 2)
                            + 1j * (k * u - X))


# the CD, rank-one and sgn terms of a kernel grid share their points
@lru_cache(maxsize=4096)
def _phi(N: int, k: int, P: float, Q: float, X: float) -> complex:
    """omega2(z(X))^{1/2} I_{N-k}(z(X)) in stable pieces: the prefactor times

    F_k(X) = 2F1(-N+k, p+k-iQ; 2p+2k; 1-e^{2iX/N}),   p = P - N,

    which is rr_scaled_raw.
    """
    return _prefactor(N, k, P, Q, X) * rr_scaled_raw(N, k, X, P, Q)


def _phi_jet(N: int, k: int, P: float, Q: float, X: float, top: int) -> tuple:
    """_phi (from its memo) and its X-derivatives to order top, 1 or 3: _phi =
    e^g F, g' = ((p+k) cot u + Q + ik)/N - i, u = X/N, p = P - N; F's
    z-derivatives (-n)_m (b)_m/(c)_m 2F1(-n+m, b+m; c+m; z) (DLMF 15.5.1; b/c
    -> 1/2 at b = c = 0) with z' = (2i/N)(z - 1), z'' = (2i/N) z', ..."""
    n, b, c, z = _rr_args(N, k, X, P, Q)
    F, coef = [0.0] * 3, 1.0
    for m in range(1, top + 1):
        coef *= (m - 1 - n) * (0.5 if m == 1 and b == c == 0 else (b + m - 1) / (c + m - 1))
        F[m - 1] = coef * hyp2f1_terminating(max(n - m, 0), b + m, c + m, z)
    kappa, u, pk = 2j / N, X / N, P - N + k
    w, g = kappa * (z - 1), (pk / math.tan(u) + Q + 1j * k) / N - 1j
    phi, pref = _phi(N, k, P, Q, X), _prefactor(N, k, P, Q, X)
    if top == 1:  # the exact diagonal
        return phi, phi * g + pref * w * F[0]
    s = N * math.sin(u)
    D = (w * F[0], w * (w * F[1] + kappa * F[0]),  # the X-derivatives of F
         w * (w * (w * F[2] + 3 * kappa * F[1]) + kappa * kappa * F[0]))
    B = (g, g * g - pk / (s * s))  # e^-g (e^g)^(r)
    B += (g * (3 * B[1] - 2 * g * g) + 2 * pk * math.cos(u) / s ** 3,)
    return (phi, phi * B[0] + pref * D[0], phi * B[1] + pref * (D[1] + 2 * B[0] * D[0]),
            phi * B[2] + pref * (D[2] + 3 * (B[0] * D[1] + B[1] * D[0])))


@lru_cache(maxsize=4096)
def _h_sub(n: int, P: float, Q: float) -> float:
    return rr_norm(n, complex(-P, Q))


def _gamma(j: int, P: float, Q: float) -> float:
    """gamma_j = (P - 1 - j)/h_j of the (P, Q) system."""
    return (P - 1 - j) / _h_sub(j, P, Q)


def _cd_scaled(N: int, k: int, P: float, Q: float, X: float, Y: float) -> complex:
    """S_{N-k,2}(z(X), z(Y)) dz/dX with z scaled by N and weight (P, Q)."""
    uX, uY = X / N, Y / N
    if not (0 < uX < math.pi and 0 < uY < math.pi):
        raise ValueError("X/N and Y/N must lie in (0, pi)")
    h, delta = _h_sub(N - k - 1, P, Q), (X - Y) / N
    near = _over_diff(X, Y, lambda M, top: list(zip(
        _phi_jet(N, k, P, Q, M, top), _phi_jet(N, k + 1, P, Q, M, top))))
    if near is not None:  # times (X - Y)/(z(X) - z(Y)) dz/dX / h, not symmetric
        return math.sin(uY) / math.sin(uX) * (delta / math.sin(delta) if delta else 1.0) / h * near
    num = (_phi(N, k, P, Q, X) * _phi(N, k + 1, P, Q, Y)
           - _phi(N, k, P, Q, Y) * _phi(N, k + 1, P, Q, X))
    dx = math.sin(delta) / (math.sin(uX) * math.sin(uY))  # z(X) - z(Y)
    return num / dx / h * _dz_dX(X, N)


def _to_scaled(x: float, N: int) -> float:
    """Inverse of z(X) = -cot(X/N): X = N (pi/2 + arctan x)."""
    return N * (math.pi / 2 + math.atan(x))


def _dz_dX(X: float, N: int) -> float:
    return 1.0 / (N * math.sin(X / N) ** 2)


# --- beta = 2 ---------------------------------------------------------------

def kernel_s2_scaled(X: float, Y: float, params: EnsembleParams) -> float:
    """S_{N,2}(z(X), z(Y)) dz/dX; real for real arguments."""
    if params.beta != 2:
        raise ValueError("kernel_s2_scaled requires beta=2 params")
    P, Q = params.weight_params()
    val = _cd_scaled(params.size, 0, P, Q, X, Y)
    return float(val.real)


def kernel_s2(x: float, y: float, params: EnsembleParams) -> float:
    """Christoffel-Darboux kernel S_{N,2}(x, y) on the real line."""
    N = params.size
    X, Y = _to_scaled(x, N), _to_scaled(y, N)
    return kernel_s2_scaled(X, Y, params) / _dz_dX(X, N)


def correlation_det(points, params: EnsembleParams) -> float:
    """k-point correlation det[S_{N,2}(x_m, x_n)]."""
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise ValueError("correlation points must be distinct")
    mat = np.array([[kernel_s2(a, b, params) for b in pts] for a in pts])
    return float(np.linalg.det(mat))


# --- skew constants ----------------------------------------------------------

@dataclass(frozen=True)
class SkewConstants:
    """Scalar constants entering the beta = 1, 4 kernels.

    gamma_j = (P - 1 - j)/h_j (`_gamma`) with the beta-specific weight parameters;
    eta1, eta2 are the beta = 1 limit constants; s_tilde_k = (1/2) int w1 I_k
    (filled only when needed, i.e. for odd N at beta = 1).
    """
    gamma: dict = field(default_factory=dict)
    eta1: float = 0.0
    eta2: float = 0.0
    s_tilde: dict = field(default_factory=dict)


@lru_cache(maxsize=256)  # k_limit, l1 and the Euler term at one (p, q) share them
def eta_constants(p: float, q: float) -> tuple[float, float]:
    """(eta1, eta2) for the beta = 1 scaled-limit kernel.

    eta1 = 2 sqrt(pi) G(p+2) G(p+5/2) / |G((p+3)/2 + iq)|^2
    eta2 = -(p+1) e^{-q pi} 2^(2p+2) |G(p+2-2iq)|^2 / (pi G(2p+4) G(2p+3))
    (the last gamma validated against the finite-N kernel).
    """
    g = log_gamma(complex((p + 3) / 2, q))
    eta1 = 2 * math.sqrt(math.pi) * math.exp(
        (log_gamma(p + 2) + log_gamma(p + 2.5) - 2 * g.real).real)
    g2 = log_gamma(complex(p + 2, -2 * q))
    eta2 = -(p + 1) * math.exp(
        -q * math.pi + (2 * p + 2) * math.log(2) + 2 * g2.real
        - math.log(math.pi) - log_gamma(2 * p + 4).real - log_gamma(2 * p + 3).real)
    return eta1, eta2


def _s_tilde(N: int, k_shift: int, P: float, Q: float) -> float:
    """(1/2) int_{-inf}^{inf} w1(t) I_{N-k_shift}(t) dt, in closed form."""
    return 0.5 * _w1_full_line(N - k_shift, P, Q)


def skew_constants(params: EnsembleParams) -> SkewConstants:
    P, Q = params.weight_params()
    N, p = params.size, params.p
    if params.beta == 1:
        gam = {j: _gamma(j, P, Q) for j in (N - 2, N - 3) if j >= 0}
        eta1, eta2 = eta_constants(p, params.q)
        st = {}
        if N % 2:
            st = {N - 1 - j: _s_tilde(N, 1 + j, P, Q) for j in range(3)}
        return SkewConstants(gamma=gam, eta1=eta1, eta2=eta2, s_tilde=st)
    if params.beta == 4:
        return SkewConstants(gamma={2 * N - 1: _gamma(2 * N - 1, P, Q)})
    raise ValueError("skew constants exist for beta in {1, 4}")


# --- integral terms ----------------------------------------------------------

# a kernel grid repeats each X for every Y
@lru_cache(maxsize=1024)
def tail_integral(degree: int, upper_X: float, params: EnsembleParams) -> complex:
    """int_{-inf}^{z(upper_X)} I_degree(t) w1(t) dt in closed form.

    w1 is the beta-specific square-root weight; degrees are taken in the
    polynomial system of the params (size N for beta=1, 2N for beta=4).

    With t = -cot v, w1 dt = omega(v) dv, omega = sin^{P-1} v e^{Q(v - pi/2)},
    and d/dv [omega g] = omega L[g], L = d/dv + (P-1) cot v + Q.  So
    I_n = L[g_n] + c_n, g_n of degree n - 1, gives (u = upper_X/N)

        tail = omega(u) g_n(u) + c_n W(u),   W(u) = int_0^u omega dv,

    c_n the ratio of the full-line integrals of I_n w1 and w1 (0 for odd
    n).  In rr_scaled_raw's variable w = 1 - e^{2iu}, with f_j the
    coefficients of 2F1(-n, b; c; w), g_n = G(w) (2i/w)^(n-1),
    G = sum_{j<n} gamma_j w^j, and

        gamma_j = ((Q + i(2j + P - 2n - 1)) gamma_{j-1} - 2i f_j) / (2i(j + P - n)),

    gamma_{-1} = 0.  One pass sums the terms f_j w^j and gamma_j w^j to the
    series' stop rule; where eps sum |gamma_j w^j|, the rounding bound of G
    (in the bulk, where the terms cancel), exceeds 1e-6 |tail| + 1e-8 it
    raises NonConvergenceError.  ValueError unless the integral converges
    (degree < P).
    """
    N = params.size
    P, Q = params.weight_params()
    M = 2 * N if params.beta == 4 else N
    if degree > M:
        raise ValueError("degree exceeds the polynomial system size")
    n, r = degree, P - degree
    if r <= 0:
        raise ValueError(f"int I_n w1 diverges: need degree < P, got {n} >= {P}")
    if upper_X <= 0:
        return 0.0 + 0.0j
    if upper_X >= N * math.pi:
        raise ValueError("upper_X/N must lie in (0, pi)")
    u = upper_X / N
    w = 1 - cmath.exp(2j * u)
    b, tol = complex(r, -Q), DEFAULT_CONTROL.rel_tol
    f = F = 1.0 + 0.0j
    g = G = 0.0j
    mass = 0.0
    for j in range(n):
        if j:
            f *= (j - 1 - n) * (b + j - 1) / ((2 * r + j - 1) * j) * w
            F += f
        g = ((j + (r - n - 1) / 2 - 0.5j * Q) * w * g - f) / (j + r)
        G += g
        mass += abs(g)
        if abs(f) < tol * abs(F) + _TINY and abs(g) < tol * abs(G) + _TINY:
            break
    # omega(u) (2i/w)^(n-1), with 2i/w = -e^{-iu}/sin u
    scale = (-1) ** (n - 1) * cmath.exp((P - n) * math.log(math.sin(u))
                                        + Q * (u - math.pi / 2) - 1j * (n - 1) * u)
    value = scale * G
    c = _w1_full_line(n, P, Q)
    if c:
        value += c / _w1_full_line(0, P, Q) * _w1_mass(P, Q, u)
    bound = np.finfo(float).eps * mass * abs(scale)
    if not bound <= 1e-6 * abs(value) + 1e-8:
        raise NonConvergenceError(
            f"tail integral rounding bound {bound:.1e} at degree {n}, u = {u}")
    return value


@lru_cache(maxsize=1024)  # the even degrees at one upper limit share it
def _w1_mass(P: float, Q: float, u: float) -> float:
    """W(u) = int_0^u sin^{P-1} v e^{Q(v - pi/2)} dv, the w1 mass of
    (-inf, -cot u), by adaptive tanh-sinh quadrature."""
    def terms(rule):
        v = rule.nodes
        return np.exp((P - 1) * np.log(np.sin(v)) + Q * (v - math.pi / 2)) * rule.weights
    return float(tanh_sinh_adaptive(terms, 0.0, u))


@lru_cache(maxsize=1024)
def _w1_full_line(n: int, P: float, Q: float) -> float:
    """int_{-inf}^{inf} I_n(t) w1(t) dt for the (P, Q) system, in closed form.

    Zero for odd n; for even n, with r = P - n,

        G(r/2) G(r+1/2) G((r+1)/2) G((n+1)/2)
            / (|G((r+1)/2 + iQ/2)|^2 G((2P-n+1)/2)).

    (Term by term a sum of Cauchy beta integrals; n = 0 is the w1 mass.)
    """
    if n % 2:
        return 0.0
    r = P - n
    num = (log_gamma(r / 2) + log_gamma(r + 0.5) + log_gamma((r + 1) / 2)
           - 2 * log_gamma(complex((r + 1) / 2, Q / 2)).real
           + log_gamma((n + 1) / 2) - log_gamma((2 * P - n + 1) / 2))
    return math.exp(num.real)


# --- beta = 1 ----------------------------------------------------------------

def kernel_s1_scaled(X: float, Y: float, params: EnsembleParams) -> float:
    """S_{N,1}(z(X), z(Y)) dz/dX, by the even- or odd-N formula as N is."""
    if params.beta != 1:
        raise ValueError("kernel_s1_scaled requires beta=1 params")
    N = params.size
    if N % 2 == 0:
        return float(_s1_core(N, 1, params, X, Y)[0].real)
    return _s1_odd_scaled(N, params, X, Y)


def _sgn_integral(N: int, shift: int, X: float, params: EnsembleParams) -> complex:
    """int sgn(z(X) - t) I_{N-shift}(t) w1(t) dt = 2 tail - 2 s~."""
    P, Q = params.weight_params()
    return 2 * tail_integral(N - shift, X, params) - 2 * _s_tilde(N, shift, P, Q)


def _s1_core(N: int, k: int, params: EnsembleParams, X: float,
             Y: float) -> tuple[complex, complex]:
    """The even-N formula on the degree-(N-k) CD kernel of the (N+p, 2q)
    weight: k = 1 is the even-N kernel, k = 2 part 1 of the odd-N one.

    Returns the term and w1(y) I_{N-k}(y), which the odd-N kernel reuses.
    """
    P, Q = params.weight_params()
    uX, uY = X / N, Y / N
    t1 = math.sin(uY) / math.sin(uX) * _cd_scaled(N, k, P, Q, X, Y)
    w1poly_y = math.sin(uY) * _phi(N, k, P, Q, Y)
    t2 = (0.5 * _gamma(N - 1 - k, P, Q) * w1poly_y * _sgn_integral(N, k + 1, X, params)
          * _dz_dX(X, N))
    return t1 + t2, w1poly_y


def _s1_odd_scaled(N: int, params: EnsembleParams, X: float, Y: float) -> float:
    """Odd-N kernel: the even formula at N-1 (same weight) plus the
    rank-one and paired sgn-integral corrections with s~ constants."""
    P, Q = params.weight_params()
    dz = _dz_dX(X, N)
    part1, w1poly_y2 = _s1_core(N, 2, params, X, Y)

    # part 2: rank-one term
    st1 = _s_tilde(N, 1, P, Q)
    w1poly_y1 = math.sin(Y / N) * _phi(N, 1, P, Q, Y)
    part2 = w1poly_y1 / (2 * st1) * dz

    # part 3: paired sgn-integral correction
    pair = (_sgn_integral(N, 1, X, params) * w1poly_y2
            - _sgn_integral(N, 2, X, params) * w1poly_y1)
    part3 = -0.5 * _gamma(N - 3, P, Q) * _s_tilde(N, 3, P, Q) / st1 * pair * dz
    return float((part1 + part2 + part3).real)


def kernel_s1(x: float, y: float, params: EnsembleParams) -> float:
    """S_{N,1}(x, y) on the real line (N even or odd)."""
    N = params.size
    X, Y = _to_scaled(x, N), _to_scaled(y, N)
    return kernel_s1_scaled(X, Y, params) / _dz_dX(X, N)


# --- beta = 4 ----------------------------------------------------------------

def kernel_s4_scaled(X: float, Y: float, params: EnsembleParams) -> float:
    """S_{N,4}(z(X), z(Y)) dz/dX."""
    if params.beta != 4:
        raise ValueError("kernel_s4_scaled requires beta=4 params")
    N = params.size
    P, Q = params.weight_params()
    M = 2 * N
    uX, uY = X / N, Y / N
    # first term: (1/2) sqrt((1+x^2)/(1+y^2)) S_{2N,2}(x,y) dz/dX, polynomials
    # living in the M = 2N system with scaled argument 2X (whose dz/dX is half
    # the N-scaled one, which supplies the 1/2)
    t1 = math.sin(uY) / math.sin(uX) * _cd_scaled(M, 0, P, Q, 2 * X, 2 * Y)

    # second term: the tail integral over (z(X), inf) equals minus the lower
    # tail (the full-line integral of I_{2N-1} w1 vanishes)
    w1poly_y = math.sin(uY) * _phi(M, 0, P, Q, 2 * Y)
    tail_up = -tail_integral(M - 1, X, params)
    t2 = -0.5 * _gamma(M - 1, P, Q) * w1poly_y * tail_up * _dz_dX(X, N)
    return float((t1 + t2).real)


def kernel_s4(x: float, y: float, params: EnsembleParams) -> float:
    """S_{N,4}(x, y) on the real line."""
    N = params.size
    X, Y = _to_scaled(x, N), _to_scaled(y, N)
    return kernel_s4_scaled(X, Y, params) / _dz_dX(X, N)


def kernel_scaled(beta: int, X: float, Y: float, params: EnsembleParams) -> float:
    """Dispatch: S_{N,beta}(z(X), z(Y)) dz/dX."""
    if beta == 2:
        return kernel_s2_scaled(X, Y, params)
    if beta == 1:
        return kernel_s1_scaled(X, Y, params)
    if beta == 4:
        return kernel_s4_scaled(X, Y, params)
    raise ValueError("beta must be 1, 2 or 4")
