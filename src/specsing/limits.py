"""Scaled-limit kernels at the spectrum singularity and their 1/N, 1/N^2
correction terms, built from confluent hypergeometric blocks.

Conventions (validated against finite-N Richardson oracles; see the test
suite):

  A(j; X)       = ((pk - iq)_j / (2 pk)_j) 1F1(pk + j - iq; 2 pk + j; 2iX)
  C0(X)         = A(0; X)
  C1(X)         = (2iX)^2 (A1 - A2)/2 - k (2iX) A1 + (ik + q) X C0
  C2(X)         = (2iX)^4 (A2 - 2 A3 + A4)/8
                  + (2iX)^3 (A1 - 3(k+1) A2 + (3k+2) A3)/6
                  + (2iX)^2 (-2k A1 + 2k(k+1) A2)/4
                  + (ik + q) X C1 - ((ik+q)^2/2 + (p+k)/6) X^2 C0

  beta = 2:  K = h e^{-i(X+Y) - q pi} (XY)^(p+k+1)/(X^2 (X-Y)) J0
             L1 = same prefactor * (J1 + Q1 J0)
             L2 = same prefactor * (J2 + Q1 J1 + (Q2 + X^2/3) J0)

  beta = 1 (q_eff = 2q):
             K  = (Y/X) K2^{(p,2q;1)}(X,Y)
                  + (eta2/X^2) e^{-iY} Y^(p+2) C0^{(p,2q,1)}(Y) (Jo[C0^{(p,2q,2)}] - eta1/2)
             L1 = (Y/X) L1_2^{(p,2q;1)}(X,Y) + (eta2/X^2) e^{-iY} Y^(p+2) *
                  { C1^{(p,2q,1)}(Y) (Jo[C0^2] - eta1/2)
                    + C0^{(p,2q,1)}(Y) (Jo[C1^2] + p(2p+3) Jo[C0^2] - p(p+1) eta1/2) }

  beta = 4 (q_eff = q, pe = 2p):
             K  = (Y/X) K2^{(2p,q;0)}(2X,2Y) - (2/X^2) Js[C0(2Y) C0^1(2s)]
             L1 = (Y/(2X)) L1_2^{(2p,q;0)}(2X,2Y)
                  - (1/X^2) Js[C1(2Y) C0^1(2s) + C0(2Y) C1^1(2s) + 2p(4p+1) C0 C0]
             with Js prefactor p 2^(8p) |G(2p+1-iq)|^2 / (pi G(4p+1) G(4p+2)).

The derivative identity L1 = p (X d/dX + Y d/dY + 1) K holds with the same
constant p for all three beta (checked numerically to full precision).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kernels import eta_constants
from .polynomials import EnsembleParams
from .quadrature import gauss_jacobi_integrate
from .series import hyp1f1, log_gamma, pochhammer

_DIAG_EPS = 1e-5


@dataclass(frozen=True)
class ConfluentBlock:
    """Parameters of the confluent building blocks A(j; X)."""
    p: float
    q_eff: float
    k: int = 0

    def __post_init__(self):
        if self.p + self.k <= 0 and not (self.p + self.k == 0 and self.q_eff == 0):
            raise ValueError("need p + k > 0 (or the circular limit p + k = q = 0)")


@dataclass(frozen=True)
class KernelExpansion:
    """(K_inf, L1, L2) of the limiting kernel and corrections at (X, Y)."""
    K_inf: complex
    L1: complex
    L2: complex | None
    X: float
    Y: float

    def imag_residual(self) -> float:
        parts = [self.K_inf, self.L1] + ([self.L2] if self.L2 is not None else [])
        return max(abs(v.imag) / (abs(v) + 1e-300) for v in parts)


def a_confluent(j: int, block: ConfluentBlock, X: float) -> complex:
    """A^{(p+k, q)}(j; X)."""
    return _A(block.p + block.k, block.q_eff, j, X)


def _A(pk: float, q: float, j: int, X):
    """A^{(pk, q)}(j; X); X may be an ndarray (quadrature nodes)."""
    if isinstance(X, np.ndarray):
        return _a_block(pk, q, j, X)
    return _a_point(pk, q, j, X)


@functools.lru_cache(maxsize=1024)
def _a_point(pk: float, q: float, j: int, X: float) -> complex:
    # c_tilde orders 0..2 share A_0..A_4, and the blocks of K, L1, L2 and
    # the identity stencil share points, so each is evaluated once
    return _a_block(pk, q, j, X)


def _a_block(pk: float, q: float, j: int, X):
    a = complex(pk, -q)
    if pk == 0 and q == 0 and j >= 1:
        # (a)_j/(2a)_j -> (1/2) (1)_{j-1}/(1)_{j-1} = 1/2 as a -> 0
        return 0.5 * hyp1f1(complex(j), complex(j), 2j * X)
    return (pochhammer(a, j) / pochhammer(complex(2 * pk), j)
            * hyp1f1(a + j, 2 * pk + j, 2j * X))


def c_tilde(order: int, k: int, p: float, q_eff: float, X: float) -> complex:
    """C_order^{(p, q, k)}(X) for order in {0, 1, 2}; X may be an ndarray."""
    pk = p + k
    q = q_eff
    if order == 0:
        return _A(pk, q, 0, X)
    u = 2j * X
    A1, A2 = _A(pk, q, 1, X), _A(pk, q, 2, X)
    C0 = _A(pk, q, 0, X)
    C1 = 0.5 * u * u * (A1 - A2) - k * u * A1 + (1j * k + q) * X * C0
    if order == 1:
        return C1
    if order != 2:
        raise ValueError("order must be 0, 1 or 2")
    A3, A4 = _A(pk, q, 3, X), _A(pk, q, 4, X)
    lines = (u ** 4 * (A2 - 2 * A3 + A4) / 8
             + u ** 3 * (A1 - 3 * (k + 1) * A2 + (3 * k + 2) * A3) / 6
             + u ** 2 * (-2 * k * A1 + 2 * k * (k + 1) * A2) / 4)
    w = 1j * k + q
    return lines + w * X * C1 - (w * w / 2 + pk / 6) * X * X * C0


def c_tilde_deriv0(k: int, p: float, q_eff: float, X: float) -> complex:
    """d/dX of C0^{(p,q,k)}(X) = 2i A(1; X)."""
    return 2j * _A(p + k, q_eff, 1, X)


def j_blocks(k: int, p: float, q_eff: float, X: float, Y: float) -> dict:
    """J0, J1, J2 antisymmetrized products and the scalar Q1, Q2."""
    def c(order, kk, T):
        return c_tilde(order, kk, p, q_eff, T)

    c0X, c0Y = c(0, k, X), c(0, k, Y)
    d0X, d0Y = c(0, k + 1, X), c(0, k + 1, Y)
    c1X, c1Y = c(1, k, X), c(1, k, Y)
    d1X, d1Y = c(1, k + 1, X), c(1, k + 1, Y)
    c2X, c2Y = c(2, k, X), c(2, k, Y)
    d2X, d2Y = c(2, k + 1, X), c(2, k + 1, Y)
    J0 = X * d0X * c0Y - Y * d0Y * c0X
    J1 = X * (d0X * c1Y + d1X * c0Y) - Y * (d0Y * c1X + d1Y * c0X)
    J2 = (X * (d2X * c0Y + d1X * c1Y + d0X * c2Y)
          - Y * (d2Y * c0X + d1Y * c1X + d0Y * c2X))
    Q1 = p * (2 * p + 2 * k + 1)
    Q2 = -X * Y / 3 + (p + k) * (2 * p + 2 * k + 1) * (6 * p * p - p - k - 1) / 6
    return {"J0": J0, "J1": J1, "J2": J2, "Q1": Q1, "Q2": Q2}


def h_const(pk: float, q: float) -> float:
    """h^{(pk, q)} = 2^(2 pk - 2) |G(pk - iq)|^2 / (pi G(2 pk) G(2 pk - 1))."""
    lg = 2 * log_gamma(complex(pk, -q)).real - log_gamma(2 * pk).real \
        - log_gamma(2 * pk - 1).real
    return math.exp((2 * pk - 2) * math.log(2) + lg - math.log(math.pi))


def _pref2(p: float, q: float, k: int, X: float, Y: float) -> complex:
    """Common beta=2 prefactor h^{(p+k+1)} e^{-i(X+Y)-q pi} (XY)^(p+k+1)/(X^2 (X-Y))."""
    return (h_const(p + k + 1, q) * np.exp(complex(-q * math.pi, -(X + Y)))
            * (X * Y) ** (p + k + 1) / (X * X * (X - Y)))


def _k2(p: float, q: float, X: float, Y: float, k: int = 0) -> complex:
    if abs(X - Y) < _DIAG_EPS * (1 + abs(X)):
        # X^2 K is symmetric in (X, Y), so its midpoint value is second-order
        M = 0.5 * (X + Y)
        return (M / X) ** 2 * _k2_diag(p, q, M, k)
    c0X, c0Y = c_tilde(0, k, p, q, X), c_tilde(0, k, p, q, Y)
    d0X, d0Y = c_tilde(0, k + 1, p, q, X), c_tilde(0, k + 1, p, q, Y)
    return _pref2(p, q, k, X, Y) * (X * d0X * c0Y - Y * d0Y * c0X)


def _k2_diag(p: float, q: float, X: float, k: int = 0) -> complex:
    """Diagonal limit via the exact Y-derivative of J0 at Y = X."""
    c0X = c_tilde(0, k, p, q, X)
    d0X = c_tilde(0, k + 1, p, q, X)
    dc0 = c_tilde_deriv0(k, p, q, X)
    dd0 = c_tilde_deriv0(k + 1, p, q, X)
    # J0(X, Y) ~ (Y - X) dJ at Y=X; J0/(X-Y) -> -dJ
    dJ = X * d0X * dc0 - d0X * c0X - X * dd0 * c0X
    pref = (h_const(p + k + 1, q) * np.exp(complex(-q * math.pi, -2 * X))
            * X ** (2 * (p + k + 1)) / (X * X))
    return -pref * dJ


def _pm_diagonal(x2_symmetric: bool):
    """Near the diagonal, average f over (M + d, M - d) and (M - d, M + d).

    For L1 and L2, which have no closed-form diagonal derivative (K does:
    `_k2_diag`).  Where X^2 f is symmetric in (X, Y), as for L1, the average
    times (M/X)^2 is second order in X - Y; L2's X (X - Y)/3 J0 term is not
    symmetric, so its plain average stays first order.
    """
    def wrap(f):
        @functools.wraps(f)
        def g(p: float, q: float, X: float, Y: float, k: int = 0) -> complex:
            if abs(X - Y) < _DIAG_EPS * (1 + abs(X)):
                d = _DIAG_EPS * (1 + abs(X))
                M = 0.5 * (X + Y)
                avg = 0.5 * (f(p, q, M + d, M - d, k) + f(p, q, M - d, M + d, k))
                return (M / X) ** 2 * avg if x2_symmetric else avg
            return f(p, q, X, Y, k)
        return g
    return wrap


@_pm_diagonal(x2_symmetric=True)
def _l1_2(p: float, q: float, X: float, Y: float, k: int = 0) -> complex:
    b = j_blocks(k, p, q, X, Y)
    return _pref2(p, q, k, X, Y) * (b["J1"] + b["Q1"] * b["J0"])


@_pm_diagonal(x2_symmetric=False)
def _l2_2(p: float, q: float, X: float, Y: float, k: int = 0) -> complex:
    b = j_blocks(k, p, q, X, Y)
    return _pref2(p, q, k, X, Y) * (
        b["J2"] + b["Q1"] * b["J1"] + (b["Q2"] + X * X / 3) * b["J0"])


# --- integral operators ------------------------------------------------------

# The integrands are s^(p+1) or s^(2p) times an entire function of s, so a
# Gauss-Jacobi rule with that power as its weight integrates them; f
# receives the whole node array at once.

def j_odd(f, X: float, p: float, q: float) -> complex:
    """J_o[f](X) = int_0^X e^{-is - q pi} s^(p+1) f(s) ds, f vectorized."""
    damp = math.exp(-q * math.pi)
    return gauss_jacobi_integrate(lambda s: damp * np.exp(-1j * s) * f(s), X, p + 1)


def j_symp_raw(f, X: float, p: float) -> complex:
    """int_0^X e^{-2is} s^(2p) f(s) ds (bare beta=4 tail integral), f vectorized."""
    return gauss_jacobi_integrate(lambda s: np.exp(-2j * s) * f(s), X, 2 * p)


# memoised like _a_point: the identity stencil's K(X, Y + h) calls share X
@functools.lru_cache(maxsize=256)
def _jo(j: int, p: float, q: float, X: float) -> complex:
    """J_o[C_j^{(p, 2q, 2)}](X), the beta = 1 integral."""
    return j_odd(lambda s: c_tilde(j, 2, p, 2 * q, s), X, p, q)


@functools.lru_cache(maxsize=256)
def _js(j: int, p: float, q: float, X: float) -> complex:
    """int_0^X e^{-2is} s^(2p) C_j^{(2p, q, 1)}(2s) ds, the beta = 4 integral."""
    return j_symp_raw(lambda s: c_tilde(j, 1, 2 * p, q, 2 * s), X, p)


def _js_prefactor(p: float, q: float, Y: float) -> complex:
    """p 2^(8p) |G(2p+1-iq)|^2/(pi G(4p+1) G(4p+2)) e^{-q pi - 2iY} Y^(2p+1)."""
    lg = (2 * log_gamma(complex(2 * p + 1, -q)).real
          - log_gamma(4 * p + 1).real - log_gamma(4 * p + 2).real)
    c = p * math.exp(8 * p * math.log(2) + lg - math.log(math.pi) - q * math.pi)
    return c * np.exp(-2j * Y) * Y ** (2 * p + 1)


# --- public kernels ----------------------------------------------------------

def k_limit(beta: int, X: float, Y: float, params: EnsembleParams) -> complex:
    """Limiting kernel K_inf at the spectrum singularity."""
    p, q = params.p, params.q
    if beta == 2:
        return _k2(p, q, X, Y)
    if beta == 1:
        qe = 2 * q
        eta1, eta2 = eta_constants(p, q)
        extra = (eta2 / (X * X) * np.exp(-1j * Y) * Y ** (p + 2)
                 * c_tilde(0, 1, p, qe, Y) * (_jo(0, p, q, X) - eta1 / 2))
        return (Y / X) * _k2(p, qe, X, Y, k=1) + extra
    if beta == 4:
        Js0 = _js_prefactor(p, q, Y) * c_tilde(0, 0, 2 * p, q, 2 * Y) * _js(0, p, q, X)
        return (Y / X) * _k2(2 * p, q, 2 * X, 2 * Y) - 2 / (X * X) * Js0
    raise ValueError("beta must be 1, 2 or 4")


def l1(beta: int, X: float, Y: float, params: EnsembleParams) -> complex:
    """First correction term L1 (coefficient of 1/N)."""
    p, q = params.p, params.q
    if beta == 2:
        return _l1_2(p, q, X, Y)
    if beta == 1:
        qe = 2 * q
        eta1, eta2 = eta_constants(p, q)
        J0c, J1c = _jo(0, p, q, X), _jo(1, p, q, X)
        extra = (eta2 / (X * X) * np.exp(-1j * Y) * Y ** (p + 2) * (
            c_tilde(1, 1, p, qe, Y) * (J0c - eta1 / 2)
            + c_tilde(0, 1, p, qe, Y)
            * (J1c + p * (2 * p + 3) * J0c - p * (p + 1) * eta1 / 2)))
        return (Y / X) * _l1_2(p, qe, X, Y, k=1) + extra
    if beta == 4:
        pe = 2 * p
        pref = _js_prefactor(p, q, Y)
        c0Y = c_tilde(0, 0, pe, q, 2 * Y)
        c1Y = c_tilde(1, 0, pe, q, 2 * Y)
        I0, I1 = _js(0, p, q, X), _js(1, p, q, X)
        Js1 = pref * (c1Y * I0 + c0Y * I1 + 2 * p * (4 * p + 1) * c0Y * I0)
        return (Y / (2 * X)) * _l1_2(pe, q, 2 * X, 2 * Y) - Js1 / (X * X)
    raise ValueError("beta must be 1, 2 or 4")


def l2(beta: int, X: float, Y: float, params: EnsembleParams) -> complex:
    """Second correction term L2 (coefficient of 1/N^2), beta in {2, 4}."""
    p, q = params.p, params.q
    if beta == 2:
        return _l2_2(p, q, X, Y)
    if beta == 4:
        pe = 2 * p
        pref = _js_prefactor(p, q, Y)
        c0Y = c_tilde(0, 0, pe, q, 2 * Y)
        c1Y = c_tilde(1, 0, pe, q, 2 * Y)
        c2Y = c_tilde(2, 0, pe, q, 2 * Y)
        I0, I1, I2 = _js(0, p, q, X), _js(1, p, q, X), _js(2, p, q, X)
        Ix = j_symp_raw(lambda s: (2 * s * s / 3) * c_tilde(0, 1, pe, q, 2 * s), X, p)
        a1 = 2 * p * (4 * p + 1)
        a2 = p * (4 * p + 1) * (24 * p * p - 2 * p - 1) / 3
        T2 = (a2 * c0Y * I0 + a1 * (c1Y * I0 + c0Y * I1)
              + (c2Y - 2 * Y * Y / 3 * c0Y) * I0 + c1Y * I1
              + c0Y * (I2 + Ix) + (4 * X * X / 3) * c0Y * I0)
        part2 = -pref * T2 / (2 * X * X)
        part1 = ((Y / (4 * X)) * _l2_2(pe, q, 2 * X, 2 * Y)
                 + ((X * X - Y * Y) / 6) * (Y / X) * _k2(pe, q, 2 * X, 2 * Y))
        return part1 + part2
    raise ValueError("l2 is available for beta in {2, 4}")


def kernel_expansion(beta: int, X: float, Y: float,
                     params: EnsembleParams) -> KernelExpansion:
    L2 = l2(beta, X, Y, params) if beta in (2, 4) else None
    return KernelExpansion(K_inf=k_limit(beta, X, Y, params),
                           L1=l1(beta, X, Y, params), L2=L2, X=X, Y=Y)


def derivative_identity_residual(beta: int, X: float, Y: float,
                                 params: EnsembleParams, h: float = 1e-3) -> float:
    """|L1 - c (X dX + Y dY + 1) K_inf| / (|L1| + eps), five-point stencils.

    The identity constant is c = p for beta = 1, 2 and 4 alike (the finite-N
    oracle validates p, not 2p, for beta = 4)."""
    c = params.p

    def K(A, B):
        return k_limit(beta, A, B, params)

    hX, hY = h * X, h * Y
    dX = (-K(X + 2 * hX, Y) + 8 * K(X + hX, Y) - 8 * K(X - hX, Y)
          + K(X - 2 * hX, Y)) / (12 * hX)
    dY = (-K(X, Y + 2 * hY) + 8 * K(X, Y + hY) - 8 * K(X, Y - hY)
          + K(X, Y - 2 * hY)) / (12 * hY)
    rhs = c * (X * dX + Y * dY + K(X, Y))
    lhs = l1(beta, X, Y, params)
    return float(abs(lhs - rhs) / (abs(lhs) + 1e-300))
