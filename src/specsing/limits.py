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

A(j; X) is the j-th derivative of M(z) = 1F1(pk - iq; 2 pk; z) at z = 2iX
(DLMF 13.3.16), so one series pass gives the whole family A(0..5; X):
with T_m the terms of M, A(j) = z^-j sum_m T_m m (m - 1) ... (m - j + 1)
(series._hyp1f1_derivatives).  Each scalar point, and each Gauss-Jacobi node
set, is summed once; a jet reads its family from the one at its value.

The derivative identity L1 = p (X d/dX + Y d/dY + 1) K holds with the same
constant p for all three beta (checked to full precision with forward-mode
jets).  Near the diagonal each beta = 2 term is G(X, Y)/(X - Y) times a
prefactor, G antisymmetric, taken as -dG/dY at the midpoint; L2 is split into
such a term plus (X^2/3) K_inf.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kernels import eta_constants
from .polynomials import EnsembleParams
from .quadrature import gauss_jacobi_integrate
from .series import _Jet, _cached_at_points, _hyp1f1_derivatives, log_gamma

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
    pk, q = block.p + block.k, block.q_eff
    return _hyp1f1_derivatives(complex(pk, -q), complex(2 * pk), 2j * X, j)[j]


# C_0, C_1 and C_2 read A(0..0), A(0..2) and A(0..4); a point's family also
# holds A(5), which the derivative of A(4) along a jet reads
_TOP = 5


# c_tilde orders 0..2 share one family, and the blocks of K, L1 and L2 share
# points (also with the jets at them), so each point is summed once
@_cached_at_points(1024)
def _A(pk: float, q: float, X):
    """A^{(pk, q)}(j; X) for j = 0..5, from one 1F1 series pass: A(j; X) is
    the j-th derivative of 1F1(pk - iq; 2 pk; z) at z = 2iX.

    X may be an ndarray (quadrature nodes), summed once per distinct node
    set, or a jet: A(j; X + eps d) = A(j; X) + 2i d A(j + 1; X) eps, so a
    jet's family is the one at its value, one order shorter (a jet of a jet
    reaches A(3), enough for C_0 and C_1).
    """
    if isinstance(X, _Jet):
        base = _A(pk, q, X.v)
        return tuple(_Jet(base[j], 2j * X.d * base[j + 1], X.tag)
                     for j in range(len(base) - 1))
    if isinstance(X, np.ndarray):
        return _A_nodes(pk, q, X.dtype.str, X.shape, X.tobytes())
    return _hyp1f1_derivatives(complex(pk, -q), complex(2 * pk), 2j * X, _TOP)


# the Gauss-Jacobi integrals of C_0, C_1, C_2 and l2's moment Ix evaluate
# their integrands on one node set per (p, q, X), so they share its family
@functools.lru_cache(maxsize=64)
def _A_nodes(pk: float, q: float, dtype: str, shape: tuple, nodes: bytes) -> np.ndarray:
    X = np.frombuffer(nodes, dtype).reshape(shape)
    family = _hyp1f1_derivatives(complex(pk, -q), complex(2 * pk), 2j * X, _TOP)
    family.flags.writeable = False
    return family


def c_tilde(order: int, k: int, p: float, q_eff: float, X: float) -> complex:
    """C_order^{(p, q, k)}(X) for order in {0, 1, 2}; X may be an ndarray or a jet."""
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    pk = p + k
    q = q_eff
    A = _A(pk, q, X)
    if order == 0:
        return A[0]
    A0, A1, A2 = A[:3]
    u = 2j * X
    C1 = 0.5 * u * u * (A1 - A2) - k * u * A1 + (1j * k + q) * X * A0
    if order == 1:
        return C1
    A3, A4 = A[3:5]
    lines = (u ** 4 * (A2 - 2 * A3 + A4) / 8
             + u ** 3 * (A1 - 3 * (k + 1) * A2 + (3 * k + 2) * A3) / 6
             + u ** 2 * (-2 * k * A1 + 2 * k * (k + 1) * A2) / 4)
    w = 1j * k + q
    return lines + w * X * C1 - (w * w / 2 + pk / 6) * X * X * A0


def j_blocks(k: int, p: float, q_eff: float, X: float, Y: float) -> dict:
    """J0, J1, J2 antisymmetrized products and the scalar Q1, Q2."""
    return _blocks(2, k, p, q_eff, X, Y)


def _blocks(order: int, k: int, p: float, q_eff: float, X, Y) -> dict:
    """J0 .. J_order (order 1 or 2), Q1 and Q2; order 1 evaluates no C2, so
    no A_3 or A_4."""
    def c(o, kk, T):
        return c_tilde(o, kk, p, q_eff, T)

    c0X, c0Y = c(0, k, X), c(0, k, Y)
    d0X, d0Y = c(0, k + 1, X), c(0, k + 1, Y)
    c1X, c1Y = c(1, k, X), c(1, k, Y)
    d1X, d1Y = c(1, k + 1, X), c(1, k + 1, Y)
    out = {"J0": X * d0X * c0Y - Y * d0Y * c0X,
           "J1": X * (d0X * c1Y + d1X * c0Y) - Y * (d0Y * c1X + d1Y * c0X),
           "Q1": p * (2 * p + 2 * k + 1),
           "Q2": -X * Y / 3 + (p + k) * (2 * p + 2 * k + 1) * (6 * p * p - p - k - 1) / 6}
    if order == 2:
        c2X, c2Y = c(2, k, X), c(2, k, Y)
        d2X, d2Y = c(2, k + 1, X), c(2, k + 1, Y)
        out["J2"] = (X * (d2X * c0Y + d1X * c1Y + d0X * c2Y)
                     - Y * (d2Y * c0X + d1Y * c1X + d0Y * c2X))
    return out


def h_const(pk: float, q: float) -> float:
    """h^{(pk, q)} = 2^(2 pk - 2) |G(pk - iq)|^2 / (pi G(2 pk) G(2 pk - 1))."""
    lg = 2 * log_gamma(complex(pk, -q)).real - log_gamma(2 * pk).real \
        - log_gamma(2 * pk - 1).real
    return math.exp((2 * pk - 2) * math.log(2) + lg - math.log(math.pi))


def _pref2(p: float, q: float, k: int, X, Y):
    """h^{(p+k+1)} e^{-i(X+Y)-q pi} (XY)^(p+k+1)/X^2: the beta = 2 prefactor
    of G(X, Y)/(X - Y)."""
    return (h_const(p + k + 1, q) * np.exp(-q * math.pi - 1j * (X + Y))
            * (X * Y) ** (p + k + 1) / (X * X))


def _over_diff(G, p: float, q: float, X, Y, k: int = 0) -> complex:
    """_pref2 G(X, Y)/(X - Y) for G antisymmetric in (X, Y).

    X^2 times it is symmetric, so near the diagonal (M/X)^2 times its value
    at the midpoint M is second order in X - Y; there G(M, Y)/(M - Y) is
    -dG/dY, taken along a jet in Y."""
    if abs(X - Y) < _DIAG_EPS * (1 + abs(X)):
        M = 0.5 * (X + Y)
        dG = G(p, q, M, _Jet.seed(M), k).d
        return -(M / X) ** 2 * _pref2(p, q, k, M, M) * dG
    return _pref2(p, q, k, X, Y) * G(p, q, X, Y, k) / (X - Y)


def _j0(p: float, q: float, X, Y, k: int):
    """J0 alone, from the four C0 values it needs."""
    c0X, c0Y = c_tilde(0, k, p, q, X), c_tilde(0, k, p, q, Y)
    d0X, d0Y = c_tilde(0, k + 1, p, q, X), c_tilde(0, k + 1, p, q, Y)
    return X * d0X * c0Y - Y * d0Y * c0X


def _l1_bracket(p: float, q: float, X, Y, k: int):
    b = _blocks(1, k, p, q, X, Y)
    return b["J1"] + b["Q1"] * b["J0"]


def _l2_bracket(p: float, q: float, X, Y, k: int):
    # L2's bracket less its X^2/3 J0 term, which is not antisymmetric
    b = j_blocks(k, p, q, X, Y)
    return b["J2"] + b["Q1"] * b["J1"] + b["Q2"] * b["J0"]


_k2 = functools.partial(_over_diff, _j0)
_l1_2 = functools.partial(_over_diff, _l1_bracket)


def _l2_2(p: float, q: float, X, Y, k: int = 0) -> complex:
    return _over_diff(_l2_bracket, p, q, X, Y, k) + X * X / 3 * _k2(p, q, X, Y, k)


# --- integral operators ------------------------------------------------------

# The integrands are s^(p+1) or s^(2p) times an entire function of s, so a
# Gauss-Jacobi rule with that power as its weight integrates them; f
# receives the whole node array at once, or a scalar where X is a jet.

def j_odd(f, X: float, p: float, q: float) -> complex:
    """J_o[f](X) = int_0^X e^{-is - q pi} s^(p+1) f(s) ds, f vectorized."""
    damp = math.exp(-q * math.pi)
    return gauss_jacobi_integrate(lambda s: damp * np.exp(-1j * s) * f(s), X, p + 1)


def j_symp_raw(f, X: float, p: float) -> complex:
    """int_0^X e^{-2is} s^(2p) f(s) ds (bare beta=4 tail integral), f vectorized."""
    return gauss_jacobi_integrate(lambda s: np.exp(-2j * s) * f(s), X, 2 * p)


# memoised like _A: K, L1 and L2 at one X share these integrals
@_cached_at_points(256)
def _jo(j: int, p: float, q: float, X: float) -> complex:
    """J_o[C_j^{(p, 2q, 2)}](X), the beta = 1 integral."""
    return j_odd(lambda s: c_tilde(j, 2, p, 2 * q, s), X, p, q)


@_cached_at_points(256)
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
                                 params: EnsembleParams) -> float:
    """|L1 - c (X dX + Y dY + 1) K_inf| / (|L1| + eps).

    X dX + Y dY is d/dt at t = 1 along (tX, tY), taken exactly by running
    k_limit on a jet in t.  The identity constant is c = p for beta = 1, 2
    and 4 alike (the finite-N oracle validates p, not 2p, for beta = 4)."""
    t = _Jet.seed(1.0)
    K = k_limit(beta, t * X, t * Y, params)
    rhs = params.p * (K.d + K.v)
    lhs = l1(beta, X, Y, params)
    return float(abs(lhs - rhs) / (abs(lhs) + 1e-300))
