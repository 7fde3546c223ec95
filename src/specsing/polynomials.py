"""Routh-Romanovski orthogonal polynomials (three-term recurrence; the kernels'
scaled form by 2F1), their norms and an orthogonality check on the adaptive
tanh-sinh integrator, Cauchy and circle weights, and line <-> circle maps.

Weight convention: omega2(x) = (1 - ix)^c (1 + ix)^cbar with c = -P + iQ,
equivalently (1 + x^2)^(-P) exp(2 Q arctan x).  For the ensemble-derived
weights, P and Q carry the beta-specific identifications:

    beta = 2:  P = N + p,       Q = q
    beta = 1:  P = N + p,       Q = 2q
    beta = 4:  P = 2N + 2p,     Q = q
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import tanh_sinh_adaptive
from .series import PoleError, hyp2f1_terminating, log_gamma

_ALLOWED_BETA = (1, 2, 4)


@dataclass(frozen=True)
class EnsembleParams:
    """Dyson index, matrix size, singularity exponent, Fisher-Hartwig phase."""
    beta: int
    size: int
    p: float
    q: float = 0.0

    def __post_init__(self):
        if self.beta not in _ALLOWED_BETA and not (self.beta > 0 and self.beta % 2 == 0):
            raise ValueError("beta must be 1, 2, 4, or a positive even integer")
        if self.size < 1:
            raise ValueError("size N must be >= 1")
        if self.p < 0:
            raise ValueError("singularity exponent p must be > 0 (p = 0 only with q = 0)")
        if self.p == 0 and self.q != 0:
            # p = 0 is supported only as the circular-ensemble limit q = 0
            raise ValueError("p = 0 requires q = 0 (circular ensemble limit)")

    @property
    def c_beta(self) -> complex:
        """c_beta = -beta (N + p - 1)/2 - 1 + iq."""
        return complex(-self.beta * (self.size + self.p - 1) / 2 - 1, self.q)

    def weight_params(self) -> tuple[float, float]:
        """(P, Q) of the auxiliary omega2 weight for this beta."""
        if self.beta == 1:
            return self.size + self.p, 2 * self.q
        if self.beta == 4:
            return 2 * self.size + 2 * self.p, self.q
        return self.size + self.p, self.q

    def limit_params(self) -> tuple[float, float]:
        """(p_eff, q_eff) entering the scaled-limit kernel formulas."""
        if self.beta == 1:
            return self.p, 2 * self.q
        if self.beta == 4:
            return 2 * self.p, self.q
        return self.p, self.q


@dataclass(frozen=True)
class CauchyWeightParams:
    """Weight exponent c of omega(x) = (1-ix)^c (1+ix)^cbar."""
    c: complex

    def __post_init__(self):
        if self.c.real >= -0.5:
            raise ValueError("need Re c < -1/2 for an integrable weight")

    @property
    def P(self) -> float:
        return -self.c.real

    @property
    def Q(self) -> float:
        return self.c.imag

    @classmethod
    def from_ensemble(cls, params: EnsembleParams) -> "CauchyWeightParams":
        P, Q = params.weight_params()
        return cls(complex(-P, Q))


# --- coordinate maps ---------------------------------------------------------

def cayley_to_circle(x: float) -> float:
    """theta in (0, 2 pi) with x = i (1 + e^{i theta}) / (1 - e^{i theta}) = -cot(theta/2)."""
    return math.pi + 2 * math.atan(x)


def circle_to_cayley(theta: float) -> float:
    if not 0 < theta < 2 * math.pi:
        raise ValueError("theta must lie in (0, 2 pi)")
    return -1.0 / math.tan(theta / 2)


def scaled_point_map(X: float, N: int) -> tuple[float, float]:
    """z(X) = -cot(X/N) and its derivative dz/dX = csc^2(X/N)/N for X/N in (0, pi)."""
    u = X / N
    if not 0 < u < math.pi:
        raise ValueError("X/N must lie in (0, pi)")
    s = math.sin(u)
    return -math.cos(u) / s, 1.0 / (N * s * s)


# --- weights -----------------------------------------------------------------

def weight_cauchy(x: float, w: CauchyWeightParams) -> float:
    """omega2(x) = (1 + x^2)^(-P) exp(2 Q arctan x)."""
    return float(np.exp(-w.P * np.log1p(x * x) + 2 * w.Q * np.arctan(x)))


def weight_circle_scaled(X: float, params: EnsembleParams) -> float:
    """omega2(z(X))^(1/2) = (sin(X/N))^(N+p) exp(q~ (X/N - pi/2)) for beta = 2,
    and the analogous form with the substituted (P, Q) otherwise; log-space."""
    N = params.size
    u = X / N
    if not 0 < u < math.pi:
        raise ValueError("X/N must lie in (0, pi)")
    P, Q = params.weight_params()
    return float(np.exp(P * np.log(np.sin(u)) + Q * (u - math.pi / 2)))


# --- polynomials -------------------------------------------------------------

def rr_poly(n: int, c: complex, x) -> complex:
    """Monic Routh-Romanovski polynomial I_n^{(c, cbar)}(x), c = -P + iQ, by the
    three-term recurrence (DLMF 18.9: Jacobi's with alpha = c, beta = cbar,
    y = ix) in real arithmetic, with s = 2k - 2P, I_{-1} = 0 and I_0 = 1:

        I_{k+1} = (x - a_k) I_k - b_k I_{k-1},  a_k = 4PQ / (s (s+2)),
        b_k = 4k ((k-P)^2 + Q^2) (2P-k) / (s^2 (s^2-1)) = h_k / h_{k-1} (rr_norm).

    Real for real x, complex for complex x.  In the orthogonal range n < P - 1/2
    every k < n has |s| > 3; outside it a vanishing denominator raises PoleError."""
    x = np.asarray(x)
    if n < 0 or not np.isfinite(x).all():
        raise ValueError("rr_poly needs degree n >= 0 and finite x")
    P, Q = -float(c.real), float(c.imag)
    prev, cur = 0.0, np.ones_like(x, dtype=np.result_type(x, float))
    for k in range(n):
        s = 2 * k - 2 * P
        den_a, den_b = s * (s + 2), s * s * (s * s - 1)
        if den_a == 0 or (k and den_b == 0):
            raise PoleError(f"rr_poly recurrence pole at k = {k}: s = 2k - 2P = {s}")
        b = 4 * k * ((k - P) ** 2 + Q * Q) * (2 * P - k) / den_b if k else 0.0
        prev, cur = cur, (x - 4 * P * Q / den_a) * cur - b * prev
    return cur.item() if cur.ndim == 0 else cur


def rr_scaled_raw(N: int, k: int, X: float, P: float, Q: float) -> complex:
    """Prefactored scaled polynomial ((1-e^{2iX/N})/(2i))^{N-k} I_{N-k}(z(X))
    = 2F1(-N+k, p+k-iQ; 2p+2k; 1-e^{2iX/N}) with p = P - N.  p + k = 0 is
    admitted at Q = 0 (the circular limit).

    The confluent limit of this quantity (N -> infinity) is C0^{(p,Q,k)}(X).
    """
    return hyp2f1_terminating(*_rr_args(N, k, X, P, Q))


def _rr_args(N: int, k: int, X: float, P: float, Q: float) -> tuple:
    """(n, b, c, z) of rr_scaled_raw's 2F1(-n, b; c; z)."""
    p = P - N
    if p + k <= 0 and not (p + k == 0 and Q == 0):
        raise ValueError("need p + k > 0 (or the circular limit p + k = Q = 0)")
    # cmath, so the scalar 2F1 loop runs on Python complex
    return N - k, complex(p + k, -Q), complex(2 * p + 2 * k), 1 - cmath.exp(2j * (X / N))


def rr_scaled(n_minus_k: int, k: int, X: float, params: EnsembleParams) -> complex:
    """Spec-shaped wrapper: prefactored Routh-Romanovski value for the
    degree-(N-k) polynomial of the params' weight system."""
    N = params.size
    if n_minus_k + k != N:
        raise ValueError("n_minus_k + k must equal the ensemble size")
    P, Q = params.weight_params()
    return rr_scaled_raw(N, k, X, P, Q)


def rr_norm(n: int, c: complex) -> float:
    """Squared norm h_n = int omega2 I_n^2 dx, via log-gamma.

    h_n = 2^(2n+2-2P) pi G(n+1) G(2P-2n) G(2P-2n-1)
          / (G(2P-n) |G(P-n+iQ)|^2),  c = -P + iQ;  ValueError if the
    integral diverges (n >= P - 1/2).
    """
    P, Q = -c.real, c.imag
    if n >= P - 0.5:
        raise ValueError(f"h_n diverges: need n < P - 1/2, got n = {n}, P = {P}")
    lg = (log_gamma(n + 1) + log_gamma(2 * P - 2 * n) + log_gamma(2 * P - 2 * n - 1)
          - log_gamma(2 * P - n) - 2 * log_gamma(complex(P - n, Q))).real
    return math.exp((2 * n + 2 - 2 * P) * math.log(2) + math.log(math.pi) + lg)


def orthogonality_check(n: int, m: int, params: EnsembleParams, rule=None) -> float:
    """Relative residual | int omega2 I_n I_m dx - h_n delta_nm | / h_n.

    The line integral is mapped to theta in (0, 2 pi) via
    x = -cot(theta/2) = tan((theta - pi)/2), dx/dtheta = (1 + x^2)/2, and
    evaluated on tanh-sinh levels (they handle the algebraic endpoint
    behaviour of the weight): by default by tanh_sinh_adaptive, which raises
    NonConvergenceError where no two successive levels up to 12 agree; a
    rule passed in is used as given.  The tan form stays finite at nodes
    next to theta = 0, and sqrt(omega2 dx/dtheta) is applied to each
    polynomial factor so that neither product overflows; nodes where it
    underflows to 0 are skipped.  ValueError if the integral diverges
    (n + m >= 2P - 1).
    """
    P, Q = params.weight_params()
    if n + m >= 2 * P - 1:
        raise ValueError(f"int omega2 I_n I_m diverges: n + m = {n + m} >= 2P - 1, P = {P}")
    c = complex(-P, Q)

    def terms(rule):
        x = np.tan((rule.nodes - math.pi) / 2)
        root = np.exp(0.5 * ((1 - P) * np.log1p(x * x) + 2 * Q * np.arctan(x) - math.log(2)))
        live = root != 0  # where root underflows, the term is 0 * finite
        x, root = x[live], root[live]
        left = rr_poly(n, c, x) * root
        out = np.zeros(live.size)
        out[live] = left * (left if n == m else rr_poly(m, c, x) * root) * rule.weights[live]
        return out

    integral = tanh_sinh_adaptive(terms, 0.0, 2 * math.pi) if rule is None else terms(rule).sum()
    hn = rr_norm(n, c)
    return float(abs(integral - (hn if n == m else 0.0)) / hn)
