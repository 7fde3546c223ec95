"""Verification harness: Richardson-style residual analysis connecting the
finite-N kernels to their limits and corrections, unit oracles for the
intermediate expansion displays, and tuned-scaling rate confirmation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import _phi, _h_sub, kernel_scaled, tail_integral
from .limits import _jo, _js, c_tilde, h_const, k_limit, l1, l2
from .polynomials import EnsembleParams, rr_scaled_raw
from .series import pochhammer

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ResidualReport:
    N_values: tuple
    residuals: tuple
    fitted_slope: float
    fit_r2: float
    extrapolated_limit: complex
    floor_hit: bool = False

    def __post_init__(self):
        if len(self.N_values) != len(self.residuals) or len(self.N_values) < 2:
            raise ValueError("need matching N/residual lists of length >= 2")
        if any(r < 0 for r in self.residuals):
            raise ValueError("residuals must be nonnegative")


def fit_loglog(N_values, residuals) -> tuple[float, float]:
    """Least-squares slope of log residual vs log N, and its r^2, in closed
    form; the smallest N is dropped when it deviates more than 3 sigma from
    the fit of the rest (pre-asymptotic point).  N values that are all equal
    raise ValueError."""
    x = [math.log(n) for n in N_values]
    y = [math.log(max(float(r), 1e-300)) for r in residuals]

    def fit(xs, ys):
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        sxx = sum((a - mx) ** 2 for a in xs)
        if not sxx:
            raise ValueError("fit_loglog needs two distinct N values")
        slope = sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / sxx
        resid = [b - my - slope * (a - mx) for a, b in zip(xs, ys)]
        ss_tot = sum((b - my) ** 2 for b in ys)
        r2 = 1.0 - sum(r * r for r in resid) / ss_tot if ss_tot > 0 else 1.0
        return slope, my - slope * mx, r2, resid

    slope, _, r2, _ = fit(x, y)
    if len(x) > 3:
        # drop the smallest N when it deviates > 3 sigma from the fit of the rest
        s1, i1, r21, resid1 = fit(x[1:], y[1:])
        mean = sum(resid1) / len(resid1)
        sigma = math.sqrt(sum((r - mean) ** 2 for r in resid1) / len(resid1)) + 1e-3
        if abs(y[0] - (s1 * x[0] + i1)) > 3 * sigma:
            return s1, r21
    return slope, r2


def _scaled_kernel(beta: int, N: int, X: float, Y: float,
                   p: float, q: float) -> float:
    return kernel_scaled(beta, X, Y, EnsembleParams(beta, N, p, q))


def _report(N_list, svals, residuals, K: complex) -> ResidualReport:
    """Floor flag, log-log fit and two-point Richardson extrapolation of the
    scaled kernel values svals."""
    floor = 1e3 * _EPS * abs(K)
    floor_hit = any(r < floor for r in residuals)
    slope, r2 = fit_loglog(N_list, residuals)
    r = N_list[-1] / N_list[-2]
    extrap = (r * svals[-1] - svals[-2]) / (r - 1)
    return ResidualReport(tuple(N_list), tuple(residuals), slope, r2,
                          complex(extrap), floor_hit)


def kernel_residual_scan(beta: int, X: float, Y: float, params: EnsembleParams,
                         N_list, order: int = 0) -> ResidualReport:
    """Residuals |scaled S_N - sum_{j<=order} L_j / N^j| and their log-log slope.

    Expected slope is about -(order + 1); order = 2 requires beta in {2, 4}.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    if order == 2 and beta not in (2, 4):
        raise ValueError("order 2 requires beta in {2, 4}")
    p, q = params.p, params.q
    K = k_limit(beta, X, Y, params)
    terms = [K]
    if order >= 1:
        terms.append(l1(beta, X, Y, params))
    if order >= 2:
        terms.append(l2(beta, X, Y, params))
    N_list = sorted(int(N) for N in N_list)
    residuals = []
    svals = []
    for N in N_list:
        s = _scaled_kernel(beta, N, X, Y, p, q)
        svals.append(s)
        model = sum(t / N ** j for j, t in enumerate(terms))
        residuals.append(abs(s - model))
    return _report(N_list, svals, residuals, K)


def tuned_scaling_residual(beta: int, X: float, Y: float,
                           params: EnsembleParams, N_list) -> ResidualReport:
    """Residual of S_N under the tuned map (N -> N + p inside z) against
    K_inf alone; expected slope about -2.

    The tuned denominator is N + p for every beta: the derivative-identity
    constant is p throughout, so the same shift cancels the 1/N term.
    """
    p, q = params.p, params.q
    K = k_limit(beta, X, Y, params)
    N_list = sorted(int(N) for N in N_list)
    residuals = []
    svals = []
    for N in N_list:
        scale = N / (N + p)
        s = _scaled_kernel(beta, N, X * scale, Y * scale, p, q) * scale
        svals.append(s)
        residuals.append(abs(s - K))
    return _report(N_list, svals, residuals, K)


# --- intermediate expansion oracles -------------------------------------------

_KINDS = ("poc", "weight", "polynomial", "norm", "sine_ratio", "icc",
          "tail_b1", "icc4", "gamma2N")


def intermediate_expansion_check(kind: str, N: int, X: float,
                                 params: EnsembleParams) -> float:
    """Scaled residual of one intermediate expansion display, at polynomial
    shift k = 2 and, for 'poc', Pochhammer order alpha = 3.

    Returns N^s |LHS - truncated RHS| with s the next-order power, so the
    result should be bounded (and roughly N-independent) as N grows.
    """
    p, q = params.p, params.q
    alpha, k = 3, 2
    if kind == "poc":
        # (-N+k)_alpha against its 1/N^2 truncation; next order 1/N^3
        lhs = pochhammer(complex(-N + k), alpha)
        a = alpha
        t1 = -a * (2 * k + a - 1) / 2
        t2 = a * (a - 1) * (3 * a ** 2 + (12 * k - 7) * a
                            + (12 * k * k - 12 * k + 2)) / 24
        rhs = (-1) ** a * float(N) ** a * (1 + t1 / N + t2 / N ** 2)
        return float(N ** 3 * abs(lhs - rhs) / abs(rhs))
    if kind == "weight":
        # (WeightN) is an exact identity of logs
        P, Q = N + p, q
        u = X / N
        x = -1.0 / math.tan(u)
        lhs = 0.5 * (-P * math.log1p(x * x) + 2 * Q * math.atan(x))
        rhs = P * math.log(math.sin(u)) + Q * (u - math.pi / 2)
        return abs(lhs - rhs)
    if kind == "polynomial":
        # (prop2): prefactored polynomial vs A(0) + bracket/N; next order 1/N^2
        qe = params.limit_params()[1]
        lhs = rr_scaled_raw(N, k, X, N + p, qe)
        C0 = c_tilde(0, k, p, qe, X)
        bracket = c_tilde(1, k, p, qe, X) - (1j * k + qe) * X * C0
        return float(N ** 2 * abs(lhs - C0 - bracket / N))
    if kind == "norm":
        # (CyNormalisation) through 1/N^2; next order 1/N^3
        qe = params.limit_params()[1]
        lhs = 1.0 / _h_sub(N - k, N + p, qe)
        hc = h_const(p + k, qe)
        rhs = hc * float(N) ** (2 * p + 2 * k - 1) * (
            1 + p * (2 * p + 2 * k - 1) / N
            + (p + k - 1) * (2 * p + 2 * k - 1) * (6 * p * p - p - k) / (6 * N ** 2))
        return float(N ** 3 * abs(lhs - rhs) / abs(rhs))
    if kind == "sine_ratio":
        # (eq2) with the -XY/(3N^2) term; next order 1/N^4
        Y = X / 2
        lhs = math.sin(X / N) * math.sin(Y / N) / math.sin((X - Y) / N)
        rhs = X * Y / (N * (X - Y)) * (1 - X * Y / (3 * N ** 2))
        return float(N ** 4 * abs(lhs - rhs) / abs(rhs))
    if kind == "icc":
        # (iccExpand): weighted prefactored polynomial vs C0 + C1/N
        qe = params.limit_params()[1]
        P = N + p
        lhs = ((-1) ** (N - k) * (N / X) ** (p + k)
               * np.exp(complex(qe * math.pi / 2, X)) * _phi(N, k, P, qe, X))
        rhs = c_tilde(0, k, p, qe, X) + c_tilde(1, k, p, qe, X) / N
        return float(N ** 2 * abs(lhs - rhs))
    if kind == "tail_b1":
        # A.2 scaled tail: N^(p+2) int_{-inf}^{z(X)} I_{N-2} w1 vs Jo-series
        pr = EnsembleParams(1, N, p, q)
        lhs = float(N) ** (p + 2) * tail_integral(N - 2, X, pr)
        rhs = _jo(0, p, q, X) + _jo(1, p, q, X) / N
        return float(N ** 2 * abs(lhs - rhs))
    if kind == "icc4":
        # A.3 symplectic tail: -N^(2p+1) e^{q pi/2} int_{-inf}^{z(X)} I_{2N-1} w1
        # against the C-series with the 1/(2N) first correction
        pr = EnsembleParams(4, N, p, q)
        lhs = -float(N) ** (2 * p + 1) * math.exp(q * math.pi / 2) \
            * tail_integral(2 * N - 1, X, pr)
        rhs = _js(0, p, q, X) + _js(1, p, q, X) / (2 * N)
        return float(N ** 2 * abs(lhs - rhs))
    if kind == "gamma2N":
        # gamma_{2N-1} = 2p/h_{2N-1} against its expansion in M = 2N
        M = 2 * N
        lhs = 2 * p / _h_sub(M - 1, M + 2 * p, q)
        a1 = 2 * p * (4 * p + 1)
        a2 = p * (4 * p + 1) * (24 * p * p - 2 * p - 1) / 3
        rhs = 2 * p * h_const(2 * p + 1, q) * float(M) ** (4 * p + 1) \
            * (1 + a1 / M + a2 / M ** 2)
        return float(N ** 3 * abs(lhs - rhs) / abs(rhs))
    raise ValueError(f"kind must be one of {_KINDS}")
