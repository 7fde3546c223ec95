"""Spectral density of the circular Jacobi ensemble for even beta: Morris
integrals (closed form and quadrature oracle), beta-dimensional integral
representations, the finite-N density, its scaled limit, and the expansion
verification machinery.

Conventions fixed by numerical oracles (direct small-N quadrature of the
eigenvalue PDF, and the determinantal diagonal at beta = 2):

  rho_{N,beta}(theta) = (N e^{q pi} / (2 pi)) *
        [M_n((p-1)b/2 + iq, (p+1)b/2 - iq, b/2) / M_{n+1}(p b/2 + iq, p b/2 - iq, b/2)]
        * e^{-q theta} e^{i n b theta / 2} |1 - e^{i theta}|^{p b} * F_n(theta),
  n = N - 1,  F_n = 2F1^{(b/2)}(-n, p+1-2iq/b; -n-p-2(1+iq)/b+2; (e^{-i theta})^b).

  rho_inf(theta) = e^{q pi} C_b e^{i b theta/2} theta^{p b}
                   1F1^{(b/2)}(p+1-2iq/b; 2p+2; (-i theta)^b).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jack import hyper_pfq_alpha
from .polynomials import EnsembleParams
from .quadrature import sector_integrate_adaptive
from .series import log_gamma

_REALITY_TOL = 1e-8


def _reality_tol(beta: int, path: str) -> float:
    """Relative imaginary residue the densities accept.

    The beta = 4 integral path's Pfaffian entries are 2-D integrals with
    endpoint exponent p - 3/2: their error, and with it the residue, is ~1e-6
    at p = 1 and grows toward p = 1/2 (1e-4..1e-3 at p = 0.8, which 1e-5
    rejects); from p = 1.5 on it is below 1e-8.
    """
    return 1e-5 if (path == "integral" and beta == 4) else _REALITY_TOL


@dataclass(frozen=True)
class MorrisParams:
    a: complex
    b: complex
    lam: float
    N: int

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.N < 1:
            raise ValueError("N must be >= 1")


@dataclass(frozen=True)
class DensityTilde:
    """(a~, b~) entering the beta-dimensional integral representations."""
    a_tilde: float
    b_tilde: complex

    @classmethod
    def from_ensemble(cls, params: EnsembleParams) -> "DensityTilde":
        beta, p, q = params.beta, params.p, params.q
        return cls(a_tilde=2 * p + 2 / beta - 1,
                   b_tilde=complex(-p - 1, 2 * q / beta))


def _log_morris(m: MorrisParams) -> complex:
    """log M_N(a, b, lam), summed term by term (see morris_closed)."""
    a, b, lam, N = m.a, m.b, m.lam, m.N
    total = 0.0 + 0.0j
    for j in range(N):
        total += (log_gamma(lam * j + a + b + 1) + log_gamma(lam * (j + 1) + 1)
                  - log_gamma(lam * j + a + 1) - log_gamma(lam * j + b + 1)
                  - log_gamma(1 + lam))
    return total


def morris_closed(m: MorrisParams) -> complex:
    """M_N(a, b, lam) = prod_{j<N} G(lam j+a+b+1) G(lam(j+1)+1)
    / (G(lam j+a+1) G(lam j+b+1) G(1+lam)), via log-gamma."""
    return complex(np.exp(_log_morris(m)))


def morris_quadrature(m: MorrisParams, level: int = 3, max_level: int = 5) -> complex:
    """Direct N-fold quadrature of the Morris integral on [-1/2, 1/2]^N.

    Ordered-sector iterated tanh-sinh rule (the |diff|^{2 lam} interaction is
    smooth inside the sector).  N <= 3 only.
    """
    if m.N > 3:
        raise ValueError("morris_quadrature supports N <= 3")
    a, b, lam = m.a, m.b, m.lam
    ab = a + b
    d = a - b

    def integrand(ts):
        total = None
        for t in ts:
            base = np.exp(1j * math.pi * d * t + ab * np.log(2 * np.cos(math.pi * t)))
            total = base if total is None else total * base
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                diff = np.abs(np.exp(2j * math.pi * ts[j]) - np.exp(2j * math.pi * ts[i]))
                total = total * diff ** (2 * lam)
        return total

    val, _err = sector_integrate_adaptive(integrand, m.N, -0.5, 0.5,
                                          start_level=level, max_level=max_level,
                                          rtol=1e-7)
    return val


# --- beta-dimensional integral representations --------------------------------

# h of the moment sum_j h(t_j) in _b_integral, by name (None: no moment)
_MOMENTS = {"one": None, "exp1": lambda t: np.exp(1j * t),
            "exp2": lambda t: np.exp(2j * t),
            "inv1p": lambda t: 1.0 / (1 + np.exp(1j * t))}


def _ensure_integrable(params: EnsembleParams):
    beta, p = params.beta, params.p
    if beta not in (2, 4):
        raise ValueError("integral path supports beta in {2, 4}")
    if p <= 1 - 2 / beta:
        raise ValueError(
            f"integral path needs p > {1 - 2 / beta} at beta={beta} "
            "(integrable endpoint weight)")


def _b_integral(params: EnsembleParams, power_factor, moment: str = "one",
                start_level: int = 4, max_level: int = 6):
    """Raw beta-dimensional integral over (-pi, pi)^beta:

        int prod_j g(t_j) [moment] prod_{j<k} |e^{i t_k} - e^{i t_j}|^{4/beta} dt,
        g(t) = e^{i t (a~-b~)/2} |1 + e^{i t}|^{a~+b~} power_factor(t),

    where [moment] is sum_j h(t_j) with h = e^{it}, e^{2it} or 1/(1+e^{it}).

    beta = 2: the ordered-sector rule on (-pi, pi)^2, level-doubled.
    beta = 4: on the ordered sector |Delta| = -prod_j e^{-3i t_j/2} det[e^{i m t_j}],
    so the integral is -24 Pf(A) by de Bruijn's identity, with
    A_lm = int int_{x<y} (phi_l(x) phi_m(y) - phi_m(x) phi_l(y)) and
    phi_m(t) = g(t) e^{i(m-3/2)t}: six two-dimensional sector integrals.  A
    moment is the first-order term of the same Pfaffian with g -> g(1 + eps h),
    whose entries carry the factor h(x) + h(y).
    """
    beta = params.beta
    td = DensityTilde.from_ensemble(params)
    ab = td.a_tilde + td.b_tilde
    d = td.a_tilde - td.b_tilde
    if moment not in _MOMENTS:
        raise ValueError(f"unknown moment {moment!r}")
    h = _MOMENTS[moment]

    def g(t):
        return np.exp(1j * d / 2 * t + ab * np.log(2 * np.abs(np.cos(t / 2)))) \
            * power_factor(t)

    def sector(integrand, with_moment):
        def f(ts):
            x, y = ts
            val = integrand(x, y)
            return val * (h(x) + h(y)) if with_moment else val
        val, _err = sector_integrate_adaptive(f, 2, -math.pi, math.pi,
                                              start_level=start_level,
                                              max_level=max_level)
        return val

    if beta == 2:
        return sector(lambda x, y: g(x) * g(y)
                      * np.abs(np.exp(1j * y) - np.exp(1j * x)) ** 2, h is not None)

    def entries(with_moment):
        # sector_integrate covers both orderings: halve for the x < y sector
        return {(l, m): 0.5 * sector(
            lambda x, y: g(x) * g(y) * (np.exp(1j * ((l - 1.5) * x + (m - 1.5) * y))
                                        - np.exp(1j * ((m - 1.5) * x + (l - 1.5) * y))),
            with_moment) for l in range(4) for m in range(l + 1, 4)}

    a = entries(False)
    if h is None:
        pf = a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
    else:
        b = entries(True)
        pf = (b[0, 1] * a[2, 3] + a[0, 1] * b[2, 3] - b[0, 2] * a[1, 3]
              - a[0, 2] * b[1, 3] + b[0, 3] * a[1, 2] + a[0, 3] * b[1, 2])
    return -24 * pf


def i_integral(kind: str, theta: float, params: EnsembleParams,
               f_moment: str = "one") -> complex:
    """Beta-dimensional integrals:

    kind='finite_N': I_N(theta), the normalized integral with the factor
        (1 + (1 - e^{-i theta}) e^{i t_j})^(N-1), equal to 1 at theta = 0.
    kind='weighted': the raw integral with e^{i theta e^{i t_j}} and the
        selected moment f in {one, exp1, exp2, inv1p}.
    kind='infinity': same with f = 1.
    """
    _ensure_integrable(params)
    if kind == "finite_N":
        if not 0 <= theta < 2 * math.pi:
            raise ValueError("theta must lie in [0, 2 pi)")
        n = params.size - 1
        w = 1 - np.exp(-1j * theta)
        raw = _b_integral(params, lambda t: (1 + w * np.exp(1j * t)) ** n)
        raw0 = _b_integral(params, lambda t: np.ones_like(t))
        return raw / raw0
    if kind in ("weighted", "infinity"):
        moment = "one" if kind == "infinity" else f_moment
        if moment not in _MOMENTS:
            raise ValueError(f"moment must be one of {tuple(_MOMENTS)}")
        return _b_integral(params, lambda t: np.exp(1j * theta * np.exp(1j * t)),
                           moment=moment)
    raise ValueError("kind must be finite_N, weighted or infinity")


# --- densities ----------------------------------------------------------------

def _morris_ratio(params: EnsembleParams) -> complex:
    """M_n((p-1)b/2+iq, (p+1)b/2-iq, b/2) / M_{n+1}(p b/2+iq, p b/2-iq, b/2),
    as one exponential: at large N both overflow on their own."""
    beta, p, q, n = params.beta, params.p, params.q, params.size - 1
    lam = beta / 2
    log_num = _log_morris(MorrisParams(complex((p - 1) * lam, q),
                                       complex((p + 1) * lam, -q), lam, n)) if n else 0.0
    log_den = _log_morris(MorrisParams(complex(p * lam, q),
                                       complex(p * lam, -q), lam, n + 1))
    return complex(np.exp(log_num - log_den))


def _rho_prefactor(theta: float, params: EnsembleParams) -> complex:
    beta, p, q, N = params.beta, params.p, params.q, params.size
    n = N - 1
    return (N * math.exp(q * math.pi) / (2 * math.pi) * _morris_ratio(params)
            * np.exp(complex(-q * theta, n * beta * theta / 2))
            * np.abs(1 - np.exp(1j * theta)) ** (p * beta))


def rho_finite(theta: float, params: EnsembleParams, path: str = "jack") -> float:
    """Finite-N spectral density rho_{N,beta}(theta), beta even."""
    beta, p, q, N = params.beta, params.p, params.q, params.size
    if beta % 2:
        raise ValueError("density requires even beta")
    if not 0 < theta < 2 * math.pi:
        raise ValueError("theta must lie in (0, 2 pi)")
    if p == 0:
        return N / (2 * math.pi)  # circular ensemble: exactly uniform
    n = N - 1
    if path == "jack":
        cpar = complex(-n - p - 2 / beta + 2, -2 * q / beta)
        F = hyper_pfq_alpha([complex(-n), complex(p + 1, -2 * q / beta)], [cpar],
                            beta / 2, beta, np.exp(-1j * theta),
                            max_weight=beta * n + 3)
    elif path == "integral":
        F_num = i_integral("finite_N", theta, params)
        td = DensityTilde.from_ensemble(params)
        F_den = hyper_pfq_alpha([complex(-n), -td.b_tilde], [complex(2 * p + 2)],
                                beta / 2, beta, 1.0 + 0.0j, max_weight=beta * n + 3)
        F = F_num / F_den
    else:
        raise ValueError("path must be 'jack' or 'integral'")
    val = _rho_prefactor(theta, params) * F
    if not np.isfinite(val):
        raise ArithmeticError(f"density is not finite at theta={theta}: {val}")
    scale = max(abs(val), 1e-300)
    tol = _reality_tol(beta, path)
    if abs(val.imag) > tol * scale or val.real < -tol * scale:
        raise ArithmeticError(
            f"density reality/positivity violated at theta={theta}: {val}")
    return float(val.real)


def c_beta_limit(params: EnsembleParams) -> float:
    """e^{q pi} C_beta: the constant of the scaled-limit density."""
    beta, p, q = params.beta, params.p, params.q
    lam = beta / 2
    lg = (log_gamma(1 + lam) + log_gamma(complex(p * lam + 1, q)).real * 2
          - log_gamma(p * beta + lam + 1).real - log_gamma(p * beta + 1).real)
    # |G(p lam + 1 + iq)|^2 = G(..+iq) G(..-iq): use twice the real part of log
    return math.exp(p * beta * math.log(lam) - math.log(2 * math.pi)
                    + lg.real + q * math.pi)


def rho_limit(theta: float, params: EnsembleParams, path: str = "jack",
              max_weight: int = 40) -> float:
    """Scaled-limit density rho_inf(theta) = lim (1/N) rho_N(theta/N)."""
    beta, p, q = params.beta, params.p, params.q
    if beta % 2:
        raise ValueError("density requires even beta")
    if theta <= 0:
        raise ValueError("theta must be positive")
    if p == 0:
        return 1 / (2 * math.pi)  # circular ensemble limit, uniform
    if path == "jack":
        F = hyper_pfq_alpha([complex(p + 1, -2 * q / beta)], [complex(2 * p + 2)],
                            beta / 2, beta, -1j * theta, max_weight=max_weight)
    elif path == "integral":
        _ensure_integrable(params)
        raw = i_integral("infinity", theta, params)
        raw0 = _b_integral(params, lambda t: np.ones_like(t))
        F = raw / raw0
    else:
        raise ValueError("path must be 'jack' or 'integral'")
    val = c_beta_limit(params) * np.exp(1j * beta * theta / 2) \
        * theta ** (p * beta) * F
    if not np.isfinite(val):
        raise ArithmeticError(f"rho_inf is not finite at theta={theta}: {val}")
    scale = max(abs(val), 1e-300)
    if abs(val.imag) > _reality_tol(beta, path) * scale:
        raise ArithmeticError(f"rho_inf reality violated: {val}")
    return float(val.real)


def density_expansion_check(theta: float, params: EnsembleParams, N_list,
                            h: float = 1e-4) -> dict:
    """Verify the large-N density expansion and the tuned scaling.

    Returns {l1_predicted, l1_measured (per N), slope_after_l1, slope_tuned}.
    """
    from .asymptotics import fit_loglog

    beta, p, q = params.beta, params.p, params.q
    N_list = sorted(N_list)
    if len(N_list) < 2:
        raise ValueError("need at least two N values")

    def rinf(t):
        return rho_limit(t, params)

    # l1_predicted = p d/dtheta [ theta rho_inf ], five-point stencil
    hh = h * theta
    vals = [(theta + k * hh) * rinf(theta + k * hh) for k in (-2, -1, 1, 2)]
    l1_pred = p * (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * hh)

    r0 = rinf(theta)
    l1_meas = []
    resid_after = []
    resid_tuned = []
    for N in N_list:
        pn = EnsembleParams(beta, N, p, q)
        scaled = rho_finite(theta / N, pn, path="jack") / N
        l1_meas.append(N * (scaled - r0))
        resid_after.append(abs(scaled - r0 - l1_pred / N))
        tuned = rho_finite(theta / (N + p), pn, path="jack") / (N + p)
        resid_tuned.append(abs(tuned - r0))
    slope_after, _r2a = fit_loglog(N_list, resid_after)
    slope_tuned, _r2t = fit_loglog(N_list, resid_tuned)
    return {"l1_predicted": float(l1_pred), "l1_measured": l1_meas,
            "slope_after_l1": slope_after, "slope_tuned": slope_tuned}
