"""Spectral density of the circular Jacobi ensemble for even beta: Morris
integrals (closed form and quadrature oracle), beta-dimensional integral
representations (beta = 2, 4: 1-D integrals on one contour inside the unit
disk), the finite-N density, its scaled limit, and the expansion
verification machinery.

Conventions fixed by numerical oracles (direct small-N quadrature of the
eigenvalue PDF, and the determinantal diagonal at beta = 2):

  rho_{N,beta}(theta) = (N e^{q pi} / (2 pi)) *
        [M_n((p-1)b/2 + iq, (p+1)b/2 - iq, b/2) / M_{n+1}(p b/2 + iq, p b/2 - iq, b/2)]
        * e^{-q theta} e^{i n b theta / 2} |1 - e^{i theta}|^{p b} * F_n(theta),
  n = N - 1,  F_n = 2F1^{(b/2)}(-n, p+1-2iq/b; -n-p-2(1+iq)/b+2; (e^{-i theta})^b).

  rho_inf(theta) = e^{q pi} C_b e^{i b theta/2} theta^{p b}
                   1F1^{(b/2)}(p+1-2iq/b; 2p+2; (-i theta)^b).

F_n's Jack series is summed once per parameter set, by shells at x = 1,
and each theta is a Horner pass over them at x = e^{-i theta}.
"""
from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .jack import _hyp2f1_unit, _pfq_shells
from .polynomials import EnsembleParams
from .quadrature import _T_CUT, _sinc_matrix, _unit_nodes, sector_integrate_adaptive
from .series import NonConvergenceError, PoleError, log_gamma

_REALITY_TOL = 1e-8  # relative imaginary residue the densities accept
# the normalization integral counts as 0 below this share of the integral of
# its modulus: the share is 0 at Gamma poles (q = 0 with p an integer at
# beta = 2, 2p at beta = 4), and reaches 4e-18 away from them (beta = 4,
# p = 4.5, q = 0.3)
_NORM_TOL = 1e-24
# morris_quadrature: the largest relative change of its last level it accepts
# (the CLI's morris-check tolerance); the cap on the log of its integrand
# (exp(700) is finite); the smallest distance to an end it uses, and the log
# below which its integrand is set to 0 (exp is many times slower on results
# that underflow into subnormals)
_MORRIS_RTOL = 1e-6
_LOG_CAP = 700.0
# morris_quadrature's levels past 5, where level 5 does not settle: up to the
# finest whose grid, (nodes per axis)^N, holds at most _MORRIS_POINTS points
# (193^3 = 7.2e6 is level 5 at N = 3 on the widest window), and no finer
# than _MORRIS_TOP, whose step 2^-11 no double-precision integrand needs
_MORRIS_POINTS = 2 ** 23
_MORRIS_TOP = 12
_TINY = np.finfo(float).tiny
_LOG_TINY = math.log(_TINY)


@dataclass(frozen=True)
class MorrisParams:
    a: complex
    b: complex
    lam: float
    N: int

    def __post_init__(self):
        if not (cmath.isfinite(self.a) and cmath.isfinite(self.b) and math.isfinite(self.lam)):
            raise ValueError(f"a, b and lambda must be finite: {self.a}, {self.b}, {self.lam}")
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


def _morris_window(e: float) -> float:
    """The node window |t| <= T of morris_quadrature's tanh-sinh levels, for
    an integrand that vanishes like distance^e at the ends of its axes.

    The terms beyond |t| = T hold about exp(-(1 + e) pi sinh T) of the
    integral (Takahasi and Mori, Publ. RIMS 9 (1974) 721-741; Bailey,
    Jeyabalan and Li, Exp. Math. 14 (2005) 317-329).  T leaves out 1e-18 of
    it, plus 0.1 for the factors that estimate omits, rounded up to a
    multiple of 1/4, the step of the first level, so that calls share
    windows and so the cached nodes; it is capped at _T_CUT, the end of the
    default rule.  Where that end leaves out more than a tenth of
    _MORRIS_RTOL (1 + e < 0.024), NonConvergenceError is raised: what the
    window leaves out is the same at every level, so no level difference
    would show it.
    """
    dropped = math.exp(-(1 + e) * math.pi * math.sinh(_T_CUT))
    if dropped > 0.1 * _MORRIS_RTOL:
        raise NonConvergenceError(
            f"Morris quadrature: the rule's last nodes leave out about {dropped:.1e} of "
            f"the integral, whose integrand vanishes like distance^{e:.3g} at an end")
    T = math.asinh(18 * math.log(10) / (math.pi * (1 + e))) + 0.1
    return min(_T_CUT, math.ceil(4 * T) / 4)


def morris_quadrature(m: MorrisParams) -> complex:
    """Direct N-fold quadrature of the Morris integral on [-1/2, 1/2]^N.

    Ordered-sector iterated tanh-sinh rule (the |diff|^{2 lam} interaction is
    smooth inside the sector).  N <= 3 only.  Each point costs one exp (a
    real one when a = conj(b)) of

        sum_j [i pi d t_j + (a+b) log(2 cos pi t_j)]
            + 2 lam sum_{i<j} log(2 sin pi (t_j - t_i)),  d = a - b.

    2 cos pi t is 2 sin(pi * distance to the nearer end), and t_j - t_i is a
    sum of the rule's gaps, or 1 minus it as (t_i + 1/2) + (1/2 - t_j)
    when that is smaller; so each factor keeps its relative precision at the
    ends, where it vanishes and Re(a+b) < 0 makes the integrand singular.
    The distance to an end is floored at the smallest normal double (inner
    axes place it as a product that can underflow to 0); a zero gap gives
    log 0 = -inf and the point 0.  The exponent is capped at
    _LOG_CAP; it binds only for Re(a+b) < 0 at points within about 1e-300
    of an end, whose weights are smaller still (integrand times weight tends
    to 0 there for Re(a+b) > -1), so no product overflows.

    The levels run on the nodes |t| <= T that _morris_window sizes from the
    powers with which the integrand vanishes, distance^(a+b) at the ends of
    every axis and gap^(2 lam) behind each inner one, so that the nodes left
    out would add less than 1e-18 of the integral.  They run from 3 to 5
    (stopping early once two agree to 1e-7), and where levels 4 and 5 are
    more than 1e-6 apart, on from 5 to the finest level whose grid,
    (nodes per axis)^N, holds at most _MORRIS_POINTS points.

    Raises ValueError for Re(a+b) <= -1, where the integral diverges, and
    NonConvergenceError when the last two levels differ by more than 1e-6
    relative, or when Re(a+b) < -0.976, where the rule's last nodes, 1e-290
    from the ends, leave out more than 1e-7 of the integral (1.6e-6 at
    -0.98), which no level difference shows.
    """
    if m.N > 3:
        raise ValueError("morris_quadrature supports N <= 3")
    ab, d, N = m.a + m.b, m.a - m.b, m.N
    if ab.real <= -1:
        raise ValueError(f"the Morris integral diverges for Re(a + b) = {ab.real} <= -1")

    lam2 = 2 * m.lam
    # the log 2 of the N end and N (N - 1) / 2 pair factors 2 sin(...)
    log2 = math.log(2) * (N * ab + lam2 * N * (N - 1) / 2)

    def log_sin(x):
        """log sin(pi x) for x in [0, 1/2], in place of x."""
        x *= math.pi
        return np.log(np.sin(x, out=x), out=x)

    def integrand(ts):
        t_sum = sum(ts)
        with np.errstate(divide="ignore"):
            ends = sum(log_sin(np.maximum(np.minimum(lo, hi), _TINY))
                       for lo, hi in zip(ts.to_a, ts.to_b))
            pairs = sum(log_sin(np.minimum(reduce(np.add, ts.gaps[i:j]), ts.to_a[i] + ts.to_b[j]))
                        for i in range(N) for j in range(i + 1, N))
        expo = ab.real * ends + lam2 * pairs - (math.pi * d.imag) * t_sum
        expo += log2.real
        np.minimum(expo, _LOG_CAP, out=expo)
        np.copyto(expo, -np.inf, where=expo < _LOG_TINY)
        if ab.imag == 0 and d.real == 0:  # a = conj(b): a real integrand
            return np.exp(expo)
        return np.exp(expo + 1j * (ab.imag * ends + (math.pi * d.real) * t_sum + log2.imag))

    tmax = _morris_window(ab.real if N == 1 else min(ab.real, lam2))
    value, err = sector_integrate_adaptive(integrand, N, -0.5, 0.5, start_level=3,
                                           max_level=5, rtol=1e-7, tmax=tmax)
    if err > _MORRIS_RTOL:
        top = 5
        while top < _MORRIS_TOP and (2 * int(tmax * 2 ** top) + 1) ** N <= _MORRIS_POINTS:
            top += 1  # level top + 1 has the nodes k h, |k h| <= tmax, h = 2^-top
        if top > 5:
            value, err = sector_integrate_adaptive(integrand, N, -0.5, 0.5, start_level=5,
                                                   max_level=top, rtol=1e-7, tmax=tmax)
    if err > _MORRIS_RTOL:
        raise NonConvergenceError(
            f"Morris quadrature: last two levels differ by {err:.2e} (relative)")
    return value


# --- beta-dimensional integral representations --------------------------------

# h(e^{it}, t, |1 + e^{it}|) of the moment sum_j h(t_j) in _b_integral, by
# name (None: no moment); 1/(1 + e^{it}) = e^{-it/2} / (2 cos(t/2))
_MOMENTS = {"one": None, "exp1": lambda z, _t, _two_cos: z,
            "exp2": lambda z, _t, _two_cos: z * z,
            "inv1p": lambda _z, t, two_cos: np.exp(-0.5j * t) / two_cos}


def _check_normalization(td: DensityTilde, beta: int):
    """Raise ZeroDivisionError where the normalization integral, (2 pi)^beta
    M_beta(a~, b~, 2/beta), is below _NORM_TOL of the integral of its modulus,
    (2 pi)^beta M_beta(a', conj(a'), 2/beta) with a' = (Re(a~+b~) +
    i Im(a~-b~))/2 (|g| in the Morris form).  A Gamma pole of b~ makes it 0.

    In the share G(lam(j+1)+1) and G(1+lam) cancel, |G(x + a')|^2 =
    G(x + a') G(x + conj(a')), and x = lam j + 1 at j >= beta/2 is 1 more
    than at j - beta/2: three complex and two real log-gammas per j < beta/2."""
    a, b = td.a_tilde, td.b_tilde
    ab = a + b
    a_mod = complex(ab.real, (a - b).imag) / 2
    log_share = 0.0
    try:
        for j in range(beta // 2):
            x = 2 * j / beta + 1
            for c, times in ((ab, 1), (b, -1), (a, -1), (ab.real, -1), (a_mod, 2)):
                log_share += times * (2 * log_gamma(x + c).real + math.log(abs(x + c)))
        share = math.exp(log_share)
    except PoleError:
        share = 0.0
    if not share > _NORM_TOL:
        raise ZeroDivisionError(f"normalization integral is 0: {share:.2e} of the "
                                "integral of its modulus")


@lru_cache(maxsize=2)
def _contour(level: int) -> tuple:
    """A tanh-sinh level on _b_integral's contour t = s + i (1 + cos s),
    built once per process and read-only: t, 2 cos(t/2), its log, e^{it},
    the weights 2 pi w dt/ds, and the e^{imt} (m = 0, 1, -1; columns) and
    e^{ikt/2} (k = -3, -1, 1, 3; rows) of beta = 2 and 4.  s = 2 pi u - pi
    for the unit nodes u (_unit_nodes); s = +-pi (1 - dist), with
    dist = 2 min(u, 1 - u), and 2 cos(t/2) = 2 sin((pi dist -+ i (1 + cos s))/2)
    keep their relative precision at s = +-pi, where 2 cos(t/2) vanishes."""
    u, rest, w = _unit_nodes(level)
    dist, sign = 2 * np.minimum(u, rest), np.where(u < rest, -1.0, 1.0)
    s = sign * (math.pi * (1 - dist))
    y = 2 * np.sin(0.5 * math.pi * dist) ** 2  # 1 + cos s, stably
    t = s + 1j * y
    two_cos = 2 * np.sin(0.5 * (math.pi * dist - 1j * (sign * y)))
    z = np.exp(1j * t)
    arrays = (t, two_cos, np.log(two_cos), z, math.pi * (2 * w) * (1 - 1j * np.sin(s)),
              np.array([np.ones(t.size), z, np.exp(-1j * t)]).T,
              np.exp(1j * np.outer(np.arange(4) - 1.5, t)))
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _b_integral(params: EnsembleParams, power_factor, moment: str = "one",
                normalized: bool = False):
    """The beta-dimensional integral over (-pi, pi)^beta

        int prod_j g(t_j) [moment] prod_{j<k} |e^{i t_k} - e^{i t_j}|^{4/beta} dt,
        g(t) = e^{i t (a~-b~)/2} |1 + e^{i t}|^{a~+b~} power_factor(e^{it}),

    where [moment] is sum_j h(t_j) with h = e^{it}, e^{2it} or 1/(1+e^{it}).
    It needs beta in {2, 4} and p > 1 - 2/beta, and the inv1p moment, which
    carries |1 + e^{it}|^{a~+b~-1}, p + 2/beta - 2 > 0; otherwise ValueError
    is raised, as for normalized=True with a moment.  normalized=True divides
    by the same integral with power_factor 1, the normalization of both
    integral paths, after _check_normalization; one pass forms g once per
    node for both, so they share nodes, levels and quadrature errors.

    Both betas reduce it to 1-D integrals of g e^{ikt/2}, analytic for
    Re t in (-pi, pi), Im t >= 0 (power_factor must be too) and smaller
    there: they are taken on each level's _contour, inside the unit disk,
    where (1 + (1 - e^{-i theta}) e^{it})^(N-1) cancels far less than on
    the real axis, which the contour meets at t = +-pi.
    beta = 2: by Andreief's identity, with |e^{iy} - e^{ix}|^2 =
    2 - e^{i(y-x)} - e^{-i(y-x)}, the integral is 2 (G_0^2 - G_1 G_-1), or
    2 (2 G_0 H_0 - G_1 H_-1 - G_-1 H_1) with a moment, where G_m and H_m are
    int e^{imt} times g and g h: the weighted rows times the e^{imt} columns.
    beta = 4: on the ordered sector |Delta| = -prod_j e^{-3i t_j/2} det[e^{i m t_j}],
    so the integral is -24 Pf(A) by de Bruijn's identity, with
    A_lm = int int_{x<y} (phi_l(x) phi_m(y) - phi_m(x) phi_l(y)) and
    phi_m(t) = g(t) e^{i(m-3/2)t}.  With F the 4 x n matrix of the weighted
    phi_m, A = F S F^T (_sinc_matrix).  A moment is the first-order term of
    the same Pfaffian with g -> g(1 + eps h): B = F_h S F^T + F S F_h^T,
    F_h = F h.  Each level multiplies S once, by the stacked rows of both
    integrals (or of F, F_h).
    Levels 6 and 7 must agree to 1e-8 relative; else NonConvergenceError.
    """
    beta = params.beta
    if beta not in (2, 4):
        raise ValueError("integral path supports beta in {2, 4}")
    if params.p <= 1 - 2 / beta:
        raise ValueError(f"integral path needs p > {1 - 2 / beta} at beta={beta} "
                         "(integrable endpoint weight)")
    if moment not in _MOMENTS or normalized and moment != "one":
        raise ValueError(f"moment must be one of {tuple(_MOMENTS)}, and one if normalized")
    td = DensityTilde.from_ensemble(params)
    ab = td.a_tilde + td.b_tilde
    d = td.a_tilde - td.b_tilde
    if moment == "inv1p" and ab.real <= 0:
        raise ValueError(
            f"the inv1p moment needs p > {2 - 2 / beta} at beta={beta} "
            "(integrable endpoint weight)")
    h = _MOMENTS[moment]
    if normalized:
        _check_normalization(td, beta)

    def andreief(G, H):
        # bilinear, with the integral 2 (G_0^2 - G_1 G_-1) = andreief(G, G)
        return 2 * G[0] * H[0] - G[1] * H[2] - G[2] * H[1]

    def pf(M, N):
        # bilinear, with Pf(A) = pf(A, A) for an antisymmetric 4 x 4 A
        return M[0, 1] * N[2, 3] - M[0, 2] * N[1, 3] + M[0, 3] * N[1, 2]

    def level_values(level):
        # the integrals of one level's weighted rows: g and g power_factor
        # when normalized, else g power_factor, and g power_factor h with a moment
        t, two_cos, log_two_cos, z, weights, moments, halves = _contour(level)
        g = np.exp((0.5j * d) * t + ab * log_two_cos)
        f = g * power_factor(z) * weights
        rows = np.array([g * weights, f] if normalized
                        else [f] if h is None else [f, f * h(z, t, two_cos)])
        if beta == 2:
            G = (rows @ moments).T  # G_0, G_1, G_-1 of each row
            return 2 * andreief(G[:, :1], G[:, 1:]) if h is not None else andreief(G, G)
        F = rows[:, None] * halves
        # real S: no complex copy of it
        S, flat = _sinc_matrix(t.size), F.reshape(-1, t.size)
        prod = flat.real @ S + 1j * (flat.imag @ S)
        if h is not None:
            # antisymmetric S: F S F_h^T = -(F_h S F^T)^T
            A, X = prod[:4] @ F[0].T, prod[4:] @ F[0].T
            return np.array([pf(A, X - X.T) + pf(X - X.T, A)])
        return np.array([pf(A, A) for A in (prod[4 * k:4 * k + 4] @ F[k].T
                                             for k in range(len(F)))])

    coarse, fine = level_values(6), level_values(7)
    err = np.abs(fine - coarse)
    if not np.all(err <= 1e-8 * np.abs(fine)):
        raise NonConvergenceError(f"contour levels 6 and 7 differ by {err.max():.2e} "
                                  f"(value {np.abs(fine).min():.2e})")
    return fine[1] / fine[0] if normalized else (1 if beta == 2 else -24) * fine[0]


def i_integral(kind: str, theta: float, params: EnsembleParams,
               f_moment: str = "one") -> complex:
    """Beta-dimensional integrals:

    kind='finite_N': I_N(theta), the integral with (1 + (1 - e^{-i theta}) e^{i t_j})^(N-1)
        over the normalization, both from one pass; 1 at theta = 0.
    kind='weighted': the raw integral with e^{i theta e^{i t_j}} and the
        selected moment f in {one, exp1, exp2, inv1p}.
    kind='infinity': same with f = 1.
    """
    if kind == "finite_N":
        if not 0 <= theta < 2 * math.pi:
            raise ValueError("theta must lie in [0, 2 pi)")
        n = params.size - 1
        w = 1 - np.exp(-1j * theta)
        return _b_integral(params, lambda z: (1 + w * z) ** n, normalized=True)
    if kind in ("weighted", "infinity"):
        moment = "one" if kind == "infinity" else f_moment
        return _b_integral(params, lambda z: np.exp(1j * theta * z), moment=moment)
    raise ValueError("kind must be finite_N, weighted or infinity")


# --- densities ----------------------------------------------------------------

@lru_cache(maxsize=256)
def _morris_ratio(params: EnsembleParams) -> complex:
    """M_n((p-1)b/2+iq, (p+1)b/2-iq, b/2) / M_{n+1}(p b/2+iq, p b/2-iq, b/2),
    as one exponential: at large N both overflow on their own.  It does not
    depend on theta, so it is cached per parameter set.

    With lam = b/2 and A_j = log G(lam (j+p) + 1 + iq), the two products of
    morris_closed telescope to
        A_{n-1} + A_n + conj(A_0) + log G(1+lam) - A_{-1}
            - log G(lam n + 2 p lam + 1) - log G(lam (n+1) + 1),
    seven log-gamma values in place of 5 (2N - 1).
    """
    beta, p, q, n = params.beta, params.p, params.q, params.size - 1
    lam = beta / 2

    def A(j):
        return log_gamma(complex(lam * (j + p) + 1, q))

    a0 = A(0)
    log_ratio = (A(n) + a0.conjugate() + log_gamma(1 + lam)
                 - log_gamma(lam * (n + 2 * p) + 1) - log_gamma(lam * (n + 1) + 1))
    if n:
        # at n = 0 the pair cancels
        log_ratio += A(n - 1) - A(-1)
    return complex(np.exp(log_ratio))


def _rho_prefactor(theta: float, params: EnsembleParams) -> complex:
    beta, p, q, N = params.beta, params.p, params.q, params.size
    n = N - 1
    return (N * math.exp(q * math.pi) / (2 * math.pi) * _morris_ratio(params)
            * np.exp(complex(-q * theta, n * beta * theta / 2))
            * np.abs(1 - np.exp(1j * theta)) ** (p * beta))


@lru_cache(maxsize=256)
def _finite_shells(params: EnsembleParams) -> np.ndarray:
    """Shells of rho_finite's Jack series F_n at x = 1, read-only and cached
    per parameter set.  Shell w is homogeneous of degree w in x, so at
    x = e^{-i theta} it is e^{-i w theta} times entry w; |x| = 1 gives every
    term the same modulus at every theta, so the sum at x = 1 overflows or
    underflows only where the sum at x would.  Weight beta n holds the whole
    beta x n box: the series is summed exactly.  lru_cache keeps no
    exception: a parameter set that raises (a pole, a non-finite shell, a
    tree past the node budget) raises on every call."""
    beta, p, q, n = params.beta, params.p, params.q, params.size - 1
    cpar = complex(-n - p - 2 / beta + 2, -2 * q / beta)
    shells = _pfq_shells([complex(-n), complex(p + 1, -2 * q / beta)], [cpar],
                         beta / 2, beta, 1.0, beta * n)
    shells.flags.writeable = False
    return shells


def rho_finite(theta: float, params: EnsembleParams, path: str = "jack") -> float:
    """Finite-N spectral density rho_{N,beta}(theta), beta even.

    path 'jack' evaluates the Jack series F_n by Horner's rule in
    e^{-i theta} over its shells at x = 1 (_finite_shells), whose rounding
    bound, eps sum_w |shell_w|, is that of the sum at x = e^{-i theta}.
    path 'integral' (beta in {2, 4}) takes F_n = I_N(theta) /
    2F1^(beta/2)(-n, -b~; 2p+2; 1^beta), -b~ = p+1-2iq/beta, with the
    denominator in closed form (_hyp2f1_unit): it shares no series with the
    Jack path.
    """
    beta, p, q, N = params.beta, params.p, params.q, params.size
    if beta % 2:
        raise ValueError("density requires even beta")
    if not 0 < theta < 2 * math.pi:
        raise ValueError("theta must lie in (0, 2 pi)")
    if path not in ("jack", "integral"):
        raise ValueError("path must be 'jack' or 'integral'")
    if p == 0:
        return N / (2 * math.pi)  # circular ensemble: exactly uniform
    if path == "jack":
        z, F = cmath.exp(-1j * theta), 0j
        for shell in reversed(_finite_shells(params).tolist()):
            F = F * z + shell
    else:
        F = i_integral("finite_N", theta, params) / _hyp2f1_unit(
            N - 1, complex(p + 1, -2 * q / beta), complex(2 * p + 2), beta / 2, beta)
    val = _rho_prefactor(theta, params) * F
    if not np.isfinite(val):
        raise ArithmeticError(f"density is not finite at theta={theta}: {val}")
    scale = max(abs(val), 1e-300)
    if abs(val.imag) > _REALITY_TOL * scale or val.real < -_REALITY_TOL * scale:
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


def _limit_shells(theta: float, params: EnsembleParams,
                  max_weight: int = 40) -> np.ndarray:
    """Shells of rho_inf's Jack series 1F1^(beta/2)(p+1-2iq/beta; 2p+2;
    -i theta 1_beta); shell w is homogeneous of degree w in theta."""
    beta, p, q = params.beta, params.p, params.q
    return _pfq_shells([complex(p + 1, -2 * q / beta)], [complex(2 * p + 2)],
                       beta / 2, beta, -1j * theta, max_weight)


def rho_limit(theta: float, params: EnsembleParams, path: str = "jack",
              max_weight: int = 40) -> float:
    """Scaled-limit density rho_inf(theta) = lim (1/N) rho_N(theta/N)."""
    return _rho_limit(theta, params, path, max_weight)[0]


def _rho_limit(theta: float, params: EnsembleParams, path: str = "jack",
               max_weight: int = 40) -> tuple:
    """rho_limit and the shells of its Jack series (None where none is
    summed: path 'integral', or p = 0)."""
    beta, p, q = params.beta, params.p, params.q
    if beta % 2:
        raise ValueError("density requires even beta")
    if not 0 < theta < math.inf:
        raise ValueError("theta must be positive and finite")
    if path not in ("jack", "integral"):
        raise ValueError("path must be 'jack' or 'integral'")
    if operator.index(max_weight) < 0:
        raise ValueError("max_weight must be a nonnegative integer")
    if p == 0:
        return 1 / (2 * math.pi), None  # circular ensemble limit, uniform
    shells = None
    if path == "jack":
        shells = _limit_shells(theta, params, max_weight)
        F = np.sum(shells)
    else:
        F = _b_integral(params, lambda z: np.exp(1j * theta * z), normalized=True)
    val = c_beta_limit(params) * np.exp(1j * beta * theta / 2) \
        * theta ** (p * beta) * F
    if not np.isfinite(val):
        raise ArithmeticError(f"rho_inf is not finite at theta={theta}: {val}")
    scale = max(abs(val), 1e-300)
    if abs(val.imag) > _REALITY_TOL * scale:
        raise ArithmeticError(f"rho_inf reality violated: {val}")
    return float(val.real), shells


def density_expansion_check(theta: float, params: EnsembleParams, N_list) -> dict:
    """Verify the large-N density expansion and the tuned scaling.

    Returns {l1_predicted, l1_measured (per N), slope_after_l1, slope_tuned}.
    """
    from .asymptotics import fit_loglog

    beta, p, q = params.beta, params.p, params.q
    N_list = sorted(N_list)
    if len(N_list) < 2:
        raise ValueError("need at least two N values")

    # l1_predicted = p d/dtheta [theta rho_inf].  rho_inf = c theta^(p beta)
    # e^{i beta theta/2} F is real, so theta rho_inf'/rho_inf is the real part
    # of p beta + i beta theta/2 + theta F'/F, and theta F' = sum_w w shell_w
    r0, shells = _rho_limit(theta, params)
    if shells is None:   # p = 0: the uniform limit sums no series
        shells = _limit_shells(theta, params)
    theta_dlogF = np.sum(np.arange(len(shells)) * shells) / np.sum(shells)
    l1_pred = p * r0 * (1 + p * beta + theta_dlogF.real)
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
