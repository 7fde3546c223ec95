"""Quadrature utilities: tanh-sinh (double exponential) rules for endpoint
algebraic singularities and the library's one adaptive 1-D integrator on
them (levels rise until two agree; each level holds the one below, so only
its new nodes are evaluated), a Gauss-Jacobi rule for s^expo times a smooth
function, the sinc matrix that gives ordered double integrals on tanh-sinh
nodes, and an ordered-sector iterated scheme for symmetric multidimensional
integrands with |diff|-type interior kinks (the Morris oracle).  The
tanh-sinh nodes and weights on (-1, 1) are built once per level and kept
read-only, as is the sinc matrix once per size.

The Gauss-Jacobi nodes are the eigenvalues of the Jacobi matrix (Golub and
Welsch, Math. Comp. 23 (1969) 221-230), polished by one Newton step on the
three-term recurrence, which also gives the Christoffel weights.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .series import NonConvergenceError, _Jet


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights with declared domain."""
    nodes: np.ndarray
    weights: np.ndarray
    domain: tuple[float, float]

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")
        a, b = self.domain
        if np.any(self.nodes <= a) or np.any(self.nodes >= b):
            raise ValueError("nodes must lie strictly inside the domain")


@lru_cache(maxsize=32)
def _tanh_sinh_raw(level: int, odd: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes on (-1, 1), read-only: returns (x, w, dist) with dist = 1 - |x|
    computed stably.  odd=True keeps the nodes t = k h of odd k only: those
    that level - 1 lacks.

    A node is kept while dist > 1e-290, a test on t alone, so each level
    holds every node of the one below, whose weights are exactly twice its
    own (h is a power of two).
    """
    h = 2.0 ** (1 - level)
    tmax = 6.8
    k = np.arange(-int(tmax / h), int(tmax / h) + 1)
    if odd:
        k = k[k % 2 == 1]
    t = k * h
    u = 0.5 * math.pi * np.sinh(t)
    with np.errstate(over="ignore"):
        x = np.tanh(u)
        w = h * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
        dist = 1.0 / (np.exp(2 * np.abs(u)) + 1.0) * 2.0  # 1 - |tanh(u)|
    keep = dist > 1e-290
    out = x[keep], w[keep], dist[keep]
    for arr in out:
        arr.flags.writeable = False
    return out


def _on_interval(a: float, b: float, x, w, dist) -> QuadratureRule:
    """The rule (x, w, dist) on (-1, 1) mapped onto (a, b)."""
    half = 0.5 * (b - a)
    # nodes are placed from the nearer endpoint, with the distance evaluated
    # stably; only those that round onto an endpoint are dropped
    nodes = np.where(x >= 0, b - half * dist, a + half * dist)
    keep = (nodes > a) & (nodes < b)
    return QuadratureRule(nodes=nodes[keep], weights=w[keep] * half, domain=(a, b))


def tanh_sinh_rule(a: float, b: float, level: int = 8) -> QuadratureRule:
    """Tanh-sinh rule on (a, b); handles integrable algebraic endpoint
    singularities.  Node count roughly doubles per level."""
    return _on_interval(a, b, *_tanh_sinh_raw(level))


def tanh_sinh_adaptive(terms, a: float, b: float, noise=None):
    """Integrals over (a, b) on tanh-sinh levels 4, 5, ..., 12.

    terms(rule) returns f(rule.nodes) * rule.weights, or a stack of such
    rows (nodes on the last axis).  The sums are returned once two successive
    levels agree to 1e-13 of sum |terms| in every row.  Otherwise, given
    noise(rule), a bound on the rounding error of each term, the last level
    is returned if its change from level 11 and the summed bound are within
    1e-6 |sum| + 1e-8; else NonConvergenceError is raised.

    The levels are nested (Bailey, Jeyabalan and Li, Exp. Math. 14 (2005)
    317-329): level L + 1 calls terms only on the nodes level L lacks, and
    its sum is half the sum of level L plus theirs, so terms sees each node
    once.  sum |terms| is carried the same way.
    """
    vals = np.asarray(terms(tanh_sinh_rule(a, b, 4)))
    cur, mass = vals.sum(axis=-1), np.abs(vals).sum(axis=-1)
    for level in range(5, 13):
        vals = np.asarray(terms(_on_interval(a, b, *_tanh_sinh_raw(level, odd=True))))
        prev = cur
        cur = 0.5 * prev + vals.sum(axis=-1)
        mass = 0.5 * mass + np.abs(vals).sum(axis=-1)
        err = np.abs(cur - prev)
        if np.all(err <= 1e-13 * mass):
            return cur
    if noise is not None:
        err = np.maximum(err, np.sum(noise(tanh_sinh_rule(a, b, level)), axis=-1))
        if np.all(err <= 1e-6 * np.abs(cur) + 1e-8):
            return cur
    raise NonConvergenceError(
        f"tanh-sinh level {level} error estimate {np.max(err):.2e} on ({a}, {b})")


# the step of the complex-step derivative in _gauss_jacobi_pair: a power of
# two, so dividing by it is exact, and small enough that its square vanishes
# next to every P_k(x)
_H = 2.0 ** -100


@lru_cache(maxsize=64)
def _gauss_jacobi_pair(expo: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 12- and 20-node rules for int_0^1 t^expo g(t) dt: their nodes in
    (0, 1), concatenated, and the weights of each.

    On (-1, 1) the weight is (1 + x)^expo, whose monic orthogonal polynomials
    obey P_{k+1} = (x - a_k) P_k - b_k P_{k-1}.  The eigenvalues of the Jacobi
    matrix are polished by one Newton step x -= P_n / P_n'.  The weights are
    proportional to 1 / (P_{n-1} P_n'), with P_{n-1} carried to the polished
    node to first order (the step is a few ulp), and scaled to sum to
    int_0^1 t^expo dt.  One recurrence pass at x + i h serves the nodes of
    both rules: its real part is P_k(x) and its imaginary part h P_k'(x)
    (complex-step differentiation).
    """
    e = expo
    a = [e / (e + 2)] + [e * e / ((2 * k + e) * (2 * k + e + 2)) for k in range(1, 20)]
    b = [0.0] + [4 * k * k * (k + e) ** 2 / ((2 * k + e) ** 2 * ((2 * k + e) ** 2 - 1))
                 for k in range(1, 20)]
    x = np.concatenate([np.linalg.eigvalsh(np.diag(a[:n]) + np.diag(np.sqrt(b[1:n]), -1))
                        for n in (12, 20)])
    shifted = (x + 1j * _H) - np.array(a)[:, None]
    prev, cur = np.zeros(x.size, complex), np.ones(x.size, complex)
    values = [cur]
    for k in range(20):
        prev, cur = cur, shifted[k] * cur - b[k] * prev
        values.append(cur)
    # the degree n of each node's rule
    n = np.repeat([12, 20], [12, 20])
    values = np.array(values)
    node = np.arange(x.size)
    top, below = values[n, node], values[n - 1, node]
    p_n, dp_n, p_below, dp_below = top.real, top.imag / _H, below.real, below.imag / _H
    step = p_n / dp_n
    t = 0.5 * (1.0 + (x - step))
    w = 1.0 / ((p_below - step * dp_below) * dp_n)
    w_coarse, w_fine = (part / ((e + 1) * np.sum(part)) for part in (w[:12], w[12:]))
    for arr in (t, w_coarse, w_fine):
        arr.flags.writeable = False
    return t, w_coarse, w_fine


def gauss_jacobi_integrate(h, X: float, expo: float) -> complex:
    """int_0^X s^expo h(s) ds for a vectorized h smooth on [0, X].

    Gauss-Jacobi rules of 12 and 20 nodes carry s^expo in their weight and
    share one call of h; the 20-node value is returned.  The difference of
    the two is the error estimate, held to 1e-6 of int_0^X s^expo |h| ds
    (plus 1e-9): rounding in h limits an oscillatory integral to that scale.
    X may be a jet: d/dX int_0^X s^expo h(s) ds = X^expo h(X).
    """
    if isinstance(X, _Jet):
        return X.chain(lambda x: gauss_jacobi_integrate(h, x, expo),
                       lambda x: x ** expo * h(x))
    t, w_coarse, w_fine = _gauss_jacobi_pair(float(expo))
    vals = np.asarray(h(X * t))
    n = w_coarse.size
    scale = X ** (expo + 1)
    coarse = scale * complex(np.sum(vals[:n] * w_coarse))
    val = scale * complex(np.sum(vals[n:] * w_fine))
    mass = scale * float(np.sum(np.abs(vals[n:]) * w_fine))
    err = abs(val - coarse)
    if err > 1e-6 * mass + 1e-9:
        raise NonConvergenceError(
            f"Gauss-Jacobi rules differ by {err:.2e} on [0, {X}] "
            f"(integral of |integrand| {mass:.2e})")
    return val


@lru_cache(maxsize=4)
def _sinc_matrix(n: int) -> np.ndarray:
    """S_ij = 2 Si(pi (j - i)) / pi, n x n, antisymmetric and read-only.  For
    the weighted values u_i, v_i of a rule with a uniform step in its own
    variable (a tanh-sinh level), int int_{x<y} (u(x) v(y) - v(x) u(y)) is
    u S v^T by sinc indefinite integration (Stenger, Numerical Methods Based
    on Sinc and Analytic Functions, 1993); its constant half weight cancels.
    Si(pi k) sums int_j^{j+1} sin(pi s) / s ds, j < k, by the 20-node rule.
    """
    t, _, w = _gauss_jacobi_pair(0.0)
    t = t[-w.size:]
    j = np.arange(n - 1)
    halves = (-1.0) ** j * ((np.sin(math.pi * t) / (j[:, None] + t)) @ w)
    si = np.concatenate([[0.0], np.cumsum(halves)])  # Si(pi k), k = 0..n-1
    row = (2 / math.pi) * np.concatenate([-si[:0:-1], si])  # k = 1-n..n-1
    S = row[np.arange(n - 1, 2 * n - 1) - np.arange(n)[:, None]]  # row[j - i + n - 1]
    S.flags.writeable = False
    return S


# grid points evaluated at once by sector_integrate; a 2-D rule up to level 6
# fits in one chunk
_CHUNK_POINTS = 2 ** 18


def sector_integrate(fvec, ndim: int, a: float, b: float, level: int = 5) -> complex:
    """Integrate a permutation-symmetric integrand over (a, b)^ndim.

    Works on the ordered sector a < t_1 < ... < t_ndim < b (where |diff|-type
    factors are smooth) and multiplies by ndim!.  Per-axis tanh-sinh nodes;
    inner axes are affinely mapped onto (t_{j-1}, b).

    fvec receives a list of ndim arrays that broadcast against one another
    (axis j varies along dimension j) and must return the integrand
    evaluated elementwise.  The outer axis is split into chunks of at most
    2^18 grid points; the result depends on the chunking only through
    rounding.
    """
    x, w, dist = _tanh_sinh_raw(level)
    n = x.size
    # unit-interval nodes in (0, 1) with stable clustering at both ends
    u = np.where(x >= 0, 1.0 - 0.5 * dist, 0.5 * dist)
    uw = 0.5 * w
    fact = math.factorial(ndim)

    t1_all = a + (b - a) * u
    w1_all = uw * (b - a)
    chunk = max(1, _CHUNK_POINTS // n ** (ndim - 1))
    total = 0.0 + 0.0j
    for start in range(0, n, chunk):
        ts = [t1_all[start:start + chunk]]
        w_cum = w1_all[start:start + chunk]
        for _ in range(ndim - 1):
            base = ts[-1]
            ts.append(base[..., None] + (b - base[..., None]) * u)
            w_cum = w_cum[..., None] * (uw * (b - base[..., None]))
        # give each axis array trailing singleton dims so they broadcast
        args = [t.reshape(t.shape + (1,) * (ndim - 1 - j)) for j, t in enumerate(ts)]
        vals = np.asarray(fvec(args))
        total += complex(np.sum(vals * w_cum))
    return fact * total


def sector_integrate_adaptive(fvec, ndim: int, a: float, b: float,
                              start_level: int = 4, max_level: int = 7,
                              rtol: float = 1e-8) -> tuple[complex, float]:
    """Escalate sector_integrate levels until two successive levels agree.

    Returns (value, estimated relative error of the last doubling)."""
    prev = sector_integrate(fvec, ndim, a, b, level=start_level)
    err = math.inf
    for level in range(start_level + 1, max_level + 1):
        cur = sector_integrate(fvec, ndim, a, b, level=level)
        err = abs(cur - prev) / max(abs(cur), 1e-300)
        prev = cur
        if err < rtol:
            break
    return prev, err
