"""Quadrature utilities: tanh-sinh (double exponential) rules for endpoint
algebraic singularities and the library's one adaptive 1-D integrator on
them (levels rise until two agree; each level holds the one below, so only
its new nodes are evaluated, and the first call covers two levels), the
sinc matrix that gives ordered double integrals on tanh-sinh nodes (its sine
integrals on a tanh-sinh level too), and an ordered-sector
iterated scheme for symmetric multidimensional integrands with |diff|-type
interior kinks (the Morris oracle), whose levels are nested the same way: a
level evaluates only the grid points with at least one new node.  The
sector points come with their distances to both ends and the gaps between
successive axes, free of cancellation.  One table holds the tanh-sinh
levels, on (0, 1) with each node's distance to the nearer end: built once
per level and kept read-only, as is the sinc matrix once per size.  Every
rule reads it: tanh_sinh_rule and the adaptive integrator map the levels
they reach onto their interval on every call, and the sector rules, the
sinc matrix and the density contour take them as they are.

A tanh-sinh level keeps its nodes t = k h in one window |t| <= T.  By default
T ends where the distance to an end falls to 1e-290.  The sector rules take a
narrower T from a caller that knows how its integrand vanishes at the ends:
like distance^e, the nodes beyond T hold about exp(-(1 + e) pi sinh T) of the
integral (Takahasi and Mori, Publ. RIMS 9 (1974) 721-741).  The Morris
oracle sizes T that way and raises where even the default end leaves out a
share its level differences could not see.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .series import NonConvergenceError


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


# the end of the tanh-sinh rules: the nodes |t| <= _T_CUT are those with
# 1 - |x| = 2 / (exp(pi sinh |t|) + 1) > 1e-290
_T_CUT = math.asinh(math.log(2e290) / math.pi)


@lru_cache(maxsize=64)
def _unit_nodes(level: int, odd: bool = False,
                tmax: float = _T_CUT) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tanh-sinh level `level` on (0, 1), read-only: (u, 1 - u, weights) for
    the nodes t = k h, h = 2^(1 - level), in the window |t| <= tmax <= _T_CUT,
    u = (1 + tanh(pi/2 sinh t)) / 2.  u and 1 - u are each taken from the
    stable distance to the nearer end, 1 / (e^{pi sinh |t|} + 1).  odd=True
    keeps the nodes of odd k only: those that level - 1 lacks.

    The window is a test on t alone, so each level holds every node of the
    one below, whose weights are exactly twice its own (h is a power of
    two).  A narrower window is the central part of the default arrays, a
    view: the default window holds k = -n..n (odd k only for odd),
    n = int(_T_CUT / h), so it drops as many nodes from each end."""
    h = 2.0 ** (1 - level)
    full = int(_T_CUT / h)
    if tmax < _T_CUT:
        n = int(tmax / h)
        cut = (full + 1) // 2 - (n + 1) // 2 if odd else full - n
        return tuple(arr[cut:arr.size - cut] for arr in _unit_nodes(level, odd))
    k = np.arange(-full, full + 1)
    if odd:
        k = k[k % 2 == 1]
    t = k * h
    near = 1.0 / (np.exp(math.pi * np.sinh(np.abs(t))) + 1.0)
    far = 1.0 - near
    w = h * 0.25 * math.pi * np.cosh(t) / np.cosh(0.5 * math.pi * np.sinh(t)) ** 2
    out = np.where(t < 0, near, far), np.where(t < 0, far, near), w
    for arr in out:
        arr.flags.writeable = False
    return out


def _on_interval(a: float, b: float, u, rest, w) -> tuple:
    """The unit rule (u, 1 - u, w) of _unit_nodes mapped onto (a, b): nodes,
    weights, kept mask."""
    span = b - a
    # nodes are placed from the nearer endpoint, at the stable distance;
    # only those that round onto an endpoint are dropped
    nodes = np.where(u < rest, a + span * u, b - span * rest)
    keep = (nodes > a) & (nodes < b)
    return nodes[keep], w[keep] * span, keep


def tanh_sinh_rule(a: float, b: float, level: int = 8) -> QuadratureRule:
    """Tanh-sinh rule on (a, b); handles integrable algebraic endpoint
    singularities.  Node count roughly doubles per level."""
    return QuadratureRule(*_on_interval(a, b, *_unit_nodes(level))[:2], domain=(a, b))


_Nodes = namedtuple("_Nodes", "nodes weights")  # what tanh_sinh_adaptive hands terms


def tanh_sinh_adaptive(terms, a: float, b: float):
    """Integrals over (a, b) on tanh-sinh levels 4, 5, ..., 12.

    terms(rule) returns f(rule.nodes) * rule.weights, or a stack of such
    rows; the last axis runs over the rule's nodes in their order.  The sums
    are returned once two successive levels agree to 1e-13 of sum |terms| in
    every row; otherwise NonConvergenceError is raised.

    The levels are nested (Bailey, Jeyabalan and Li, Exp. Math. 14 (2005)
    317-329): level L + 1 calls terms only on the nodes level L lacks, and
    its sum is half the sum of level L plus theirs, so terms sees each node
    once.  sum |terms| is carried the same way.  The first call covers
    levels 4 and 5 at once, on level 5, whose nodes of even k are level 4's
    at half its weights.  The rules are those of tanh_sinh_rule, node for
    node, and read-only.
    """
    nodes, weights, keep = _on_interval(a, b, *_unit_nodes(5))
    nodes.flags.writeable = weights.flags.writeable = False
    even = (keep.size // 2 - int(np.argmax(keep))) % 2  # k = -(size // 2) first
    vals = np.asarray(terms(_Nodes(nodes, weights)))
    cur, mass = 2 * vals[..., even::2].sum(axis=-1), 2 * np.abs(vals[..., even::2]).sum(axis=-1)
    vals = vals[..., 1 - even::2]
    for level in range(5, 13):
        if level > 5:
            nodes, weights, _ = _on_interval(a, b, *_unit_nodes(level, True))
            nodes.flags.writeable = weights.flags.writeable = False
            vals = np.asarray(terms(_Nodes(nodes, weights)))
        prev = cur
        cur = 0.5 * prev + vals.sum(axis=-1)
        mass = 0.5 * mass + np.abs(vals).sum(axis=-1)
        err = np.abs(cur - prev)
        if np.all(err <= 1e-13 * mass):
            return cur
    raise NonConvergenceError(
        f"tanh-sinh level {level} error estimate {np.max(err):.2e} on ({a}, {b})")


@lru_cache(maxsize=4)
def _sinc_matrix(n: int) -> np.ndarray:
    """S_ij = 2 Si(pi (j - i)) / pi, n x n, antisymmetric and read-only.  For
    the weighted values u_i, v_i of a rule with a uniform step in its own
    variable (a tanh-sinh level), int int_{x<y} (u(x) v(y) - v(x) u(y)) is
    u S v^T by sinc indefinite integration (Stenger, Numerical Methods Based
    on Sinc and Analytic Functions, 1993); its constant half weight cancels.
    Si(pi k) sums int_j^{j+1} sin(pi s) / s ds, j < k, each on tanh-sinh
    level 4 of (0, 1), with sin(pi t) taken at the distance to the nearer end.
    """
    t, rest, w = _unit_nodes(4)
    j = np.arange(n - 1)
    halves = (-1.0) ** j * ((np.sin(math.pi * np.minimum(t, rest)) / (j[:, None] + t)) @ w)
    si = np.concatenate([[0.0], np.cumsum(halves)])  # Si(pi k), k = 0..n-1
    row = (2 / math.pi) * np.concatenate([-si[:0:-1], si])  # k = 1-n..n-1
    S = row[np.arange(n - 1, 2 * n - 1) - np.arange(n)[:, None]]  # row[j - i + n - 1]
    S.flags.writeable = False
    return S


# grid points evaluated at once by sector_integrate: a 2-D rule up to level 5,
# or one outer row of a 3-D one, fits in a chunk, whose arrays stay in cache
_CHUNK_POINTS = 2 ** 16


class _SectorPoints(list):
    """The axis arrays t_1 < ... < t_ndim that sector_integrate passes to
    fvec, with, per axis, the distances to_a = t_j - a and to_b = b - t_j,
    and the gaps t_{j+1} - t_j (on the axis of t_{j+1}), all free of
    cancellation.  Each array gets trailing singleton dims to broadcast."""

    def __init__(self, ts, to_a, to_b, gaps):
        ndim = len(ts)

        def shaped(arrs):
            return [t.reshape(t.shape + (1,) * (ndim - t.ndim)) for t in arrs]

        super().__init__(shaped(ts))
        self.to_a, self.to_b, self.gaps = shaped(to_a), shaped(to_b), shaped(gaps)


def _sector_sum(fvec, axes, a: float, b: float) -> complex:
    """sum fvec * weight over the ordered-sector points whose unit node on
    axis j comes from axes[j], a (u, 1 - u, weights) triple of _unit_nodes.

    Axis 1 maps u onto (a, b); axis j + 1 onto (t_j, b), where the gap is
    (b - t_j) u and the new b - t is (b - t_j)(1 - u), products of positive
    numbers.  The outer axis is split into chunks of at most _CHUNK_POINTS
    grid points, or of one row where a row alone is larger.
    """
    ndim = len(axes)
    inner = math.prod(ax[0].size for ax in axes[1:])
    chunk = max(1, _CHUNK_POINTS // inner)
    u1, v1, w1 = axes[0]
    total = 0.0 + 0.0j
    for start in range(0, u1.size, chunk):
        part = slice(start, start + chunk)
        to_a, to_b = [(b - a) * u1[part]], [(b - a) * v1[part]]
        ts, gaps, weight = [a + to_a[0]], [], (b - a) * w1[part]
        for u, v, w in axes[1:]:
            rest = to_b[-1][..., None]
            gaps.append(rest * u)
            ts.append(ts[-1][..., None] + gaps[-1])
            to_a.append(to_a[-1][..., None] + gaps[-1])
            to_b.append(rest * v)
            weight = (weight[..., None] * rest) * w

        points = _SectorPoints(ts, to_a, to_b, gaps)
        total += complex(np.sum(np.asarray(fvec(points)) * weight))
    return total


def sector_integrate(fvec, ndim: int, a: float, b: float, level: int = 5,
                     tmax: float = _T_CUT) -> complex:
    """Integrate a permutation-symmetric integrand over (a, b)^ndim.

    Works on the ordered sector a < t_1 < ... < t_ndim < b (where |diff|-type
    factors are smooth) and multiplies by ndim!.  Per-axis tanh-sinh nodes
    in the window |t| <= tmax (by default up to 1e-290 from the ends); inner
    axes are affinely mapped onto (t_{j-1}, b).  A caller whose integrand
    vanishes like distance^e at the ends of every axis can narrow the
    window: the nodes beyond |t| = T hold about exp(-(1 + e) pi sinh T) of
    the integral (see the module docstring).

    fvec receives a list of ndim arrays that broadcast against one another
    (axis j varies along dimension j) and must return the integrand
    evaluated elementwise.  The list also carries to_a, to_b and gaps
    (_SectorPoints): t_j - a, b - t_j and t_{j+1} - t_j free of cancellation,
    for integrands singular where they vanish.  The outer axis is split into
    chunks of at most 2^16 grid points (or one outer row, where that is more);
    the result depends on the chunking only through rounding.
    """
    return math.factorial(ndim) * _sector_sum(fvec, [_unit_nodes(level, tmax=tmax)] * ndim,
                                              a, b)


def sector_integrate_adaptive(fvec, ndim: int, a: float, b: float,
                              start_level: int = 4, max_level: int = 7,
                              rtol: float = 1e-8, tmax: float = _T_CUT) -> tuple[complex, float]:
    """Escalate sector_integrate levels until two successive levels agree.

    Returns (value, estimated relative error of the last doubling).

    Every level uses the one node window |t| <= tmax (see sector_integrate),
    so the levels are nested as in tanh_sinh_adaptive: a point of level L + 1
    lacking from level L has a first axis j whose node is new (odd); the
    axes before j hold level-L nodes, whose level-(L + 1) weights are half
    their own, and the axes after j any level-(L + 1) node.  So fvec sees
    each point of the last level once, and level L + 1 is level L / 2^ndim
    plus ndim! sum_j 2^-j (block j summed with level-L weights before j).
    What the window leaves out is the same at every level, so the error
    estimate does not see it.
    """
    fact = math.factorial(ndim)
    prev = sector_integrate(fvec, ndim, a, b, level=start_level, tmax=tmax)
    err = math.inf
    for level in range(start_level + 1, max_level + 1):
        old, new, full = (_unit_nodes(level - 1, tmax=tmax),
                          _unit_nodes(level, odd=True, tmax=tmax), _unit_nodes(level, tmax=tmax))
        blocks = sum(_sector_sum(fvec, [old] * j + [new] + [full] * (ndim - 1 - j), a, b)
                     / 2 ** j for j in range(ndim))
        cur = prev / 2 ** ndim + fact * blocks
        err = abs(cur - prev) / max(abs(cur), 1e-300)
        prev = cur
        if err < rtol:
            break
    return prev, err
