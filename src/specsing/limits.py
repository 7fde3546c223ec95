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
(DLMF 13.3.16).  By Kummer's transformation (DLMF 13.2.39) f(X) =
e^{-iX} M(2iX) is real: the Coulomb series (DLMF 33.6, l + 1 = pk, eta = q)
f = sum_m d_m X^m, d_0 = 1, m (m - 1 + 2 pk) d_m = 2q d_{m-1} - d_{m-2},
whose terms cancel by about e^X where those of M(2iX) cancel by e^{2X}.
One pass (_coulomb) sums T_m = d_m x^m at a point x, and all at x reads it:
A(j; x) = e^{ix} sum_r C(j, r) 2^(r-j) (2i)^-r f^(r)(x), with x^r f^(r)(x)
= sum_m m (m - 1) ... (m - r + 1) T_m, and the integrals J_o (x = X), J_s
(x = 2X) and l2's moment Ix: C_j is a sum of pieces c y^s A(i; y), so
e^{-iy} C_j(y) is a power series in y, integrated against s^e term by term
(_series_integral).  An integral is refused (NonConvergenceError) where its
rounding bound exceeds 1e-6 of its value: at beta = 4 from X near 10 (l2),
12 (l1) and 13.5 (K), at beta = 1 from X near 23 (l1) and 28 (K), for
(p, q) = (1.5, 0.7).  Each (block, point) is summed once.  a_confluent's
orders j above 5 read a pass of their own that runs j - 5 terms longer
(_family).

Derivatives are taken by formula.  As dA(i; X)/dX = 2i A(i + 1; X), the
slope of a piece c X^s A(i; X) is c s X^(s-1) A(i) + 2i c X^s A(i + 1), so
C_j's slopes are pieces too (_pieces with r > 0), read from the same family.
The derivative identity L1 = p (X d/dX + Y d/dY + 1) K holds with the same
constant p for all three beta; derivative_identity_residual checks it with
E = X d/dX + Y d/dY in closed form (_euler_k).  Near the diagonal each
beta = 2 term is G(X, Y)/(X - Y) times a prefactor, G antisymmetric, by
kernels._over_diff; L2 is split into such a term plus (X^2/3) K_inf.  The
kernels take finite X > 0 and Y >= 0 and raise ValueError elsewhere.
"""
from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .kernels import _over_diff, eta_constants
from .polynomials import EnsembleParams
from .series import (DEFAULT_CONTROL, NonConvergenceError, PoleError, _TINY,
                     _is_nonpositive_integer, log_gamma)

_EPS = 2.0 ** -52


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
    """A^{(p+k, q)}(j; X), X a scalar or an ndarray: orders 0..5 as the
    kernels read them (_A), higher ones from the family of order j at each
    point."""
    if j < 0:
        raise ValueError("derivative order must be nonnegative")
    if isinstance(X, np.ndarray):
        return np.array([a_confluent(j, block, x) for x in X.ravel().tolist()],
                        complex).reshape(X.shape)
    pk, q = block.p + block.k, block.q_eff
    return _A(pk, q, X)[j] if j <= _TOP else _family(pk, q, X, j)[j]


# C_0, C_1 and C_2 read A(0..0), A(0..2) and A(0..4); a point's family also
# holds A(5), which the slope of C_2 reads
_TOP = 5


@functools.lru_cache(maxsize=8)
def _binomial(top: int) -> np.ndarray:
    """C(j, r) 2^(r-j) (2i)^-r for j, r = 0..top, read-only: A(j; X) =
    e^{iX} sum_r C(j, r) 2^(r-j) (2i)^-r f^(r)(X), as M(z) = e^{z/2} f(z/(2i))."""
    out = np.array([[math.comb(j, r) * 2.0 ** (r - j) * (2j) ** -r for r in range(top + 1)]
                    for j in range(top + 1)])
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=256)
def _falling_factorials(stop: int, top: int) -> np.ndarray:
    """m (m - 1) ... (m - r + 1) for r = 0..top (rows) and m = 0..stop - 1
    (columns), read-only; 0 where m < r."""
    m = np.arange(stop, dtype=float)
    out = np.cumprod(np.vstack([np.ones_like(m)] + [m - i for i in range(top)]), axis=0)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=1024)
def _coulomb(pk: float, q: float, x: float, top: int) -> np.ndarray:
    """The terms T_m = d_m x^m of f(x) = e^{-ix} 1F1(pk - iq; 2 pk; 2ix),
    read-only, enough for the sums S_r = sum_m m (m - 1) ... (m - r + 1) T_m
    = x^r f^(r)(x) of the orders r <= top.

    m (m - 1 + 2 pk) T_m = 2q x T_{m-1} - x^2 T_{m-2} (2 pk no pole) runs
    until top + 3 terms in a row meet the library's rule |T_m| < rel_tol
    |sum| + _TINY: two for order 0 (a three-term recurrence can pass near
    zero once), and top + 1 over which the terms fall by about
    (x/m)^(top + 1), past the (m/x)^r by which order r weighs the last term
    more than order 0 does.  DEFAULT_CONTROL's term budget raises
    NonConvergenceError.
    """
    tol, budget = DEFAULT_CONTROL.rel_tol, DEFAULT_CONTROL.max_terms
    a, b, c1 = 2 * q * x, x * x, 2 * pk - 1
    prev, t, s = 0.0, 1.0, 1.0
    terms = [t]
    m = quiet = 0
    while quiet < top + 3:
        if m == budget:
            raise NonConvergenceError(f"Coulomb series did not converge in {budget} terms at x={x}")
        m += 1
        prev, t = t, (a * t - b * prev) / (m * (m + c1))
        s += t
        terms.append(t)
        quiet = quiet + 1 if abs(t) < tol * abs(s) + _TINY else 0
    T = np.array(terms)
    T.flags.writeable = False
    return T


def _family(pk: float, q: float, X: float, top: int = _TOP) -> tuple:
    """A^{(pk, q)}(j; X) for j = 0..top at a scalar X, from the Coulomb pass
    at X: A(j; X) is the j-th derivative of 1F1(pk - iq; 2 pk; z) at z = 2iX.

    The joint limit pk = q = 0 (M = 1 + (e^z - 1)/2) is exact, and below
    |2X| = 1e-20, or where X^top nears the end of the double range, the
    two-term Taylor series M^(j) = (a)_j/(c)_j (1 + (a + j)/(c + j) z) holds
    to |z|^2 relative (exactly (a)_j/(c)_j at X = 0).  A pole 2 pk raises
    PoleError, sums S_r that overflow NonConvergenceError (after numpy's
    RuntimeWarning).
    """
    if pk == 0 and q == 0:
        half = cmath.exp(2j * X) / 2
        return (0.5 + half,) + (half,) * top
    if _is_nonpositive_integer(2 * pk):
        raise PoleError(f"1F1 lower parameter pole at c={2 * pk}")
    a, c, z = complex(pk, -q), complex(2 * pk), 2j * X
    if abs(z) < 1e-20 or abs(X) ** top < 1e-290:
        out, ratio = [], 1.0 + 0.0j
        for j in range(top + 1):
            out.append(ratio * (1 + (a + j) / (c + j) * z))
            ratio = ratio * (a + j) / (c + j)
        return tuple(out)
    T = _coulomb(pk, q, X, top)
    S = _falling_factorials(T.size, top) @ T
    if not math.isfinite(S.sum()):
        raise NonConvergenceError("Coulomb series sums overflowed")
    family = cmath.exp(1j * X) * (_binomial(top) @ (S / X ** np.arange(top + 1.0)))
    return tuple(family.tolist())


# c_tilde orders 0..2 and their slopes share one family, and the blocks of K,
# L1 and L2 share points, so each point is summed once
_A = functools.lru_cache(maxsize=1024)(_family)


@functools.lru_cache(maxsize=256)
def _pieces(order: int, k: int, pk: float, q: float, r: int = 0) -> tuple:
    """C_order^{(pk - k, q, k)}, or its r-th derivative, as pieces (c, s, i):
    C(X) = sum c X^s A(i; X).  The slope of c X^s A(i; X) is c s X^(s-1) A(i)
    + 2i c X^s A(i + 1), as A(i; X) is the i-th derivative of M at 2iX."""
    if r:
        out = {}
        for c, s, i in _pieces(order, k, pk, q, r - 1):
            if s:
                out[s - 1, i] = out.get((s - 1, i), 0.0) + s * c
            out[s, i + 1] = out.get((s, i + 1), 0.0) + 2j * c
        return tuple((c, s, i) for (s, i), c in out.items())
    if order == 0:
        return ((1.0, 0, 0),)
    w = 1j * k + q
    c1 = {(2, 1): -2.0, (2, 2): 2.0, (1, 1): -2j * k, (1, 0): w}
    if order == 1:
        return tuple((c, s, i) for (s, i), c in c1.items())
    c2 = {(4, 2): 2.0, (4, 3): -4.0, (4, 4): 2.0,
          (3, 1): -4j / 3, (3, 2): 4j * (k + 1), (3, 3): -4j * (3 * k + 2) / 3,
          (2, 1): 2.0 * k, (2, 2): -2.0 * k * (k + 1), (2, 0): -(w * w / 2 + pk / 6)}
    for (s, i), c in c1.items():  # the (ik + q) X C_1 term
        c2[s + 1, i] = c2.get((s + 1, i), 0.0) + w * c
    return tuple((c, s, i) for (s, i), c in c2.items())


def _c(order: int, k: int, p: float, q: float, X, r: int = 0):
    """The r-th derivative of C_order^{(p, q, k)} at X, sum c X^s A(i) over
    its pieces; X may be an ndarray, each element a point of _A's memo."""
    if isinstance(X, np.ndarray):
        A = np.array([_A(p + k, q, x) for x in X.ravel().tolist()],
                     complex).T.reshape((_TOP + 1,) + X.shape)
    else:  # C_2's slopes of orders 2 and 3 read A(6), A(7)
        A = _A(p + k, q, X) if 2 * order + r <= _TOP else _A(p + k, q, X, _TOP + 2)
    if not (order or r):
        return A[0]
    powers = (1.0, X, X * X, X * X * X, X * X * X * X)
    return sum(c * powers[s] * A[i] for c, s, i in _pieces(order, k, p + k, q, r))


def c_tilde(order: int, k: int, p: float, q_eff: float, X: float) -> complex:
    """C_order^{(p, q, k)}(X) for order in {0, 1, 2}; X may be an ndarray."""
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    return _c(order, k, p, q_eff, X)


def _side(order: int, k: int, p: float, q: float, T: float, r: int = 0) -> tuple:
    """The J blocks' side at T: (T, d, c) with c_a = C_a^{(p, q, k)}(T) and
    d_a = C_a^{(p, q, k + 1)}(T) for a = 0..order, so that u_a = T d_a; for
    r > 0 the r-th derivatives in T as (1, u^(r), c^(r)), u^(r) = T d^(r) +
    r d^(r-1).  J_n = t_X sum_a d_a(X) c_(n-a)(Y) - t_Y sum_a d_a(Y) c_(n-a)(X)
    (_j) is linear in each side: its derivatives are J_n of the sides' ones."""
    c = [_c(a, k, p, q, T, r) for a in range(order + 1)]
    d = [_c(a, k + 1, p, q, T, r) for a in range(order + 1)]
    if not r:
        return T, d, c
    return 1.0, [T * v + r * _c(a, k + 1, p, q, T, r - 1) for a, v in enumerate(d)], c


def _j(n: int, fX: tuple, fY: tuple):
    """J_n from the sides (t, d, c) at X and at Y."""
    (tX, dX, cX), (tY, dY, cY) = fX, fY
    if n == 0:
        return tX * dX[0] * cY[0] - tY * dY[0] * cX[0]
    return (tX * sum(map(operator.mul, dX[n::-1], cY))
            - tY * sum(map(operator.mul, dY[n::-1], cX)))


def _q(k: int, p: float, X, Y) -> tuple:
    """The scalars Q1 and Q2 of the L1 and L2 brackets."""
    return (p * (2 * p + 2 * k + 1),
            -X * Y / 3 + (p + k) * (2 * p + 2 * k + 1) * (6 * p * p - p - k - 1) / 6)


def j_blocks(k: int, p: float, q_eff: float, X: float, Y: float) -> dict:
    """J0, J1, J2 antisymmetrized products and the scalar Q1, Q2."""
    fX, fY = _side(2, k, p, q_eff, X), _side(2, k, p, q_eff, Y)
    out = {f"J{n}": _j(n, fX, fY) for n in range(3)}
    out["Q1"], out["Q2"] = _q(k, p, X, Y)
    return out


# K, L1, L2 and their diagonal and Euler terms at one (p, q) share it
@functools.lru_cache(maxsize=256)
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


def _beta2(order: int, p: float, q: float, X, Y, k: int = 0) -> complex:
    """_pref2 G(X, Y)/(X - Y) for the bracket G = J0, J1 + Q1 J0 or J2 + Q1 J1
    + Q2 J0 (L2's less its X^2/3 J0 term, which is not antisymmetric), a form
    on the sides at X and Y with Q at (X, Y): Q2's XY = M^2 - d^2 is symmetric
    (_over_diff's M, d).  Order 1 evaluates no C2."""
    side, Q = functools.partial(_side, order, k, p, q), (1.0,) + _q(k, p, X, Y)

    def G(f, g):
        return sum(Q[order - n] * _j(n, f, g) for n in range(order, -1, -1))
    near = _over_diff(X, Y, lambda M, top: [side(M, r) for r in range(top + 1)], G)
    pref = _pref2(p, q, k, X, Y)
    return pref * G(side(X), side(Y)) / (X - Y) if near is None else pref * near


_k2 = functools.partial(_beta2, 0)
_l1_2 = functools.partial(_beta2, 1)


def _l2_2(p: float, q: float, X, Y, k: int = 0) -> complex:
    return _beta2(2, p, q, X, Y, k) + X * X / 3 * _k2(p, q, X, Y, k)


def _euler_k2(p: float, q: float, X, Y, k: int = 0) -> complex:
    """(X d/dX + Y d/dY) _k2: _pref2 is e^{-i(X+Y)} times a function
    homogeneous of degree 2(p + k), and 1/(X - Y) of degree -1.  E J0 = X
    J0(f'(X), f(Y)) + Y J0(f(X), f'(Y)) for the sides f is antisymmetric."""
    f, pref = functools.partial(_side, 0, k, p, q), _pref2(p, q, k, X, Y)

    def jets(T, top):  # E J0's pairs (T u', c) and (u, T c'), u = t d
        s = [f(T, r) for r in range(top + 2)]
        u, c = [t * d[0] for t, d, _ in s], [w[0] for _, _, w in s]
        return [(T * u[r + 1] + r * u[r], c[r], u[r], T * c[r + 1] + r * c[r])
                for r in range(top + 1)]
    near = _over_diff(X, Y, jets,
                      lambda a, b: a[0] * b[1] - b[0] * a[1] + a[2] * b[3] - b[2] * a[3])
    ej0 = (pref * (X * _j(0, f(X, 1), f(Y)) + Y * _j(0, f(X), f(Y, 1))) / (X - Y)
           if near is None else pref * near)
    return (2 * (p + k) - 1 - 1j * (X + Y)) * _k2(p, q, X, Y, k) + ej0


# --- integral operators ------------------------------------------------------

def _series_integral(pieces: tuple, pk: float, q: float, e: float, lam: float, X,
                     scale: float = 1.0) -> complex:
    """scale int_0^X s^e e^{-i lam s} C(lam s) ds for C(y) = sum c y^s A(i; y)
    over the pieces, term by term from the Coulomb pass at x = lam X.

    A piece's r-th term e^{-iy} c y^s C(i, r) 2^(r-i) (2i)^-r f^(r)(y) is
    c' sum_m T_m m ... (m - r + 1) y^t (t = s - r >= 0), so the integral is
    X^(e+1) sum_m T_m W_m, W_m = sum c' x^t m ... (m - r + 1)/(m + t + e + 1).
    NonConvergenceError where the rounding bound eps sum_m |T_m W_m| (times
    |scale| X^(e+1)) exceeds 1e-6 |value| + 1e-9.
    """
    x = lam * X
    T = _coulomb(pk, q, x, _TOP)
    binomial, rows = _binomial(_TOP), {}
    for c, s, i in pieces:
        for r in range(i + 1):
            rows[s - r, r] = rows.get((s - r, r), 0.0) + c * binomial[i, r]
    t, r = np.array(list(rows)).T
    m = np.arange(T.size)
    W = ((np.array(list(rows.values())) * x ** t)
         @ (_falling_factorials(T.size, _TOP)[r] / (m + (t + e + 1.0)[:, None])))
    lead = scale * X ** (e + 1)
    value = complex(lead * (W @ T))
    bound = _EPS * abs(lead) * float(np.abs(W) @ np.abs(T))
    if bound > 1e-6 * abs(value) + 1e-9:
        raise NonConvergenceError(
            f"Coulomb series integral on [0, {X}]: rounding bound {bound:.2e} "
            f"against value {abs(value):.2e}")
    return value


# memoised like _A: K, L1 and L2 at one X share these integrals
@functools.lru_cache(maxsize=256)
def _jo(j: int, p: float, q: float, X: float) -> complex:
    """J_o[C_j^{(p, 2q, 2)}](X) = int_0^X e^{-is - q pi} s^(p+1) C_j(s) ds,
    the beta = 1 integral."""
    return _series_integral(_pieces(j, 2, p + 2, 2 * q), p + 2, 2 * q, p + 1, 1, X,
                            math.exp(-q * math.pi))


@functools.lru_cache(maxsize=256)
def _js(j: int, p: float, q: float, X: float) -> complex:
    """int_0^X e^{-2is} s^(2p) C_j^{(2p, q, 1)}(2s) ds, the beta = 4 integral."""
    return _series_integral(_pieces(j, 1, 2 * p + 1, q), 2 * p + 1, q, 2 * p, 2, X)


def _ix(p: float, q: float, X: float) -> complex:
    """l2's moment int_0^X e^{-2is} s^(2p) (2 s^2/3) C_0^{(2p, q, 1)}(2s) ds,
    the piece y^2/6 A(0; y) at y = 2s."""
    return _series_integral(((1 / 6, 2, 0),), 2 * p + 1, q, 2 * p, 2, X)


def _js_prefactor(p: float, q: float, Y: float) -> complex:
    """p 2^(8p) |G(2p+1-iq)|^2/(pi G(4p+1) G(4p+2)) e^{-q pi - 2iY} Y^(2p+1)."""
    return _js_const(p, q) * np.exp(-2j * Y) * Y ** (2 * p + 1)


@functools.lru_cache(maxsize=256)  # as h_const
def _js_const(p: float, q: float) -> float:
    lg = (2 * log_gamma(complex(2 * p + 1, -q)).real
          - log_gamma(4 * p + 1).real - log_gamma(4 * p + 2).real)
    return p * math.exp(8 * p * math.log(2) + lg - math.log(math.pi) - q * math.pi)


# --- public kernels ----------------------------------------------------------

def _check_point(X: float, Y: float) -> None:
    """The kernels' domain: finite X > 0 and Y >= 0 (at Y = 0 they vanish)."""
    if not (0 < X < math.inf and 0 <= Y < math.inf):
        raise ValueError(f"need finite X > 0 and Y >= 0, got X={X}, Y={Y}")


def k_limit(beta: int, X: float, Y: float, params: EnsembleParams) -> complex:
    """Limiting kernel K_inf at the spectrum singularity."""
    _check_point(X, Y)
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
    _check_point(X, Y)
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
    _check_point(X, Y)
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
        Ix = _ix(p, q, X)
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


def _euler_k(beta: int, p: float, q: float, X: float, Y: float) -> complex:
    """(X d/dX + Y d/dY) K_inf, term by term from k_limit's: (Y/X) is of
    degree 0, and X J_o'(X), X J_s'(X) are X times the integrands at X."""
    if beta == 2:
        return _euler_k2(p, q, X, Y)
    if beta == 1:
        qe = 2 * q
        eta1, eta2 = eta_constants(p, q)
        c0, c0s = _c(0, 1, p, qe, Y), _c(0, 1, p, qe, Y, 1)
        x_jo = math.exp(-q * math.pi) * np.exp(-1j * X) * X ** (p + 2) * _c(0, 2, p, qe, X)
        extra = (eta2 / (X * X) * np.exp(-1j * Y) * Y ** (p + 2)
                 * (((p - 1j * Y) * c0 + Y * c0s) * (_jo(0, p, q, X) - eta1 / 2) + c0 * x_jo))
        return (Y / X) * _euler_k2(p, qe, X, Y, 1) + extra
    c0, c0s = _c(0, 0, 2 * p, q, 2 * Y), _c(0, 0, 2 * p, q, 2 * Y, 1)
    x_js = np.exp(-2j * X) * X ** (2 * p + 1) * _c(0, 1, 2 * p, q, 2 * X)
    Js0 = _js_prefactor(p, q, Y) * (((2 * p - 1 - 2j * Y) * c0 + 2 * Y * c0s)
                                    * _js(0, p, q, X) + c0 * x_js)
    return (Y / X) * _euler_k2(2 * p, q, 2 * X, 2 * Y) - 2 / (X * X) * Js0


def derivative_identity_residual(beta: int, X: float, Y: float,
                                 params: EnsembleParams) -> float:
    """|L1 - c (X dX + Y dY + 1) K_inf| / (|L1| + |K_inf| + tiny): at p = 0,
    where L1 and c vanish, L1's rounding noise scales with K_inf.

    X dX + Y dY is taken in closed form (_euler_k), from the families and
    integrals that k_limit and l1 read.  The identity constant is c = p for
    beta = 1, 2 and 4 alike (the finite-N oracle validates p, not 2p, at 4)."""
    K, lhs = k_limit(beta, X, Y, params), l1(beta, X, Y, params)
    rhs = params.p * (_euler_k(beta, params.p, params.q, X, Y) + K)
    return float(abs(lhs - rhs) / (abs(lhs) + abs(K) + 1e-300))
