"""Complex special-function primitives: log-gamma, Pochhammer symbols,
terminating Gauss 2F1, Kummer 1F1, and the large-argument gamma-ratio
expansion; the one evaluator that sums a series over a whole node array by
Horner's rule (the 2F1's, and the 1F1's at every argument; a single
element by its forward sum).

All gamma evaluations go through the principal-branch log-gamma so that
ratios with large arguments can be formed as exp of log differences.  It is
computed here in plain Python: math.lgamma on the real axis, and elsewhere
the upward recurrence to Re z >= 6 followed by 12 terms of the Stirling
series (DLMF 5.11.1), with the branch of the recurrence's product tracked
exactly.
"""
from __future__ import annotations

import cmath
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np


class PoleError(ValueError):
    """Gamma (or Pochhammer denominator) evaluated at a nonpositive integer."""


class NonConvergenceError(RuntimeError):
    """A series failed to meet its tolerance within the term budget."""


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for hypergeometric series.

    rel_tol: term magnitude cutoff relative to the running sum.
    max_terms: hard cap on the number of summed terms of hyp1f1's series
        (a terminating 2F1 of degree n sums at most n + 1 terms and does not
        read it; the limit kernels' Coulomb series reads DEFAULT_CONTROL's).
    """
    rel_tol: float = 1e-15
    max_terms: int = 2000

    def __post_init__(self):
        if not (0 < self.rel_tol < 1):
            raise ValueError("rel_tol must lie in (0, 1)")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


DEFAULT_CONTROL = SeriesControl()


def _is_nonpositive_integer(z: complex) -> bool:
    """z within 1e-12 of 0, -1, -2, ..."""
    z = complex(z)
    x = z.real
    return abs(z.imag) < 1e-12 and x <= 0.5 and abs(x - round(x)) < 1e-12


_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)
# B_2k / (2k (2k - 1)), k = 12..1: the Stirling series of log Gamma (DLMF
# 5.11.1), highest order first; at |z| >= 6 its remainder is below 8e-17
_STIRLING = (-236364091 / 1506960, 77683 / 5796, -174611 / 125400, 43867 / 244188,
             -3617 / 122400, 1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260,
             -1 / 360, 1 / 12)


def _log_gamma_upper(z: complex) -> complex:
    """log Gamma(z) for Im z > 0: log Gamma(z + m) - log(z (z+1) ... (z+m-1))
    with Re(z + m) >= 6, where the Stirling series holds.

    The shift is kept low because the two terms cancel near |z| ~ 1: the
    error is about eps times their size.  Every factor lies in the upper
    half-plane and turns the running product by less than pi, so the product
    crosses the negative real axis exactly when its imaginary part turns
    negative; the log of the product is one principal log plus 2 pi i per
    crossing.  The product is folded into the log every 16 factors, so it
    cannot overflow.
    """
    total = 0.0 + 0.0j
    m = math.ceil(6 - z.real)
    while m > 0:
        prod, turns = z, 0
        for _ in range(min(m, 16) - 1):
            z += 1
            nxt = prod * z
            if nxt.imag < 0 <= prod.imag:
                turns += 1
            prod = nxt
        z += 1
        m -= 16
        total -= cmath.log(prod) + 2j * math.pi * turns
    w = 1 / z
    w2 = w * w
    s12, s11, s10, s9, s8, s7, s6, s5, s4, s3, s2, s1 = _STIRLING
    series = s1 + w2 * (s2 + w2 * (s3 + w2 * (s4 + w2 * (s5 + w2 * (s6 + w2 * (
        s7 + w2 * (s8 + w2 * (s9 + w2 * (s10 + w2 * (s11 + w2 * s12))))))))))
    return total + (z - 0.5) * cmath.log(z) - z + _HALF_LOG_2PI + w * series


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z), analytic off the negative real axis.

    On that axis it is the limit from above, log|Gamma(x)| - i pi ceil(-x),
    and for a negative zero imaginary part the limit from below.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"log_gamma pole at z={z}")
    x, y = z.real, z.imag
    if math.copysign(1.0, y) < 0:
        return log_gamma(z.conjugate()).conjugate()
    if y:
        return _log_gamma_upper(z)
    return complex(math.lgamma(x), -math.pi * math.ceil(-x) if x < 0 else 0.0)


def pochhammer(a: complex, n: int) -> complex:
    """(a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1.

    Direct product for small n (robust near nonpositive-integer a),
    log-gamma ratio otherwise.
    """
    if n < 0:
        raise ValueError("pochhammer order must be nonnegative")
    if n == 0:
        return 1.0 + 0.0j
    if n <= 64:
        out = 1.0 + 0.0j
        for k in range(n):
            out *= a + k
        return out
    a = complex(a)
    ar = a.real
    if abs(a.imag) < 1e-14 and abs(ar - round(ar)) < 1e-14 and ar <= 0:
        # a = -m: the product is 0 once it passes through zero, and
        # (-1)^n (m - n + 1)_n = (-1)^n Gamma(m + 1) / Gamma(m - n + 1) before
        m = -round(ar)
        if m < n:
            return 0.0 + 0.0j
        return (-1) ** n * cmath.exp(math.lgamma(m + 1) - math.lgamma(m - n + 1))
    return cmath.exp(log_gamma(a + n) - log_gamma(a))


def hyp2f1_terminating(n: int, b: complex, c: complex, z,
                       ctrl: SeriesControl | None = None):
    """2F1(-n, b; c; z) as the finite sum over alpha = 0..n.

    Truncates early once a term drops below ctrl.rel_tol of the running sum
    (safe when |n z| stays O(1), as in the scaled-kernel use).  z may be an
    ndarray: _node_series then sums the series for every element, to the
    first order at which every element meets rel_tol, or to order n.
    A non-finite z raises ValueError, a non-finite sum NonConvergenceError.
    """
    if operator.index(n) < 0:
        raise ValueError("terminating order n must be nonnegative")
    ctrl = ctrl or DEFAULT_CONTROL
    # joint limit b, c -> 0 with b/c -> 1/2 (weight p -> 0 at q = 0): the
    # first ratio is -n/2 (the scalar loop adds that term without Kahan or test)
    joint = b == 0 and c == 0

    if isinstance(z, np.ndarray):
        def ratio(alpha):
            # t_{alpha+1} = t_alpha num / den z; alpha = n, the last order,
            # gives num = 0, which ends the sum, whatever b and c are
            if alpha == n:
                return 0.0, 1.0
            if joint and not alpha:
                return -0.5 * n, 1.0
            return (alpha - n) * (b + alpha), (c + alpha) * (alpha + 1.0)
        return _node_series(ratio, np.asarray(z, dtype=complex), ctrl.rel_tol, n + 1)[0]
    _check_finite(z)
    tol = ctrl.rel_tol
    total = 1.0 + 0.0j
    comp = 0.0 + 0.0j
    term = 1.0 + 0.0j
    if joint and n:
        term = -0.5 * n * z
        total += term
    for alpha in range(1 if joint else 0, n):
        den = (c + alpha) * (alpha + 1)
        if den == 0:
            raise PoleError(f"2F1 parameter pole: (c)_alpha vanished at alpha={alpha + 1}")
        term = term * ((-n + alpha) * (b + alpha) / den) * z
        y = term - comp  # Kahan summation
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) < tol * abs(total) + _TINY:
            break
    if not cmath.isfinite(total):
        raise NonConvergenceError("2F1 terms or sums overflowed")
    return total


def hyp1f1(a: complex, c: complex, z, ctrl: SeriesControl | None = None):
    """Kummer 1F1(a; c; z) by its power series, z a scalar or an ndarray.

    _node_series sums every element (a scalar z as a 0-d array), stops at
    the first order at which every element meets the rule and refuses
    more than ctrl.max_terms terms (ctrl defaults to DEFAULT_CONTROL).
    Where Re z < 0 the plain series cancels: there 1F1(a; c; z) =
    e^z 1F1(c - a; c; -z) (Kummer's transformation, DLMF 13.2.39) is summed
    instead.  The joint limit a, c -> 0 (a/c -> 1/2) gives 1 + (e^z - 1)/2.
    A pole c raises PoleError, a non-finite z ValueError, a spent term
    budget NonConvergenceError, and overflow a RuntimeWarning and then
    NonConvergenceError.
    """
    _check_finite(z)
    array = isinstance(z, np.ndarray)
    if a == 0 and c == 0:
        out = 1 + (np.exp(z) - 1) / 2
        return out if array else complex(out)
    if _is_nonpositive_integer(c):
        raise PoleError(f"1F1 lower parameter pole at c={c}")
    ctrl = ctrl or DEFAULT_CONTROL
    z = np.asarray(z, dtype=complex)
    flip = z.real < 0

    def series(a1, w):
        return _node_series(lambda k: (a1 + k, (c + k) * (k + 1)), w, ctrl.rel_tol,
                            ctrl.max_terms)[0]
    out = np.empty(z.shape, complex)
    out[~flip] = series(a, z[~flip])
    out[flip] = np.exp(z[flip]) * series(c - a, -z[flip])
    return out if array else complex(out)


# the stopping rule of every series: |term| < rel_tol |running sum| + _TINY,
# where _TINY (1e-15 of 1e-300) stops a series whose sum is 0 or nearly so
_TINY = 1e-315


def _check_finite(z) -> None:
    if not (np.isfinite(z).all() if isinstance(z, np.ndarray) else cmath.isfinite(z)):
        raise ValueError("series argument z must be finite")


def _node_series(ratio, z: np.ndarray, rel_tol: float, budget: int) -> tuple[np.ndarray, int]:
    """Sum of the series t_0 = 1, t_{k+1} = t_k num_k / den_k z at every
    element of z, ratio(k) giving (num_k, den_k) as Python scalars, and the
    order K of its last term.

    With r the power of two at or below max |z|, t_k = d_k w^k for the exact
    w = z / r, and the Python scalars d_k are at most the largest element's
    terms in modulus: they overflow only where those do.  K is the first
    order k <= budget at which that element's terms meet the rule |t_k| <
    rel_tol |t_0 + ... + t_k| + _TINY (the scalar 2F1 loop's), or the last
    before a zero num.  A single element (every scalar 1F1) takes that
    forward sum.  Otherwise every element is summed by Horner's rule, whose
    rounding bound is that of forward summation (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sec. 5.1), and then tested;
    while one misses the rule, the terms go on.  A zero den reached first
    raises PoleError, a non-finite z ValueError, a spent budget
    NonConvergenceError, and overflow a RuntimeWarning and then
    NonConvergenceError.
    """
    flat = z.reshape(-1)
    if not flat.size:
        return np.ones_like(z), 0
    mod = np.abs(flat)
    top = int(np.argmax(mod))  # a NaN if there is one
    if not math.isfinite(mod[top]):
        raise ValueError("series argument z must be finite")
    r = math.ldexp(1.0, math.frexp(mod[top])[1] - 1)

    def scaled():  # d_1, d_2, ...
        d = 1.0 + 0.0j
        for k in range(budget):
            num, den = ratio(k)
            if den == 0:
                raise PoleError(f"series parameter pole: a denominator vanished at order {k + 1}")
            if num == 0:
                return
            d *= num / den * r
            yield d
        _finite(np.array([d]))  # overflowed terms: a RuntimeWarning first
        raise NonConvergenceError(f"series did not converge in {budget} terms")

    d, coefs = [1.0], scaled()
    w_top, power, total = complex(flat[top]) / r, 1.0, 1.0
    for d_k in coefs:
        d.append(d_k)
        power *= w_top
        total += d_k * power
        if abs(d_k * power) < rel_tol * abs(total) + _TINY:
            break
    else:
        coefs = ()  # the series ended: every later term is 0
    K = len(d) - 1
    if flat.size == 1:
        return _finite(np.array([total], complex)).reshape(z.shape), K
    w = flat / r
    # overflow and NaN are reported by _finite; past the stop no term is formed
    with np.errstate(over="ignore", invalid="ignore"):
        acc = np.full(flat.shape, d[K], complex)
        for d_k in reversed(d[:K]):
            acc *= w
            acc += d_k
        if coefs and np.any(abs(d[K]) * (mod / r) ** K >= rel_tol * np.abs(acc) + _TINY):
            w_k = w ** K
            for K, d_k in enumerate(coefs, K + 1):
                w_k *= w
                acc += (term := d_k * w_k)
                if np.all(np.abs(term) < rel_tol * np.abs(acc) + _TINY):
                    break
    return _finite(acc).reshape(z.shape), K


def _finite(total: np.ndarray) -> np.ndarray:
    """total, unless a term or sum overflowed on the way: then the
    RuntimeWarning that the series' errstate held back, and
    NonConvergenceError, as a non-finite sum never meets the stopping rule."""
    if not np.isfinite(total.view(float)).all():
        warnings.warn("series terms or sums overflowed", RuntimeWarning)
        raise NonConvergenceError("series terms or sums overflowed")
    return total


def gamma_ratio_expansion(z: complex, a: complex, b: complex, order: int) -> complex:
    """Truncated large-z expansion of Gamma(z+a)/Gamma(z+b).

    order 0: z^(a-b)
    order 1: adds (a-b)(a+b-1)/(2z)
    order 2: adds binom(a-b, 2) (3(a+b-1)^2 - a + b - 1) / (12 z^2)
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1, or 2")
    d = a - b
    s = a + b - 1
    out = 1.0 + 0.0j
    if order >= 1:
        out += d * s / (2 * z)
    if order >= 2:
        binom = d * (d - 1) / 2
        out += binom * (3 * s * s - d - 1) / (12 * z * z)
    return complex(z ** d * out)

