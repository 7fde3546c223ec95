"""Complex special-function primitives: log-gamma, Pochhammer symbols,
terminating Gauss 2F1, Kummer 1F1, and the large-argument gamma-ratio
expansion.

All gamma evaluations go through the principal-branch log-gamma so that
ratios with large arguments can be formed as exp of log differences.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma as _loggamma


class PoleError(ValueError):
    """Gamma (or Pochhammer denominator) evaluated at a nonpositive integer."""


class NonConvergenceError(RuntimeError):
    """A series failed to meet its tolerance within the term budget."""


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for hypergeometric series.

    rel_tol: term magnitude cutoff relative to the running sum.
    max_terms: hard cap on the number of summed terms.
    """
    rel_tol: float = 1e-15
    max_terms: int = 2000

    def __post_init__(self):
        if not (0 < self.rel_tol < 1):
            raise ValueError("rel_tol must lie in (0, 1)")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


DEFAULT_CONTROL = SeriesControl()


def default_control(n: int = 0) -> SeriesControl:
    """Default truncation policy, sized for degree-n terminating sums."""
    return SeriesControl(rel_tol=1e-15, max_terms=10 * int(n) + 200)


def _is_nonpositive_integer(z: complex, tol: float = 1e-12) -> bool:
    zr, zi = np.real(z), np.imag(z)
    return abs(zi) < tol and zr <= 0.5 and abs(zr - round(zr)) < tol


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z)."""
    if _is_nonpositive_integer(z):
        raise PoleError(f"log_gamma pole at z={z}")
    return complex(_loggamma(complex(z)))


def gammaf(z: complex) -> complex:
    """Gamma(z) = exp(log_gamma(z)); raises PoleError at nonpositive integers."""
    return complex(np.exp(log_gamma(z)))


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
    # large n: if the product passes through a nonpositive integer it is 0
    ar, ai = np.real(a), np.imag(a)
    if abs(ai) < 1e-14 and abs(ar - round(ar)) < 1e-14 and -round(ar) < n and ar <= 0:
        return 0.0 + 0.0j
    return complex(np.exp(_loggamma(complex(a + n)) - _loggamma(complex(a))))


def hyp2f1_terminating(n: int, b: complex, c: complex, z,
                       ctrl: SeriesControl | None = None):
    """2F1(-n, b; c; z) as the finite sum over alpha = 0..n.

    Truncates early once terms drop below ctrl.rel_tol relative to the
    running sum (safe when |n z| stays O(1), as in the scaled-kernel use).
    z may be an ndarray: the recurrence then runs elementwise (as for
    hyp1f1) until the terms of every element meet rel_tol, or to the end.
    """
    if n < 0:
        raise ValueError("terminating order n must be nonnegative")
    ctrl = ctrl or default_control(n)

    def ratio(alpha):
        # t_{alpha+1} = t_alpha num / den z; alpha = n gives 0, which ends the sum
        if alpha == 0 and b == 0 and c == 0:
            # joint limit b, c -> 0 with b/c -> 1/2 (weight p -> 0 at q = 0)
            return -0.5 * n, 1.0
        denom = (c + alpha) * (alpha + 1) if alpha < n else 1.0
        if denom == 0:
            raise PoleError(f"2F1 parameter pole: (c)_alpha vanished at alpha={alpha + 1}")
        return (-n + alpha) * (b + alpha), denom

    if isinstance(z, np.ndarray):
        return _kahan_series(ratio, z.astype(complex), ctrl.rel_tol, n + 1)
    total = 1.0 + 0.0j
    comp = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for alpha in range(n):
        num, den = ratio(alpha)
        term = term * (num / den) * z
        if alpha == 0 and b == 0 and c == 0:  # the joint limit's first term
            total += term
            continue
        y = term - comp  # Kahan summation
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) < ctrl.rel_tol * max(abs(total), 1e-300):
            break
    return total


def hyp1f1(a: complex, c: complex, z, ctrl: SeriesControl | None = None):
    """Kummer 1F1(a; c; z) by its power series with Kahan summation.

    z may be an ndarray: the same recurrence then runs elementwise until
    the terms of every element meet rel_tol.
    """
    if c == 0 and a == 0:
        # joint limit a, c -> 0 with a/c -> 1/2: 1 + (e^z - 1)/2
        out = 1 + (np.exp(z) - 1) / 2
        return out if isinstance(z, np.ndarray) else complex(out)
    if _is_nonpositive_integer(c):
        raise PoleError(f"1F1 lower parameter pole at c={c}")
    ctrl = ctrl or DEFAULT_CONTROL
    if isinstance(z, np.ndarray):
        return _kahan_series(lambda k: (a + k, (c + k) * (k + 1)), z.astype(complex),
                             ctrl.rel_tol, ctrl.max_terms)
    total = 1.0 + 0.0j
    comp = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(ctrl.max_terms):
        term = term * (a + k) / ((c + k) * (k + 1)) * z
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) < ctrl.rel_tol * max(abs(total), 1e-300):
            return total
    raise NonConvergenceError(
        f"1F1 series did not converge in {ctrl.max_terms} terms "
        f"(last |term|={abs(term):.3e})")


def _kahan_series(ratio, z: np.ndarray, rel_tol: float, max_terms: int) -> np.ndarray:
    """Elementwise Kahan sum of the series t_0 = 1, t_{k+1} = t_k num / den z
    with (num, den) = ratio(k), until the terms of every element are below
    rel_tol of its running sum."""
    total = np.ones_like(z)
    comp = np.zeros_like(z)
    term = np.ones_like(z)
    for k in range(max_terms):
        num, den = ratio(k)
        term = term * num / den * z
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if (np.abs(term) < rel_tol * np.maximum(np.abs(total), 1e-300)).all():
            return total
    raise NonConvergenceError(
        f"series did not converge in {max_terms} terms "
        f"(largest last |term|={np.max(np.abs(term)):.3e})")


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

