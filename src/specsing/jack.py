"""Generalized hypergeometric functions based on Jack polynomials at equal
arguments: partition enumeration, generalized Pochhammer symbols, the
principal specialization C_k^(alpha)(1^m), truncated pFq^(alpha) series,
and the duality/ratio transformation.

The C-normalization is pinned by the sum rule
    sum_{|k| = n} C_k^(alpha)(x 1_m) = (m x)^n,
which the principal-specialization product below satisfies identically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .series import NonConvergenceError, pochhammer


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing nonnegative integer tuple (trailing zeros dropped)."""
    parts: tuple

    def __post_init__(self):
        parts = tuple(int(x) for x in self.parts if x > 0)
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        if any(x < 0 for x in self.parts):
            raise ValueError("parts must be nonnegative")
        object.__setattr__(self, "parts", parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def conjugate(self) -> tuple:
        if not self.parts:
            return ()
        return tuple(sum(1 for p in self.parts if p > j) for j in range(self.parts[0]))


@dataclass(frozen=True)
class _PartitionTree:
    """Partitions with at most m parts, weight <= max_weight and first part
    <= max_part, as zero-padded rows of `parts`, in graded order: shell w is
    the slice starts[w]:starts[w + 1], and within a shell the order is
    reverse-lexicographic.  Row 0 is the empty partition.  Every other
    partition is its parent (itself less the last box of its last row) plus
    the box (row, col), both 0-based."""
    parts: np.ndarray
    parent: np.ndarray
    row: np.ndarray
    col: np.ndarray
    starts: tuple


@lru_cache(maxsize=16)
def _partition_tree(m: int, max_weight: int, max_part: int) -> _PartitionTree:
    """Shell w + 1 holds the children of shell w, parent by parent: first the
    one with its last row grown by a box, then the one with a new row of one
    box.  Every partition has exactly one parent, so it appears once, and
    the children of a reverse-lexicographically larger parent come first."""
    if m < 1:
        raise ValueError("need m >= 1")
    if max_weight < 0:
        raise ValueError("need max_weight >= 0")
    P = np.zeros((1, m), dtype=np.int64)
    L = np.zeros(1, dtype=np.int64)
    parts, parent, row, col, starts = [P], [np.zeros(1, np.int64)], [L], [L], [0, 1]
    for _ in range(max_weight):
        idx = np.arange(len(L))
        last = P[idx, np.maximum(L - 1, 0)]
        cap = np.where(L >= 2, P[idx, np.maximum(L - 2, 0)], max_part)
        grow = (L >= 1) & (last < cap)
        new = (L < m) & ((L >= 1) | (max_part >= 1))
        keep = np.stack([grow, new], axis=1).ravel()
        r = np.stack([L - 1, L], axis=1).ravel()[keep]
        if not len(r):
            break
        P = np.repeat(P, 2, axis=0)[keep]
        k = np.arange(len(r))
        P[k, r] += 1
        parts.append(P)
        parent.append(np.repeat(idx + starts[-2], 2)[keep])
        row.append(r)
        col.append(P[k, r] - 1)
        starts.append(starts[-1] + len(r))
        L = r + 1
    arrays = [np.concatenate(a) for a in (parts, parent, row, col)]
    for a in arrays:
        a.setflags(write=False)   # shared by every caller through the cache
    return _PartitionTree(*arrays, tuple(starts))


@lru_cache(maxsize=64)
def partitions_up_to(m: int, max_weight: int) -> tuple:
    """All partitions with at most m parts and weight <= max_weight, in
    graded order: by nondecreasing weight, and within one weight in
    reverse-lexicographic order (largest first part first)."""
    tree = _partition_tree(m, max_weight, max_weight)
    return tuple(Partition(tuple(parts)) for parts in tree.parts.tolist())


def gen_pochhammer(a: complex, k: Partition, alpha: float) -> complex:
    """[a]_k^(alpha) = prod_j (a - (j-1)/alpha)_{k_j} (rising factorials)."""
    out = 1.0 + 0.0j
    for j, kj in enumerate(k.parts, start=1):
        out *= pochhammer(a - (j - 1) / alpha, kj)
    return out


@lru_cache(maxsize=200000)
def _jack_one_cached(parts: tuple, alpha: float, m: int) -> float:
    kc = Partition(parts).conjugate()
    w = sum(parts)
    num = 1.0
    den = 1.0
    for i, ki in enumerate(parts, start=1):
        for j in range(1, ki + 1):
            arm = ki - j
            leg = kc[j - 1] - i
            num *= m + alpha * (j - 1) - (i - 1)
            den *= (alpha * arm + leg + 1) * (alpha * (arm + 1) + leg)
    return alpha ** w * math.factorial(w) * num / den


def jack_principal(k: Partition, alpha: float, m: int, x: complex) -> complex:
    """C_k^(alpha)(x, ..., x) with m arguments, via homogeneity."""
    if len(k) > m:
        raise ValueError("partition has more parts than arguments")
    return _jack_one_cached(k.parts, float(alpha), int(m)) * x ** k.weight


@lru_cache(maxsize=16)
def _jack_tree(m: int, max_weight: int, alpha: float, max_part: int) -> tuple:
    """The partition tree and, per partition k, J(k) / J(parent) with
    J(k) = C_k^(alpha)(1^m) / |k|!.

    The added box (i, j) ends the last row, so every leg in row i is 0 and
    that row's hook factors telescope to h(j - 1, 0); of the other boxes only
    the i - 1 of column j change their leg, from i - 1 - r to i - r:

        J(k) / J(parent) = alpha (m + alpha (j - 1) - (i - 1)) / h(j - 1, 0)
                           * prod_{r < i} h(k_r - j, i - 1 - r) / h(k_r - j, i - r),
        h(a, l) = (alpha a + l + 1) (alpha (a + 1) + l)

    (1-based i, j, r; for m = 1 it is 1/j).
    """
    tree = _partition_tree(m, max_weight, max_part)
    i, j = tree.row, tree.col

    def h(a, leg):
        return (alpha * a + leg + 1) * (alpha * (a + 1) + leg)

    ratio = alpha * (m + alpha * j - i) / h(j, 0)
    for r in range(m - 1):
        arm, leg = tree.parts[:, r] - j - 1, i - r
        ratio *= np.divide(h(arm, leg - 1), h(arm, leg), out=np.ones(len(i)),
                           where=r < i)
    ratio.setflags(write=False)
    return tree, ratio


def _box_factors(params, tree: _PartitionTree, alpha: float) -> np.ndarray:
    """prod over params of (a - (i-1)/alpha + j - 1) at each added box: the
    ratio [a]_k / [a]_parent of generalized Pochhammer symbols."""
    shifts = np.arange(tree.parts.shape[1]) / alpha
    out = np.ones(len(tree.row), dtype=complex)
    for a in params:
        out *= (complex(a) - shifts)[tree.row] + tree.col
    return out


def hyper_pfq_alpha(a_list, b_list, alpha: float, m: int, x: complex,
                    max_weight: int = 40, rel_tol: float = 1e-14) -> complex:
    """pFq^(alpha)(a_1..a_p; b_1..b_q; x 1_m), summed shell-by-shell in the
    partition weight with a three-shell geometric tail test.

    Each term is its parent's times x J(k)/J(parent) prod_a (a + c) /
    prod_b (b + c), c the alpha-content (j-1) - (i-1)/alpha of the added box
    (Koev and Edelman, Math. Comp. 75 (2006) 833-846), so a term overflows
    only where the true term does; a shell that is not finite raises
    NonConvergenceError.  A numerator parameter -n (n a nonnegative integer)
    makes every term with k_1 > n vanish, and those partitions are never
    enumerated.  A zero denominator factor raises ZeroDivisionError unless
    the numerator of that term vanishes too.

    Terminating series (a nonpositive-integer numerator parameter) are summed
    exactly when max_weight covers the termination range.
    """
    alpha, m = float(alpha), int(m)
    max_part = max_weight
    for a in map(complex, a_list):
        if a.imag == 0 and a.real <= 0 and a.real.is_integer():
            max_part = min(max_part, int(-a.real))
    tree, ratio = _jack_tree(m, max_weight, alpha, max_part)
    num = _box_factors(a_list, tree, alpha)
    den = _box_factors(b_list, tree, alpha)
    pole = den == 0
    pole[0] = False
    if pole.any():
        _check_poles(tree, num, pole)
        num[pole], den[pole] = 0, 1
    step = x * ratio * num / den
    starts = tree.starts
    terms = np.empty(len(step), dtype=complex)
    terms[0] = 1
    shells = np.zeros(max_weight + 1, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for s, e in zip(starts[1:-1], starts[2:]):
            terms[s:e] = terms[tree.parent[s:e]] * step[s:e]
        shells[:len(starts) - 1] = np.add.reduceat(terms, starts[:-1])
    bad = np.flatnonzero(~np.isfinite(shells))
    if len(bad):
        raise NonConvergenceError(
            f"pFq^(alpha) shell {bad[0]} is not finite (its terms overflow)")
    total = np.sum(shells)
    scale = max(abs(total), 1e-300)
    tail = np.abs(shells[-3:])
    if np.all(tail < rel_tol * scale):
        return complex(total)
    raise NonConvergenceError(
        f"pFq^(alpha) truncation at weight {max_weight} not converged "
        f"(last shells {tail / scale})")


def _check_poles(tree: _PartitionTree, num: np.ndarray, pole: np.ndarray):
    """Raise ZeroDivisionError where a denominator factor vanishes while the
    term's numerator prod_a [a]_k does not (a zero numerator shields it)."""
    alive = num != 0
    alive[0] = True
    starts = tree.starts
    for s, e in zip(starts[1:-1], starts[2:]):
        alive[s:e] &= alive[tree.parent[s:e]]
    if (alive & pole).any():
        raise ZeroDivisionError("pole in denominator parameter")


def duality_ratio_2f1(n: int, b: complex, c: complex, alpha: float, m: int,
                      t: complex, max_weight: int = 60) -> complex:
    """2F1^(1/alpha)(-n, b; c; (t)^m) computed through the transformed ratio

        2F1^(1/alpha)(-n, b; c'; ((1-t))^m) / 2F1^(1/alpha)(-n, b; c'; (1)^m),
        c' = -n + b + 1 + alpha (m - 1) - c.

    When c' is a pole of the transformed series (for every t), the direct
    series in t is summed instead; it terminates at weight m n.
    """
    cprime = -n + b + 1 + alpha * (m - 1) - c
    inv = 1.0 / alpha
    try:
        num = hyper_pfq_alpha([complex(-n), b], [cprime], inv, m, 1 - t,
                              max_weight=max(max_weight, m * (n + 1)))
        den = hyper_pfq_alpha([complex(-n), b], [cprime], inv, m, 1.0 + 0.0j,
                              max_weight=max(max_weight, m * (n + 1)))
    except ZeroDivisionError:
        return hyper_pfq_alpha([complex(-n), b], [c], inv, m, t,
                               max_weight=max(max_weight, m * n + 3))
    return num / den
