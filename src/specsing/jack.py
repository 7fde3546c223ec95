"""Generalized hypergeometric functions based on Jack polynomials at equal
arguments: partition enumeration, generalized Pochhammer symbols, the
principal specialization C_k^(alpha)(1^m), truncated pFq^(alpha) series,
and the duality/ratio transformation.

The C-normalization is pinned by the sum rule
    sum_{|k| = n} C_k^(alpha)(x 1_m) = (m x)^n,
which the principal-specialization product below satisfies identically.

A series is summed on a cached partition tree.  A terminating series that
sums its whole m x n box shares the tree of the m x w box, w the least
power of two >= n, while that tree is small (_SHARED_NODES): the m x n box
is parent-closed in it, so every term inside is formed from the same
factors along the same path as on the box's own tree, and the nodes with
k_1 > n are set to zero and left out of the sums.  A sweep over the box
widths then builds one tree per power of two instead of one per n.
"""
from __future__ import annotations

import cmath
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
    the box (row, col), both 0-based; row 0 has parent 0 and box (0, 0).
    `parts`, `row` and `col` are int16 where the weights fit (int64
    otherwise), and `parent` is intp.

    The rest orders the terms for _sweep.  `scan` lists the partitions
    shell by shell, the root first, then the shells in decreasing order of
    the lowest set bit of their weight (ties by increasing weight); arrays
    "in scan order" are indexed like `scan`.  In that order shell
    block_weights[b] starts at blocks[b], and `sweeps` holds the (start,
    end, src) passes of _sweep, src indexing the scan order too.  Every
    array is read-only."""
    parts: np.ndarray
    parent: np.ndarray
    row: np.ndarray
    col: np.ndarray
    starts: tuple
    scan: np.ndarray
    sweeps: tuple
    blocks: np.ndarray
    block_weights: np.ndarray


# the node budget of _partition_tree.  Summing a series holds about 140
# bytes per node: the cached tree (about 50, of which 24 are the scan order
# and the sweeps), the cached Jack ratios and contents (16) and the complex
# arrays _pfq_shells forms (about 64).  The largest trees admitted peak near
# 600 MB.  beta = 6, N = 32 (2,324,784 nodes) is admitted; beta = 6, N >= 36
# and beta = 4, N >= 99 (4,249,575 nodes) are not.
_MAX_NODES = 2 ** 22

# the most partitions a whole-box tree shared by every n in (w/2, w] may
# hold (_box_width).  Measured (2-CPU VM): a build (_jack_tree) costs a flat
# 120-330 us, growing with m, up to about 2,000 nodes, then about 0.13 us a
# node, and a series about 0.035 us a node.  Past the cap the wider tree's
# extra nodes cost more than a build saves: m = 4, n = 33 would go from
# 66,045 to 814,385 nodes (a build of 8 ms to one of 108 ms).  Under it,
# m = 2 shares widths up to 64, m = 4 and m = 6 up to 8.
_SHARED_NODES = 2 ** 12


def _tree_size(m: int, max_weight: int, max_part: int) -> float:
    """The number of nodes of _partition_tree(m, max_weight, max_part),
    counted without building it.  The partitions that fit in an m x P box,
    P = min(max_part, max_weight), are counted by weight by the Gaussian
    binomial [m + P choose m]_q = prod_{i=1..m} (1 - q^(P+i)) / (1 - q^i),
    whose coefficients are summed up to q^max_weight.  In float64: exact
    while the count is below 2^53, since no coefficient formed exceeds it."""
    top = min(max_part, max_weight)
    w = min(max_weight, m * top)
    c = np.zeros(w + 1)
    c[0] = 1
    for i in range(1, m + 1):
        if top + i <= w:
            c[top + i:] -= c[:w + 1 - top - i]      # times 1 - q^(P+i)
        # over 1 - q^i: a running sum along each residue class mod i
        padded = np.zeros(-(-(w + 1) // i) * i)
        padded[:w + 1] = c
        c = padded.reshape(-1, i).cumsum(axis=0).ravel()[:w + 1]
    return float(c.sum())


@lru_cache(maxsize=16)
def _partition_tree(m: int, max_weight: int, max_part: int) -> _PartitionTree:
    """Built in m vectorized passes, one per row (0-based).  Pass 0 lists
    the first parts min(max_part, max_weight), ..., 1, 0; pass r lists below
    each node k_0..k_{r-1} of pass r - 1 the nodes with k_r = min(k_{r-1},
    max_weight - k_0 - ... - k_{r-1}), ..., 1, 0.  The nodes of the last pass
    are the partitions, zero-padded and reverse-lexicographic overall, so a
    stable sort on the weight alone makes them graded.  The partitions below
    a node are contiguous and end with that node padded by zeros.  So a
    partition whose last nonzero part is k_r is the last one below its node
    of pass r, and its parent is the last one below the next node of that
    pass (k_r one less): parents are located, not searched for.

    The nodes are counted first (_tree_size), and past _MAX_NODES
    NonConvergenceError is raised before the tree is allocated."""
    if m < 1:
        raise ValueError("need m >= 1")
    if max_weight < 0:
        raise ValueError("need max_weight >= 0")
    # C(max_weight + m, m) m-tuples bound the count: most trees stop there
    if (math.comb(max_weight + m, m) > _MAX_NODES
            and (size := _tree_size(m, max_weight, max_part)) > _MAX_NODES):
        raise NonConvergenceError(
            f"Jack series tree of {size:.0f} partitions (m = {m}, weight <= "
            f"{max_weight}, parts <= {max_part}) exceeds the {_MAX_NODES}-node budget")
    # int16 (radix-sorted by argsort) while every part, weight and count fits
    small = np.int16 if max(m, max_weight) < 2 ** 15 - 1 else np.int64
    vals = [np.arange(min(max_part, max_weight), -1, -1, dtype=small)]
    weight, ends = vals[0], []
    for _ in range(m - 1):
        cnt = np.minimum(vals[-1], max_weight - weight) + 1
        end = np.cumsum(cnt)
        v = (np.repeat(end - 1, cnt) - np.arange(end[-1])).astype(small)
        weight = np.repeat(weight, cnt) + v
        vals.append(v)
        ends.append(end)
    n = len(weight)
    # last[r][j]: the last partition below node j of pass r < m - 1
    last = [None] * (m - 1)
    for r in range(m - 2, -1, -1):
        last[r] = ends[r] - 1 if r == m - 2 else last[r + 1][ends[r] - 1]
    order = np.argsort(weight, kind="stable")
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    # columns: the parts, then the added box's row and col, gathered at once;
    # padded to a power-of-two width, which np.take copies 4 times faster
    rows = np.empty((n, 1 << (m + 1).bit_length()), dtype=small)
    rows[:, m - 1] = vals[-1]
    rows[:, m] = m - 1
    rows[:, m + 1] = vals[-1] - 1
    up = np.empty(n, dtype=np.intp)   # the parent's graded position
    up[:-1] = pos[1:]
    # a partition is the last below its nodes of passes r..m-1, r the row of
    # its last nonzero part, so going down pass r writes it last
    for r in range(m - 2, -1, -1):
        j = last[r]
        rows[:, r] = np.repeat(vals[r], np.diff(j, prepend=-1))
        up[j[:-1]] = pos[j[1:]]
        rows[j, m] = r
        rows[j, m + 1] = vals[r] - 1
    up[-1] = 0
    rows[-1, m:] = 0                  # the empty partition
    rows = np.take(rows, order, axis=0)
    # row and col contiguous: _jack_tree computes with them at every box
    arrays = rows[:, :m], up[order], rows[:, m].copy(), rows[:, m + 1].copy()
    sizes = np.bincount(weight)
    starts = (0,) + tuple(np.cumsum(sizes).tolist())
    scan, sweeps, blocks, block_weights = _sweep_plan(arrays[1], sizes)
    for a in arrays + (scan, blocks, block_weights) + tuple(t[2] for t in sweeps):
        a.setflags(write=False)   # shared by every caller through the cache
    return _PartitionTree(*arrays, starts, scan, sweeps, blocks, block_weights)


def _box_width(m: int, n: int) -> int:
    """The part bound of the tree that sums a whole m x n box: the least
    power of two w >= n if the m x w box holds at most _SHARED_NODES
    partitions (C(w + m, m) of them), n otherwise."""
    w = 1 << (n - 1).bit_length() if n else 0
    return w if math.comb(w + m, m) <= _SHARED_NODES else n


def _sweep_plan(parent: np.ndarray, sizes: np.ndarray) -> tuple:
    """scan, sweeps, blocks and block_weights of _PartitionTree, from the
    graded parents and the shell sizes.  Let lowbit(w) = w & -w.  The nodes
    whose weight is a nonzero multiple of 2^i then follow the root in scan
    order, up to ends[i].  Level l up-sweeps those up to ends[l + 1] from
    their ancestors 2^l generations up (of lowbit 2^l, so up to ends[l]),
    and down-sweeps the nodes of lowbit 2^l from theirs (a multiple of
    2^(l + 1), or the root).  So the ancestors of level l + 1 are those of
    level l taken twice, on the nodes up to ends[l + 1] only."""
    depth, n = len(sizes) - 1, int(sizes.sum())
    levels = depth.bit_length()              # the l with 2^l <= depth
    w = np.arange(depth + 1)
    lowbit = w & -w
    lowbit[0] = 1 << levels                  # the root leads
    block_weights = np.lexsort((w, -lowbit))
    size = sizes[block_weights]
    blocks = np.cumsum(size) - size
    graded = np.cumsum(sizes) - sizes
    scan = np.arange(n) + np.repeat(graded[block_weights] - blocks, size)
    pos = np.empty_like(scan)
    pos[scan] = np.arange(n)
    cut = np.searchsorted(-lowbit[block_weights], -(1 << np.arange(levels + 1)),
                          side="right")
    ends = np.append(blocks, n)[cut].tolist()
    up, down = [], []
    anc = pos[parent[scan]]                  # in scan order, up to ends[l]
    for l in range(levels):
        k = ends[l + 1] - 1
        if k:
            up.append((1, ends[l + 1], anc[1:k + 1]))
        down.append((ends[l + 1], ends[l], anc[k + 1:]))
        anc = anc[anc[:ends[l + 1]]]
    return scan, tuple(up + down[::-1]), blocks, block_weights


def _sweep(values: np.ndarray, tree: _PartitionTree):
    """In place, turn per-node factors (in scan order, the root's 1) into
    their products along each path from the root: a work-efficient scan
    (Blelloch, IEEE Trans. Comput. 38 (1989) 1526-1538) on the tree.  The
    up-sweep leaves at each node whose weight has lowbit 2^j the product of
    its 2^j nearest factors; the down-sweep multiplies it by the finished
    product at its ancestor 2^j up.  That is 2 ceil(log2(depth + 1)) - 1
    vectorized passes (none at depth 0) and about 2 multiplications per
    node.  Each product is a finished ancestor's times the factors between,
    as in a node-by-node walk, so nodes share their ancestors' rounding
    errors as they do there; doubling every node's reach in each pass
    (Hillis and Steele, CACM 29 (1986) 1170-1183) shares less, and sums that
    cancel come out less accurate.  On booleans the products are ands."""
    for start, end, src in tree.sweeps:
        values[start:end] *= values[src]


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


def _hyp2f1_unit(n: int, b: complex, c: complex, alpha: float, m: int) -> complex:
    """2F1^(alpha)(-n, b; c; 1^m) = [c - b]_(n^m) / [c]_(n^m) (Kaneko, SIAM J.
    Math. Anal. 24 (1993) 1086-1110), as a product of per-box ratios, which
    cannot overflow where the ratio does not.  ZeroDivisionError at [c] = 0."""
    return math.prod(((c - b + k - j / alpha) / (c + k - j / alpha)
                      for j in range(m) for k in range(n)), start=1 + 0j)


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
    """The partition tree; per partition k, J(k) / J(parent) with
    J(k) = C_k^(alpha)(1^m) / |k|!; and the alpha-content
    (j - 1) - (i - 1)/alpha of k's added box (i, j), both read-only float64
    arrays in the tree's scan order.

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
    ratio, content = ratio[tree.scan], (j - i / alpha)[tree.scan]
    ratio.setflags(write=False)
    content.setflags(write=False)
    return tree, ratio, content


def _box_factors(params, content: np.ndarray) -> np.ndarray:
    """prod over params of (a + c) at each added box, c its alpha-content:
    the ratio [a]_k / [a]_parent of generalized Pochhammer symbols."""
    out = np.ones(len(content), dtype=complex)
    for a in params:
        out *= content + complex(a)
    return out


def hyper_pfq_alpha(a_list, b_list, alpha: float, m: int, x: complex,
                    max_weight: int = 40) -> complex:
    """pFq^(alpha)(a_1..a_p; b_1..b_q; x 1_m), summed by shells of equal
    partition weight with a three-shell geometric tail test (each below
    1e-14 of the sum).

    Each term is its parent's times x J(k)/J(parent) prod_a (a + c) /
    prod_b (b + c), c the alpha-content (j-1) - (i-1)/alpha of the added box
    (Koev and Edelman, Math. Comp. 75 (2006) 833-846), so no term is formed
    from C_k(1^m), alpha^|k| or |k|!.  The products along the tree are taken
    in vectorized passes (_sweep): a partial product is the ratio of a term
    to an ancestor's, which can overflow where no term does; a shell that is
    not finite raises NonConvergenceError.  A numerator parameter
    -n (n a nonnegative integer) makes every term with k_1 > n vanish, and
    those partitions are left out of the sum: the tree bounds k_1 by n, or,
    when it is shared by a whole box (see _pfq_shells), holds them with
    their terms set to zero and unsummed.  A zero denominator factor raises
    ZeroDivisionError unless the numerator of that term vanishes too.  alpha
    must be positive and finite and x finite; otherwise ValueError is
    raised.  A tree past _MAX_NODES partitions raises NonConvergenceError
    before it is built.

    A terminating series (a numerator -n) whose whole m x n box of
    partitions fits in max_weight (m n <= max_weight) is summed exactly and
    returned without the tail test.
    """
    return complex(np.sum(_pfq_shells(a_list, b_list, alpha, m, x, max_weight)))


def _pfq_shells(a_list, b_list, alpha: float, m: int, x: complex,
                max_weight: int) -> np.ndarray:
    """hyper_pfq_alpha's series by shells: entry w sums the terms of weight w,
    which is homogeneous of degree w in x.  Raises as hyper_pfq_alpha does.

    Every term is the product of the steps (term / parent's term) along its
    path from the root: the steps are formed in scan order, with the root's
    set to 1, and _sweep multiplies them out in place, in 2 ceil(log2(depth
    + 1)) - 1 vectorized passes rather than one pass per shell.

    A whole m x n box (m n <= max_weight) is summed on the tree of the m x w
    box (_box_width).  There the nodes with k_1 > n, below the box, get a
    zero step (and a unit denominator, so no pole outside the box raises),
    and each shell sums its inside nodes alone, packed and in graded order,
    as the box's own tree holds them."""
    alpha, m = float(alpha), int(m)
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be positive and finite")
    if not cmath.isfinite(x):
        raise ValueError("series argument x must be finite")
    orders = [int(-a.real) for a in map(complex, a_list)
              if a.imag == 0 and a.real <= 0 and a.real.is_integer()]
    max_part = min([max_weight, *orders])
    whole = bool(orders) and m * min(orders) <= max_weight   # the whole m x n box
    width = _box_width(m, max_part) if whole else max_part
    tree, ratio, content = _jack_tree(m, m * width if whole else max_weight,
                                      alpha, width)
    terms = _box_factors(a_list, content)   # the steps, formed in place
    den = _box_factors(b_list, content)
    if width > max_part:
        # a shared tree: the box is parent-closed in it, so the nodes with
        # k_1 > n only hang below it; they take no part in the sums
        outside = tree.parts[tree.scan, 0] > max_part
        terms[outside], den[outside] = 0, 1
    den[0] = 1   # the root's step, which is 1
    pole = den == 0
    if pole.any():
        _check_poles(tree, terms, pole)
        terms[pole], den[pole] = 0, 1
    terms /= den
    terms *= ratio
    terms *= x
    terms[0] = 1
    shells = np.zeros(max_weight + 1, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        _sweep(terms, tree)
        if width > max_part:
            # each shell summed over its inside nodes alone, contiguous and in
            # graded order as on the box's own tree: numpy's sums round by
            # position, so zeros between them would move the sum
            inside = np.flatnonzero(~outside)
            keep = tree.block_weights <= m * max_part
            shells[tree.block_weights[keep]] = np.add.reduceat(
                terms[inside], np.searchsorted(inside, tree.blocks[keep]))
        else:
            shells[tree.block_weights] = np.add.reduceat(terms, tree.blocks)
    bad = np.flatnonzero(~np.isfinite(shells))
    if len(bad):
        raise NonConvergenceError(
            f"pFq^(alpha) shell {bad[0]} is not finite (its terms overflow)")
    if whole:
        return shells   # every term of the terminating series is summed
    scale = max(abs(np.sum(shells)), 1e-300)
    tail = np.abs(shells[-3:])
    if np.all(tail < 1e-14 * scale):
        return shells
    raise NonConvergenceError(
        f"pFq^(alpha) truncation at weight {max_weight} not converged "
        f"(last shells {tail / scale})")


def _check_poles(tree: _PartitionTree, num: np.ndarray, pole: np.ndarray):
    """Raise ZeroDivisionError where a denominator factor vanishes while the
    term's numerator prod_a [a]_k does not (a zero numerator shields it);
    the box factors along each path are and-ed by the passes of the terms."""
    alive = num != 0
    alive[0] = True
    _sweep(alive, tree)
    if (alive & pole).any():
        raise ZeroDivisionError("pole in denominator parameter")


def duality_ratio_2f1(n: int, b: complex, c: complex, alpha: float, m: int,
                      t: complex) -> complex:
    """2F1^(1/alpha)(-n, b; c; (t)^m) computed through the transformed ratio

        2F1^(1/alpha)(-n, b; c'; ((1-t))^m) / 2F1^(1/alpha)(-n, b; c'; (1)^m),
        c' = -n + b + 1 + alpha (m - 1) - c.

    The numerator sums its whole m x n box, the denominator is in closed
    form (_hyp2f1_unit).  When c' is a pole of the transformed series (for
    every t), the direct series in t, which terminates too, is summed instead.
    """
    cprime = -n + b + 1 + alpha * (m - 1) - c
    inv, top = 1.0 / alpha, [complex(-n), b]
    try:
        num = hyper_pfq_alpha(top, [cprime], inv, m, 1 - t, max_weight=m * n)
        den = _hyp2f1_unit(n, b, cprime, inv, m)
    except ZeroDivisionError:
        return hyper_pfq_alpha(top, [c], inv, m, t, max_weight=m * n)
    return num / den
